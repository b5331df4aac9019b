"""Uniform periodic simplicial meshes on (0,R)^d and the P1 element toolkit.

The mesh splits every cell of a uniform n^d grid into d! path simplices
(intervals for d=1, two triangles per square, six tetrahedra per cube), with
opposite faces identified so there are exactly n**d degrees of freedom.  This
family is closed under dyadic refinement, which makes nodal prolongation
exact and lets the rate harness compare levels without interpolation error.

All integrals are evaluated with one fixed simplex quadrature rule, exact to
degree 4: the cubic nonlinearity times a P1 test function is degree 4, and
the discrete energy identity holds to rounding only when those integrals are
exact.  States are plain coefficient arrays: nodal values of the P1 function.

Every cell holds the same d! simplex types, so what is constant within a type
is kept once per type.  Quadrature-point work runs one type block at a time
and reduces into per-element buffers, and the operators are assembled on a
sparsity pattern read off the types' stencil, by one scatter routine shared
by M, A and the Newton Jacobian.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .errors import SolverError, ValidationError

MASS_SOLVE_RTOL = 1e-12


class PeriodicMesh:
    """Geometry and connectivity of the periodic path-simplex mesh.

    Attributes
    ----------
    d, R, n, h : dimension, period, cells per axis, mesh size R/n
    vertices : (n**d, d) dof coordinates
    elements : (E, d+1) dof index per element corner, E = d! * n**d; type t
        is rows t*n**d to (t+1)*n**d - 1, one per cell in `vertices` order
    volumes : (E,) element measures (all equal to h**d / d!)
    offsets : (d!, d+1, d) integer corner offsets of each type; see corners(t)
    grads : (d!, d+1, d) constant gradients of the P1 basis on each type
    """

    def __init__(self, d, R, n):
        if d not in (1, 2, 3):
            raise ValidationError(f"d must be one of 1, 2, 3 (got {d})")
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
            raise ValidationError(f"n must be an integer >= 2 (got {n!r})")
        if not np.isfinite(R) or R <= 0:
            raise ValidationError(f"R must be a positive real number (got {R!r})")
        self.d = int(d)
        self.R = float(R)
        self.n = int(n)
        self.h = self.R / self.n

        cells = self._cells()
        self.vertices = cells * self.h

        types = list(itertools.permutations(range(d)))
        self.offsets = np.zeros((len(types), d + 1, d), dtype=np.int64)
        self.grads = np.zeros((len(types), d + 1, d))
        for t, perm in enumerate(types):
            offsets, grads = self.offsets[t], self.grads[t]
            for step, axis in enumerate(perm):
                offsets[step + 1] = offsets[step]
                offsets[step + 1, axis] += 1
            grads[0, perm[0]] = -1.0 / self.h
            for step in range(1, d):
                grads[step, perm[step - 1]] = 1.0 / self.h
                grads[step, perm[step]] = -1.0 / self.h
            grads[d, perm[d - 1]] = 1.0 / self.h
        g = cells[None, :, None, :] + self.offsets[:, None, :, :]  # (d!, n^d, d+1, d)
        self.elements = np.ravel_multi_index(
            tuple(np.moveaxis(g % self.n, -1, 0)), (self.n,) * d
        ).reshape(-1, d + 1)
        vol = self.h**d
        for m in range(2, d + 1):
            vol /= m
        self.volumes = np.full(len(self.elements), vol)

    def _cells(self):
        """Integer lower corners of the cells, (n**d, d), in dof order."""
        return np.indices((self.n,) * self.d).reshape(self.d, -1).T

    def corners(self, t):
        """Unwrapped corner coordinates of the type-t elements, (n**d, d+1, d)."""
        return (self._cells()[:, None, :] + self.offsets[t]) * self.h

    @property
    def dof_count(self):
        return self.n**self.d

    def metadata(self):
        return {
            "d": self.d,
            "R": self.R,
            "n": self.n,
            "h": self.h,
            "dofs": self.dof_count,
            "elements": int(len(self.elements)),
        }


class FemSpace:
    """P1 space on a PeriodicMesh plus assembled mass/stiffness operators.

    Every cell of the periodic grid holds the same simplices, so M, A and
    M + kA are multilevel circulant: the n^d-point real FFT of a first
    column, reshaped to (n,)*d, is the operator's spectrum (Strang 1986;
    Chan & Ng 1996).  The space keeps the spectra m̂ and â of M and A,
    real since both are symmetric, and `fft_solve` solves against any such
    spectrum: `solve_mass` with m̂, and the d = 3 Newton preconditioner of
    stepper with m̂ + k·â, made once per k and kept in `_preconditioners`.
    The element matrices are kept per type too: `_mass_data` and
    `_stiff_data` are read-only broadcasts, shape (d!, n^d, d+1, d+1), of
    the one element mass matrix and the d! type stiffness matrices.

    Quadrature-point work runs one type block at a time: `blocks` holds the
    d! slices of `mesh.elements`, one per type.  The kernels `integrate`,
    `load_vector` and `system_matrix` take a pointwise callable and the
    fields it reads; for each block they evaluate the fields there, apply
    the callable and reduce into a per-element buffer, so no (E, Q) array
    is formed at d >= 2.  A field is a coefficient vector, evaluated by
    `element_values`, or a callable of the block, such as `quad_positions`
    or a field held by `hold`.

    M, A and every system matrix share one read-only CSC pattern, taken
    from the stencil of the d! types: column j holds the dofs j + s for
    each offset s between two corners of one type.  `_slot` gives the place
    in it of each element entry, and `_assemble` sums element matrices into
    it by one scatter in element order.

    ``lumped=True`` switches every integral to the nodal vertex rule,
    which diagonalises the mass matrix but is exact only to degree 1, so
    the per-step energy identity no longer holds to rounding (the identity
    suite reports that configuration as an expected failure).
    """

    def __init__(self, mesh, lumped=False):
        self.mesh = mesh
        self.lumped = bool(lumped)
        if self.lumped:
            pts, wts = quadrature.vertex_rule(mesh.d)
            self.quad_degree = 1
        else:
            pts, wts = quadrature.simplex_rule(mesh.d)
            self.quad_degree = 4
        self.quad_points = pts          # (Q, d+1) barycentric = P1 values
        self.quad_weights = wts         # (Q,), sums to 1
        # w_q * lam_j(q) * lam_k(q), ready for weighted-mass assembly
        self._wjk = np.einsum("q,qj,qk->qjk", wts, pts, pts)

        cells, types, nl = mesh.dof_count, len(mesh.grads), mesh.d + 1
        self.blocks = tuple(slice(t * cells, (t + 1) * cells) for t in range(types))
        self._shape = (cells, cells)

        # one mass matrix (all volumes are equal), one stiffness per type
        vol = mesh.volumes[0]
        shape = (types, cells, nl, nl)
        self._mass_data = np.broadcast_to(self._wjk.sum(axis=0) * vol, shape)
        stiff = np.einsum("tjd,tkd->tjk", mesh.grads, mesh.grads) * vol
        self._stiff_data = np.broadcast_to(stiff[:, None], shape)
        # read-only, since every assembled matrix shares them
        self._indptr, self._indices = self._stencil_pattern()
        self._slot = self._slots()
        for a in (self._slot, self._indices, self._indptr):
            a.flags.writeable = False
        self.mass = self._assemble(self._mass_data)
        self.stiffness = self._assemble(self._stiff_data)
        self._grid = (mesh.n,) * mesh.d
        self.mass_spectrum = self._spectrum(self.mass)
        self.stiffness_spectrum = self._spectrum(self.stiffness)
        # k -> the Newton preconditioner of stepper at d >= 2, a
        # LinearOperator that solves M + kA; made and kept by stepper
        self._preconditioners = {}
        self._exact_twin = None

    # -- assembly helpers -------------------------------------------------

    def _stencil_pattern(self):
        """CSC (indptr, indices), int32, of every element coupling: column j
        holds the dofs j + s, sorted, for s in the stencil of corner offset
        differences of the d! types; a wrapped repeat (n = 2) is kept once."""
        mesh = self.mesh
        offsets = mesh.offsets
        stencil = np.unique((offsets[:, :, None] - offsets[:, None]).reshape(-1, mesh.d), axis=0)
        cells = mesh._cells()
        table = np.zeros((len(cells), len(stencil)), dtype=np.int64)
        for axis in range(mesh.d):  # raveled (cell + s) mod n, axis 0 slowest
            table *= mesh.n
            table += (cells[:, axis, None] + stencil[:, axis]) % mesh.n
        table.sort(axis=1)
        keep = np.ones(table.shape, dtype=bool)
        keep[:, 1:] = table[:, 1:] != table[:, :-1]
        indptr = np.zeros(len(table) + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, table[keep].astype(np.int32)

    def _slots(self):
        """Place in the pattern's data of each element entry (j, k), the
        coupling of row elements[e, j] with column elements[e, k]; int32,
        shape (E, d+1, d+1), found one type block at a time."""
        dofs = self.mesh.dof_count
        # the (column, row) keys of a canonical CSC pattern are sorted
        keys = np.repeat(np.arange(dofs) * dofs, np.diff(self._indptr)) + self._indices
        nl = self.mesh.d + 1
        slot = np.empty((len(self.mesh.elements), nl, nl), dtype=np.int32)
        for block in self.blocks:
            el = self.mesh.elements[block]
            slot[block] = np.searchsorted(keys, el[:, None, :] * dofs + el[:, :, None])
        return slot

    def _assemble(self, element_data):
        """Canonical CSC matrix on the cached pattern from element matrices
        given block by block, each (n^d, d+1, d+1), summed into their slots
        in element order: the first block by a bincount, each later one by
        np.add.at, so each entry gets the bits of one bincount over all."""
        data = None
        for block, values in zip(self.blocks, element_data):
            slots, values = self._slot[block].ravel(), values.ravel()
            if data is None:  # bincount sums in order too, and is faster
                data = np.bincount(slots, weights=values, minlength=len(self._indices))
            else:  # raveled: numpy's fast path of ufunc.at takes one index axis
                np.add.at(data, slots, values)
        return sp.csc_matrix((data, self._indices, self._indptr), shape=self._shape)

    def _spectrum(self, matrix):
        """Real spectrum of a circulant element matrix, shape (n,)*(d-1) +
        (n//2+1,); read-only."""
        column = matrix[:, [0]].toarray().reshape(self._grid)
        spectrum = np.ascontiguousarray(np.fft.rfftn(column).real)
        spectrum.flags.writeable = False
        return spectrum

    def system_matrix(self, k, f, *fields):
        """Sparse M + k*(A + W), with W the mass matrix weighted by
        f(*values), the nonlinearity derivative at the quadrature points.

        Returns a canonical CSC matrix on the cached pattern of M + A, built
        by `_assemble`; the index arrays are shared, read-only.
        """

        nl = self.mesh.d + 1
        wjk = self._wjk.reshape(len(self.quad_weights), nl * nl)

        def element_data():
            vol = self.mesh.volumes[0]
            for t, block in enumerate(self.blocks):
                # the product np.tensordot forms, without its reshaping overhead
                wdata = (f(*self._values(fields, block)) @ wjk).reshape(-1, nl, nl)
                # summed in place: each further temporary is page-faulted anew
                wdata *= vol
                wdata += self._stiff_data[t]
                wdata *= k
                wdata += self._mass_data[t]
                yield wdata

        return self._assemble(element_data())

    # -- pointwise evaluation and integration ------------------------------

    def element_values(self, coeffs, block):
        """Values of the P1 function at the quadrature points of the
        elements in block, one of `blocks`; shape (n^d, Q)."""
        return np.asarray(coeffs)[self.mesh.elements[block]] @ self.quad_points.T

    def quad_positions(self, block):
        """Positions (n^d, Q, d) of the quadrature points of block, one of
        `blocks`: the field that a callable of position reads."""
        corners = self.mesh.corners(block.start // self.mesh.dof_count)
        return np.einsum("qj,ejd->eqd", self.quad_points, corners)

    def hold(self, coeffs):
        """coeffs as a field for kernels that read it repeatedly.  Where one
        block covers the mesh (d = 1), its element values are formed now
        and held; otherwise each kernel evaluates coeffs block by block."""
        if len(self.blocks) > 1:
            return coeffs
        values = self.element_values(coeffs, self.blocks[0])
        return lambda block: values

    def _values(self, fields, block):
        """The values of each field at the quadrature points of block."""
        return [f(block) if callable(f) else self.element_values(f, block) for f in fields]

    def integrate(self, f, *fields):
        """Integral over the torus of f(*values), values those of the fields
        at the quadrature points."""
        sums = np.empty(len(self.mesh.elements))
        for block in self.blocks:
            sums[block] = f(*self._values(fields, block)) @ self.quad_weights
        # a numpy sum, not a BLAS dot: the same bits at every thread count
        return sums.sum() * self.mesh.volumes[0]

    def load_vector(self, f, *fields):
        """Assemble b_i = int f(*values) * phi_i, values those of the fields
        at the quadrature points."""
        be = np.empty((len(self.mesh.elements), self.mesh.d + 1))
        for block in self.blocks:
            values = f(*self._values(fields, block)) * self.quad_weights
            np.matmul(values, self.quad_points, out=be[block])
        be *= self.mesh.volumes[0]
        return np.bincount(
            self.mesh.elements.ravel(), weights=be.ravel(), minlength=self.mesh.dof_count
        )

    # -- linear algebra -----------------------------------------------------

    def fft_solve(self, spectrum, rhs):
        """Solve C x = rhs for the circulant C whose spectrum is given."""
        values = np.fft.rfftn(np.reshape(rhs, self._grid)) / spectrum
        return np.fft.irfftn(values, s=self._grid, axes=range(self.mesh.d)).ravel()

    def solve_mass(self, rhs):
        """Solve M x = rhs by `fft_solve` with the mass spectrum, checking
        the residual."""
        # an overflowing rhs is reported by the finite check, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.fft_solve(self.mass_spectrum, rhs)
            resid = np.linalg.norm(self.mass @ x - rhs)
            rnorm = np.linalg.norm(rhs)
        if not (np.isfinite(resid) and np.isfinite(rnorm)):
            raise SolverError(
                f"mass solve residual {resid:.3e} or |rhs| {rnorm:.3e} is not finite"
            )
        if not resid <= MASS_SOLVE_RTOL * (1.0 + rnorm):
            raise SolverError(
                f"mass solve residual {resid:.3e} exceeds contract "
                f"{MASS_SOLVE_RTOL:.1e} * (1 + |rhs|)"
            )
        return x

    def exact_twin(self):
        """Same mesh, degree-4 quadrature: the space whose integrals are exact
        for the quartic terms.  Returns self when already exact."""
        if not self.lumped:
            return self
        if self._exact_twin is None:
            self._exact_twin = FemSpace(self.mesh)
        return self._exact_twin

    def metadata(self):
        md = self.mesh.metadata()
        md["quad_degree"] = self.quad_degree
        md["lumped"] = self.lumped
        return md


def l2_project(space, g):
    """L2 projection of a callable of position arrays (..., d) onto the space;
    returns the coefficient vector."""
    return space.solve_mass(space.load_vector(g, space.quad_positions))


def _path_dofs(cells, axis_order, n):
    """Dof indices of the path simplex with given corner cells and axis order.

    cells: (B, d) integer lower corners; axis_order: (B, d) axis visited at
    each step.  Returns (B, d+1) raveled periodic dof indices.
    """
    B, d = cells.shape
    g = np.repeat(cells[:, None, :], d + 1, axis=1)
    step = np.zeros((B, d + 1, d), dtype=np.int64)
    rows = np.arange(B)[:, None]
    for m in range(d):
        step[rows, m + 1, axis_order[:, m : m + 1]] = 1
    g = g + np.cumsum(step, axis=1)
    return np.ravel_multi_index(tuple(np.moveaxis(g % n, -1, 0)), (n,) * d)


def prolongation_matrix(coarse_mesh, fine_mesh):
    """Nodal interpolation operator from the coarse space into the fine one.

    Requires the same torus and a dyadic refinement ratio; on this mesh
    family the fine mesh refines the coarse one, so prolongation is exact
    as functions (norm-preserving), which the tests pin down.
    """
    if coarse_mesh.d != fine_mesh.d or coarse_mesh.R != fine_mesh.R:
        raise ValidationError(
            "prolongation requires meshes on the same torus "
            f"(got d={coarse_mesh.d},{fine_mesh.d} R={coarse_mesh.R},{fine_mesh.R})"
        )
    nc, nf = coarse_mesh.n, fine_mesh.n
    if nf % nc != 0:
        raise ValidationError(f"fine n={nf} is not a multiple of coarse n={nc}")
    r = nf // nc
    if r & (r - 1):
        raise ValidationError(f"refinement ratio must be a power of two (got {r})")

    d = coarse_mesh.d
    fine_idx = np.indices((nf,) * d).reshape(d, -1).T  # (nf^d, d)
    cells = fine_idx // r
    t = (fine_idx % r) / r  # exact binary fractions
    order = np.argsort(-t, axis=1, kind="stable")  # descending coordinates
    s = np.take_along_axis(t, order, axis=1)
    lam = np.empty((len(fine_idx), d + 1))
    lam[:, 0] = 1.0 - s[:, 0]
    for m in range(1, d):
        lam[:, m] = s[:, m - 1] - s[:, m]
    lam[:, d] = s[:, d - 1]
    dofs = _path_dofs(cells, order, nc)

    rows = np.repeat(np.arange(len(fine_idx)), d + 1)
    mask = lam.ravel() != 0.0
    P = sp.coo_matrix(
        (lam.ravel()[mask], (rows[mask], dofs.ravel()[mask])),
        shape=(nf**d, nc**d),
    )
    return P.tocsr()
