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
is kept once per type.  The corners of all elements of one type are shifted
copies of the dof grid, so a field is read through its corner grid, its
values at cell + o for each cube corner o, and quadrature-point work runs one
type at a time as small BLAS products on quadrature-major (Q, n^d) arrays.
The operators are assembled on a sparsity pattern read off the types'
stencil, by one scatter routine shared by M, A and the Newton Jacobian.
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
    volume : the measure h**d / d! shared by every element
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
        # kept: its temporaries raise glibc's mmap threshold, saving 44k faults per d = 3 study
        g = cells[None, :, None, :] + self.offsets[:, None, :, :]  # (d!, n^d, d+1, d)
        self.elements = np.ravel_multi_index(
            tuple(np.moveaxis(g % self.n, -1, 0)), (self.n,) * d
        ).reshape(-1, d + 1)
        self.volume = self.h**d
        for m in range(2, d + 1):
            self.volume /= m

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
    Chan & Ng 1996).  The space keeps the spectra m̂ and â of M and A,
    real since both are symmetric, and `fft_solve` solves against any such
    spectrum: `solve_mass` with m̂, and the d = 3 Newton preconditioner of
    stepper with m̂ + k·â, formed with each Jacobian.

    A field is read at the quadrature points through its corner grid:
    `hold(c)`, shape (2^d, n^d), whose row for the cube corner o in {0,1}^d
    holds c at cell + o for every cell (`_corner_dofs` is the gather
    table).  The corners of the type-t elements are d + 1 of those rows, so
    `element_values(c, t)` is one BLAS product `_corner_matrices[t] @ grid`
    of shape (Q, n^d), with the barycentric values of the quadrature points
    in the type's corner columns.  The kernels `integrate`, `load_vector`
    and `system_matrix` take a pointwise callable and the fields it reads;
    for each type in `types` they evaluate the fields, apply the callable
    and reduce over the quadrature points by one BLAS product whose small
    matrix holds the weights: `integrate` by `quad_weights @ values`,
    `load_vector` by `_load_matrices[t] @ values` into one (2^d, n^d)
    corner load, scattered to the dofs by one bincount, and `system_matrix`
    by (k vol w_q lam_j lam_k)^T @ values into the rows of the type's
    couplings (below).  A field is a coefficient vector, whose corner grid
    the kernel gathers once per call, a corner grid from `hold`, for a
    field that several calls read, or a callable of the type index, such as
    `quad_positions`.

    M, A and every system matrix share one read-only CSC pattern, taken
    from the stencil of the d! types: column j holds the dofs j + s for
    each offset s between two corners of one type.  Element matrices are
    summed per coupling, a pair (o, o') of corners of one type, which
    couples cell + o with cell + o' in every cell: entry (j, k) of type t
    goes to coupling `_couplings[t, j*(d+1) + k]`.  `_slot`, shape
    (couplings, n^d), gives the place in the pattern of each coupling in
    each cell, and `_assemble` scatters the coupling data: by one bincount
    for a system matrix, and one coupling at a time for M and A, whose
    coupling data are the same in every cell.

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

        d, dofs, nl = mesh.d, mesh.dof_count, mesh.d + 1
        self.types = range(len(mesh.grads))
        self._shape = (dofs, dofs)
        vol = mesh.volume

        # cube corners o in {0,1}^d, numbered as the dofs are (axis 0 slowest)
        self._corner_dofs = self._shifted_dofs(np.indices((2,) * d).reshape(d, -1).T)
        corner = mesh.offsets @ (1 << np.arange(d)[::-1])  # (d!, d+1) corner numbers
        self._corner_matrices = np.zeros((len(self.types), len(wts), 2**d))
        for t in self.types:
            self._corner_matrices[t][:, corner[t]] = pts
        # b_o = vol * sum_q w_q P[q, o] * values_q, one (2^d, Q) matrix per type
        self._load_matrices = np.ascontiguousarray(
            (vol * wts[:, None] * self._corner_matrices).transpose(0, 2, 1)
        )

        # the couplings (o, o') of two corners of one type, numbered in the
        # order of o * 2^d + o'; entry j*(d+1) + k of type t couples its
        # corners j and k, coupling number _couplings[t, j*(d+1) + k]
        codes = (corner[:, :, None] << d) + corner[:, None, :]
        pairs, couplings = np.unique(codes, return_inverse=True)
        self._couplings = couplings.reshape(len(self.types), nl * nl)
        # one mass matrix (all elements share one volume), one stiffness per type,
        # each summed per coupling in type order
        mass = np.tile(self._wjk.sum(axis=0).ravel() * vol, len(self.types))
        self._mass_coupling = np.bincount(self._couplings.ravel(), weights=mass)
        stiff = np.einsum("tjd,tkd->tjk", mesh.grads, mesh.grads) * vol
        self._stiff_coupling = np.bincount(self._couplings.ravel(), weights=stiff.ravel())
        # read-only, since every assembled matrix shares them
        self._indptr, self._indices = self._stencil_pattern()
        self._slot = self._slots(pairs >> d, pairs & (2**d - 1))
        for a in (self._slot, self._indices, self._indptr, self._corner_dofs):
            a.flags.writeable = False
        self.mass = self._assemble(self._mass_coupling)
        self.stiffness = self._assemble(self._stiff_coupling)
        self._grid = (mesh.n,) * d
        self.mass_spectrum = self._spectrum(self.mass)
        self.stiffness_spectrum = self._spectrum(self.stiffness)
        # k -> the Newton preconditioner of stepper at d = 2, a
        # LinearOperator that solves M + kA by its LU; made and kept by stepper
        self._preconditioners = {}
        self._exact_twin = None

    # -- assembly helpers -------------------------------------------------

    def _shifted_dofs(self, shifts):
        """The dofs (cell + s) mod n, raveled, for each shift s (S, d) and
        each cell in dof order: shape (S, n^d)."""
        mesh = self.mesh
        cells = mesh._cells()
        table = np.zeros((len(shifts), len(cells)), dtype=np.intp)
        for axis in range(mesh.d):  # axis 0 slowest
            table *= mesh.n
            table += (cells[:, axis] + shifts[:, axis, None]) % mesh.n
        return table

    def _stencil_pattern(self):
        """CSC (indptr, indices), int32, of every element coupling: column j
        holds the dofs j + s, sorted, for s in the stencil of corner offset
        differences of the d! types; a wrapped repeat (n = 2) is kept once."""
        offsets = self.mesh.offsets
        differences = (offsets[:, :, None] - offsets[:, None]).reshape(-1, self.mesh.d)
        stencil = np.unique(differences, axis=0)
        table = self._shifted_dofs(stencil).T
        table.sort(axis=1)
        keep = np.ones(table.shape, dtype=bool)
        keep[:, 1:] = table[:, 1:] != table[:, :-1]
        indptr = np.zeros(len(table) + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, table[keep].astype(np.int32)

    def _slots(self, rows, cols):
        """Place in the pattern's data of the coupling of cell + o with
        cell + o', for the corners o = rows[c], o' = cols[c] of each coupling
        c and each cell; int32, shape (couplings, n^d)."""
        dofs = self.mesh.dof_count
        # the (column, row) keys of a canonical CSC pattern are sorted
        keys = np.repeat(np.arange(dofs) * dofs, np.diff(self._indptr)) + self._indices
        corners = self._corner_dofs
        slot = np.empty((len(rows), dofs), dtype=np.int32)
        for c, (o, o2) in enumerate(zip(rows, cols)):  # one row at a time: small temporaries
            slot[c] = np.searchsorted(keys, corners[o2] * dofs + corners[o])
        return slot

    def _assemble(self, coupling_data):
        """Canonical CSC matrix on the cached pattern from the element data
        summed per coupling: (couplings, n^d) by one bincount, or (couplings,)
        values, the same in every cell, one coupling at a time.  Each entry
        gets the same bits either way: its terms summed in coupling order."""
        if coupling_data.ndim == 1:  # no (couplings, n^d) temporaries
            data = np.zeros(len(self._indices))
            for slot, value in zip(self._slot, coupling_data):
                data[slot] += value  # the slots of one coupling are distinct
        else:
            data = np.bincount(
                self._slot.ravel(), weights=coupling_data.ravel(), minlength=len(self._indices)
            )
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
        # k * vol * w_q * lam_j(q) * lam_k(q), ((d+1)^2, Q)
        weights = (k * self.mesh.volume) * self._wjk.reshape(len(self.quad_weights), -1).T
        fields = self._held(fields)
        # per coupling: the sum of M_t + k*A_t, then of each type's weighted mass
        data = np.empty(self._slot.shape)
        data[:] = (self._mass_coupling + k * self._stiff_coupling)[:, None]
        for t, couplings in zip(self.types, self._couplings):
            # the type's data first: `data[couplings] +=` would gather before it
            data[couplings] = weights @ f(*self._values(fields, t)) + data[couplings]
        return self._assemble(data)

    # -- pointwise evaluation and integration ------------------------------

    def hold(self, coeffs):
        """The corner grid of coeffs, (2^d, n^d): the field that kernels read
        without gathering coeffs again."""
        return np.asarray(coeffs)[self._corner_dofs]

    def element_values(self, field, t):
        """Values at the quadrature points of the type-t elements, (Q, n^d),
        of a coefficient vector or of its corner grid from `hold`."""
        grid = field if np.ndim(field) == 2 else self.hold(field)
        return self._corner_matrices[t] @ grid

    def quad_positions(self, t):
        """Positions (Q, n^d, d) of the quadrature points of the type-t
        elements: the field that a callable of position reads."""
        return np.einsum("qj,ejd->qed", self.quad_points, self.mesh.corners(t))

    def _held(self, fields):
        """The fields, each coefficient vector replaced by its corner grid."""
        return [f if callable(f) or np.ndim(f) == 2 else self.hold(f) for f in fields]

    def _values(self, fields, t):
        """The values of each field at the quadrature points of type t."""
        return [f(t) if callable(f) else self.element_values(f, t) for f in fields]

    def integrate(self, f, *fields):
        """Integral over the torus of f(*values), values those of the fields
        at the quadrature points."""
        fields = self._held(fields)
        sums = np.empty((len(self.types), self.mesh.dof_count))
        for t in self.types:
            np.matmul(self.quad_weights, f(*self._values(fields, t)), out=sums[t])
        # a numpy sum, not a BLAS dot: the same bits at every thread count
        return sums.sum() * self.mesh.volume

    def load_vector(self, f, *fields):
        """Assemble b_i = int f(*values) * phi_i, values those of the fields
        at the quadrature points."""
        fields = self._held(fields)
        # the corner loads (2^d, n^d), summed in type order
        loads = self._load_matrices[0] @ f(*self._values(fields, 0))
        for t in self.types[1:]:
            loads += self._load_matrices[t] @ f(*self._values(fields, t))
        return np.bincount(
            self._corner_dofs.ravel(), weights=loads.ravel(), minlength=self.mesh.dof_count
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


def prolongation_matrix(coarse_mesh, fine_mesh):
    """Nodal interpolation operator from the coarse space into the fine one.

    Requires the same torus and a dyadic refinement ratio; on this mesh
    family the fine mesh refines the coarse one, so prolongation is exact
    as functions (norm-preserving), which the tests pin down.  A fine vertex
    lies in the coarse element of its cell whose type visits the axes in the
    descending order of the vertex's fractional coordinates (Bey 2000); its
    corners are read from the coarse mesh's element table.
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
    # barycentric coordinates: the gaps between 1, the sorted coordinates and 0
    lam = np.diff(-s, axis=1, prepend=-1.0, append=0.0)
    # the coarse element holding each fine vertex: in its cell, of the type
    # whose axis order is the vertex's
    axis_orders = np.diff(coarse_mesh.offsets, axis=1).argmax(-1)  # (d!, d)
    types = (order[:, None, :] == axis_orders).all(-1).argmax(-1)
    cell = np.ravel_multi_index(tuple(cells.T), (nc,) * d)
    dofs = coarse_mesh.elements[types * nc**d + cell]

    mask = lam != 0.0
    rows = np.broadcast_to(np.arange(len(lam))[:, None], lam.shape)
    return sp.csr_matrix((lam[mask], (rows[mask], dofs[mask])), shape=(nf**d, nc**d))
