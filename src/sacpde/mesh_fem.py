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
    elements : (E, d+1) dof index per element corner, E = d! * n**d
    corners : (E, d+1, d) unwrapped corner coordinates (for quadrature)
    volumes : (E,) element measures (all equal to h**d / d!)
    grads : (E, d+1, d) constant gradients of the P1 basis on each element
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

        cells = np.indices((self.n,) * d).reshape(d, -1).T  # (n^d, d)
        self.vertices = cells * self.h

        elem_blocks, corner_blocks, grad_blocks = [], [], []
        for perm in itertools.permutations(range(d)):
            offsets = np.zeros((d + 1, d), dtype=np.int64)
            for step, axis in enumerate(perm):
                offsets[step + 1] = offsets[step]
                offsets[step + 1, axis] += 1
            g = cells[:, None, :] + offsets[None, :, :]  # (n^d, d+1, d)
            dofs = np.ravel_multi_index(
                tuple(np.moveaxis(g % self.n, -1, 0)), (self.n,) * d
            )
            elem_blocks.append(dofs)
            corner_blocks.append(g * self.h)
            grads = np.zeros((d + 1, d))
            grads[0, perm[0]] = -1.0 / self.h
            for step in range(1, d):
                grads[step, perm[step - 1]] = 1.0 / self.h
                grads[step, perm[step]] = -1.0 / self.h
            grads[d, perm[d - 1]] = 1.0 / self.h
            grad_blocks.append(np.broadcast_to(grads, (self.n**d, d + 1, d)))

        self.elements = np.concatenate(elem_blocks).astype(np.int64)
        self.corners = np.concatenate(corner_blocks)
        self.grads = np.ascontiguousarray(np.concatenate(grad_blocks))
        vol = self.h**d
        for m in range(2, d + 1):
            vol /= m
        self.volumes = np.full(len(self.elements), vol)

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

        el = mesh.elements
        nl = mesh.d + 1
        rows = np.repeat(el, nl, axis=1).ravel()
        cols = np.tile(el, (1, nl)).ravel()
        self._shape = (mesh.dof_count, mesh.dof_count)

        vol = mesh.volumes[:, None, None]
        mass_data = np.broadcast_to(
            self._wjk.sum(axis=0), (len(el), nl, nl)
        ) * vol
        stiff_data = np.einsum("ejd,ekd->ejk", mesh.grads, mesh.grads) * vol
        self.mass = self._from_data(mass_data, rows, cols)
        self.stiffness = self._from_data(stiff_data, rows, cols)
        self._mass_data = mass_data.ravel()
        self._stiff_data = stiff_data.ravel()
        # CSC pattern of M + A (every element coupling) and the slot in it of
        # each element entry; read-only, since every system matrix shares it
        pattern = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=self._shape)
        self._indices, self._indptr = pattern.indices, pattern.indptr
        # canonical CSC: the (column, row) keys of the slots are sorted
        dofs = mesh.dof_count
        slot_cols = np.repeat(np.arange(dofs), np.diff(self._indptr))
        self._slot = np.searchsorted(slot_cols * dofs + self._indices, cols * dofs + rows)
        for a in (self._slot, self._indices, self._indptr):
            a.flags.writeable = False
        self._grid = (mesh.n,) * mesh.d
        self.mass_spectrum = self._spectrum(self.mass)
        self.stiffness_spectrum = self._spectrum(self.stiffness)
        # k -> the Newton preconditioner of stepper at d >= 2, a
        # LinearOperator that solves M + kA; made and kept by stepper
        self._preconditioners = {}
        self._exact_twin = None

    # -- assembly helpers -------------------------------------------------

    def _from_data(self, data, rows, cols):
        coo = sp.coo_matrix((np.asarray(data).ravel(), (rows, cols)), shape=self._shape)
        return coo.tocsr()

    def _spectrum(self, matrix):
        """Real spectrum of a circulant element matrix, shape (n,)*(d-1) +
        (n//2+1,); read-only."""
        column = matrix[:, [0]].toarray().reshape(self._grid)
        spectrum = np.ascontiguousarray(np.fft.rfftn(column).real)
        spectrum.flags.writeable = False
        return spectrum

    def system_matrix(self, k, weight_values):
        """Sparse M + k*(A + W) with W the weighted mass for ``weight_values``.

        weight_values has shape (E, Q): the nonlinearity derivative at the
        quadrature points.  Returns a canonical CSC matrix on the cached
        pattern of M + A: one bincount sums the element entries into their
        slots, and the index arrays are shared, read-only.
        """
        wdata = np.tensordot(weight_values, self._wjk, axes=(1, 0))
        wdata *= self.mesh.volumes[:, None, None]
        data = self._mass_data + k * (self._stiff_data + wdata.ravel())
        data = np.bincount(self._slot, weights=data, minlength=len(self._indices))
        return sp.csc_matrix((data, self._indices, self._indptr), shape=self._shape)

    # -- pointwise evaluation and integration ------------------------------

    def element_values(self, coeffs):
        """Values of the P1 function at all quadrature points, shape (E, Q)."""
        return np.asarray(coeffs)[self.mesh.elements] @ self.quad_points.T

    def physical_quad_points(self):
        """Positions of all quadrature points, shape (E, Q, d)."""
        return np.einsum("qj,ejd->eqd", self.quad_points, self.mesh.corners)

    def integrate(self, values):
        """Integral over the torus of per-quadrature-point values (..., E, Q)."""
        v = np.asarray(values)
        return (v @ self.quad_weights) @ self.mesh.volumes

    def load_vector(self, values):
        """Assemble b_i = int values * phi_i from point values (E, Q)."""
        be = (values * self.quad_weights) @ self.quad_points
        be *= self.mesh.volumes[:, None]
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
    xq = space.physical_quad_points()
    b = space.load_vector(np.asarray(g(xq), dtype=float))
    return space.solve_mass(b)


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
