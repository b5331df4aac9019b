"""Fourier-Galerkin reference solver on the circle (d = 1).

The state is the half-spectrum of a real trigonometric polynomial with modes
up to N: u = c_0 + 2 Re sum_{m=1..N} c_m exp(2 pi i m x / R).  Products are
evaluated on a zero-padded collocation grid that never drops below 4N+1
points, which makes the projected cubic reaction term exact on the retained
modes — the truncated-space energy identity needs exactly that (the common
3/2-rule padding is only exact for quadratic products, so the default pad
factor here is 2).

The implicit step solves the same two-level scheme as the element stepper,
by Newton iteration in coefficient space with the exact Jacobian; the Newton
systems are solved matrix-free (diagonal split plus FFT convolution,
iterated to rounding stagnation) with a dense full-spectrum solve as the
fallback when the time step is too large for the split to contract.  All
per-path arithmetic is row-local, so stepping a batch of paths gives
bit-identical results for any partition of the batch — the report
reproducibility contract across path counts rests on this.
"""

import numpy as np
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz

from .errors import StepFailure, ValidationError
from .model import EnergyBreakdown, f_mixed, f_mixed_dy
from .mesh_fem import Field
from .stepper import IdentityCheck

_INNER_CAP = 400


def _row_dot(values, w):
    """Weighted reduction over the last axis, one fixed-order dot per row.

    A single 2-d matrix-vector product may pick a different BLAS kernel (and
    accumulation order) depending on the batch height, which would make the
    per-path statistics depend on which paths share a batch.
    """
    v = np.asarray(values)
    if v.ndim == 1:
        return np.dot(v, w)
    out = np.empty(v.shape[:-1])
    for idx in np.ndindex(v.shape[:-1]):
        out[idx] = np.dot(v[idx], w)
    return out


class SpectralSpace:
    """Truncated Fourier space: period R, modes 0..n_modes, dealiased grid."""

    def __init__(self, R, n_modes, pad=2.0):
        if not np.isfinite(R) or R <= 0:
            raise ValidationError(f"R must be a positive real number (got {R!r})")
        if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
            raise ValidationError(f"spectral_modes must be a positive integer (got {n_modes!r})")
        if not pad >= 1.5:
            raise ValidationError(f"spectral_pad must be >= 1.5 (got {pad!r})")
        self.R = float(R)
        self.n_modes = int(n_modes)
        self.pad = float(pad)
        wanted = int(np.ceil(self.pad * (2 * self.n_modes + 1)))
        self.grid_size = next_fast_len(max(wanted, 4 * self.n_modes + 1))
        self.x_grid = self.R * np.arange(self.grid_size) / self.grid_size
        m = np.arange(self.n_modes + 1)
        self.eigenvalues = (2.0 * np.pi * m / self.R) ** 2
        # weights of |c_m|^2 in the L2 norm: R for m=0, 2R otherwise
        self._l2w = np.full(self.n_modes + 1, 2.0 * self.R)
        self._l2w[0] = self.R

    @property
    def coeff_count(self):
        return self.n_modes + 1

    def to_grid(self, coeffs):
        c = np.asarray(coeffs)
        buf = np.zeros(c.shape[:-1] + (self.grid_size // 2 + 1,), dtype=complex)
        buf[..., : self.coeff_count] = c
        return np.fft.irfft(buf * self.grid_size, n=self.grid_size, axis=-1)

    def to_modes(self, values):
        return np.fft.rfft(values, axis=-1)[..., : self.coeff_count] / self.grid_size

    def l2_norm(self, coeffs):
        c = np.asarray(coeffs)
        return np.sqrt(_row_dot(np.real(c * np.conj(c)), self._l2w))

    def h1_seminorm(self, coeffs):
        c = np.asarray(coeffs)
        return np.sqrt(_row_dot(np.real(c * np.conj(c)) * self.eigenvalues, self._l2w))

    def inner(self, a, b):
        """Real L2 inner product of the two represented functions."""
        return _row_dot(np.real(np.asarray(a) * np.conj(b)), self._l2w)

    def grid_integral(self, values):
        """Trapezoidal integral over the period; exact below the grid bandwidth."""
        return np.asarray(values).sum(axis=-1) * (self.R / self.grid_size)

    def metadata(self):
        return {
            "R": self.R,
            "n_modes": self.n_modes,
            "pad": self.pad,
            "grid_size": self.grid_size,
        }


class SpectralField:
    """Half-spectrum coefficients bound to their space."""

    __slots__ = ("space", "coeffs", "name")

    def __init__(self, space, coeffs, name=""):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (space.coeff_count,):
            raise ValidationError(
                f"coeffs must have shape ({space.coeff_count},), got {coeffs.shape}"
            )
        self.space = space
        self.coeffs = coeffs
        self.name = name

    def copy(self):
        return SpectralField(self.space, self.coeffs.copy(), self.name)


def spectral_project(space, g, name=""):
    """L2 projection of a callable of positions (..., 1) onto the mode cut."""
    vals = np.asarray(g(space.x_grid[:, None]), dtype=float)
    return SpectralField(space, space.to_modes(vals), name)


def spectral_energy(space, coeffs):
    c = np.asarray(coeffs)
    grad = 0.5 * float((np.real(c * np.conj(c)) * space.eigenvalues) @ space._l2w)
    u = space.to_grid(c)
    psi = 0.25 * float(space.grid_integral((u * u - 1.0) ** 2))
    return EnergyBreakdown(grad, psi)


def _jacobi_linsolve(space, k, D, g, rhs):
    """Solve (diag(D) + k * mode_cut[g * .]) delta = rhs, rows independent.

    Fixed-point on the diagonal split, iterated until each row's update
    stagnates at rounding level; rows that fail to contract are re-solved
    densely over the full spectrum.  All stopping decisions are row-local.
    """
    delta = rhs / D
    prev_update = np.full(len(rhs), np.inf)
    open_rows = np.arange(len(rhs))
    for _ in range(_INNER_CAP):
        d_open = delta[open_rows]
        new = (rhs[open_rows] - k * space.to_modes(g[open_rows] * space.to_grid(d_open))) / D
        upd = np.max(np.abs(new - d_open), axis=-1)
        scale = 1e-15 * (1.0 + np.max(np.abs(new), axis=-1))
        delta[open_rows] = new
        finished = (upd <= scale) | (upd >= prev_update[open_rows])
        prev_update[open_rows] = upd
        open_rows = open_rows[~finished]
        if len(open_rows) == 0:
            return delta
    for r in open_rows:
        delta[r] = _dense_linsolve(space, k, D, g[r], rhs[r])
    return delta


def _dense_linsolve(space, k, D, g_row, rhs_row):
    """Full-spectrum Toeplitz solve of one Newton system (large-k fallback)."""
    N = space.n_modes
    ghat = np.fft.fft(g_row) / space.grid_size
    col = ghat[np.arange(0, 2 * N + 1) % space.grid_size]
    row = ghat[np.arange(0, -2 * N - 1, -1) % space.grid_size]
    J = k * toeplitz(col, row)
    D_full = np.concatenate([D[:0:-1], D])
    J[np.arange(2 * N + 1), np.arange(2 * N + 1)] += D_full
    r_full = np.concatenate([np.conj(rhs_row[:0:-1]), rhs_row])
    sol = np.linalg.solve(J, r_full)
    # fold the conjugate pair back onto the stored half spectrum
    return 0.5 * (sol[N:] + np.conj(sol[N::-1]))


def step_batch(space, sigma, cfg, coeffs, dw, linear_only=False):
    """Advance a batch of paths one step; rows are bitwise independent.

    coeffs: (P, K) half-spectra, dw: (P,) increments.  Returns
    (new_coeffs, newton_iters, residual_norms).  linear_only drops the
    reaction term (single diagonal solve) — a testing hook for the exact
    per-mode decay factor 1/(1 + k * lambda_m).
    """
    C = np.asarray(coeffs, dtype=complex)
    if C.ndim != 2 or C.shape[1] != space.coeff_count:
        raise ValidationError(f"coeffs must have shape (P, {space.coeff_count})")
    dw = np.asarray(dw, dtype=float)
    k = cfg.k
    D = 1.0 + k * space.eigenvalues

    u_prev = space.to_grid(C)
    if sigma.is_zero:
        rhs0 = C.copy()
    else:
        rhs0 = C + dw[:, None] * space.to_modes(sigma(u_prev))
    if linear_only:
        sol = rhs0 / D
        return sol, np.ones(len(C), dtype=int), np.zeros(len(C))

    scale = cfg.newton_tol * (1.0 + space.l2_norm(C))
    y = C.copy()
    Fv, u = _residual(space, y, u_prev, rhs0, D, k)
    rnorm = space.l2_norm(Fv)
    iters = np.zeros(len(C), dtype=int)
    open_rows = np.arange(len(C))[rnorm > scale]
    sweeps = 0
    while len(open_rows):
        if sweeps >= cfg.newton_max_iter:
            worst = open_rows[np.argmax(rnorm[open_rows])]
            raise StepFailure(
                f"spectral Newton did not converge in {cfg.newton_max_iter} "
                f"iterations (batch row {worst}, residual {rnorm[worst]:.3e})",
                residual=float(rnorm[worst]),
            )
        sweeps += 1
        g = f_mixed_dy(u[open_rows], u_prev[open_rows])
        delta = _jacobi_linsolve(space, k, D, g, -Fv[open_rows])

        lam = np.ones(len(open_rows))
        pending = np.arange(len(open_rows))
        y_new = np.empty_like(delta)
        F_new = np.empty_like(delta)
        u_new = np.empty((len(open_rows), space.grid_size))
        r_new = np.empty(len(open_rows))
        for _ in range(cfg.damping + 1):
            rows = open_rows[pending]
            trial = y[rows] + lam[pending, None] * delta[pending]
            F_trial, u_trial = _residual(space, trial, u_prev[rows], rhs0[rows], D, k)
            r_trial = space.l2_norm(F_trial)
            ok = (r_trial < rnorm[rows]) | (r_trial <= scale[rows])
            y_new[pending[ok]] = trial[ok]
            F_new[pending[ok]] = F_trial[ok]
            u_new[pending[ok]] = u_trial[ok]
            r_new[pending[ok]] = r_trial[ok]
            pending = pending[~ok]
            if len(pending) == 0:
                break
            lam[pending] *= 0.5
        if len(pending):
            worst = open_rows[pending[0]]
            raise StepFailure(
                f"spectral Newton stalled with full damping (batch row {worst}, "
                f"residual {rnorm[worst]:.3e})",
                residual=float(rnorm[worst]),
            )
        y[open_rows] = y_new
        Fv[open_rows] = F_new
        rnorm[open_rows] = r_new
        u[open_rows] = u_new
        iters[open_rows] += 1
        open_rows = open_rows[r_new > scale[open_rows]]
    return y, iters, rnorm


def _residual(space, y, u_prev, rhs0, D, k):
    """Newton residual of the rows y, and their grid values."""
    u = space.to_grid(y)
    fh = space.to_modes(f_mixed(u, u_prev))
    return D * y + k * fh - rhs0, u


def spectral_energy_identity_residual(space, sigma, c_prev, c_next, k, dw):
    """Per-step energy-balance defect in the truncated space.

    Same structure as the element version with the mode cut playing the role
    of the L2 projection; exact to rounding because the collocation grid
    integrates the quartic terms exactly.  Returns an IdentityCheck.
    """
    cp = np.asarray(c_prev, dtype=complex)
    cn = np.asarray(c_next, dtype=complex)
    up, un = space.to_grid(cp), space.to_grid(cn)
    fh = space.to_modes(f_mixed(un, up))
    w = space.eigenvalues * cn + fh
    d = cn - cp
    lhs = (
        spectral_energy(space, cn).total
        - spectral_energy(space, cp).total
        + 0.5 * float(space.h1_seminorm(d) ** 2)
        + 0.25 * float(space.grid_integral((un * un - up * up) ** 2))
        + k * float(space.l2_norm(w) ** 2)
    )
    if sigma.is_zero:
        rhs = 0.0
    else:
        rhs = dw * float(space.inner(space.to_modes(sigma(up)), w))
    return IdentityCheck(abs(lhs - rhs), lhs, rhs)


class SpectralBackend:
    """The Fourier discretization behind the batched step contract.

    Same methods as stepper.FemBackend; `step` advances all rows in one
    step_batch call, whose arithmetic is row-local.
    """

    def __init__(self, space, sigma):
        self.space = space
        self.sigma = sigma

    def initial(self, x0):
        return spectral_project(self.space, x0).coeffs

    def step(self, C, dw, cfg):
        """Returns the new (P, K) states and per-row Newton counters."""
        C_new, iters, rnorm = step_batch(self.space, self.sigma, cfg, C, dw)
        return C_new, {"newton_iters": iters, "residual_norm": rnorm}

    def l2_sq(self, D):
        return self.space.l2_norm(D) ** 2

    def h1_sq(self, D):
        return self.space.h1_seminorm(D) ** 2

    def l2_norm(self, D):
        return self.space.l2_norm(D)

    def energy(self, c):
        return spectral_energy(self.space, c)

    def identity(self, c_prev, c_next, k, dw):
        return spectral_energy_identity_residual(self.space, self.sigma, c_prev, c_next, k, dw)

    def metadata(self):
        return self.space.metadata()


def evaluate_on_mesh(field, fem_space, name=""):
    """Nodal interpolant of the trigonometric polynomial on an element mesh."""
    space = field.space
    x = fem_space.mesh.vertices[:, 0]
    m = np.arange(1, space.n_modes + 1)
    phase = 2.0 * np.pi * np.outer(x, m) / space.R
    c = field.coeffs
    vals = (
        np.real(c[0])
        + 2.0 * (np.cos(phase) @ np.real(c[1:]) - np.sin(phase) @ np.imag(c[1:]))
    )
    return Field(fem_space, vals, name)
