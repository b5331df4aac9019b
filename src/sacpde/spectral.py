"""Fourier-Galerkin reference solver on the circle (d = 1).

The state is the half-spectrum of a real trigonometric polynomial with modes
up to N: u = c_0 + 2 Re sum_{m=1..N} c_m exp(2 pi i m x / R).  Products are
evaluated on a zero-padded collocation grid of at least 2(2N+1) points, which
makes the projected cubic reaction term exact on the retained modes — the
truncated-space energy identity needs exactly that (the common 3/2-rule
padding is only exact for quadratic products, so the pad factor here is 2).

The implicit step solves the same two-level scheme as the element stepper,
by inexact Newton iteration in coefficient space with the exact Jacobian.
Each Newton system is solved matrix-free (fixed point on the diagonal split
plus FFT convolution) only as far as the row's forcing term asks
(Eisenstat-Walker choice 2, tied to the row's outer residual); the outer
residual still has to meet the Newton tolerance.  A row whose fixed point
does not contract, because the time step is too large for the split, is
solved densely over the full spectrum instead.  All per-path arithmetic is
row-local, so stepping a batch of paths gives bit-identical results for any
partition of the batch — the report reproducibility contract across path
counts rests on this.
"""

import numpy as np
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz

from . import stepper
from .errors import StepFailure, ValidationError
from .model import EnergyBreakdown, f_mixed, f_mixed_dy

_INNER_CAP = 400
# Forcing terms of the inexact Newton step, Eisenstat & Walker (SIAM J. Sci.
# Comput. 17, 1996) choice 2: eta = 0.9 (|F_new| / |F_old|)^2, kept at least
# 0.9 eta_old^2 once that exceeds 0.1, capped at 0.9, starting at 0.5, and
# never below 0.5 * tolerance / |F| so the last sweep does not solve past the
# outer tolerance.
_ETA_START = 0.5
_ETA_MAX = 0.9
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1
_ETA_FLOOR = 0.5


class SpectralSpace:
    """Truncated Fourier space: period R, modes 0..n_modes, dealiased grid."""

    def __init__(self, R, n_modes):
        if not np.isfinite(R) or R <= 0:
            raise ValidationError(f"R must be a positive real number (got {R!r})")
        if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
            raise ValidationError(f"spectral_modes must be a positive integer (got {n_modes!r})")
        self.R = float(R)
        self.n_modes = int(n_modes)
        self.grid_size = next_fast_len(2 * (2 * self.n_modes + 1))
        self.x_grid = self.R * np.arange(self.grid_size) / self.grid_size
        m = np.arange(self.n_modes + 1)
        self.eigenvalues = (2.0 * np.pi * m / self.R) ** 2
        # weights of |c_m|^2 in the L2 norm: R for m=0, 2R otherwise
        self._l2w = np.full(self.n_modes + 1, 2.0 * self.R)
        self._l2w[0] = self.R

    @property
    def coeff_count(self):
        return self.n_modes + 1

    # "forward" puts the 1/grid_size on rfft and none on irfft, and irfft
    # zero-pads the half-spectrum up to the grid itself
    def to_grid(self, coeffs):
        return np.fft.irfft(coeffs, n=self.grid_size, axis=-1, norm="forward")

    def to_modes(self, values):
        return np.fft.rfft(values, axis=-1, norm="forward")[..., : self.coeff_count]

    # row sums, not a 2-d `@`/np.dot, whose BLAS kernel may depend on batch height
    def l2_norm(self, coeffs):
        c = np.asarray(coeffs)
        return np.sqrt((np.real(c * np.conj(c)) * self._l2w).sum(axis=-1))

    def h1_seminorm(self, coeffs):
        c = np.asarray(coeffs)
        return np.sqrt((np.real(c * np.conj(c)) * self.eigenvalues * self._l2w).sum(axis=-1))

    def inner(self, a, b):
        """Real L2 inner product of the two represented functions."""
        return (np.real(np.asarray(a) * np.conj(b)) * self._l2w).sum(axis=-1)

    def grid_integral(self, values):
        """Trapezoidal integral over the period; exact below the grid bandwidth."""
        return np.asarray(values).sum(axis=-1) * (self.R / self.grid_size)

    def metadata(self):
        return {
            "R": self.R,
            "n_modes": self.n_modes,
            "grid_size": self.grid_size,
        }


def spectral_project(space, g):
    """L2 projection of a callable of positions (..., 1) onto the mode cut;
    returns the half-spectrum coefficients."""
    vals = np.asarray(g(space.x_grid[:, None]), dtype=float)
    return space.to_modes(vals)


def spectral_energy(space, coeffs):
    c = np.asarray(coeffs)
    grad = 0.5 * float((np.real(c * np.conj(c)) * space.eigenvalues) @ space._l2w)
    u = space.to_grid(c)
    psi = 0.25 * float(space.grid_integral((u * u - 1.0) ** 2))
    return EnergyBreakdown(grad, psi)


def _jacobi_linsolve(space, k, D, g, rhs, eta):
    """Solve (diag(D) + k * mode_cut[g * .]) delta = rhs, rows independent.

    Fixed-point on the diagonal split.  Row r stops once its update is at
    most eta[r] times the size of its first iterate rhs / D (the forcing
    term of an inexact Newton step), or once the update reaches the rounding
    floor.  A row whose update grows while still above that floor, or that
    is open after _INNER_CAP sweeps, does not contract and is re-solved
    densely over the full spectrum.  All stopping decisions are row-local.
    """
    delta = rhs / D
    target = eta * np.max(np.abs(delta), axis=-1)
    prev_update = np.full(len(rhs), np.inf)
    open_rows = np.arange(len(rhs))
    dense = np.zeros(len(rhs), dtype=bool)
    for _ in range(_INNER_CAP):
        d_open = delta[open_rows]
        new = (rhs[open_rows] - k * space.to_modes(g[open_rows] * space.to_grid(d_open))) / D
        upd = np.max(np.abs(new - d_open), axis=-1)
        floor = 1e-15 * (1.0 + np.max(np.abs(new), axis=-1))
        delta[open_rows] = new
        done = (upd <= target[open_rows]) | (upd <= floor)
        grew = ~done & (upd >= prev_update[open_rows])
        dense[open_rows[grew]] = True
        prev_update[open_rows] = upd
        open_rows = open_rows[~(done | grew)]
        if len(open_rows) == 0:
            break
    dense[open_rows] = True
    for r in np.flatnonzero(dense):
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


def step_batch(space, sigma, cfg, coeffs, dw):
    """Advance a batch of paths one step; rows are bitwise independent.

    coeffs: (P, K) half-spectra, dw: (P,) increments.  Returns
    (new_coeffs, newton_iters, residual_norms).
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

    scale = cfg.newton_tol * (1.0 + space.l2_norm(C))
    y = C.copy()
    u = u_prev.copy()
    Fv = _residual(space, y, u, u_prev, rhs0, D, k)
    rnorm = space.l2_norm(Fv)
    bad = ~(np.isfinite(rnorm) & np.isfinite(scale))
    if bad.any():
        row = int(np.argmax(bad))
        raise StepFailure(
            f"spectral Newton residual or its tolerance is not finite (batch row {row})",
            residual=float(rnorm[row]),
        )
    iters = np.zeros(len(C), dtype=int)
    eta = np.full(len(C), _ETA_START)
    open_rows = np.arange(len(C))[rnorm > scale]
    sweeps = 0
    while len(open_rows):
        if sweeps >= stepper.NEWTON_MAX_ITER:
            worst = open_rows[np.argmax(rnorm[open_rows])]
            raise StepFailure(
                f"spectral Newton did not converge in {stepper.NEWTON_MAX_ITER} "
                f"iterations (batch row {worst}, residual {rnorm[worst]:.3e})",
                residual=float(rnorm[worst]),
            )
        sweeps += 1
        g = f_mixed_dy(u[open_rows], u_prev[open_rows])
        delta = _jacobi_linsolve(space, k, D, g, -Fv[open_rows], eta[open_rows])

        lam = np.ones(len(open_rows))
        pending = np.arange(len(open_rows))
        y_new = np.empty_like(delta)
        F_new = np.empty_like(delta)
        u_new = np.empty((len(open_rows), space.grid_size))
        r_new = np.empty(len(open_rows))
        for _ in range(stepper.DAMPING + 1):
            rows = open_rows[pending]
            trial = y[rows] + lam[pending, None] * delta[pending]
            u_trial = space.to_grid(trial)
            F_trial = _residual(space, trial, u_trial, u_prev[rows], rhs0[rows], D, k)
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
        u[open_rows] = u_new
        iters[open_rows] += 1
        still = r_new > scale[open_rows]
        nxt = open_rows[still]
        eta[nxt] = _forcing_term(eta[nxt], r_new[still], rnorm[nxt], scale[nxt])
        rnorm[open_rows] = r_new
        open_rows = nxt
    return y, iters, rnorm


def _forcing_term(eta_old, r_new, r_old, scale):
    """Next forcing term of rows still above their tolerance scale < r_new."""
    eta = _EW_GAMMA * (r_new / r_old) ** 2
    kept = _EW_GAMMA * eta_old**2
    eta = np.where(kept > _EW_SAFEGUARD, np.maximum(eta, kept), eta)
    return np.maximum(np.minimum(eta, _ETA_MAX), _ETA_FLOOR * scale / r_new)


def _residual(space, y, u, u_prev, rhs0, D, k):
    """Newton residual of the rows y, whose grid values are u."""
    fh = space.to_modes(f_mixed(u, u_prev))
    return D * y + k * fh - rhs0


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
    return stepper.IdentityCheck(abs(lhs - rhs), lhs, rhs)


class SpectralBackend:
    """The Fourier discretization behind the batched step contract.

    Same methods as stepper.FemBackend; `step` advances all rows in one
    step_batch call, whose arithmetic is row-local.
    """

    def __init__(self, space, sigma):
        self.space = space
        self.sigma = sigma

    def initial(self, x0):
        return spectral_project(self.space, x0)

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


def evaluate_on_mesh(space, coeffs, fem_space):
    """Values of the trigonometric polynomial at the vertices of an element
    mesh: the coefficients of its nodal interpolant."""
    x = fem_space.mesh.vertices[:, 0]
    m = np.arange(1, space.n_modes + 1)
    phase = 2.0 * np.pi * np.outer(x, m) / space.R
    c0, c = coeffs[0], coeffs[1:]
    return np.real(c0) + 2.0 * (np.cos(phase) @ np.real(c) - np.sin(phase) @ np.imag(c))
