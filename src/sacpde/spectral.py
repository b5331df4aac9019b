"""Fourier-Galerkin reference solver on the circle (d = 1).

The state is the half-spectrum of a real trigonometric polynomial with modes
up to N: u = c_0 + 2 Re sum_{m=1..N} c_m exp(2 pi i m x / R).  Products are
evaluated on a zero-padded collocation grid of at least 2(2N+1) points, which
makes the projected cubic reaction term exact on the retained modes — the
truncated-space energy identity needs exactly that (the common 3/2-rule
padding is only exact for quadratic products, so the pad factor here is 2).

The implicit step solves the same two-level scheme as the element stepper,
by inexact Newton iteration in coefficient space with the exact Jacobian.
Newton starts from the semi-implicit step, which takes the reaction term at
the previous state and the linear part implicitly (Ascher, Ruuth & Wetton,
SIAM J. Numer. Anal. 32, 1995); a row for which that has a larger residual
than the previous state itself, as at large time steps, starts from the
previous state.  Each Newton system is solved matrix-free (fixed point on
the diagonal split plus FFT convolution) only as far as the row's forcing
term asks (Eisenstat-Walker choice 2, tied to the row's outer residual); the
outer residual still has to meet the Newton tolerance.  A row whose fixed
point does not contract, because the time step is too large for the split,
is solved densely over the full spectrum instead.  All per-path arithmetic
is row-local, so stepping a batch of paths gives bit-identical results for
any partition of the batch — the report reproducibility contract across
path counts rests on this.  While every row of the batch is still open, the
iterations work on whole arrays and not on gathered copies of the rows.
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
        self._implicit_diagonals = {}

    @property
    def coeff_count(self):
        return self.n_modes + 1

    def implicit_diagonal(self, k):
        """D = 1 + k * eigenvalues, the linear part of the step at time step
        k, made once per k and kept for the life of the space."""
        D = self._implicit_diagonals.get(k)
        if D is None:
            D = self._implicit_diagonals[k] = 1.0 + k * self.eigenvalues
            D.flags.writeable = False
        return D

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
    u = space.to_grid(c)
    # an overflowing state is reported by the step's finite guard, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        grad = 0.5 * float((np.real(c * np.conj(c)) * space.eigenvalues) @ space._l2w)
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
    n = len(rhs)
    delta = rhs / D
    target = eta * np.abs(delta).max(axis=-1)
    prev_update = np.full(n, np.inf)
    open_rows = np.arange(n)
    dense = []
    for _ in range(_INNER_CAP):
        rows = _all_or(open_rows, n)
        d_open = delta[rows]
        new = (rhs[rows] - k * space.to_modes(g[rows] * space.to_grid(d_open))) / D
        upd = np.abs(new - d_open).max(axis=-1)
        delta[rows] = new
        done = upd <= target[rows]
        if done.all():
            break
        done |= upd <= 1e-15 * (1.0 + np.abs(new).max(axis=-1))
        grew = ~done & (upd >= prev_update[rows])
        dense.extend(open_rows[grew])
        prev_update[rows] = upd
        open_rows = open_rows[~(done | grew)]
        if len(open_rows) == 0:
            break
    else:
        dense.extend(open_rows)
    for r in dense:
        delta[r] = _dense_linsolve(space, k, D, g[r], rhs[r])
    return delta


def _all_or(rows, n):
    """The sorted row indices `rows` of an n-row batch as an index: while all
    n rows are in it, slice(None), whose gathers are views and not copies."""
    return slice(None) if len(rows) == n else rows


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
    (new_coeffs, newton_iters, residual_norms).  Newton starts, per row,
    from whichever of C and the semi-implicit step y0 = C - F(C) / D has
    the lower residual; choosing costs two transforms and no sweep.
    """
    C = np.asarray(coeffs, dtype=complex)
    if C.ndim != 2 or C.shape[1] != space.coeff_count:
        raise ValidationError(f"coeffs must have shape (P, {space.coeff_count})")
    dw = np.asarray(dw, dtype=float)
    k = cfg.k
    D = space.implicit_diagonal(k)

    u_prev = space.to_grid(C)
    if sigma.is_zero:
        rhs0 = C
    else:
        rhs0 = C + dw[:, None] * space.to_modes(sigma(u_prev))

    # an overflowing state is reported by the finite guard below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        scale = cfg.newton_tol * (1.0 + space.l2_norm(C))
        F_C = _residual(space, C, u_prev, u_prev, rhs0, D, k)
        r_C = space.l2_norm(F_C)
        # D y0 = rhs0 - k * f_mixed(u_prev, u_prev): reaction term explicit
        y0 = C - F_C / D
        u0 = space.to_grid(y0)
        F0 = _residual(space, y0, u0, u_prev, rhs0, D, k)
        r0 = space.l2_norm(F0)
    bad = ~(np.isfinite(r_C) & np.isfinite(scale))
    if bad.any():
        row = int(np.argmax(bad))
        raise StepFailure(
            f"spectral Newton residual or its tolerance is not finite (batch row {row})",
            residual=float(r_C[row]),
            row=row,
        )
    # each row starts from whichever of C and y0 has the lower residual; a
    # row whose y0 is not finite keeps C, since nan < r is false
    y, u, Fv, rnorm = y0, u0, F0, r0
    keep = ~(r0 < r_C)
    if keep.any():
        y[keep], u[keep], Fv[keep], rnorm[keep] = C[keep], u_prev[keep], F_C[keep], r_C[keep]

    P = len(C)
    iters = np.zeros(P, dtype=int)
    eta = np.full(P, _ETA_START)
    for sweep in range(stepper.NEWTON_MAX_ITER + 1):
        open_rows = np.flatnonzero(rnorm > scale)
        if len(open_rows) == 0:
            break
        rows = _all_or(open_rows, P)
        if sweep == stepper.NEWTON_MAX_ITER:
            worst = open_rows[np.argmax(rnorm[rows])]
            raise StepFailure(
                f"spectral Newton did not converge in {stepper.NEWTON_MAX_ITER} "
                f"iterations (batch row {worst}, residual {rnorm[worst]:.3e})",
                residual=float(rnorm[worst]),
                row=int(worst),
            )
        if sweep:
            # open rows were open in the last sweep too, whose start r_old holds
            eta[rows] = _forcing_term(eta[rows], rnorm[rows], r_old[rows], scale[rows])
        r_old = rnorm.copy()
        g = f_mixed_dy(u[rows], u_prev[rows])
        step = _jacobi_linsolve(space, k, D, g, -Fv[rows], eta[rows])

        # accepted trials go straight into y, Fv, u and rnorm; the rows still
        # searching (`search`, with their directions `step`) are unchanged
        search, lam = open_rows, 1.0
        for _ in range(stepper.DAMPING + 1):
            at = _all_or(search, P)
            trial = y[at] + lam * step
            u_trial = space.to_grid(trial)
            F_trial = _residual(space, trial, u_trial, u_prev[at], rhs0[at], D, k)
            r_trial = space.l2_norm(F_trial)
            ok = (r_trial < rnorm[at]) | (r_trial <= scale[at])
            if ok.all():
                y[at], Fv[at], u[at], rnorm[at] = trial, F_trial, u_trial, r_trial
                break
            acc = search[ok]
            y[acc], Fv[acc], u[acc], rnorm[acc] = trial[ok], F_trial[ok], u_trial[ok], r_trial[ok]
            search, step = search[~ok], step[~ok]
            lam *= 0.5
        else:
            worst = search[0]
            raise StepFailure(
                f"spectral Newton stalled with full damping (batch row {worst}, "
                f"residual {rnorm[worst]:.3e})",
                residual=float(rnorm[worst]),
                row=int(worst),
            )
        iters[rows] += 1
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
