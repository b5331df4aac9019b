"""Implicit Euler-Maruyama stepping for the double-well gradient flow.

One step solves, for all test functions phi in the P1 space,

    (Y - Y_prev, phi) + k [ (grad Y, grad phi) + (f_mixed(Y, Y_prev), phi) ]
        = dW (sigma(Y_prev), phi),

by a Newton iteration with the exact Jacobian J = M + k(A + W), formed once
per time step and held: each later update is solved with the held J, and J
is formed again, at the current iterate, only when a held update does not
cut the residual tenfold.  Each J is formed with its solver: its sparse LU
at d = 1, and at d >= 2 the CG preconditioner, a solve with the linear part
M + kA (its LU at d = 2, made once per (space, k) and kept on the space;
its FFT spectrum at d = 3, formed with each J).  The two-level form of the
reaction term gives the scheme a per-step energy identity: testing with
phi = -lap_h Y + proj f_mixed makes every term a perfect difference or a
square, so the identity residual is rounding-level whenever the nonlinear
solve is tight.
`energy_identity_residual` evaluates exactly that defect and is the core
structural diagnostic of the package.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .errors import StepFailure, ValidationError
from .mesh_fem import l2_project
from .model import energy, f_mixed, f_mixed_dy, nonlinear_load, sigma_load

# Column ordering of the two sparse LUs of the Newton step: of J at d = 1,
# one per Jacobian formed, and of M + kA at d = 2, one per (space, k).
# Minimum degree on the pattern of A^T + A, which fits these symmetric
# patterns.  SuperLU's default (COLAMD, on A^T A) gives about twice the fill.
LU_ORDERING = "MMD_AT_PLUS_A"

IDENTITY_ATOL = 1e-10
IDENTITY_RTOL = 1e-10

# Caps of both Newton solvers, read at call time: iterations per step, and
# step-length halvings per iteration.
NEWTON_MAX_ITER = 50
DAMPING = 30


class SchemeConfig:
    """Time step and Newton tolerance.

    k must be below 1, the admissible range; that alone does not make the
    implicit step uniquely solvable.  The two-level reaction term is
    one-sided Lipschitz in Y with constant 1/2 + max|Y_prev|^2 / 6, so the
    step has exactly one solution when k (1/2 + max|Y_prev|^2 / 6) < 1.
    From the constant state 10 at k = 0.9 it has three.
    """

    def __init__(self, k, newton_tol=1e-12):
        if not (np.isfinite(k) and 0.0 < k < 1.0):
            raise ValidationError(f"k must satisfy 0 < k < 1 (got {k!r})")
        if not (np.isfinite(newton_tol) and newton_tol > 0):
            raise ValidationError(f"newton_tol must be positive and finite (got {newton_tol!r})")
        self.k = float(k)
        self.newton_tol = float(newton_tol)


class StepDiagnostics:
    # picard_fallbacks is always 0, since the step has no fallback; it stays
    # because perfbench/layers.py reads it; FemBackend.step does not report it
    __slots__ = (
        "newton_iters", "residual_norm", "damping_halvings", "jacobians", "picard_fallbacks"
    )

    def __init__(self, newton_iters, residual_norm, damping_halvings, jacobians):
        self.newton_iters = newton_iters
        self.residual_norm = residual_norm
        self.damping_halvings = damping_halvings
        self.jacobians = jacobians
        self.picard_fallbacks = 0


def _jacobian_solver(space, k, J):
    """The solver of the Newton system J at time step k.

    d = 1: the LU_ORDERING SuperLU of J.  d >= 2: the CG preconditioner, a
    LinearOperator that solves the linear part M + kA: at d = 2 by its
    LU_ORDERING LU, made at the first J for (space, k) and kept on the
    space; at d = 3 by the FFT solve against its spectrum m̂ + k·â, formed
    here.  A failed factorization raises RuntimeError, SuperLU's report of a
    singular factor.
    """
    d = space.mesh.d
    if d == 1:
        return spla.splu(J, permc_spec=LU_ORDERING)
    if d == 3:
        spectrum = space.mass_spectrum + k * space.stiffness_spectrum
        # the dtype spares scipy a probing solve on every new operator
        return spla.LinearOperator(J.shape, lambda v: space.fft_solve(spectrum, v), dtype=float)
    precond = space._preconditioners.get(k)
    if precond is None:
        lu = spla.splu((space.mass + k * space.stiffness).tocsc(), permc_spec=LU_ORDERING)
        precond = space._preconditioners[k] = spla.LinearOperator(J.shape, lu.solve, dtype=float)
    return precond


def _solve_linear(solver, J, rhs):
    """Solve J x = rhs for the CSC system matrix J with its solver from
    `_jacobian_solver`: a SuperLU of J solves directly; a preconditioner
    runs CG to the relative residual 1e-12.  There is no fallback: a CG
    solve that reports failure or a non-finite solution raises StepFailure,
    which keeps |rhs|, the Newton residual norm."""
    if isinstance(solver, spla.SuperLU):
        x = solver.solve(rhs)
    else:
        # J is symmetric, and J.T is its CSR view: faster products than CSC, no copy
        x, info = spla.cg(J.T, rhs, rtol=1e-12, atol=0.0, M=solver, maxiter=10 * J.shape[0])
        if info != 0:
            raise _solve_failure(f"CG reported info {info}", rhs)
    if not np.all(np.isfinite(x)):
        raise _solve_failure("non-finite Newton update", rhs)
    return x


def _solve_failure(reason, rhs):
    rnorm = np.linalg.norm(rhs)
    return StepFailure(f"linear solve failed: {reason} (residual {rnorm:.3e})", residual=rnorm)


def step(space, sigma, cfg, yp, dw):
    """Advance one step; returns (coeffs, StepDiagnostics).

    Newton starts from the previous value and forms J at its first update.
    Each later update is first solved with the held J, and its full step is
    kept if it cuts the residual norm at least tenfold or meets the
    tolerance.  Otherwise J is formed again at the current iterate, and that
    update is halved until the residual norm decreases (or meets the
    tolerance).  Once the tolerance is met, one polishing update with the
    held J is kept if it lowers the residual.  Forming J means
    `system_matrix` and `_jacobian_solver`, which makes J's solver: one LU
    of J at d = 1; at d = 2 the first J at a new k makes the
    preconditioner, which every later step on the space reuses.  Every
    update is solved by `_solve_linear` with the solver of the held J.
    Non-convergence, a failed linear solve or factorization, or a first
    residual or tolerance that is not finite raises StepFailure.
    """
    k = cfg.k
    M, A = space.mass, space.stiffness
    m_yp = M @ yp
    rhs0 = m_yp + dw * sigma_load(space, sigma, yp)

    # each kernel call gathers the corner grids of its fields; a y_prev grid
    # held for the whole step saves one small gather per call, but raised the
    # peak RSS of repeated d = 2 check studies by about 0.5 MB (2-core host)
    def residual(y):
        b = space.load_vector(f_mixed, y, yp)
        return M @ y + k * (A @ y + b) - rhs0

    def trial(y_trial):
        F_trial = residual(y_trial)
        return y_trial, F_trial, np.linalg.norm(F_trial)

    def form_jacobian(Fv, y):
        J = space.system_matrix(k, f_mixed_dy, y, yp)
        try:
            return J, _jacobian_solver(space, k, J)
        except RuntimeError as exc:
            raise _solve_failure(exc, Fv) from exc

    y = yp.copy()
    # an overflowing state is reported by the finite guard below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        scale = cfg.newton_tol * (1.0 + np.linalg.norm(m_yp))
        Fv = residual(y)
        rnorm = np.linalg.norm(Fv)
    if not (np.isfinite(rnorm) and np.isfinite(scale)):
        raise StepFailure("Newton residual or its tolerance is not finite", residual=rnorm)
    iters = 0
    halvings_total = 0
    jacobians = 0
    J = None  # the held Jacobian, formed at an earlier iterate of this step
    while rnorm > scale:
        if iters >= NEWTON_MAX_ITER:
            raise StepFailure(
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {rnorm:.3e}, target {scale:.3e})",
                residual=rnorm,
            )
        if J is not None:
            delta = _solve_linear(solver, J, -Fv)
            y_trial, F_trial, r_trial = trial(y + delta)
            if r_trial <= 0.1 * rnorm or r_trial <= scale:
                y, Fv, rnorm = y_trial, F_trial, r_trial
                iters += 1
                continue
        J, solver = form_jacobian(Fv, y)
        jacobians += 1
        delta = _solve_linear(solver, J, -Fv)
        for halvings in range(DAMPING + 1):
            y_trial, F_trial, r_trial = trial(y + 0.5**halvings * delta)
            if r_trial < rnorm or r_trial <= scale:
                break
        else:
            raise StepFailure(
                f"Newton stalled with full damping after {iters + 1} iterations "
                f"(residual {rnorm:.3e}, target {scale:.3e})",
                residual=rnorm,
            )
        y, Fv, rnorm = y_trial, F_trial, r_trial
        iters += 1
        halvings_total += halvings
    # One polishing iteration after the tolerance is met: the energy-identity
    # defect picks up residual * |w| with |w| ~ |lap_h Y|, so stopping exactly
    # at the tolerance is not tight enough on fine meshes, while one more
    # full update with the held J cuts the residual by the factor that J
    # contracts by.  A halved step cannot gain more than rounding once the
    # tolerance is met.  J is formed here only if the first residual already
    # met the tolerance.
    if rnorm > 0.0:
        if J is None:
            J, solver = form_jacobian(Fv, y)
            jacobians += 1
        y_trial = y + _solve_linear(solver, J, -Fv)
        r_trial = np.linalg.norm(residual(y_trial))
        if r_trial < rnorm:
            y, rnorm = y_trial, r_trial
            iters += 1
    return y, StepDiagnostics(iters, rnorm, halvings_total, jacobians)


class FemBackend:
    """The P1 element discretization behind the batched step contract.

    A backend binds a space to a noise coefficient and offers what every
    study needs: `initial(x0)` projects initial data, `step(C, dw, cfg)`
    advances a (P, K) batch of paths, `l2_sq`/`h1_sq`/`l2_norm` measure the
    rows of a (P, K) difference, `energy` and `identity` examine one state or
    step, and `metadata` describes the space.  spectral.SpectralBackend is
    the other implementation.  Each row is stepped by `step` on its own, so
    a path's result never depends on which other paths share the batch.
    """

    def __init__(self, space, sigma):
        self.space = space
        self.sigma = sigma

    def initial(self, x0):
        return l2_project(self.space, x0)

    def step(self, C, dw, cfg):
        """Returns the new (P, K) states and per-row StepDiagnostics arrays.

        A row's StepFailure is raised again with its batch row named."""
        out = np.empty_like(C)
        diags = []
        for i in range(len(C)):
            try:
                out[i], diag = step(self.space, self.sigma, cfg, C[i], dw[i])
            except StepFailure as exc:
                raise StepFailure(f"{exc} (batch row {i})", residual=exc.residual, row=i) from exc
            diags.append(diag)
        counters = {
            name: np.array([getattr(d, name) for d in diags])
            for name in ("newton_iters", "residual_norm", "damping_halvings", "jacobians")
        }
        return out, counters

    def _quadratic_form(self, matrix, D):
        # a sparse @ dense product gives each column the bits of a single matvec
        return (D * (matrix @ D.T).T).sum(axis=-1)

    def l2_sq(self, D):
        return self._quadratic_form(self.space.mass, D)

    def h1_sq(self, D):
        return self._quadratic_form(self.space.stiffness, D)

    def l2_norm(self, D):
        return np.sqrt(np.maximum(self.l2_sq(D), 0.0))

    def energy(self, c):
        return energy(self.space, c)

    def identity(self, c_prev, c_next, k, dw, energies=None):
        return energy_identity_residual(
            self.space, self.sigma, c_prev, c_next, k, dw, energies
        )

    def metadata(self):
        return self.space.metadata()


class Trajectory:
    """A realised discrete path of one backend.

    energies holds the total energy at every step; terminal is the final
    coefficient vector; diagnostics is one dict per step (time, energy split,
    increment norm, the backend's step counters, and the identity residual
    when requested); identity holds the per-step IdentityCheck objects when
    requested.
    """

    def __init__(self, terminal, energies, diagnostics, identity):
        self.terminal = terminal
        self.energies = energies
        self.diagnostics = diagnostics
        self.identity = identity


def march(backend, C, increments, cfg, where, first_path=0):
    """Step the (P, K) batch C through the (P, J) Brownian increments,
    yielding (j, states, counters) after each step j = 1..J.

    Row i of the batch is path first_path + i, so a StepFailure is raised
    again naming `where` (a study and its level), the step and the path,
    with the row's message, residual and row kept.
    """
    for j in range(1, increments.shape[1] + 1):
        try:
            C, counters = backend.step(C, increments[:, j - 1], cfg)
        except StepFailure as exc:
            raise StepFailure(
                f"{where}, step {j}, path {first_path + exc.row}: {exc}",
                residual=exc.residual,
                row=exc.row,
            ) from exc
        yield j, C, counters


def run_trajectory(backend, cfg, y0, increments, with_identity=False, where="trajectory", path=0):
    """Step one prepared initial state through the given Brownian increments.

    y0 is a coefficient vector already on the backend's space, e.g.
    `backend.initial(x0)`; the path runs as a one-row batch.  A failed step
    is reported as step j of `where` on `path`, the index of the increments'
    path (see `march`).
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1:
        raise ValidationError(f"increments must be a 1-d array (got shape {inc.shape})")

    y = np.array(y0)[None, :]
    energies = np.empty(len(inc) + 1)
    energies[0] = backend.energy(y[0]).total
    diagnostics = []
    checks = []
    for j, y_new, counters in march(backend, y, inc[None, :], cfg, where, path):
        en_new = backend.energy(y_new[0])
        row = {
            "j": j,
            "t": j * cfg.k,
            "energy_total": en_new.total,
            "gradient_part": en_new.gradient_part,
            "potential_part": en_new.potential_part,
            "increment_l2": float(backend.l2_norm(y_new - y)[0]),
        }
        row.update((name, values[0].item()) for name, values in counters.items())
        if with_identity:
            check = backend.identity(
                y[0], y_new[0], cfg.k, inc[j - 1], (energies[j - 1], en_new.total)
            )
            row["identity_residual"] = check.residual
            row["identity_lhs"] = check.lhs
            checks.append(check)
        diagnostics.append(row)
        y = y_new
        energies[j] = en_new.total
    return Trajectory(y[0], energies, diagnostics, checks)


class IdentityCheck:
    __slots__ = ("residual", "lhs", "rhs", "threshold")

    def __init__(self, residual, lhs, rhs):
        self.residual = float(residual)
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.threshold = max(IDENTITY_ATOL, IDENTITY_RTOL * abs(self.lhs))

    @property
    def passed(self):
        return self.residual <= self.threshold


def energy_identity_residual(space, sigma, yp, yn, k, dw, energies=None):
    """Defect of the exact per-step energy balance.

    With w the coefficients of -lap_h Y + proj f_mixed(Y, Y_prev), the scheme
    implies

        E(Y) - E(Y_prev) + |grad (Y - Y_prev)|^2 / 2
            + |Y^2 - Y_prev^2|^2 / 4 + k |w|^2  =  dW (sigma(Y_prev), w),

    term by term in exact arithmetic, provided every integral is exact for
    degree-4 polynomials.  Returns an IdentityCheck with the absolute defect
    and the threshold max(1e-10, 1e-10 |lhs|) the contract allows.

    energies, if given, is the pair of totals E(Y_prev), E(Y) on space, as
    the trajectory computed them; they are used when space is exact.
    """
    M, A = space.mass, space.stiffness
    # corner grids depend on the mesh only, so they serve the exact twin too
    yph, ynh = space.hold(yp), space.hold(yn)
    b = nonlinear_load(space, ynh, yph)
    w = space.solve_mass(A @ yn + b)
    d = yn - yp
    # the energy and the quartic dissipation term are always evaluated with
    # exact (degree-4) integration of the P1 iterates; a scheme stepped with
    # an inexact rule (mass lumping) telescopes only its own quadrature's
    # energy, so this defect exposes it
    ev = space.exact_twin()
    if energies is None or ev is not space:
        energies = energy(ev, yp).total, energy(ev, yn).total
    lhs = (
        energies[1]
        - energies[0]
        + 0.5 * (d @ (A @ d))
        + 0.25 * ev.integrate(lambda qn, qp: (qn * qn - qp * qp) ** 2, ynh, yph)
        + k * (w @ (M @ w))
    )
    rhs = dw * (sigma_load(space, sigma, yph) @ w)
    return IdentityCheck(abs(lhs - rhs), lhs, rhs)
