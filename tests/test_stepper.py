"""Implicit stepping: equilibria, dissipation, and the per-step energy identity."""

import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sacpde import stepper
from sacpde.errors import StepFailure, ValidationError
from sacpde.mesh_fem import FemSpace, PeriodicMesh, l2_project
from sacpde.model import energy, initial_datum, make_sigma
from sacpde.spectral import SpectralSpace, step_batch
from sacpde.stepper import (
    IDENTITY_ATOL,
    IDENTITY_RTOL,
    FemBackend,
    SchemeConfig,
    energy_identity_residual,
    run_trajectory,
    step,
)
from sacpde.stochastic import sample_path

ZERO = make_sigma("zero")


def _space(n=32, d=1, R=1.0, **kw):
    return FemSpace(PeriodicMesh(d, R, n), **kw)


def test_scheme_config_validation():
    with pytest.raises(ValidationError):
        SchemeConfig(k=1.0)
    with pytest.raises(ValidationError):
        SchemeConfig(k=-0.1)
    with pytest.raises(ValidationError):
        SchemeConfig(k=0.01, newton_tol=0.0)


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_equilibria_are_fixed_points(c):
    """The well minima and the unstable zero state are exact fixed points."""
    space = _space()
    cfg = SchemeConfig(k=0.01)
    y = np.full(space.mesh.dof_count, c)
    for _ in range(10):
        y, _ = step(space, ZERO, cfg, y, 0.0)
    np.testing.assert_allclose(y, c, atol=1e-13)


def test_perturbed_well_state_relaxes_back():
    space = _space(n=64)
    cfg = SchemeConfig(k=0.005)
    rng = np.random.default_rng(1)
    y = 1.0 + 1e-3 * rng.standard_normal(space.mesh.dof_count)
    dist0 = np.max(np.abs(y - 1.0))
    for _ in range(50):
        y, _ = step(space, ZERO, cfg, y, 0.0)
    assert np.max(np.abs(y - 1.0)) < 0.2 * dist0


def test_constant_state_reduces_to_scalar_equation():
    """A constant field stays constant, solving c + k f(c, c0) = c0.

    The root is pinned independently by bisection on the scalar residual.
    """
    space = _space(n=16)
    k, c0 = 0.1, 2.0
    cfg = SchemeConfig(k=k)
    g = lambda c: c + k * 0.5 * (c * c - 1.0) * (c + c0) - c0
    lo, hi = 1.0, 2.0
    assert g(lo) < 0 < g(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    y, _ = step(space, ZERO, cfg, np.full(16, c0), 0.0)
    np.testing.assert_allclose(y, root, atol=1e-10)


def test_step_is_deterministic():
    space = _space()
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    sig = make_sigma("sine", 0.5)
    a, _ = step(space, sig, cfg, y0, 0.03)
    b, _ = step(space, sig, cfg, y0, 0.03)
    assert np.array_equal(a, b)


def test_deterministic_energy_dissipates():
    space = _space(n=64)
    cfg = SchemeConfig(k=0.0025)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(100))
    diffs = np.diff(traj.energies)
    assert np.all(diffs <= 1e-12 * (1.0 + abs(traj.energies[0])))
    assert traj.energies[-1] < traj.energies[0]


def test_deterministic_increment_bound():
    """With sigma = 0, |Y^j - Y^{j-1}|^2 <= C k E(Y^{j-1}) with C stable in k.

    The identity gives C = 1 exactly: the increment equals -k w in the mass
    geometry and k |w|^2 is bounded by the energy drop.
    """
    space = _space(n=64)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    fitted = {}
    for k in (1e-2, 1e-3):
        cfg = SchemeConfig(k=k)
        y = y0
        worst = 0.0
        for _ in range(20):
            y_new, _ = step(space, ZERO, cfg, y, 0.0)
            d = y_new - y
            worst = max(worst, (d @ (space.mass @ d)) / (k * energy(space, y).total))
            y = y_new
        fitted[k] = worst
        assert worst <= 1.0 + 1e-10
    assert fitted[1e-2] / fitted[1e-3] < 50.0  # same order, not exploding


def test_energy_identity_sigma_zero():
    """Every per-step residual sits at rounding level, far below the contract."""
    space = _space(n=64)
    cfg = SchemeConfig(k=0.0025, newton_tol=1e-12)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(50), with_identity=True)
    for row in traj.diagnostics:
        thr = max(IDENTITY_ATOL, IDENTITY_RTOL * abs(row["identity_lhs"]))
        assert row["identity_residual"] <= thr


def test_energy_identity_with_noise():
    space = _space(n=32)
    cfg = SchemeConfig(k=0.005, newton_tol=1e-12)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    sig = make_sigma("sine", 0.5)
    inc = sample_path(4, 0, T=0.25, j_fine=50).increments
    traj = run_trajectory(FemBackend(space, sig), cfg, y0, inc, with_identity=True)
    for row in traj.diagnostics:
        thr = max(IDENTITY_ATOL, IDENTITY_RTOL * abs(row["identity_lhs"]))
        assert row["identity_residual"] <= thr


def test_energy_identity_negative_control():
    """A deliberately loose Newton tolerance must violate the identity."""
    space = _space(n=64)
    cfg = SchemeConfig(k=0.0025, newton_tol=1e-3)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(50), with_identity=True)
    worst = max(row["identity_residual"] for row in traj.diagnostics)
    assert worst > IDENTITY_ATOL


def test_energy_identity_exposes_lumping():
    """Mass lumping telescopes its own quadrature's energy, not the exact one."""
    space = _space(n=32, lumped=True)
    cfg = SchemeConfig(k=0.005, newton_tol=1e-12)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(20), with_identity=True)
    worst = max(row["identity_residual"] for row in traj.diagnostics)
    assert worst > IDENTITY_ATOL


def test_identity_residual_direct_call():
    space = _space(n=16)
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    y1, _ = step(space, ZERO, cfg, y0, 0.0)
    check = energy_identity_residual(space, ZERO, y0, y1, cfg.k, 0.0)
    assert check.passed
    assert check.rhs == 0.0
    assert check.threshold == max(IDENTITY_ATOL, IDENTITY_RTOL * abs(check.lhs))


def test_iterates_stay_in_the_well():
    space = _space(n=32)
    cfg = SchemeConfig(k=0.01)
    y = np.full(32, 0.3)
    for _ in range(50):
        y, _ = step(space, ZERO, cfg, y, 0.0)
        assert np.all(np.abs(y) <= 1.0 + 1e-12)


def test_zero_step_trajectory():
    space = _space(n=16)
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(0))
    assert len(traj.energies) == 1
    assert np.array_equal(traj.terminal, y0)


def test_step_failure_raises(monkeypatch):
    """Both steppers read the Newton caps at call time."""
    monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(stepper, "DAMPING", 0)
    space = _space(n=16)
    cfg = SchemeConfig(k=0.9, newton_tol=1e-14)
    y0 = np.full(16, 3.0)
    with pytest.raises(StepFailure):
        step(space, ZERO, cfg, y0, 0.0)
    C = np.zeros((1, 9), dtype=complex)
    C[0, 0] = 3.0
    with pytest.raises(StepFailure) as info:
        step_batch(SpectralSpace(1.0, 8), ZERO, cfg, C, np.zeros(1))
    assert info.value.row == 0


def test_fem_step_failure_names_the_batch_row(monkeypatch):
    """A row's StepFailure leaves FemBackend.step with its batch row named
    and its residual kept; a row that needs no iteration passes."""
    monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 0)
    space = _space(n=16)
    backend = FemBackend(space, make_sigma("sine", 0.5))
    cfg = SchemeConfig(k=0.01)
    C = np.stack([np.zeros(16), backend.initial(initial_datum("cos", 1.0))])
    with pytest.raises(StepFailure, match=r"in 0 iterations .*\(batch row 1\)$") as exc:
        backend.step(C, np.array([0.0, 0.05]), cfg)
    assert exc.value.row == 1
    assert exc.value.residual > 0
    assert exc.value.residual == exc.value.__cause__.residual


def test_overflowing_state_is_a_quiet_step_failure():
    """A state whose residual overflows is reported by the finite guard,
    with no numpy RuntimeWarning, by step and by FemBackend.step."""
    space = _space(n=16)
    backend = FemBackend(space, make_sigma("sine", 0.5))
    cfg = SchemeConfig(k=0.01)
    y0 = np.full(16, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match="not finite"):
            step(space, backend.sigma, cfg, y0, 0.05)
        with pytest.raises(StepFailure, match=r"not finite \(batch row 0\)$"):
            backend.step(y0[None, :], np.array([0.05]), cfg)


def test_converged_polish_takes_only_the_full_step(monkeypatch):
    """A held-Jacobian update that does not cut the residual tenfold, and a
    polishing update that does not lower it, are each rejected after one
    residual evaluation instead of DAMPING + 1 halved ones; a rejected held
    update is followed by a Jacobian formed at the same iterate."""
    space = FemSpace(PeriodicMesh(1, 2 * np.pi, 8))
    calls = []
    load_vector = FemSpace.load_vector
    monkeypatch.setattr(
        FemSpace, "load_vector", lambda self, *args: calls.append(1) or load_vector(self, *args)
    )
    held_rejected = polish_rejected = 0
    # a large step, where the held Jacobian contracts weakly at first, then
    # a state next to the well, whose polish cannot improve on rounding
    for k, y in (
        (0.9, l2_project(space, initial_datum("cos", 2 * np.pi))),
        (0.1, 1.0 + 1e-9 * np.cos(np.arange(8.0))),
    ):
        for _ in range(4):
            calls.clear()
            y, diag = step(space, ZERO, SchemeConfig(k=k), y, 0.0)
            # one load vector per residual: the first, each accepted iterate
            # and each rejected trial; sigma = 0 assembles none
            trials = len(calls) - 1 - diag.newton_iters
            assert diag.damping_halvings == 0 and diag.jacobians >= 1
            assert trials - (diag.jacobians - 1) in (0, 1)
            held_rejected += diag.jacobians - 1
            polish_rejected += trials - (diag.jacobians - 1)
    assert held_rejected >= 1 and polish_rejected >= 1


def test_three_dimensional_smoke():
    """The d=3 CG path advances a short trajectory and dissipates."""
    space = _space(n=4, d=3)
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    sig = make_sigma("sine", 0.5)
    inc = sample_path(1, 0, T=0.02, j_fine=2).increments
    traj = run_trajectory(FemBackend(space, sig), cfg, y0, inc, with_identity=True)
    assert len(traj.energies) == 3
    for row in traj.diagnostics:
        thr = max(IDENTITY_ATOL, IDENTITY_RTOL * abs(row["identity_lhs"]))
        assert row["identity_residual"] <= thr


@pytest.mark.parametrize(
    "d,n,failing,expected",
    [
        pytest.param(1, 32, "splu", ["splu"], id="1-32"),
        pytest.param(3, 4, "cg", ["cg"], id="3-4"),
        pytest.param(2, 8, "splu", ["splu"], id="2-8-splu"),
        pytest.param(2, 8, "cg", ["splu", "cg"], id="2-8-cg"),
    ],
)
def test_failed_linear_solve_is_a_step_failure(monkeypatch, d, n, failing, expected):
    """A failed factorization (of J at d = 1, of M + kA at d = 2) or CG solve
    (d = 2 and 3) ends the step: it is not redone by another method, and the
    batch row and residual are kept.  The other call works and is recorded."""
    space = _space(n=n, d=d)
    sig = make_sigma("sine", 0.5)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    backend = FemBackend(space, sig)
    # row 0, the zero state with no noise, has residual 0 and solves nothing
    C, dw = np.stack([np.zeros_like(y0), y0]), np.array([0.0, 0.05])
    calls = []
    splu, cg = stepper.spla.splu, stepper.spla.cg

    def recording_splu(J, *args, **kwargs):
        calls.append("splu")
        if failing == "splu":
            raise RuntimeError("Factor is exactly singular")
        return splu(J, *args, **kwargs)

    def recording_cg(J, rhs, **kwargs):
        calls.append("cg")
        if failing == "cg":
            return np.zeros_like(rhs), 1
        return cg(J, rhs, **kwargs)

    monkeypatch.setattr(stepper.spla, "splu", recording_splu)
    monkeypatch.setattr(stepper.spla, "cg", recording_cg)
    with pytest.raises(StepFailure, match=r"linear solve failed.*\(batch row 1\)$") as info:
        backend.step(C, dw, SchemeConfig(k=0.01))
    assert calls == expected
    assert info.value.row == 1
    assert info.value.residual > 0.0


@pytest.mark.parametrize("d,n", [(2, 32), (3, 8)])
def test_lu_ordering_reduces_fill(monkeypatch, d, n):
    """At d = 2 the cached LU of M + kA that preconditions Newton's CG has
    fewer L+U entries than SuperLU's default ordering gives for the same
    matrix.  No other sparse LU is made: `solve_mass` is an FFT solve, and
    at d = 3 so is Newton's preconditioner, so d = 3 makes none at all."""
    space = _space(n=n, d=d)
    sig = make_sigma("sine", 0.5)
    splu = spla.splu
    calls = []

    def recording_splu(J, *args, **kwargs):
        calls.append((J, splu(J, *args, **kwargs)))
        return calls[-1][1]

    # every module's view of scipy.sparse.linalg, not only the stepper's
    monkeypatch.setattr(spla, "splu", recording_splu)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    space.solve_mass(space.stiffness @ y0)
    assert calls == []
    step(space, sig, SchemeConfig(k=0.01), y0, 0.05)
    monkeypatch.undo()

    def fill(lu):
        return lu.L.nnz + lu.U.nnz

    if d < 3:
        assert len(calls) == 1
        J, lu = calls[0]
        assert fill(lu) < fill(splu(J))
    else:
        assert calls == []


def _counting(monkeypatch, name):
    """Count the calls of stepper.spla.<name>, which still does its work."""
    calls = []
    fn = getattr(stepper.spla, name)
    monkeypatch.setattr(
        stepper.spla, name, lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)
    )
    return calls


def test_one_dimensional_step_forms_one_jacobian_per_step(monkeypatch):
    """At a small k every update after the first is solved with the held
    Jacobian: each step assembles J once and factorizes it once."""
    space = _space(n=32)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    inc = sample_path(1, 0, T=0.25, j_fine=64).increments[:8]
    assembled = []
    system_matrix = FemSpace.system_matrix
    monkeypatch.setattr(
        FemSpace, "system_matrix", lambda *args: assembled.append(1) or system_matrix(*args)
    )
    splu = _counting(monkeypatch, "splu")
    traj = run_trajectory(
        FemBackend(space, make_sigma("sine", 0.5)), SchemeConfig(k=0.25 / 64), y0, inc
    )
    jacobians = sum(row["jacobians"] for row in traj.diagnostics)
    assert len(splu) == len(assembled) == len(inc) == jacobians
    assert all(row["newton_iters"] > 1 for row in traj.diagnostics)


def test_one_dimensional_step_evaluates_each_state_once(monkeypatch):
    """Each kernel call of the step gathers the corner grid of each of its
    fields once and evaluates it through element_values once per simplex
    type, one at d = 1: two fields per residual and Jacobian, y_prev alone
    for the noise load."""
    space = _space(n=32)
    counts = dict.fromkeys(("hold", "element_values", "load_vector", "system_matrix"), 0)

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    for name in counts:
        monkeypatch.setattr(FemSpace, name, counting(name, getattr(FemSpace, name)))
    y = l2_project(space, initial_datum("cos", 1.0))
    for dw in (0.05, -0.02, 0.0):
        counts.update(dict.fromkeys(counts, 0))
        y, diag = step(space, make_sigma("sine", 0.5), SchemeConfig(k=0.25 / 64), y, dw)
        # one load vector for the noise, one per residual
        assert counts["hold"] == counts["element_values"]
        assert counts["element_values"] == 2 * counts["load_vector"] - 1 + 2 * counts["system_matrix"]
        assert counts["system_matrix"] == diag.jacobians >= 1


@pytest.mark.parametrize("lumped", [False, True], ids=["exact", "lumped"])
@pytest.mark.parametrize("sigma", ["zero", "sine"])
def test_identity_with_the_trajectory_energies_is_bit_identical(monkeypatch, sigma, lumped):
    """The identity check given the step's two energy totals equals the check
    that computes them, bit for bit; an exact space computes no energy for
    it, and a lumped one computes both on its exact twin."""
    space = _space(n=16, d=2, lumped=lumped)
    backend = FemBackend(space, make_sigma(sigma, 0.5))
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    y1 = backend.step(y0[None], np.array([0.05]), cfg)[0][0]
    totals = backend.energy(y0).total, backend.energy(y1).total
    computed = backend.identity(y0, y1, cfg.k, 0.05)
    energies = []
    monkeypatch.setattr(stepper, "energy", lambda s, c: energies.append(s) or energy(s, c))
    passed = backend.identity(y0, y1, cfg.k, 0.05, totals)
    assert energies == ([space.exact_twin()] * 2 if lumped else [])
    for name in stepper.IdentityCheck.__slots__:
        assert getattr(passed, name) == getattr(computed, name)


def test_large_steps_form_the_jacobian_again(monkeypatch):
    """At k = 0.9 from the constant state 10 with noise amplitude 5, the held
    Jacobian does not contract well enough at some iterate and J is formed
    again there; the damped updates take 1 and 8 halvings in steps 3 and 4,
    and every identity residual is at most 1e-10."""
    space = _space(n=16)
    backend = FemBackend(space, make_sigma("sine", 5.0))
    y0 = backend.initial(initial_datum("constant:10", 1.0))
    inc = sample_path(1, 0, T=3.6, j_fine=4).increments
    splu = _counting(monkeypatch, "splu")
    traj = run_trajectory(backend, SchemeConfig(k=0.9), y0, inc, with_identity=True)
    rows = traj.diagnostics
    assert [row["damping_halvings"] for row in rows] == [0, 0, 1, 8]
    assert max(row["jacobians"] for row in rows) > 1
    assert len(splu) == sum(row["jacobians"] for row in rows)
    assert max(check.residual for check in traj.identity) <= 1e-10


def test_two_dimensional_newton_factorizes_once_per_space_and_k(monkeypatch):
    """At d = 2 every Newton system is solved by CG, preconditioned by one LU
    of M + kA per (space, k): backends on one space share it, and another k
    makes one more."""
    space = _space(n=16, d=2)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    inc = sample_path(1, 0, T=0.05, j_fine=5).increments
    splu = _counting(monkeypatch, "splu")
    cg = _counting(monkeypatch, "cg")
    run_trajectory(FemBackend(space, ZERO), SchemeConfig(k=0.01), y0, np.zeros(5))
    assert len(splu) == 1
    run_trajectory(FemBackend(space, make_sigma("sine", 0.5)), SchemeConfig(k=0.01), y0, inc)
    assert len(splu) == 1
    run_trajectory(FemBackend(space, ZERO), SchemeConfig(k=0.02), y0, np.zeros(5))
    assert len(splu) == 2
    assert len(cg) >= 15  # at least one Newton iteration in each of the 15 steps
    assert sorted(space._preconditioners) == [0.01, 0.02]


def test_three_dimensional_newton_makes_one_spectrum_per_space_and_k(monkeypatch):
    """At d = 3 every Newton system is solved by CG, preconditioned by the
    FFT solve against the spectrum m̂ + k·â of M + kA, one operator per
    (space, k): backends on one space share it, another k makes one more,
    and no sparse LU is made."""
    space = _space(n=8, d=3)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    inc = sample_path(1, 0, T=0.05, j_fine=5).increments
    splu = _counting(monkeypatch, "splu")
    cg = _counting(monkeypatch, "cg")
    used = []
    fft_solve = space.fft_solve
    monkeypatch.setattr(
        space, "fft_solve", lambda spectrum, v: used.append(spectrum) or fft_solve(spectrum, v)
    )
    run_trajectory(FemBackend(space, ZERO), SchemeConfig(k=0.01), y0, np.zeros(5))
    first = space._preconditioners[0.01]
    run_trajectory(FemBackend(space, make_sigma("sine", 0.5)), SchemeConfig(k=0.01), y0, inc)
    assert space._preconditioners[0.01] is first
    run_trajectory(FemBackend(space, ZERO), SchemeConfig(k=0.02), y0, np.zeros(5))
    assert splu == []
    assert len(cg) >= 15  # at least one Newton iteration in each of the 15 steps
    assert sorted(space._preconditioners) == [0.01, 0.02]
    # `used` keeps every spectrum alive, so distinct arrays have distinct ids
    spectra = {id(s): s for s in used}
    assert len(spectra) == 2
    expected = [space.mass_spectrum + k * space.stiffness_spectrum for k in (0.01, 0.02)]
    assert [sum(np.array_equal(s, e) for s in spectra.values()) for e in expected] == [1, 1]


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 4)])
def test_a_stepped_space_is_freed_without_a_gc_pass(d, n):
    """The preconditioner kept on the space does not refer back to it, so a
    space that no study holds any more is freed at once: a reference cycle
    would keep its arrays until a GC pass, raising the peak memory of a run
    that makes a new space per study."""
    space = _space(n=n, d=d)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    step(space, make_sigma("sine", 0.5), SchemeConfig(k=0.01), y0, 0.05)
    ref = weakref.ref(space)
    gc.disable()
    try:
        del space
        assert ref() is None
    finally:
        gc.enable()


def test_two_dimensional_step_agrees_with_the_direct_solve(monkeypatch):
    """The preconditioned CG step and the step that factorizes each Jacobian
    it forms both meet the Newton tolerance, so they agree to within what
    it allows (in practice to rounding), and the identity holds."""
    space = _space(n=16, d=2)
    sig = make_sigma("sine", 0.5)
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    y_cg, diag_cg = step(space, sig, cfg, y0, 0.05)
    monkeypatch.setattr(stepper, "_preconditioner", lambda space, k, J: None)
    splu = _counting(monkeypatch, "splu")
    y_lu, diag_lu = step(space, sig, cfg, y0, 0.05)
    assert len(splu) == diag_lu.jacobians >= 1  # one LU per Jacobian formed
    scale = cfg.newton_tol * (1.0 + np.linalg.norm(space.mass @ y0))
    assert diag_cg.residual_norm <= scale and diag_lu.residual_norm <= scale
    np.testing.assert_allclose(y_cg, y_lu, rtol=0.0, atol=1e-10)
    assert energy_identity_residual(space, sig, y0, y_cg, cfg.k, 0.05).residual <= 1e-10


@pytest.mark.parametrize("c,amplitude", [(3.0, 3.0), (-3.0, 4.0), (10.0, 5.0)])
def test_two_dimensional_large_steps_converge(monkeypatch, c, amplitude):
    """At k = 0.9 from a far-off constant state with strong noise, J can lose
    definiteness; the preconditioned CG step still converges, every step
    meets the identity, and the space factorizes M + kA once."""
    space = _space(n=16, d=2)
    y0 = l2_project(space, initial_datum(f"constant:{c}", 1.0))
    backend = FemBackend(space, make_sigma("sine", amplitude))
    cfg = SchemeConfig(k=0.9)
    inc = sample_path(1, 0, T=3.6, j_fine=4).increments
    splu = _counting(monkeypatch, "splu")
    cg = _counting(monkeypatch, "cg")
    traj = run_trajectory(backend, cfg, y0, inc, with_identity=True)
    assert len(splu) == 1 and len(cg) >= 4
    for check in traj.identity:
        assert check.passed


@pytest.mark.parametrize("c,amplitude", [(3.0, 3.0), (-3.0, 4.0), (10.0, 5.0)])
def test_three_dimensional_large_steps_converge(monkeypatch, c, amplitude):
    """The d = 3 twin of the d = 2 large-step test: at k = 0.9 the CG step
    preconditioned by the spectrum of M + kA converges with no sparse LU,
    and every identity residual is at most 1e-10."""
    space = _space(n=8, d=3)
    y0 = l2_project(space, initial_datum(f"constant:{c}", 1.0))
    backend = FemBackend(space, make_sigma("sine", amplitude))
    cfg = SchemeConfig(k=0.9)
    inc = sample_path(1, 0, T=3.6, j_fine=4).increments
    splu = _counting(monkeypatch, "splu")
    cg = _counting(monkeypatch, "cg")
    traj = run_trajectory(backend, cfg, y0, inc, with_identity=True)
    assert splu == [] and len(cg) >= 4
    for check in traj.identity:
        assert check.residual <= 1e-10
