"""Implicit stepping: equilibria, dissipation, and the per-step energy identity."""

import numpy as np
import pytest

from sacpde.errors import StepFailure, ValidationError
from sacpde.mesh_fem import FemSpace, PeriodicMesh, l2_project
from sacpde.model import energy, initial_datum, make_sigma
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
    with pytest.raises(ValidationError):
        SchemeConfig(k=0.01, newton_max_iter=0)


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
    y0 = l2_project(space, initial_datum("cos", 1.0)).coeffs
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
        traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(20), record_stride=1)
        worst = 0.0
        for j in range(1, 21):
            d = traj.retained[j] - traj.retained[j - 1]
            e_prev = energy(space, traj.retained[j - 1]).total
            worst = max(worst, (d @ (space.mass @ d)) / (k * e_prev))
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
    y0 = l2_project(space, initial_datum("cos", 1.0)).coeffs
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
    assert np.array_equal(traj.terminal, y0.coeffs)


def test_step_failure_raises():
    space = _space(n=16)
    cfg = SchemeConfig(k=0.9, newton_tol=1e-14, newton_max_iter=1, damping=0)
    y0 = np.full(16, 3.0)
    with pytest.raises(StepFailure):
        step(space, ZERO, cfg, y0, 0.0)


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


def test_record_stride_retains_states():
    space = _space(n=16)
    cfg = SchemeConfig(k=0.01)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    traj = run_trajectory(FemBackend(space, ZERO), cfg, y0, np.zeros(10), record_stride=5)
    assert sorted(traj.retained) == [0, 5, 10]
    np.testing.assert_array_equal(traj.retained[10], traj.terminal)
