"""The nine acceptance checks, each printing one ACCEPTANCE n PASS/FAIL line.

These run the full-size configurations (the Monte Carlo ones are marked
slow); together they take a few minutes on one desktop core.
"""

import time

import numpy as np
import pytest

from sacpde.harness import (
    ExperimentPlan,
    increment_study,
    moment_study,
    spatial_rate_study,
    temporal_rate_study,
)
from sacpde.mesh_fem import FemSpace, PeriodicMesh, l2_project
from sacpde.model import initial_datum, make_sigma, monotonicity_gap
from sacpde.reports import json17
from sacpde.spectral import (
    SpectralBackend,
    SpectralSpace,
    evaluate_on_mesh,
    spectral_project,
)
from sacpde.stepper import (
    IDENTITY_ATOL,
    IDENTITY_RTOL,
    FemBackend,
    SchemeConfig,
    run_trajectory,
)
from sacpde.stochastic import sample_path

TWO_PI = 2.0 * np.pi


def _verdict(number, ok, detail=""):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}{detail and ' -- ' + detail}")
    assert ok, detail


def _identity_run(newton_tol):
    space = FemSpace(PeriodicMesh(1, 1.0, 64))
    cfg = SchemeConfig(k=0.0025, newton_tol=newton_tol)
    y0 = l2_project(space, initial_datum("cos", 1.0))
    return run_trajectory(
        FemBackend(space, make_sigma("zero")), cfg, y0, np.zeros(100), with_identity=True
    )


def test_acceptance_1_energy_identity_exactness():
    """Per-step identity residual at rounding level; loose Newton breaks it."""
    t0 = time.monotonic()
    traj = _identity_run(newton_tol=1e-12)
    elapsed = time.monotonic() - t0
    worst = 0.0
    ok = True
    for row in traj.diagnostics:
        thr = max(IDENTITY_ATOL, IDENTITY_RTOL * abs(row["identity_lhs"]))
        worst = max(worst, row["identity_residual"])
        ok = ok and row["identity_residual"] <= thr

    control = _identity_run(newton_tol=1e-3)
    worst_control = max(r["identity_residual"] for r in control.diagnostics)
    violated = worst_control > IDENTITY_ATOL

    _verdict(
        1,
        ok and violated and elapsed < 10.0,
        f"max residual {worst:.2e}, control {worst_control:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_deterministic_dissipation():
    traj = _identity_run(newton_tol=1e-12)
    diffs = np.diff(traj.energies)
    non_increasing = bool(np.all(diffs <= 0.0))
    ended_below = traj.energies[-1] < traj.energies[0]
    _verdict(
        2,
        non_increasing and ended_below,
        f"max step change {diffs.max():.2e}, "
        f"{traj.energies[0]:.4f} -> {traj.energies[-1]:.4f}",
    )


def test_acceptance_3_weak_monotonicity():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    worst = -np.inf
    ok = True
    for d, n in ((1, 64), (2, 16)):
        space = FemSpace(PeriodicMesh(d, 1.0, n))
        dofs = space.mesh.dof_count
        for _ in range(1000):
            y1 = rng.uniform(-3, 3, dofs)
            y2 = rng.uniform(-3, 3, dofs)
            gap = monotonicity_gap(space, y1, y2)
            e = y1 - y2
            allow = 1e-12 * (1.0 + e @ (space.mass @ e))
            worst = max(worst, gap - allow)
            ok = ok and gap <= allow
    elapsed = time.monotonic() - t0
    _verdict(3, ok and elapsed < 5.0, f"worst margin {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_acceptance_4_temporal_strong_rate():
    t0 = time.monotonic()
    plan = ExperimentPlan(
        kind="rate-time", solver="spectral", spectral_modes=128, d=1, R=TWO_PI,
        T=0.25, j_fine=4096, levels=(16, 32, 64, 128, 256, 512),
        sigma="sine", sigma_amplitude=0.5, x0="cos", seed=1, n_paths=64,
    )
    res = temporal_rate_study(plan)
    elapsed = time.monotonic() - t0
    fit = res.report["slope_l2"]
    slope = fit["slope"]
    _verdict(
        4,
        0.8 <= slope <= 1.2 and elapsed < 900.0,
        f"slope {slope:.3f} +/- {fit['ci95_halfwidth']:.3f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_acceptance_5_spatial_strong_rate():
    t0 = time.monotonic()
    plan = ExperimentPlan(
        kind="rate-space", solver="fem", d=1, R=TWO_PI, T=0.25, J=1024,
        levels=(8, 16, 32, 64, 128), reference=512,
        sigma="sine", sigma_amplitude=0.5, x0="cos", seed=1, n_paths=32,
    )
    res = spatial_rate_study(plan)
    elapsed = time.monotonic() - t0
    slope = res.report["slope_l2"]["slope"]
    _verdict(
        5,
        slope >= 1.7 and elapsed < 1200.0,
        f"slope {slope:.3f} (one-sided >= 1.7), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_acceptance_6_moment_boundedness():
    plan = ExperimentPlan(
        kind="moments", solver="fem", d=1, R=TWO_PI, T=0.25,
        levels=((256, 64), (1024, 256)), sigma="sine", sigma_amplitude=0.5,
        x0="cos", seed=1, n_paths=64,
    )
    res = moment_study(plan)
    bounded = res.report["bounded"]
    ok = bounded["p1"]["within_factor2"] and bounded["p2"]["within_factor2"]
    _verdict(
        6,
        ok,
        f"max/min p1 {bounded['p1']['max_over_min']:.3f}, "
        f"p2 {bounded['p2']['max_over_min']:.3f}",
    )


@pytest.mark.slow
def test_acceptance_7_increment_scaling():
    plan = ExperimentPlan(
        kind="increments", solver="spectral", spectral_modes=128, d=1, R=TWO_PI,
        T=0.25, j_fine=4096,
        taus=(0.0625, 0.03125, 0.015625, 0.0078125),
        sigma="sine", sigma_amplitude=0.5, x0="cos", seed=1, n_paths=256,
    )
    res = increment_study(plan)
    ratios = [r["ratio"] for r in res.report["ratios"]]
    in_band = all(0.35 <= r <= 0.65 for r in ratios)
    control = [r["ratio"] for r in res.report["control"]["ratios"]]
    control_ok = all(0.15 <= r <= 0.35 for r in control)
    _verdict(
        7,
        in_band and control_ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
        + "; control " + ", ".join(f"{r:.3f}" for r in control),
    )


def test_acceptance_8_reproducibility_across_partitions():
    """Identical plan => byte-identical report on a rerun, and each path's
    CSV rows are the same bits whether 2 or all 8 paths run together."""
    base = dict(
        kind="rate-time", solver="spectral", spectral_modes=64, d=1, R=TWO_PI,
        T=0.25, j_fine=512, levels=(32, 64), sigma="sine", sigma_amplitude=0.5,
        x0="cos", seed=21, n_paths=8,
    )
    first = temporal_rate_study(ExperimentPlan(**base))
    second = temporal_rate_study(ExperimentPlan(**base))
    prefix = temporal_rate_study(ExperimentPlan(**dict(base, n_paths=2)))
    same_rerun = json17(first.report) == json17(second.report)
    same_csv = first.csv_rows == second.csv_rows
    # rows are (level, k, path_index, sup_l2_sq, sum_h1_sq); path i is keyed
    # (seed, i), and json17 renders every float with 17 significant digits
    first_two = [row for row in first.csv_rows if row[2] < 2]
    same_prefix = json17(first_two) == json17(prefix.csv_rows)
    _verdict(
        8,
        same_rerun and same_csv and same_prefix,
        f"rerun identical: {same_rerun}, paths 0-1 of 2 vs 8 identical: {same_prefix}",
    )


@pytest.mark.slow
def test_acceptance_9_fem_spectral_cross_validation():
    R, T, J = TWO_PI, 0.25, 1024
    sig = make_sigma("sine", 0.5)
    x0 = initial_datum("cos", R)
    inc = sample_path(seed=1, path_index=0, T=T, j_fine=J).increments
    cfg = SchemeConfig(k=T / J)

    space = FemSpace(PeriodicMesh(1, R, 512))
    fem = run_trajectory(FemBackend(space, sig), cfg, l2_project(space, x0), inc)

    sp = SpectralSpace(R, 128)
    spec = run_trajectory(SpectralBackend(sp, sig), cfg, spectral_project(sp, x0), inc)

    diff = fem.terminal - evaluate_on_mesh(sp, spec.terminal, space)
    l2 = float(np.sqrt(diff @ (space.mass @ diff)))
    _verdict(9, l2 <= 1e-2, f"terminal L2 difference {l2:.3e}")
