"""Study orchestration: coupling, rate fits, determinism, and the check suite."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from sacpde import cli, harness, stepper
from sacpde.errors import ValidationError
from sacpde.harness import (
    STUDY_KINDS,
    ExperimentPlan,
    fit_loglog,
    identity_suite,
    increment_study,
    moment_study,
    simulate_study,
    spatial_rate_study,
    temporal_rate_study,
)
from sacpde.mesh_fem import FemSpace, PeriodicMesh
from sacpde.model import initial_datum
from sacpde.reports import json17
from sacpde.spectral import SpectralBackend, SpectralSpace
from sacpde.stepper import FemBackend


def test_fit_loglog_recovers_exact_power():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_loglog(xs, 3.0 * xs**1.5)
    assert fit["slope"] == pytest.approx(1.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit["ci95_halfwidth"] == pytest.approx(0.0, abs=1e-10)
    assert fit["n_points"] == 4


def test_fit_loglog_degenerate_inputs():
    assert fit_loglog([1.0], [2.0]) is None
    assert fit_loglog([1.0, 2.0], [0.0, 1.0]) is None  # nonpositive y
    two = fit_loglog([1.0, 2.0], [1.0, 4.0])
    assert two["slope"] == pytest.approx(2.0)
    assert two["ci95_halfwidth"] is None  # no residual dof


def test_plan_validation_collects_all_issues():
    plan = ExperimentPlan(kind="rate-time", levels=(48, 32), j_fine=256, d=5)
    with pytest.raises(ValidationError) as err:
        plan.validate()
    msg = str(err.value)
    assert "d must be" in msg
    assert "increasing" in msg


def test_plan_validation_rejects_bare_moments_levels():
    """Moments levels are (J, n) pairs; bare ints are a validation error."""
    with pytest.raises(ValidationError) as err:
        ExperimentPlan(kind="moments", levels=(16, 32)).validate()
    msg = str(err.value)
    assert "bad moments level 16: expected (J>=1, n>=2)" in msg
    assert "bad moments level 32: expected (J>=1, n>=2)" in msg


def test_plan_validation_temporal_levels():
    # non-divisor
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="rate-time", levels=(24,), j_fine=256).validate()
    # power-of-two coupling factor, but below the reference-as-truth floor
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="rate-time", levels=(64,), j_fine=256).validate()
    # factor 1 (self-comparison) and factors >= 8 are allowed
    ExperimentPlan(kind="rate-time", levels=(32, 256), j_fine=256).validate()


def test_plan_validation_spatial_levels():
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="rate-space", solver="fem", levels=(8, 16), reference=32).validate()
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="rate-space", solver="fem", levels=(12,), reference=36).validate()
    ExperimentPlan(kind="rate-space", solver="fem", levels=(8, 16), reference=64).validate()
    ExperimentPlan(kind="rate-space", solver="fem", levels=(64,), reference=64).validate()


def test_plan_validation_increments():
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="increments", taus=(0.3,), T=0.25, j_fine=256).validate()
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="increments", taus=(0.013,), T=0.25, j_fine=256).validate()
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="increments", solver="fem", taus=(0.0625,), j_fine=256).validate()


def test_plan_validation_statistics_need_paths():
    with pytest.raises(ValidationError):
        ExperimentPlan(kind="rate-time", levels=(32,), j_fine=256, n_paths=1).validate()


def test_temporal_self_comparison_is_zero():
    plan = ExperimentPlan(
        kind="rate-time", solver="spectral", spectral_modes=16,
        levels=(64,), j_fine=64, n_paths=2, T=0.25,
    )
    res = temporal_rate_study(plan)
    lv = res.report["levels"][0]
    assert lv["sup_l2_sq"]["mean"] <= 1e-20
    assert res.report["slope_l2"] is None


def test_spatial_self_comparison_is_zero():
    plan = ExperimentPlan(
        kind="rate-space", solver="fem", levels=(32,), reference=32,
        n_paths=2, J=8, T=0.02,
    )
    res = spatial_rate_study(plan)
    assert res.report["levels"][0]["sup_l2_sq"]["mean"] == 0.0


def test_temporal_rate_deterministic_flow_is_second_order():
    """sigma = 0 reduces to implicit Euler: squared-error slope about 2."""
    plan = ExperimentPlan(
        kind="rate-time", solver="spectral", spectral_modes=32,
        sigma="zero", levels=(16, 32, 64), j_fine=512, n_paths=2, T=0.25,
    )
    res = temporal_rate_study(plan)
    assert 1.7 <= res.report["slope_l2"]["slope"] <= 2.2


def test_temporal_noise_floor_exclusion_in_smoke_run():
    """Level errors must decrease with J; warnings list stays structured."""
    plan = ExperimentPlan(
        kind="rate-time", solver="spectral", spectral_modes=32, R=2 * np.pi,
        levels=(16, 32, 64), j_fine=512, n_paths=8, T=0.25,
    )
    res = temporal_rate_study(plan)
    means = [lv["sup_l2_sq"]["mean"] for lv in res.report["levels"]]
    assert means[0] > means[-1]
    assert isinstance(res.report["warnings"], list)
    for lv in res.report["levels"]:
        assert lv["sup_of_mean_l2_sq"]["value"] <= lv["sup_l2_sq"]["mean"] + 1e-18
        assert 0 <= lv["sup_of_mean_l2_sq"]["argmax_j"] <= lv["J"]


def _rows_of_first_paths(result, count):
    """CSV rows of paths 0..count-1, rendered with 17 significant digits."""
    return json17([row for row in result.csv_rows if row[2] < count])


def _run_recording_states(study, plan):
    """Run the study; also return every batch of states a backend stepped to."""
    states = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in (FemBackend, SpectralBackend):
            def recording(self, C, dw, cfg, _step=cls.step):
                out = _step(self, C, dw, cfg)
                states.append(out[0].copy())
                return out
            mp.setattr(cls, "step", recording)
        return study(ExperimentPlan(**plan)), states


_STUDIES = {
    "rate-time": temporal_rate_study,
    "rate-space": spatial_rate_study,
    "moments": moment_study,
}


@pytest.mark.parametrize(
    "plan",
    [
        dict(
            kind="rate-time", solver="spectral", spectral_modes=32, R=2 * np.pi,
            levels=(16, 32), j_fine=256, n_paths=6, T=0.25, seed=11,
        ),
        dict(
            kind="rate-space", solver="fem", R=2 * np.pi, J=16, T=0.25,
            levels=(8, 16), reference=64, n_paths=5, seed=11,
        ),
        dict(
            kind="moments", solver="fem", R=2 * np.pi, T=0.25,
            levels=((16, 8), (32, 16)), n_paths=5, seed=11,
        ),
    ],
    ids=["spectral-rate-time", "fem-rate-space", "fem-moments"],
)
def test_reports_are_byte_identical_across_runs_and_partitions(plan):
    """Reruns give the same bytes, and path i (keyed (seed, i)) gives the
    same bits whether it runs beside one other path or beside all of them."""
    study = _STUDIES[plan["kind"]]
    a, states = _run_recording_states(study, plan)
    b = study(ExperimentPlan(**plan))
    two, two_states = _run_recording_states(study, dict(plan, n_paths=2))
    assert json17(a.report) == json17(b.report)
    assert a.csv_rows == b.csv_rows
    assert len(states) == len(two_states)
    for full, pair in zip(states, two_states):
        assert np.array_equal(full[:2], pair)
    if "path_index" in a.csv_header:
        assert _rows_of_first_paths(a, 2) == _rows_of_first_paths(two, 2)
        assert len(two.csv_rows) == 2 * len(plan["levels"])


_NORM_BACKENDS = {
    **{f"spectral-N{N}": lambda N=N: SpectralBackend(SpectralSpace(1.0, N), None)
       for N in (8, 64, 512)},
    **{f"fem-d{d}-n{n}": lambda d=d, n=n: FemBackend(FemSpace(PeriodicMesh(d, 1.0, n)), None)
       for d, n in ((1, 32), (2, 8), (3, 4))},
}


@pytest.mark.parametrize("name", sorted(_NORM_BACKENDS))
def test_row_norms_do_not_depend_on_the_batch(name):
    """Each row of a (P, K) batch has the bits of the same row measured alone."""
    backend = _NORM_BACKENDS[name]()
    K = backend.initial(initial_datum("cos", 1.0)).shape[-1]
    rng = np.random.default_rng(3)
    for P in (1, 2, 5, 64):
        D = rng.standard_normal((P, K))
        if name.startswith("spectral"):
            D = D + 1j * rng.standard_normal((P, K))
            D[:, 0] = D[:, 0].real
        for norm in (backend.l2_sq, backend.h1_sq, backend.l2_norm):
            batch = norm(D)
            for i in range(P):
                assert np.array_equal(batch[i : i + 1], norm(D[i : i + 1])), (norm, P, i)


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs about a second of start-up; nothing may need it."""
    code = "import sacpde.cli, sys; assert 'scipy.stats' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_benchmark_tracer_finds_every_name_it_patches():
    """perfbench/layers.py swaps functions where the studies look them up; a
    name that leaves its module makes the traced benchmark raise KeyError."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    step, spla, runners = stepper.step, stepper.spla, dict(cli._RUNNERS)
    for kind in STUDY_KINDS:
        result, metrics = layers.Tracer().run(kind, lambda: 0)
        assert result == 0 and set(metrics) == set(layers.METRICS)
    assert harness.step is step
    assert stepper.spla is spla
    assert cli._RUNNERS == runners


def test_spatial_rate_smoke():
    plan = ExperimentPlan(
        kind="rate-space", solver="fem", R=2 * np.pi, J=64, T=0.25,
        levels=(8, 16), reference=64, n_paths=4,
    )
    res = spatial_rate_study(plan)
    means = [lv["sup_l2_sq"]["mean"] for lv in res.report["levels"]]
    assert means[0] > means[1] > 0
    assert res.report["slope_l2"]["slope"] > 1.0
    assert res.report["parameter"] == "h"


def test_moment_study_zero_noise_constant_one():
    """x0 = 1, sigma = 0: the state is an equilibrium with zero energy."""
    plan = ExperimentPlan(
        kind="moments", solver="fem", sigma="zero", x0="constant:1",
        levels=((8, 8), (16, 16)), n_paths=2, T=0.02,
    )
    res = moment_study(plan)
    for entry in res.report["levels"]:
        for p in ("p1", "p2", "p4"):
            # the stiffness quadratic form leaves rounding-level noise
            assert entry["moments"][p]["mean"] == pytest.approx(0.0, abs=1e-13)
    for p in ("p1", "p2", "p4"):
        assert res.report["bounded"][p]["within_factor2"]
        assert res.report["bounded"][p]["max_over_min"] == 1.0


def test_moment_study_zero_noise_sup_at_time_zero():
    """Dissipation puts the sup of E[energy^p] at j = 0 exactly."""
    plan = ExperimentPlan(
        kind="moments", solver="fem", sigma="zero", x0="cos",
        levels=((8, 16), (16, 32)), n_paths=2, T=0.02,
    )
    res = moment_study(plan)
    for entry in res.report["levels"]:
        for p in (1, 2, 4):
            block = entry["moments"][f"p{p}"]
            assert block["argmax_j"] == 0
            assert block["variance"] == 0.0  # all paths identical
    p1 = [e["moments"]["p1"]["mean"] for e in res.report["levels"]]
    p2 = [e["moments"]["p2"]["mean"] for e in res.report["levels"]]
    for a, b in zip(p1, p2):
        assert b == pytest.approx(a * a, rel=1e-12)


def test_increment_study_smoke():
    plan = ExperimentPlan(
        kind="increments", solver="spectral", spectral_modes=16, R=2 * np.pi,
        T=0.25, j_fine=256, taus=(0.0625, 0.03125), n_paths=4,
    )
    res = increment_study(plan)
    taus = [e["tau"] for e in res.report["taus"]]
    assert taus == [0.0625, 0.03125]  # largest first
    for e in res.report["taus"]:
        assert e["mean_sq_l2"]["mean"] > 0
    ratios = res.report["ratios"]
    assert len(ratios) == 1 and ratios[0]["halving"]
    control = res.report["control"]
    assert control["sigma"] == "zero"
    assert len(control["mean_sq_l2"]) == 2


def test_increment_study_tau_zero_gives_zero():
    plan = ExperimentPlan(
        kind="increments", solver="spectral", spectral_modes=16, R=2 * np.pi,
        T=0.25, j_fine=128, taus=(0.0625, 0.0), n_paths=2,
    )
    res = increment_study(plan)
    by_tau = {e["tau"]: e["mean_sq_l2"]["mean"] for e in res.report["taus"]}
    assert by_tau[0.0] == 0.0
    assert by_tau[0.0625] > 0.0


def test_identity_suite_default_passes():
    res = identity_suite(ExperimentPlan(kind="check", solver="fem", J=50, n=32))
    assert res.report["passed"]
    names = {e["name"]: e["status"] for e in res.report["entries"]}
    assert names["energy_identity_sigma_zero"] == "pass"
    assert names["energy_dissipation_sigma_zero"] == "pass"
    assert names["monotonicity_gap"] == "pass"
    assert names["coarsening_bit_exact"] == "pass"
    assert names["spectral_identity_sigma_sine"] == "pass"


def test_identity_suite_reports_lumping_as_expected_fail():
    res = identity_suite(
        ExperimentPlan(kind="check", solver="fem", J=20, n=32, lumped=True)
    )
    assert res.report["passed"]  # expected failures do not fail the suite
    statuses = {e["name"]: e["status"] for e in res.report["entries"]}
    assert statuses["energy_identity_sigma_zero"] == "expected-fail"


def test_identity_suite_two_dimensional():
    res = identity_suite(ExperimentPlan(kind="check", solver="fem", d=2, n=16, J=25))
    assert res.report["passed"]
    names = [e["name"] for e in res.report["entries"]]
    assert "spectral_identity_sigma_sine" not in names  # spectral is d=1 only


def test_study_kind_dispatch_is_checked():
    plan = ExperimentPlan(kind="rate-time", levels=(32,), j_fine=256, n_paths=2)
    with pytest.raises(ValidationError):
        spatial_rate_study(plan)
    with pytest.raises(ValidationError):
        simulate_study(plan)
