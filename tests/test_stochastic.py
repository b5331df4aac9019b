"""Counter-based path generation, coarsening bit-exactness, and statistics."""

import numpy as np
import pytest

from sacpde.errors import ValidationError
from sacpde.stochastic import (
    McStats,
    WienerPath,
    coarsen,
    mc_accumulate,
    sample_path,
    total_displacement,
)


def test_sample_path_is_deterministic():
    a = sample_path(7, 0, T=1.0, j_fine=128)
    b = sample_path(7, 0, T=1.0, j_fine=128)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(7, 1, T=1.0, j_fine=128)
    assert not np.array_equal(a.increments, c.increments)
    d = sample_path(8, 0, T=1.0, j_fine=128)
    assert not np.array_equal(a.increments, d.increments)


def test_sample_path_shape_and_metadata():
    p = sample_path(1, 3, T=0.5, j_fine=64)
    assert p.j == 64
    assert p.k == pytest.approx(0.5 / 64)
    assert p.increments.shape == (64,)
    assert np.all(np.isfinite(p.increments))


def test_increment_variance_matches_k():
    """Var of one increment is k; 1e5 samples pin it within 3%."""
    T, j = 10.0, 100_000
    p = sample_path(123, 0, T=T, j_fine=j)
    k = T / j
    ratio = p.increments.var(ddof=1) / k
    assert 0.97 <= ratio <= 1.03


def test_increment_mean_within_four_se():
    p = sample_path(9, 4, T=1.0, j_fine=10_000)
    z = p.increments / np.sqrt(p.k)
    assert abs(z.mean()) <= 4.0 / np.sqrt(p.j)


def test_paths_are_uncorrelated():
    a = sample_path(5, 0, T=1.0, j_fine=50_000).increments
    b = sample_path(5, 1, T=1.0, j_fine=50_000).increments
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_coarsen_factor_two_pairs():
    p = WienerPath(0, 0, 1.0, np.array([1.0, 2.0, 3.0, 4.0]))
    c = coarsen(p, 2)
    np.testing.assert_array_equal(c.increments, [3.0, 7.0])
    assert c.k == pytest.approx(0.5)
    ident = coarsen(p, 1)
    np.testing.assert_array_equal(ident.increments, p.increments)


def test_coarsen_composition_is_bit_exact():
    """coarsen by 2 then 4 equals coarsen by 8, bit for bit."""
    p = sample_path(2, 0, T=1.0, j_fine=256)
    two_stage = coarsen(coarsen(p, 2), 4).increments
    one_stage = coarsen(p, 8).increments
    assert np.array_equal(two_stage, one_stage)


def test_total_displacement_invariant_under_coarsening():
    p = sample_path(3, 1, T=1.0, j_fine=512)
    td = total_displacement(p)
    for f in (2, 4, 8, 32, 512):
        assert total_displacement(coarsen(p, f)) == td  # exact equality


def test_coarsen_rejects_bad_factors():
    p = sample_path(0, 0, T=1.0, j_fine=64)
    with pytest.raises(ValidationError):
        coarsen(p, 3)
    with pytest.raises(ValidationError):
        coarsen(p, 128)
    with pytest.raises(ValidationError):
        coarsen(p, 0)


def test_sample_path_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        sample_path(1, 0, T=1.0, j_fine=0)
    with pytest.raises(ValidationError):
        sample_path(1, 0, T=-1.0, j_fine=8)
    with pytest.raises(ValidationError):
        sample_path(-1, 0, T=1.0, j_fine=8)
    with pytest.raises(ValidationError):
        sample_path(2**64, 0, T=1.0, j_fine=8)
    with pytest.raises(ValidationError):
        sample_path(0, 2**64, T=1.0, j_fine=8)
    sample_path(2**64 - 1, 2**64 - 1, T=1.0, j_fine=8)  # the largest uint64 key


def test_mc_accumulate_hand_values():
    st = mc_accumulate([1.0, 1.0, 1.0, 1.0])
    assert st.n == 4
    assert st.mean == pytest.approx(1.0)
    assert st.variance == 0.0

    st = mc_accumulate([0.0, 2.0])
    assert st.mean == pytest.approx(1.0)
    assert st.variance == pytest.approx(2.0)
    assert st.se == pytest.approx(1.0)
    lo, hi = st.ci95
    assert lo < st.mean < hi
    assert hi - st.mean == pytest.approx(1.959963984540054, rel=1e-12)


def test_mc_accumulate_needs_two_samples():
    with pytest.raises(ValidationError):
        mc_accumulate([])
    with pytest.raises(ValidationError):
        mc_accumulate([1.0])


def test_mc_accumulate_matches_numpy_on_normals():
    rng = np.random.default_rng(42)
    xs = rng.standard_normal(10_000)
    st = mc_accumulate(xs)
    assert st.mean == pytest.approx(xs.mean(), abs=1e-12)
    assert st.variance == pytest.approx(xs.var(ddof=1), rel=1e-10)
    assert abs(st.mean) <= 4.0 / np.sqrt(10_000)


def test_mcstats_as_dict_round_trips():
    st = McStats(4, 1.0, 0.25)
    d = st.as_dict()
    assert d["n"] == 4
    assert d["se"] == pytest.approx(0.25)
    assert d["ci95_low"] <= d["mean"] <= d["ci95_high"]
