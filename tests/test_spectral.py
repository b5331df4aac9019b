"""Fourier reference solver: exact linear decay, Parseval, batch independence."""

import numpy as np
import pytest

from sacpde import spectral
from sacpde.errors import ValidationError
from sacpde.mesh_fem import FemSpace, PeriodicMesh
from sacpde.model import initial_datum, make_sigma
from sacpde.spectral import (
    SpectralBackend,
    SpectralSpace,
    evaluate_on_mesh,
    spectral_energy,
    spectral_energy_identity_residual,
    spectral_project,
    step_batch,
)
from sacpde.stepper import IDENTITY_ATOL, IDENTITY_RTOL, SchemeConfig, run_trajectory
from sacpde.stochastic import sample_path

ZERO = make_sigma("zero")


def test_space_construction():
    sp = SpectralSpace(1.0, 16)
    assert sp.coeff_count == 17
    assert sp.grid_size >= 4 * 16 + 1
    assert sp.eigenvalues[0] == 0.0
    assert sp.eigenvalues[1] == pytest.approx((2 * np.pi) ** 2)
    with pytest.raises(ValidationError):
        SpectralSpace(1.0, 0)
    with pytest.raises(ValidationError):
        SpectralSpace(-1.0, 16)


def test_grid_roundtrip():
    sp = SpectralSpace(2.0, 12)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    c[0] = c[0].real  # mode 0 of a real function
    back = sp.to_modes(sp.to_grid(c))
    np.testing.assert_allclose(back, c, atol=1e-13)


def test_projection_of_cos_is_single_mode():
    R = 1.0
    sp = SpectralSpace(R, 8)
    c = spectral_project(sp, initial_datum("cos", R))
    expected = np.zeros(9, dtype=complex)
    expected[1] = 0.5
    np.testing.assert_allclose(c, expected, atol=1e-14)


def test_norms_of_single_mode():
    """Mode-m amplitude a has l2^2 = 2 R a^2 and h1^2 = lambda_m * l2^2."""
    R = 2.0
    sp = SpectralSpace(R, 8)
    c = np.zeros(9, dtype=complex)
    c[2] = 0.3
    lam2 = (2 * np.pi * 2 / R) ** 2
    assert sp.l2_norm(c) ** 2 == pytest.approx(2 * R * 0.09, rel=1e-13)
    assert sp.h1_seminorm(c) ** 2 == pytest.approx(lam2 * 2 * R * 0.09, rel=1e-13)


def test_parseval_against_grid_integral():
    sp = SpectralSpace(1.0, 16)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    c[0] = c[0].real
    u = sp.to_grid(c)
    assert sp.grid_integral(u * u) == pytest.approx(sp.l2_norm(c) ** 2, rel=1e-12)


def test_evaluate_on_mesh_is_exact_for_cos():
    R = 1.0
    sp = SpectralSpace(R, 8)
    c = spectral_project(sp, initial_datum("cos", R))
    mesh_space = FemSpace(PeriodicMesh(1, R, 64))
    vals = evaluate_on_mesh(sp, c, mesh_space)
    x = mesh_space.mesh.vertices[:, 0]
    np.testing.assert_allclose(vals, np.cos(2 * np.pi * x), atol=1e-13)


def test_small_amplitude_decay_factors_match_linearization():
    """Near u = 0 the reaction term is -(u_new + u_old)/2, so one step solves
    (1 + k lambda - k/2) c = (1 + k/2) c0 mode by mode."""
    sp = SpectralSpace(1.0, 8)
    cfg = SchemeConfig(k=0.02)
    rng = np.random.default_rng(1)
    c0 = 1e-5 * np.exp(2j * np.pi * rng.random(9))
    c0[0] = 1e-5
    new, iters, rnorm = step_batch(sp, ZERO, cfg, c0[None, :], np.zeros(1))
    k = cfg.k
    np.testing.assert_allclose(
        new[0], c0 * (1.0 + k / 2) / (1.0 + k * sp.eigenvalues - k / 2), rtol=1e-8
    )


def test_constant_state_matches_scalar_reduction():
    """The spectral step on a constant agrees with the scalar implicit solve."""
    sp = SpectralSpace(1.0, 8)
    k, c0 = 0.1, 2.0
    cfg = SchemeConfig(k=k)
    g = lambda c: c + k * 0.5 * (c * c - 1.0) * (c + c0) - c0
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    C0 = np.r_[c0, np.zeros(8)].astype(complex)[None, :]
    C1, _, _ = step_batch(sp, ZERO, cfg, C0, np.zeros(1))
    assert C1[0, 0].real == pytest.approx(root, abs=1e-10)
    np.testing.assert_allclose(np.abs(C1[0, 1:]), 0.0, atol=1e-14)


def _semi_implicit_start_wins(sp, sig, cfg, C, dw):
    """Per row, whether the semi-implicit step y0 = C - F(C)/D has a lower
    Newton residual than C itself, so that Newton starts from y0."""
    D = 1.0 + cfg.k * sp.eigenvalues
    u = sp.to_grid(C)
    rhs0 = C + dw[:, None] * sp.to_modes(sig(u))
    F = spectral._residual(sp, C, u, u, rhs0, D, cfg.k)
    y0 = C - F / D
    F0 = spectral._residual(sp, y0, sp.to_grid(y0), u, rhs0, D, cfg.k)
    return sp.l2_norm(F0) < sp.l2_norm(F)


def _step_in_partitions(sp, sig, cfg, C, dw):
    """One step of all rows; asserts that the rows stepped in two halves and
    one at a time give the same bits.  Returns the Newton iterations."""
    full, iters, _ = step_batch(sp, sig, cfg, C, dw)
    h = len(C) // 2
    first, _, _ = step_batch(sp, sig, cfg, C[:h], dw[:h])
    second, _, _ = step_batch(sp, sig, cfg, C[h:], dw[h:])
    assert np.array_equal(full, np.vstack([first, second]))
    for i in range(len(C)):
        alone, _, _ = step_batch(sp, sig, cfg, C[i : i + 1], dw[i : i + 1])
        assert np.array_equal(full[i], alone[0])
    return iters


def test_batch_partition_is_bitwise_invariant():
    """Stepping rows together or in sub-batches gives identical bits, also
    when the rows need different numbers of Newton sweeps and so carry
    different forcing terms, and when some rows start Newton from the
    semi-implicit step and others from the previous state."""
    sig = make_sigma("sine", 0.5)
    rng = np.random.default_rng(9)
    C = 0.2 * (rng.standard_normal((6, 17)) + 1j * rng.standard_normal((6, 17)))
    C[5] = 5.0 * C[5]
    C[:, 0] = C[:, 0].real
    dw = 0.05 * rng.standard_normal(6)
    iters = _step_in_partitions(SpectralSpace(1.0, 16), sig, SchemeConfig(k=0.01), C, dw)
    assert np.all(iters[5] != iters[:5])

    # k = 0.5 on amplitudes 0.1 to 3 of cos x with shifted phases: the two
    # 3 cos x rows start from their previous state, the others from y0
    sp, cfg = SpectralSpace(2 * np.pi, 12), SchemeConfig(k=0.5)
    amps = np.array([0.5, 3.0, 1.0, 3.0, 2.0, 0.1])
    C = spectral_project(sp, lambda x: np.cos(x[..., 0]))[None, :] * amps[:, None]
    C = C * np.exp(0.3j * rng.standard_normal((6, 1)) * np.arange(13))
    assert np.array_equal(_semi_implicit_start_wins(sp, sig, cfg, C, dw), amps < 3.0)
    _step_in_partitions(sp, sig, cfg, C, dw)


def test_inexact_newton_in_the_workload_regime(monkeypatch):
    """The benchmark's spectral regime: 8 modes, 64 paths of the cos datum at
    the fine step k = 0.25/4096 with sigma = sin.  Started from the
    semi-implicit step, every row meets its Newton tolerance after one sweep,
    and the forcing terms keep the transforms per step low (a solve of every
    Newton system to rounding takes about 19; the start from the previous
    state took two sweeps)."""
    sp = SpectralSpace(2 * np.pi, 8)
    cfg = SchemeConfig(k=0.25 / 4096)
    sig = make_sigma("sine", 1.0)
    C = np.tile(spectral_project(sp, initial_datum("cos", 2 * np.pi)), (64, 1))
    inc = np.array([sample_path(1, i, T=0.25, j_fine=4096).increments[:16] for i in range(64)])
    calls = []
    for name in ("to_grid", "to_modes"):
        fn = getattr(SpectralSpace, name)
        monkeypatch.setattr(
            SpectralSpace, name, lambda self, a, fn=fn: calls.append(1) or fn(self, a)
        )
    for j in range(16):
        tol = cfg.newton_tol * (1.0 + sp.l2_norm(C))
        C, iters, rnorm = step_batch(sp, sig, cfg, C, inc[:, j])
        assert np.all(rnorm <= tol)
        assert np.all(iters == 1)
    assert len(calls) / 16 <= 10


def test_spectral_energy_identity_holds():
    sp = SpectralSpace(1.0, 32)
    cfg = SchemeConfig(k=0.005, newton_tol=1e-12)
    sig = make_sigma("sine", 0.5)
    c = spectral_project(sp, initial_datum("cos", 1.0))
    inc = sample_path(3, 0, T=0.25, j_fine=50).increments
    for dw in inc:
        new, _, _ = step_batch(sp, sig, cfg, c[None, :], np.array([dw]))
        check = spectral_energy_identity_residual(sp, sig, c, new[0], cfg.k, dw)
        assert check.residual <= max(IDENTITY_ATOL, IDENTITY_RTOL * abs(check.lhs))
        assert check.passed
        c = new[0]


def test_spectral_trajectory_dissipates_without_noise():
    sp = SpectralSpace(1.0, 16)
    cfg = SchemeConfig(k=0.005)
    y0 = spectral_project(sp, initial_datum("cos", 1.0))
    traj = run_trajectory(SpectralBackend(sp, ZERO), cfg, y0, np.zeros(40))
    assert np.all(np.diff(traj.energies) <= 1e-12 * (1 + abs(traj.energies[0])))
    assert traj.energies[-1] < traj.energies[0]


def test_large_step_falls_back_to_dense_solve(monkeypatch):
    """k = 0.5 on 3 cos x defeats the diagonal split: the inner updates grow,
    the rows go to the dense solve, and Newton still converges."""
    calls = []
    dense = spectral._dense_linsolve
    monkeypatch.setattr(
        spectral, "_dense_linsolve", lambda *args: calls.append(1) or dense(*args)
    )
    sp = SpectralSpace(2 * np.pi, 12)
    cfg = SchemeConfig(k=0.5, newton_tol=1e-12)
    y0 = spectral_project(sp, lambda x: 3.0 * np.cos(x[..., 0]))
    C1, iters, rnorm = step_batch(sp, ZERO, cfg, y0[None, :], np.zeros(1))
    # the semi-implicit start is worse here, so the row starts from its
    # previous state and pays what it did from there: five sweeps, each
    # with one dense solve
    assert not _semi_implicit_start_wins(sp, ZERO, cfg, y0[None, :], np.zeros(1))[0]
    assert iters[0] == 5
    assert len(calls) == 5
    assert rnorm[0] <= cfg.newton_tol * (1.0 + sp.l2_norm(y0))
    check = spectral_energy_identity_residual(sp, ZERO, y0, C1[0], cfg.k, 0.0)
    assert check.residual <= max(IDENTITY_ATOL, IDENTITY_RTOL * abs(check.lhs))


def test_spectral_energy_matches_element_energy():
    """Both discretizations assign nearly the same energy to the cos datum."""
    from sacpde.model import energy as fem_energy
    from sacpde.mesh_fem import l2_project

    sp = SpectralSpace(1.0, 64)
    en_s = spectral_energy(sp, spectral_project(sp, initial_datum("cos", 1.0)))
    space = FemSpace(PeriodicMesh(1, 1.0, 512))
    en_f = fem_energy(space, l2_project(space, initial_datum("cos", 1.0)))
    assert en_s.total == pytest.approx(en_f.total, rel=1e-4)


def test_identity_with_the_trajectory_energies_is_bit_identical():
    """SpectralBackend.identity given the step's two energy totals equals the
    check that computes them, bit for bit."""
    sp = SpectralSpace(1.0, 16)
    backend = SpectralBackend(sp, make_sigma("sine", 0.5))
    cfg = SchemeConfig(k=0.01)
    c0 = backend.initial(initial_datum("cos", 1.0))
    c1 = backend.step(c0[None], np.array([0.05]), cfg)[0][0]
    totals = backend.energy(c0).total, backend.energy(c1).total
    computed = backend.identity(c0, c1, cfg.k, 0.05)
    passed = backend.identity(c0, c1, cfg.k, 0.05, totals)
    for name in ("residual", "lhs", "rhs", "threshold"):
        assert getattr(passed, name) == getattr(computed, name)
