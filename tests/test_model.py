"""Reaction terms, energy functional, noise presets, and the drift estimate."""

import numpy as np
import pytest

from sacpde.errors import ValidationError
from sacpde.mesh_fem import FemSpace, PeriodicMesh, l2_project
from sacpde.model import (
    dpsi,
    energy,
    f_mixed,
    f_mixed_dy,
    initial_datum,
    make_sigma,
    monotonicity_gap,
    nonlinear_load,
    psi_value,
    sigma_load,
)


def test_dpsi_values():
    assert dpsi(0.0) == 0.0
    assert dpsi(1.0) == 0.0
    assert dpsi(-1.0) == 0.0
    assert dpsi(2.0) == pytest.approx(6.0)


def test_f_mixed_values():
    assert f_mixed(2.0, 0.0) == pytest.approx(3.0)
    assert f_mixed(1.0, 5.0) == 0.0
    # collapses to dpsi on the diagonal
    ys = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(f_mixed(ys, ys), dpsi(ys), atol=1e-15)


def test_f_mixed_dy_matches_finite_difference():
    rng = np.random.default_rng(0)
    y = rng.uniform(-2, 2, 50)
    z = rng.uniform(-2, 2, 50)
    eps = 1e-6
    fd = (f_mixed(y + eps, z) - f_mixed(y - eps, z)) / (2 * eps)
    np.testing.assert_allclose(f_mixed_dy(y, z), fd, rtol=1e-7, atol=1e-7)


def test_potential_of_zero_state():
    """psi(0) = 1/4, so the integral over the unit torus is 1/4."""
    space = FemSpace(PeriodicMesh(1, 1.0, 16))
    assert psi_value(space, np.zeros(16)) == pytest.approx(0.25, abs=1e-14)


def test_potential_of_cos_interpolant():
    """int (cos^2-1)^2/4 = int sin^4/4 = 3/32 on the unit period."""
    space = FemSpace(PeriodicMesh(1, 1.0, 512))
    u = np.cos(2 * np.pi * space.mesh.vertices[:, 0])  # nodal interpolant
    assert psi_value(space, u) == pytest.approx(3.0 / 32.0, rel=1e-3)


def test_energy_split_of_cos():
    space = FemSpace(PeriodicMesh(1, 1.0, 512))
    u = np.cos(2 * np.pi * space.mesh.vertices[:, 0])  # nodal interpolant
    en = energy(space, u)
    assert en.gradient_part == pytest.approx(np.pi**2, rel=1e-3)
    assert en.potential_part == pytest.approx(3.0 / 32.0, rel=1e-3)
    assert en.total == en.gradient_part + en.potential_part


def test_energy_gateaux_derivative():
    """d/deps of int psi(u + eps v) at 0 equals the dpsi load pairing."""
    space = FemSpace(PeriodicMesh(1, 1.0, 64))
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.5, 1.5, 64)
    v = rng.uniform(-1.0, 1.0, 64)
    eps = 1e-6
    fd = (psi_value(space, u + eps * v) - psi_value(space, u - eps * v)) / (2 * eps)
    uq = space.element_values(u)
    vq = space.element_values(v)
    pairing = space.integrate(dpsi(uq) * vq)
    assert fd == pytest.approx(pairing, rel=1e-8, abs=1e-9)


def test_nonlinear_load_constant_states():
    """Y=2, Z=0 on two cells of the unit circle: each entry is f*h = 3/2."""
    space = FemSpace(PeriodicMesh(1, 1.0, 2))
    b = nonlinear_load(space, np.full(2, 2.0), np.zeros(2))
    np.testing.assert_allclose(b, 1.5, atol=1e-14)


def test_sigma_load_constant_state():
    """sigma = sin with c=1 at u = pi/2 integrates to h per hat function."""
    n = 8
    space = FemSpace(PeriodicMesh(1, 1.0, n))
    sig = make_sigma("sine", 1.0)
    b = sigma_load(space, sig, np.full(n, np.pi / 2.0))
    np.testing.assert_allclose(b, 1.0 / n, atol=1e-14)


def test_sigma_presets():
    zero = make_sigma("zero")
    assert zero.is_zero and zero.amplitude == 0.0
    np.testing.assert_allclose(zero(np.linspace(-3, 3, 7)), 0.0)

    for name in ("sine", "rational"):
        sig = make_sigma(name, 0.5)
        assert not sig.is_zero
        assert sig(np.zeros(3)) == pytest.approx(0.0)
        # Lipschitz constant = amplitude, verified by dense sampling
        u = np.linspace(-6, 6, 2001)
        slopes = np.abs(np.diff(sig(u)) / np.diff(u))
        assert slopes.max() <= abs(sig.amplitude) + 1e-9

    with pytest.raises(ValidationError):
        make_sigma("white")


@pytest.mark.parametrize("d,n", [(1, 32), (2, 8)])
def test_monotonicity_gap_nonpositive(d, n):
    """The one-sided drift estimate holds for random field pairs."""
    space = FemSpace(PeriodicMesh(d, 1.0, n))
    rng = np.random.default_rng(17)
    for _ in range(200):
        y1 = rng.uniform(-3, 3, space.mesh.dof_count)
        y2 = rng.uniform(-3, 3, space.mesh.dof_count)
        gap = monotonicity_gap(space, y1, y2)
        e = y1 - y2
        assert gap <= 1e-12 * (1.0 + e @ (space.mass @ e))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (3, 4)])
def test_monotonicity_gap_matches_the_literal_formula(d, n):
    """The closed form agrees with <drift(y1) - drift(y2), e> + |grad e|^2
    - |e|^2 evaluated term by term: the stiffness product, and the well
    pairing against the element values of e."""
    space = FemSpace(PeriodicMesh(d, 1.0, n))
    rng = np.random.default_rng(5)
    for _ in range(20):
        y1 = rng.uniform(-3, 3, space.mesh.dof_count)
        y2 = rng.uniform(-3, 3, space.mesh.dof_count)
        e = y1 - y2
        grad_sq = e @ (space.stiffness @ e)
        l2_sq = e @ (space.mass @ e)
        q1, q2, eq = (space.element_values(v) for v in (y1, y2, e))
        well_pair = space.integrate((dpsi(q1) - dpsi(q2)) * eq)
        literal = (-grad_sq - well_pair) + grad_sq - l2_sq
        gap = monotonicity_gap(space, y1, y2)
        assert abs(gap - literal) <= 1e-12 * (1.0 + grad_sq + l2_sq)


def test_monotonicity_gap_scales_quadratically():
    """For small perturbations the gap shrinks like eps^2 (no linear leak)."""
    space = FemSpace(PeriodicMesh(1, 1.0, 32))
    rng = np.random.default_rng(2)
    y = rng.uniform(-1, 1, 32)
    e = rng.standard_normal(32)
    g1 = abs(monotonicity_gap(space, y + 1e-2 * e, y))
    g2 = abs(monotonicity_gap(space, y + 1e-3 * e, y))
    assert g1 / g2 == pytest.approx(100.0, rel=0.2)


def test_initial_datum_presets():
    R = 2.0
    cos = initial_datum("cos", R)
    assert cos(np.zeros((1, 1)))[0] == pytest.approx(1.0)
    assert cos(np.full((1, 1), R))[0] == pytest.approx(1.0)  # periodic

    layer = initial_datum("tanh-layer", R)
    x = np.linspace(0, R, 101)[:, None]
    vals = layer(x)
    assert np.all(np.abs(vals) <= 1.0)
    assert vals[0] == pytest.approx(vals[-1], abs=1e-12)

    const = initial_datum("constant:0.5", R)
    np.testing.assert_allclose(const(np.zeros((4, 1))), 0.5)

    with pytest.raises(ValidationError):
        initial_datum("bump", R)
    with pytest.raises(ValidationError):
        initial_datum("constant:abc", R)


def test_initial_datum_2d_product_structure():
    cos = initial_datum("cos", 1.0)
    x = np.array([[0.25, 0.0]])
    assert cos(x)[0] == pytest.approx(np.cos(np.pi / 2))
    space = FemSpace(PeriodicMesh(2, 1.0, 8))
    u = l2_project(space, cos)
    # L2 projection may overshoot the sup norm on coarse meshes, but not wildly
    assert np.max(np.abs(u)) <= 1.2
