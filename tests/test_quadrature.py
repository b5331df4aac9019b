"""Exactness of the simplex quadrature rules against the closed-form monomial
integrals (1/vol) int prod lam_i^a_i = d! prod(a_i!) / (d + |a|)!."""

import itertools

import numpy as np
import pytest

from sacpde.errors import ValidationError
from sacpde.quadrature import monomial_integral, simplex_rule, vertex_rule


def _multi_indices(n_vars, max_total):
    for total in range(max_total + 1):
        for combo in itertools.product(range(total + 1), repeat=n_vars):
            if sum(combo) == total:
                yield combo


def test_monomial_integral_hand_values():
    # 1/vol * int over the simplex, spot-checked by hand
    assert monomial_integral(1, (0, 0)) == 1.0
    assert monomial_integral(1, (1, 0)) == pytest.approx(1.0 / 2.0)
    assert monomial_integral(1, (2, 0)) == pytest.approx(1.0 / 3.0)
    assert monomial_integral(1, (1, 1)) == pytest.approx(1.0 / 6.0)
    assert monomial_integral(2, (1, 0, 0)) == pytest.approx(1.0 / 3.0)
    assert monomial_integral(2, (2, 1, 1)) == pytest.approx(1.0 / 180.0)
    assert monomial_integral(3, (1, 1, 1, 1)) == pytest.approx(6.0 / 5040.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [4])
def test_rule_exactness(d, degree):
    """The rule integrates every barycentric monomial up to its degree."""
    pts, wts = simplex_rule(d)
    assert pts.shape[1] == d + 1
    assert wts.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-14)
    for a in _multi_indices(d + 1, degree):
        approx = wts @ np.prod(pts ** np.array(a), axis=1)
        exact = monomial_integral(d, a)
        assert approx == pytest.approx(exact, abs=1e-14), f"monomial {a}"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vertex_rule_is_degree_one_only(d):
    pts, wts = vertex_rule(d)
    assert pts.shape == (d + 1, d + 1)
    np.testing.assert_allclose(pts, np.eye(d + 1))
    np.testing.assert_allclose(wts, 1.0 / (d + 1))
    # exact for linears
    a = tuple([1] + [0] * d)
    assert wts @ np.prod(pts ** np.array(a), axis=1) == pytest.approx(
        monomial_integral(d, a), abs=1e-14
    )
    # but not for the quartic the energy needs
    a4 = tuple([4] + [0] * d)
    approx = wts @ np.prod(pts ** np.array(a4), axis=1)
    assert abs(approx - monomial_integral(d, a4)) > 1e-2


def test_gauss_interval_handles_high_degree():
    """The interval rule is 3-point Gauss-Legendre, exact to degree 5."""
    pts, wts = simplex_rule(1)
    assert len(wts) == 3
    for a in _multi_indices(2, 5):
        approx = wts @ np.prod(pts ** np.array(a), axis=1)
        assert approx == pytest.approx(monomial_integral(1, a), abs=1e-14)


def test_bad_arguments_rejected():
    with pytest.raises(ValidationError):
        simplex_rule(4)
    with pytest.raises(ValidationError):
        simplex_rule(0)
    with pytest.raises(ValidationError):
        vertex_rule(0)
