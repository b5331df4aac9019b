"""Quadrature rules on reference simplices (interval, triangle, tetrahedron):
one rule exact to degree 4 per dimension, and the nodal vertex rule.

Rules are returned in barycentric coordinates with weights normalised to sum
to one, so an element integral is ``vol(K) * sum_q w[q] * integrand(x_q)``.
The barycentric point array doubles as the table of P1 basis values at the
quadrature points.

Polynomial exactness of every rule is pinned in the test suite against the
closed-form simplex monomial integral
``(1/vol) * int_K prod_i lam_i^a_i = d! * prod_i a_i! / (d + |a|)!``.
"""

import numpy as np

from .errors import ValidationError


def _gauss_interval(npts):
    # Gauss-Legendre on [0,1], barycentric (1-t, t); exact to degree 2*npts-1.
    x, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (x + 1.0)
    pts = np.column_stack([1.0 - t, t])
    return pts, 0.5 * w


def _triangle_rule():
    # 6-point degree-4 rule (two symmetric orbits, positive weights).
    a1, w1 = 0.108103018168070, 0.223381589678011
    a2, w2 = 0.816847572980459, 0.109951743655322
    pts = []
    wts = []
    for a, w in ((a1, w1), (a2, w2)):
        b = 0.5 * (1.0 - a)
        for lam in ((a, b, b), (b, a, b), (b, b, a)):
            pts.append(lam)
            wts.append(w)
    return np.array(pts), np.array(wts)


def _tetrahedron_rule():
    # 11-point degree-4 rule (centroid weight is negative; the rule is still
    # exact, which is all the energy-identity bookkeeping needs).
    c = np.sqrt(5.0 / 14.0)
    g1 = 1.0 / 14.0
    g2a, g2b = 0.25 * (1.0 + c), 0.25 * (1.0 - c)
    points = [(0.25, 0.25, 0.25, 0.25)]
    weights = [6.0 * (-74.0 / 5625.0)]
    for i in range(4):
        lam = [g1] * 4
        lam[i] = 1.0 - 3.0 * g1
        points.append(tuple(lam))
        weights.append(6.0 * (343.0 / 45000.0))
    for i in range(4):
        for j in range(i + 1, 4):
            lam = [g2b] * 4
            lam[i] = g2a
            lam[j] = g2a
            points.append(tuple(lam))
            weights.append(6.0 * (28.0 / 1125.0))
    return np.array(points), np.array(weights)


_RULES = {1: _gauss_interval(3), 2: _triangle_rule(), 3: _tetrahedron_rule()}


def simplex_rule(d):
    """Return (points, weights) exact for polynomials up to degree 4.

    points has shape (Q, d+1) in barycentric coordinates, weights sum to 1.
    """
    if d not in _RULES:
        raise ValidationError(f"d must be one of 1, 2, 3 (got {d})")
    return _RULES[d]


def vertex_rule(d):
    """Nodal (mass-lumping) rule: simplex corners, equal weights, degree 1."""
    if d not in (1, 2, 3):
        raise ValidationError(f"d must be one of 1, 2, 3 (got {d})")
    return np.eye(d + 1), np.full(d + 1, 1.0 / (d + 1))


def monomial_integral(d, exponents):
    """Closed-form ``(1/vol) int_K prod lam_i**a_i`` on a d-simplex.

    Equals ``d! * prod(a_i!) / (d + sum(a_i))!``; used as the independent
    oracle for rule exactness.
    """
    from math import factorial

    total = int(sum(exponents))
    num = factorial(d)
    for a in exponents:
        num *= factorial(int(a))
    return num / factorial(d + total)
