"""The double-well reaction terms, energy functional, and noise coefficients.

Everything here is written against a FemSpace: integrals of the quartic
potential and the cubic reaction terms are evaluated with the space's
quadrature rule, which is exact for them unless the space is lumped.  That
exactness is what makes the per-step energy identity in `stepper` hold to
rounding rather than to discretisation error.
"""

import numpy as np

from .errors import ValidationError


# -- scalar reaction terms ---------------------------------------------------

def dpsi(y):
    """Derivative of the double-well density psi(y) = (y^2-1)^2 / 4."""
    y = np.asarray(y, dtype=float)
    return (y * y - 1.0) * y


def f_mixed(y, z):
    """Two-level reaction term (y^2 - 1)(y + z)/2.

    Evaluating the well at the new level and averaging the linear factor over
    both levels is what closes the summation-by-parts step behind the energy
    identity; f_mixed(y, y) collapses to dpsi(y).
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    return 0.5 * (y * y - 1.0) * (y + z)


def f_mixed_dy(y, z):
    """Partial derivative of f_mixed in its first argument: y(y+z) + (y^2-1)/2."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    return y * (y + z) + 0.5 * (y * y - 1.0)


# -- noise coefficients -------------------------------------------------------

class Sigma:
    """Scalar multiplicative-noise coefficient u -> sigma(u).

    All presets vanish at 0, have bounded first and second derivatives, and
    are Lipschitz with constant ``abs(amplitude)`` (pinned by a sampling test).
    """

    def __init__(self, name, amplitude, fn):
        self.name = name
        self.amplitude = float(amplitude)
        self._fn = fn

    def __call__(self, u):
        return self._fn(np.asarray(u, dtype=float))

    @property
    def is_zero(self):
        return self.name == "zero"


SIGMA_PRESETS = ("zero", "sine", "rational")


def make_sigma(name, amplitude=1.0):
    if not np.isfinite(amplitude):
        raise ValidationError(f"sigma_amplitude must be finite (got {amplitude!r})")
    if name == "zero":
        return Sigma("zero", 0.0, lambda u: np.zeros_like(u))
    if name == "sine":
        return Sigma("sine", amplitude, lambda u, c=float(amplitude): c * np.sin(u))
    if name == "rational":
        return Sigma(
            "rational", amplitude, lambda u, c=float(amplitude): c * u / (1.0 + u * u)
        )
    raise ValidationError(
        f"sigma must be one of {', '.join(SIGMA_PRESETS)} (got {name!r})"
    )


# -- energy ---------------------------------------------------------------

class EnergyBreakdown:
    """gradient_part = |grad u|^2/2, potential_part = int psi(u), total = sum."""

    __slots__ = ("gradient_part", "potential_part", "total")

    def __init__(self, gradient_part, potential_part):
        self.gradient_part = float(gradient_part)
        self.potential_part = float(potential_part)
        self.total = self.gradient_part + self.potential_part

    def as_dict(self):
        return {
            "gradient_part": self.gradient_part,
            "potential_part": self.potential_part,
            "total": self.total,
        }


def psi_value(space, u):
    """int (u^2-1)^2 / 4 over the torus, exact for P1 u unless lumped."""
    # an overflowing state is reported by the step's finite guard, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.25 * space.integrate(lambda uq: (uq * uq - 1.0) ** 2, u)


def energy(space, u):
    return EnergyBreakdown(0.5 * (u @ (space.stiffness @ u)), psi_value(space, u))


# -- variational loads ------------------------------------------------------

def nonlinear_load(space, y, z):
    """Vector of (f_mixed(y, z), phi_i) for P1 y, z."""
    return space.load_vector(f_mixed, y, z)


def sigma_load(space, sigma, u):
    """Vector of (sigma(u), phi_i).

    sigma is composed pointwise with the P1 function at the quadrature nodes
    (a quadrature crime of the rule's degree; sigma(u) is not piecewise
    polynomial, so there is nothing exact to preserve here).
    """
    if sigma.is_zero:
        return np.zeros(space.mesh.dof_count)
    return space.load_vector(sigma, u)


# -- structural checks -------------------------------------------------------

def monotonicity_gap(space, y1, y2, e_sq=None):
    """Defect of the one-sided drift estimate; nonpositive up to rounding.

    The defect is <drift(y1) - drift(y2), e> + |grad e|^2 - |e|^2 with
    e = y1 - y2, where the drift pairing is -|grad e|^2 minus the well-term
    pairing (dpsi(y1) - dpsi(y2), e).  The gradient terms cancel exactly, so
    it is computed as -(dpsi(y1) - dpsi(y2), e) - |e|^2.  The constant 1 in
    front of |e|^2 is the curvature bound of the double well (psi'' >= -1),
    so the exact value is <= 0; callers compare against a rounding allowance
    proportional to 1 + |e|^2, and may pass the |e|^2 = e @ (M @ e) they
    formed for it as e_sq.
    """
    well = space.integrate(lambda q1, q2: (dpsi(q1) - dpsi(q2)) * (q1 - q2), y1, y2)
    if e_sq is None:
        e = y1 - y2
        e_sq = e @ (space.mass @ e)
    return -well - e_sq


# -- initial-datum presets ----------------------------------------------------

def initial_datum(preset, R):
    """Named smooth periodic initial data as a callable of positions (..., d).

    cos            product of cos(2 pi x_i / R) over the axes
    tanh-layer     tanh(sin(2 pi x_1 / R) / (sqrt(2) * 0.1)); smooth, periodic,
                   interface width 0.1
    constant:<c>   the constant c
    """
    if preset == "cos":
        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.prod(np.cos(2.0 * np.pi * x / R), axis=-1)
        return fn
    if preset == "tanh-layer":
        scale = 1.0 / (np.sqrt(2.0) * 0.1)
        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.tanh(np.sin(2.0 * np.pi * x[..., 0] / R) * scale)
        return fn
    if isinstance(preset, str) and preset.startswith("constant:"):
        try:
            c = float(preset.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad constant initial datum {preset!r}") from None
        if not np.isfinite(c):
            raise ValidationError(f"constant initial datum must be finite (got {preset!r})")
        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.full(x.shape[:-1], c)
        return fn
    raise ValidationError(
        f"x0 must be one of cos, tanh-layer, constant:<c> (got {preset!r})"
    )
