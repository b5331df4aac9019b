"""Coupled Brownian increments and Monte Carlo accumulation.

Increments are generated counter-based: a Philox stream keyed by
(seed, path_index) yields raw 64-bit words, mapped into the open interval
(0,1) and through the inverse normal CDF (scipy.special.ndtri, a rational
approximation with absolute error far below 1e-9).  The same (seed,
path_index) therefore reproduces the same path bit-for-bit on any machine
and under any scheduling, which is what the byte-identical report contract
rests on.

Coarse levels reuse the fine increments: coarsening sums pairs repeatedly
(factor = power of two), so coarsening twice equals coarsening once with the
product factor, bit-exactly, and the total displacement is invariant across
levels — checked before every coupled run.
"""

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError

_CI95 = 1.959963984540054  # standard normal 97.5% quantile

KEY_MAX = 2**64 - 1  # seed and path index form the uint64 Philox key


class WienerPath:
    """Scalar Brownian increments on a uniform grid over [0, T]."""

    __slots__ = ("seed", "path_index", "T", "j", "k", "increments")

    def __init__(self, seed, path_index, T, increments):
        self.seed = int(seed)
        self.path_index = int(path_index)
        self.T = float(T)
        self.increments = np.asarray(increments, dtype=float)
        self.j = len(self.increments)
        self.k = self.T / self.j


def sample_path(seed, path_index, T, j_fine):
    """Draw the fine-level path for (seed, path_index); deterministic."""
    if not isinstance(j_fine, (int, np.integer)) or j_fine < 1:
        raise ValidationError(f"j_fine must be a positive integer (got {j_fine!r})")
    if not np.isfinite(T) or T <= 0:
        raise ValidationError(f"T must be positive (got {T!r})")
    if not (0 <= seed <= KEY_MAX and 0 <= path_index <= KEY_MAX):
        raise ValidationError("seed and path_index must be integers in [0, 2**64 - 1]")
    key = np.array([seed, path_index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(int(j_fine))
    # top 53 bits, centered: strictly inside (0,1), so ndtri stays finite
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    z = ndtri(u)
    k_fine = float(T) / int(j_fine)
    return WienerPath(seed, path_index, T, np.sqrt(k_fine) * z)


def coarsen(path, factor):
    """Sum consecutive increments in pairs; factor must be a power of two."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValidationError(f"coarsening factor must be a positive integer (got {factor!r})")
    factor = int(factor)
    if factor & (factor - 1):
        raise ValidationError(f"coarsening factor must be a power of two (got {factor})")
    if path.j % factor != 0:
        raise ValidationError(
            f"coarsening factor {factor} does not divide path length {path.j}"
        )
    inc = path.increments
    f = factor
    while f > 1:
        inc = inc.reshape(-1, 2).sum(axis=1)
        f //= 2
    return WienerPath(path.seed, path.path_index, path.T, inc)


def total_displacement(path):
    """W(T) via the same pairwise summation tree the coarsening uses.

    Bit-identical across coarsening levels, which is the precondition the
    coupled-path harness asserts before every run.
    """
    v = path.increments
    while len(v) > 1:
        m = len(v)
        if m % 2:
            v = np.concatenate([v[: m - 1].reshape(-1, 2).sum(axis=1), v[m - 1 :]])
        else:
            v = v.reshape(-1, 2).sum(axis=1)
    return float(v[0])


class McStats:
    """Sample statistics: n, mean, variance (ddof=1), se, 95% CI."""

    __slots__ = ("n", "mean", "variance", "se", "ci95")

    def __init__(self, n, mean, variance):
        self.n = int(n)
        self.mean = float(mean)
        self.variance = float(variance)
        self.se = float(np.sqrt(self.variance / self.n)) if self.n > 0 else float("nan")
        half = _CI95 * self.se
        self.ci95 = (self.mean - half, self.mean + half)

    def as_dict(self):
        return {
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "se": self.se,
            "ci95_low": self.ci95[0],
            "ci95_high": self.ci95[1],
        }


def mc_accumulate(samples):
    """Sample statistics of a sequence of scalars."""
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValidationError(
            f"mc_accumulate needs at least two samples for a variance (got {len(x)})"
        )
    return McStats(len(x), x.mean(), x.var(ddof=1))
