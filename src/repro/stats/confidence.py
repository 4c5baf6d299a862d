"""Sampling statistics for ``EstimateMisses`` (Fig. 6 of the paper).

``EstimateMisses`` analyses a sample of each reference iteration space sized
so that the estimated miss ratio lands within a confidence interval of width
``w`` at confidence level ``c`` (the paper uses c = 95%, w = 0.05, citing
DeGroot).  For a Bernoulli proportion the classical bound with the worst-case
variance ``p(1−p) ≤ 1/4`` gives

    n₀ = z²_{(1+c)/2} · p(1−p) / w²,

followed by the finite-population correction n = n₀ / (1 + (n₀−1)/V) when
the RIS volume ``V`` is known.  Fig. 6 also specifies the fallback: an RIS
too small for ``(c, w)`` is retried at the default ``(90%, 0.15)``, and if
still too small it is analysed exhaustively.
"""

from __future__ import annotations

import math
from statistics import NormalDist

#: Fig. 6's fallback accuracy for small reference iteration spaces.
DEFAULT_FALLBACK = (0.90, 0.15)

_STANDARD_NORMAL = NormalDist()


def _normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF (:class:`statistics.NormalDist`).

    It agrees with SciPy's ``norm.ppf`` to ~1 ulp, and every sample size
    the solvers, CLI and benchmarks draw is pinned equal to SciPy's by
    ``tests/stats/test_confidence.py``; importing SciPy here would cost
    every process a second on its first estimate.
    """
    return _STANDARD_NORMAL.inv_cdf(p)


def check_fraction(name: str, value: float) -> float:
    """``value`` if it lies in (0, 1), else ``ValueError`` naming ``name``.

    The rule for a confidence level and an interval half-width alike.
    """
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def z_value(confidence: float) -> float:
    """The two-sided standard-normal quantile for a confidence level."""
    check_fraction("confidence", confidence)
    return _normal_quantile((1.0 + confidence) / 2.0)


def sample_size(
    confidence: float,
    width: float,
    population: int | None = None,
    p: float = 0.5,
) -> int:
    """Sample size achieving ``(confidence, width)`` for a proportion.

    ``width`` is the half-width of the confidence interval (the paper's
    ``w``).  With ``population`` given, the finite-population correction is
    applied.  The worst case ``p = 0.5`` is the default.
    """
    check_fraction("width", width)
    z = z_value(confidence)
    n0 = z * z * p * (1.0 - p) / (width * width)
    if population is not None:
        if population <= 0:
            return 0
        n0 = n0 / (1.0 + (n0 - 1.0) / population)
        return min(population, math.ceil(n0))
    return math.ceil(n0)


def achievable(confidence: float, width: float, population: int) -> bool:
    """True if the RIS is large enough to achieve ``(confidence, width)``.

    Fig. 6 treats an RIS as "too small" when sampling would not beat
    exhaustive analysis.  The threshold uses the *uncorrected* sample size:
    a space smaller than n₀ gains nothing from sampling (the finite-
    population correction would simply shrink the sample towards a census),
    so such spaces are analysed exhaustively or at the fallback accuracy.
    """
    return sample_size(confidence, width) < population


def proportion_interval(
    successes: int, n: int, confidence: float
) -> tuple[float, float]:
    """Normal-approximation confidence interval for a sample proportion."""
    if n <= 0:
        return (0.0, 0.0)
    p = successes / n
    half = z_value(confidence) * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    return (max(0.0, p - half), min(1.0, p + half))


def wilson_interval(
    successes: int, n: int, confidence: float
) -> tuple[float, float]:
    """Wilson score interval for a sample proportion.

    Unlike the Wald interval of :func:`proportion_interval`, the Wilson
    interval stays honest at the boundaries: a sample with zero observed
    misses still yields a non-degenerate upper bound (≈ ``z²/(n+z²)``),
    which is what the differential harness needs when diffing sampled miss
    ratios against exhaustive ones on nearly-all-hit references.
    """
    if n <= 0:
        return (0.0, 0.0)
    z = z_value(confidence)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (max(0.0, centre - half), min(1.0, centre + half))
