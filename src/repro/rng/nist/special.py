"""Special functions behind the NIST SP 800-22 p-values.

The suite needs only three: the complementary error function (``math.erfc``
directly), the standard normal CDF and the regularised upper incomplete
gamma function ``Q(a, x)``.  All three run on the standard library, so the
suite carries no dependency beyond NumPy.
"""

from __future__ import annotations

import math

#: Relative tolerance at which the incomplete-gamma expansions stop.
_EPSILON = 1e-16
#: Floor that keeps the modified Lentz continued fraction off zero divisors.
_TINY = 1e-300
#: Hard cap on expansion terms (both converge long before this).
_MAX_TERMS = 10_000

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def gammaincc(a: float, x: float) -> float:
    """Regularised upper incomplete gamma function ``Q(a, x)``.

    ``Q(a, x) = Gamma(a, x) / Gamma(a)`` for ``a > 0`` and ``x >= 0``: the
    chi-squared survival function is ``Q(k / 2, chi2 / 2)``.  Below
    ``x = a + 1`` it sums the power series of the lower function ``P`` and
    returns ``1 - P``; above, it evaluates the continued fraction of ``Q``
    (modified Lentz), as in Numerical Recipes' ``gammq``.
    """
    if a <= 0.0:
        raise ValueError("gammaincc needs a > 0")
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        for _ in range(_MAX_TERMS):
            denominator += 1.0
            term *= x / denominator
            total += term
            if abs(term) < abs(total) * _EPSILON:
                break
        return 1.0 - total * math.exp(log_prefactor)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    for i in range(1, _MAX_TERMS):
        numerator = -i * (i - a)
        b += 2.0
        d = numerator * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + numerator / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) < _EPSILON:
            break
    return math.exp(log_prefactor) * fraction
