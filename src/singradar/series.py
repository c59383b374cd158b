"""Truncated power-series arithmetic and reference generators."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument
from .scalars import DOUBLE, EXTENDED, ExtReal, float_magnitude


@dataclass
class TruncatedSeries:
    """Coefficients c_0..c_N of a series truncated at degree N."""

    coeffs: list
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise InvalidArgument(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}")


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise InvalidArgument("series orders differ")
    n = a.order
    out = []
    for m in range(n + 1):
        acc = 0
        for k in range(m + 1):
            acc = acc + a.coeffs[k] * b.coeffs[m - k]
        out.append(acc)
    return TruncatedSeries(out, n)


def sqrt_one_minus_t_reference(n: int, precision: str = DOUBLE) -> TruncatedSeries:
    """Binomial series of sqrt(1-t): c_{k+1} = c_k (2k-1) / (2(k+1))."""
    if n < 0:
        raise InvalidArgument("order must be nonnegative")
    c = ExtReal(1.0) if precision == EXTENDED else 1.0
    out = [c]
    for k in range(n):
        c = c * (2 * k - 1) / (2 * (k + 1))
        out.append(c)
    return TruncatedSeries(out, n)


UNDEFINED_RATIO = None


def ratio_sequence(s: TruncatedSeries):
    """c_n / c_{n+1} for n = 0..N-1; None marks an exactly-zero divisor."""
    out = []
    for n in range(s.order):
        nxt = s.coeffs[n + 1]
        if float_magnitude(nxt) == 0.0:
            out.append(UNDEFINED_RATIO)
        else:
            out.append(s.coeffs[n] / nxt)
    return out
