"""Truncated power series: the coefficient container of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument


@dataclass
class TruncatedSeries:
    """Coefficients c_0..c_N of a series truncated at degree N."""

    coeffs: list
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise InvalidArgument(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}")
