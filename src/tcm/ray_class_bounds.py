"""Degree bounds for ray class fields over imaginary quadratic fields.

Only the sandwich h*phi/6 <= h*phi/w <= [K^(c):K] <= h*phi is encoded,
never the field itself; bounds are exact rationals until a caller
chooses to format them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ideal_arith import FactoredIdeal, phi_K
from .quad_core import Discriminant, class_number, require_fundamental, unit_count


class DegreeBounds(NamedTuple):
    """Two-sided bounds on the degree of a ray class field over K.

    lower_weak is the uniform /6 variant that is independent of which
    field K is (w divides 6 for every imaginary quadratic field).
    """

    lower_weak: Fraction
    lower: Fraction
    upper: int


def degree_bounds(d: int | Discriminant, c: FactoredIdeal) -> DegreeBounds:
    disc = require_fundamental(d)
    if c.disc != disc:
        raise ValueError("ideal belongs to a different field")
    h = class_number(disc)
    w = unit_count(disc)
    phi = phi_K(c)
    return DegreeBounds(
        lower_weak=Fraction(h * phi, 6),
        lower=Fraction(h * phi, w),
        upper=h * phi,
    )


__all__ = ["DegreeBounds", "degree_bounds"]
