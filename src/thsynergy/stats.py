"""Pearson chi-square homogeneity test for a 2 x k count table.

The p-value comes from the regularized upper incomplete gamma function,
evaluated by a power series for small arguments and a Lentz continued
fraction otherwise. No Yates continuity correction is applied; the result
matches the uncorrected textbook statistic.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from .cube import ContingencyCube


class DegenerateTable(ValueError):
    """Table shape or margins unusable for the homogeneity test."""


_EPS = 1e-15
_ITMAX = 400
_FPMIN = 1e-300


def _gamma_series(a: float, x: float) -> float:
    # lower regularized P(a, x), valid for x < a + 1
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cfrac(a: float, x: float) -> float:
    # upper regularized Q(a, x) via modified Lentz, valid for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cfrac(a, x)


def chi_square_survival(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square distributed with dof degrees."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    return regularized_gamma_q(dof / 2.0, statistic / 2.0)


class ChiSquareResult(NamedTuple):
    statistic: float
    dof: int
    p_value: float


def chi_square_homogeneity(table: Sequence[Sequence[float]]) -> ChiSquareResult:
    """Uncorrected Pearson test that two count rows share one distribution.

    Arguments:
        table: two rows of k >= 2 finite non-negative counts. Every column
            must have a positive total and so must each row, otherwise the
            expected counts degenerate and DegenerateTable is raised, as it
            is when the statistic overflows.

    Returns statistic, dof = k - 1 and the survival p-value. A statistic of
    exactly zero gives p = 1.0 exactly.
    """
    if len(table) != 2:
        raise DegenerateTable(f"need exactly 2 rows, got {len(table)}")
    top, bottom = (list(map(float, row)) for row in table)
    if len(top) != len(bottom):
        raise DegenerateTable("rows differ in length")
    k = len(top)
    if k < 2:
        raise DegenerateTable("need at least 2 columns")
    if not all(math.isfinite(v) for v in top + bottom):
        raise DegenerateTable("counts must be finite")
    if any(v < 0 for v in top + bottom):
        raise DegenerateTable("counts must be non-negative")
    row_totals = (sum(top), sum(bottom))
    if min(row_totals) <= 0:
        raise DegenerateTable("both row totals must be positive")
    grand = row_totals[0] + row_totals[1]
    statistic = 0.0
    for j in range(k):
        col = top[j] + bottom[j]
        if col <= 0:
            raise DegenerateTable(f"column {j} total is zero")
        for row_total, obs in ((row_totals[0], top[j]), (row_totals[1], bottom[j])):
            # dividing before multiplying keeps large finite margins from overflowing
            expected = row_total * (col / grand)
            if expected == 0:  # positive margins whose product underflows, or col / grand with an inf grand
                if math.isinf(grand):
                    rows = " and ".join(f"row {i}" for i, t in enumerate(row_totals) if math.isinf(t))
                    raise DegenerateTable(f"total of {rows} overflows" if rows else "grand total overflows")
                raise DegenerateTable(f"expected count in column {j} underflows to zero")
            diff = obs - expected
            statistic += diff * (diff / expected)
    if not math.isfinite(statistic):  # margins or a statistic that overflow
        raise DegenerateTable("statistic is not finite")
    dof = k - 1
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=chi_square_survival(statistic, dof))


def ownership_tech_table(cube: ContingencyCube) -> tuple[tuple, list[list[int]]]:
    """Domestic vs foreign counts over the occupied technology groups.

    Returns (categories, [domestic_row, foreign_row]) ready for
    chi_square_homogeneity. The categories are the T groups of the cube's
    cells whose total is positive, sorted, so every firm is in a column and
    every column has a positive total. ValueError on a cube without T.
    """
    from .cube import marginalize  # the chi-square test alone needs no cube

    marginal = marginalize(cube, "T")
    domestic, foreign = marginal.domestic, marginal.foreign
    categories = tuple(sorted(t for (t,) in domestic.keys() | foreign.keys()
                              if domestic.get((t,), 0) + foreign.get((t,), 0) > 0))
    return categories, [[counts.get((t,), 0) for t in categories] for counts in (domestic, foreign)]
