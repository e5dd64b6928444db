"""Pearson chi-square homogeneity test for a 2 x k count table.

The p-value comes from the regularized upper incomplete gamma function,
evaluated by a power series for small arguments and a Lentz continued
fraction otherwise. No Yates continuity correction is applied; the result
matches the uncorrected textbook statistic.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence


class DegenerateTable(ValueError):
    """Table shape or margins unusable for the homogeneity test."""


_EPS = 1e-15
_FPMIN = 1e-300
_SADDLE_MIN_A = 100.0  # from here on, _scale goes through Loader's saddle-point form


def _bd0(a: float, x: float) -> float:
    """a log(a / x) + x - a, summed as a series where x is near a, which the direct form cancels away."""
    if abs(a - x) >= 0.1 * (a + x):
        return a * math.log(a / x) + x - a
    v = (a - x) / (a + x)
    total, term, v2 = (a - x) * v, 2.0 * a * v, v * v
    for j in range(3, 41, 2):  # |v| < 0.1, so each term is under 1% of the last
        term *= v2
        total, last = total + term / j, total
        if total == last:
            break
    return total


def _scale(a: float, x: float) -> float:
    """x**a exp(-x) / gamma(a), the factor of both routes. Past _SADDLE_MIN_A it is Loader's (2000)
    exp(-bd0(a, x) + log(a) / 2 - log(2 pi) / 2 - stirlerr(a)), stirlerr(a) being the error of
    Stirling's log(gamma(a + 1)), as a series: this keeps the terms of size a log(a) from cancelling."""
    if a < _SADDLE_MIN_A:
        return math.exp(-x + a * math.log(x) - math.lgamma(a))
    stirlerr = (1 / 12 - (1 / 360 - 1 / 1260 / (a * a)) / (a * a)) / a  # the next term is under 6e-18
    return math.exp(-_bd0(a, x) + 0.5 * math.log(a / (2 * math.pi)) - stirlerr)


def _max_steps(a: float) -> int:  # more than either loop needs: about 8.3 sqrt(a) at most, 82 for a small a
    return 400 + int(20 * math.sqrt(a))


def _gamma_series(a: float, x: float) -> float:
    # lower regularized P(a, x), valid for x < a + 1: once ap passes x every term shrinks
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_max_steps(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * _scale(a, x)
    raise ArithmeticError(f"incomplete gamma series does not converge at a={a!r}, x={x!r}")

def _gamma_cfrac(a: float, x: float) -> float:
    # upper regularized Q(a, x) via modified Lentz, valid for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _max_steps(a) + 1):
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
            return _scale(a, x) * h
    raise ArithmeticError(f"incomplete gamma fraction does not converge at a={a!r}, x={x!r}")


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for finite a > 0 and x >= 0, 0.0 at x = inf.
    Either route loops until it converges, in up to about 8.3 sqrt(a) steps, and raises
    ArithmeticError if it does not."""
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")
    if not x >= 0:
        raise ValueError("x must be non-negative and not nan")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cfrac(a, x)


def chi_square_survival(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square distributed with dof degrees; 0.0 at inf, ValueError at nan."""
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
    if math.isinf(grand):  # no expected count is finite and non-zero: name the total that overflows
        rows = " and ".join(f"row {i}" for i, t in enumerate(row_totals) if math.isinf(t))
        raise DegenerateTable(f"total of {rows} overflows" if rows else "grand total overflows")
    statistic = 0.0
    for j in range(k):
        col = top[j] + bottom[j]
        if col <= 0:
            raise DegenerateTable(f"column {j} total is zero")
        for row_total, obs in ((row_totals[0], top[j]), (row_totals[1], bottom[j])):
            # dividing before multiplying keeps large finite margins from overflowing
            expected = row_total * (col / grand)
            if expected == 0:  # positive margins whose product underflows
                raise DegenerateTable(f"expected count in column {j} underflows to zero")
            diff = obs - expected
            statistic += diff * (diff / expected)
    if not math.isfinite(statistic):  # a statistic that overflows
        raise DegenerateTable("statistic is not finite")
    dof = k - 1
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=chi_square_survival(statistic, dof))
