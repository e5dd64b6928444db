"""Plug-in Shannon entropies and the signed three-way information measure.

The measure is the alternating sum of the seven marginal entropies,

    h(G) + h(O) + h(T) - h(GO) - h(GT) - h(OT) + h(GOT)

and can take either sign. Negative values indicate that the three
dimensions jointly carry more structure than their pairwise views explain,
which is the regime of interest for firm populations. Entropies are plain
plug-in estimates with no bias correction; results depend on the empirical
counts only.

Every entropy sums its -p log p terms with math.fsum, which returns the
correctly rounded sum, so results are bit-for-bit reproducible whatever the
order of the counts. The kernel takes one log per distinct count and hands
fsum that term once per cell holding the count: the same terms as one log
per cell, so the same sum. A cube's entropies come from decomp.decompose.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .cube import ContingencyCube


class ZeroTotal(ValueError):
    """Entropy requested against a non-positive total."""


def _plugin_entropy(counts: Iterable[int], total: int, base: float = 2.0) -> float:
    """The entropy kernel over counts in any order; 0 * log 0 is taken as 0. One log per
    distinct count: its p log p term goes to fsum once per cell that holds it, so the sum is
    the per-cell one. An int total past 2**53 is not exact as a float, so there 1 and 1.0 can
    give different terms and each cell gets its own."""
    distinct = Counter(counts).items() if total <= 2**53 else zip(counts, repeat(1))
    terms = (repeat((p := c / total) * math.log2(p), cells) for c, cells in distinct if c)
    # 0.0 - keeps a one-cell population at 0.0 rather than -0.0
    h = 0.0 - math.fsum(chain.from_iterable(terms))
    return h if base == 2.0 else h / math.log2(base)


def shannon_entropy(counts: Mapping, total: int, base: float = 2.0) -> float:
    """Entropy of a count map against an externally supplied total.

    Arguments:
        counts: map from hashable keys to counts >= 0.
        total: the denominator, usually the full population size. May exceed
            the sum of counts when scoring a subgroup against the whole, but
            not fall short of it (ValueError).
        base: logarithm base, 2 (bits, default), e or 10.
    """
    if total <= 0:
        raise ZeroTotal(f"total must be positive, got {total}")
    if any(c < 0 for c in counts.values()):
        raise ValueError("counts must be non-negative")
    _check_within_total(sum(counts.values()), total)
    return _plugin_entropy(counts.values(), total, base)


def _check_within_total(counted: float, total: float) -> None:
    """ValueError when counts sum past the total they are scored against: some p would exceed 1."""
    if counted > total:
        raise ValueError(f"counts sum to {counted}, more than the total {total}")


@dataclass(frozen=True)
class EntropyProfile:
    """The seven marginal entropies of a cube, in the configured log base."""

    h_g: float
    h_o: float
    h_t: float
    h_go: float
    h_gt: float
    h_ot: float
    h_got: float


# dimension subsets in the fixed order the profile fields use
SUBSETS = (("G",), ("O",), ("T",), ("G", "O"), ("G", "T"), ("O", "T"), ("G", "O", "T"))


def entropy_profile(cube: ContingencyCube, base: float = 2.0) -> EntropyProfile:
    """All seven marginal entropies of the full population, as decompose() finds them."""
    from .decomp import decompose  # decomp imports this module
    return decompose(cube, base).profile()


def ternary_information(profile: EntropyProfile) -> float:
    """Signed three-way measure from a profile. Negative means synergy."""
    return (
        profile.h_g + profile.h_o + profile.h_t
        - profile.h_go - profile.h_gt - profile.h_ot
        + profile.h_got
    )


def cube_ternary_information(cube: ContingencyCube, base: float = 2.0) -> float:
    """The cube's signed measure: the total of its decompose()."""
    from .decomp import decompose  # decomp imports this module
    return decompose(cube, base).total
