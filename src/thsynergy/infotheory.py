"""Plug-in Shannon entropies and the signed three-way information measure.

The measure is the alternating sum of the seven marginal entropies,

    h(G) + h(O) + h(T) - h(GO) - h(GT) - h(OT) + h(GOT)

and can take either sign. Negative values indicate that the three
dimensions jointly carry more structure than their pairwise views explain,
which is the regime of interest for firm populations. Entropies are plain
plug-in estimates with no bias correction; results depend on the empirical
counts only.

Every entropy is the correctly rounded sum of its -p log p terms, so
results are bit-for-bit reproducible whatever the order of the counts. The
kernel counts the cells that hold each distinct count and takes one log per
distinct count; each term, a float and so an integer over a power of two,
is added once per cell holding it as an exact integer over the largest
such power, and one int true division rounds that sum. Both that division
and math.fsum round correctly, so the sum is the one fsum gives over one
term per cell. A cube's entropies and measure come from decomp.decompose:
decompose(cube).profile() and decompose(cube).total.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import Collection, Iterable, Mapping, NamedTuple


class ZeroTotal(ValueError):
    """Entropy requested against a non-positive total."""


def _plugin_entropy(counts: Iterable[int], total: int) -> float:
    """The entropy kernel in bits over counts in any order; 0 * log 0 is taken as 0. The cells are
    counted by count first, for _multiplicity_entropy. An int total past 2**53 is not exact as a
    float, so there 1 and 1.0 can give different terms and each cell gets its own."""
    return _multiplicity_entropy(Counter(counts).items() if total <= 2**53 else zip(counts, repeat(1)), total)


def _multiplicity_entropy(multiplicities: Iterable[tuple[int, int]], total: int) -> float:
    """The entropy in bits of (count, cells) pairs, cells being how many cells hold count. One log
    per pair: its p log p term, n / d with d a power of two, is added cells times as an exact
    integer over the largest d, and one int true division rounds the sum as math.fsum rounds the
    same term once per cell."""
    ratios = [(((p := c / total) * math.log2(p)).as_integer_ratio(), cells) for c, cells in multiplicities if c]
    denominator = max((d for (_, d), _ in ratios), default=1)
    # 0.0 - keeps a one-cell population at 0.0 rather than -0.0
    return 0.0 - sum(n * cells * (denominator // d) for (n, d), cells in ratios) / denominator


def shannon_entropy(counts: Mapping, total: int) -> float:
    """Entropy in bits of a count map against an externally supplied total.

    Arguments:
        counts: map from hashable keys to counts >= 0.
        total: the denominator, usually the full population size. May exceed
            the sum of counts when scoring a subgroup against the whole, but
            not fall short of it (ValueError).
    """
    if total <= 0:
        raise ZeroTotal(f"total must be positive, got {total}")
    _check_counts((counts.values(),), total)
    return _plugin_entropy(counts.values(), total)


def _check_counts(groups: Iterable[Collection], total: float) -> None:
    """ValueError when a count is negative or the groups' counts sum past the total they are
    scored against: some p would fall outside [0, 1]. min and sum each walk a group in C."""
    counted = 0
    for counts in groups:
        if min(counts, default=0) < 0:
            raise ValueError("counts must be non-negative")
        counted += sum(counts)
    if counted > total:
        raise ValueError(f"counts sum to {counted}, more than the total {total}")


class EntropyProfile(NamedTuple):
    """The seven marginal entropies of a cube, in bits."""

    h_g: float
    h_o: float
    h_t: float
    h_go: float
    h_gt: float
    h_ot: float
    h_got: float


# dimension subsets in the fixed order the profile fields use
SUBSETS = (("G",), ("O",), ("T",), ("G", "O"), ("G", "T"), ("O", "T"), ("G", "O", "T"))


def ternary_information(profile: EntropyProfile) -> float:
    """Signed three-way measure from a profile. Negative means synergy."""
    return (
        profile.h_g + profile.h_o + profile.h_t
        - profile.h_go - profile.h_gt - profile.h_ot
        + profile.h_got
    )
