"""Ownership split of the signed three-way measure, and region-level reporting.

Every marginal entropy of the full population splits exactly into three
parts against the same denominator N:

    h_total = h_domestic + h_foreign + h_cross

where h_domestic sums -(n/N) log(n/N) over domestic cell counts, h_foreign
does the same over foreign counts, and h_cross is the remainder. The cross
part is never positive and vanishes when the two groups occupy disjoint
cells. Pushing the three parts through the alternating seven-term sum gives
an additive decomposition of the signed measure:

    total = domestic + foreign_only + cross

The combined foreign contribution reported downstream is foreign_only +
cross, i.e. everything that goes away if the foreign firms are removed and
the remaining counts are left untouched.
"""
from __future__ import annotations

import math
from itertools import chain, filterfalse, repeat
from operator import add
from typing import Collection, Mapping, NamedTuple

from .cube import ContingencyCube, EmptyDataset, Tally, split_marginals
from .infotheory import SUBSETS, EntropyProfile, _check_counts, _plugin_entropy, ternary_information, ZeroTotal


class SplitEntropyTerm(NamedTuple):
    """One marginal entropy split by ownership, all against the full total.

    domestic and foreign are each non-negative; cross is <= 0 and the three
    sum exactly to total.
    """

    domestic: float
    foreign: float
    cross: float
    total: float


def split_entropy(domestic: Mapping, foreign: Mapping, total: int) -> SplitEntropyTerm:
    """Split one marginal's entropy in bits by ownership group.

    Arguments:
        domestic: cell -> count map for domestically owned firms.
        foreign: cell -> count map for foreign owned firms.
        total: full population size N. Both maps are scored against N, not
            against their own subtotals; counts must be non-negative and
            their sum must not exceed N (ValueError).

    The cross part is computed as the residual total - (domestic + foreign),
    which keeps the additivity identity exact in floating point and is
    symmetric under swapping the two groups.
    """
    if total <= 0:
        raise ZeroTotal(f"total must be positive, got {total}")
    _check_counts((domestic.values(), foreign.values()), total)
    # the ownership-blind counts as a stream, not a merged map: each domestic count plus its
    # foreign count, then the counts of cells only the foreign map holds
    combined = chain(map(add, domestic.values(), map(foreign.get, domestic, repeat(0))),
                     map(foreign.__getitem__, filterfalse(domestic.__contains__, foreign)))
    return _split_term(*(_plugin_entropy(counts, total)
                        for counts in (domestic.values(), foreign.values(), combined)))


def _split_term(h_domestic: float, h_foreign: float, h_total: float) -> SplitEntropyTerm:
    """The split of h_total whose cross part is the residual (see split_entropy)."""
    return SplitEntropyTerm(h_domestic, h_foreign, h_total - (h_domestic + h_foreign), h_total)


class SynergyDecomposition(NamedTuple):
    """Additive ownership decomposition of the signed three-way measure.

    total     signed measure of the whole population
    domestic  contribution carried by domestic cell counts alone
    foreign_only  contribution carried by foreign cell counts alone
    cross     mixing term between the two groups
    foreign   foreign_only + cross, the combined foreign contribution
    terms     the seven split entropies behind the sums, in SUBSETS order;
              their totals are the cube's entropy profile
    """

    total: float
    domestic: float
    foreign_only: float
    cross: float
    foreign: float
    terms: tuple[SplitEntropyTerm, ...] = ()

    def profile(self) -> EntropyProfile:
        """The seven marginal entropies of the whole population."""
        return EntropyProfile(*(t.total for t in self.terms))


def decompose(cube: ContingencyCube) -> SynergyDecomposition:
    """Split the cube's signed measure into ownership contributions; each of the seven
    marginals is drawn once, from its smallest parent (cube.split_marginals), and scored
    against the cube's total."""
    total = cube.total
    terms = {m.dims: split_entropy(m.domestic, m.foreign, total)
             for m in split_marginals(cube)}
    return _decompose_terms(tuple(terms[dims] for dims in SUBSETS))


def _decompose_terms(terms: tuple[SplitEntropyTerm, ...]) -> SynergyDecomposition:
    """The decomposition of seven split entropies given in SUBSETS order."""
    total, domestic, foreign_only, cross = (
        ternary_information(EntropyProfile(*(getattr(t, part) for t in terms)))
        for part in ("total", "domestic", "foreign", "cross")
    )
    return SynergyDecomposition(total, domestic, foreign_only, cross, foreign_only + cross, terms)


def subgroup_synergy(cube: ContingencyCube, foreign: bool) -> float:
    """Signed measure of one ownership group, the foreign firms when foreign
    is true and the domestic ones otherwise, renormalized by its own size.

    Secondary diagnostic only. The additive decomposition keeps the full
    population denominator; this instead treats the chosen group as a
    population of its own, so its value is NOT a term of decompose().
    """
    group = ContingencyCube(cube.dims, cube.foreign if foreign else cube.domestic, {})
    if group.total == 0:
        raise EmptyDataset(f"no {'foreign' if foreign else 'domestic'} firms in cube")
    return decompose(group).total


# --- ratio arithmetic -------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float | None:
    """numerator / denominator; None when the denominator is zero or the quotient overflows."""
    if denominator == 0:
        return None
    # + 0.0 canonicalizes -0.0 so serialized ratios never carry a sign on zero
    quotient = numerator / denominator + 0.0
    return quotient if math.isfinite(quotient) else None


def synergy_share(total: float, foreign: float) -> float | None:
    """Foreign fraction of the signed measure; None when total is zero or the quotient overflows."""
    return _ratio(foreign, total)


def efficiency_ratio(turnover_share: float, syn_share: float | None) -> float | None:
    """Turnover share per unit of synergy share; None when undefined.

    Undefined when the synergy share itself is undefined or zero. None is
    used deliberately instead of NaN so serialization stays explicit.
    """
    return None if syn_share is None else _ratio(turnover_share, syn_share)


# --- region-level report ----------------------------------------------------

class RegionReport(NamedTuple):
    """Everything a region summary needs: decomposition, turnover, ratios.

    Turnover figures are in the currency of the input data (NOK for the
    register this was built for). foreign_turnover_share is foreign turnover
    over all turnover; foreign_to_domestic_turnover is the same numerator
    over domestic turnover only. Both are reported because aggregate
    statements about "foreign versus domestic turnover" are ambiguous
    between the two. A ratio is None when its denominator is zero or its
    quotient is too large for a float.
    """

    synergy: SynergyDecomposition
    turnover_total: float
    turnover_domestic: float
    turnover_foreign: float
    foreign_turnover_share: float
    foreign_to_domestic_turnover: float | None
    foreign_synergy_share: float | None
    efficiency: float | None
    firm_count: int
    foreign_count: int

    def to_dict(self) -> dict:
        """Documented JSON shape, units annotated."""
        # every pinned compute digest covers the information text, so its wording stays
        return {
            "units": {"information": "bits unless another log base was set", "turnover": "input currency (NOK)"},
            "firms": {"count": self.firm_count, "foreign": self.foreign_count},
            "synergy": {
                "total": self.synergy.total,
                "domestic": self.synergy.domestic,
                "foreign_only": self.synergy.foreign_only,
                "cross": self.synergy.cross,
                "foreign": self.synergy.foreign,
            },
            "turnover": {
                "total": self.turnover_total,
                "domestic": self.turnover_domestic,
                "foreign": self.turnover_foreign,
            },
            "ratios": {
                "foreign_turnover_share": self.foreign_turnover_share,
                "foreign_to_domestic_turnover": self.foreign_to_domestic_turnover,
                "foreign_synergy_share": self.foreign_synergy_share,
                "efficiency": self.efficiency,
            },
        }


def cube_report(tally: Tally) -> RegionReport:
    """Region summary of a tally: its cube's decomposition and its turnover sums, of the same firms.

    Raises EmptyDataset on a tally without firms and OverflowError when a
    turnover sum is not finite. The foreign share of an all-foreign
    population is exactly 1.0.
    """
    return _build_report(decompose(tally.cube()), *tally.turnovers)


def _build_report(dec: SynergyDecomposition, domestic: Collection[float], foreign: Collection[float]) -> RegionReport:
    """Region summary from a decomposition and each ownership group's turnovers, the one place they
    are summed: each group once with math.fsum, whose sum does not depend on their order."""
    try:
        turnover_domestic, turnover_foreign = math.fsum(domestic), math.fsum(foreign)
        turnover_total = turnover_domestic + turnover_foreign  # so the three sums add up exactly
    except OverflowError:  # fsum's "intermediate overflow"
        turnover_total = math.inf
    if not math.isfinite(turnover_total):  # also an inf turnover, which the library route can pass
        raise OverflowError("turnover sum is not finite")  # the one check, for every route to a report
    # zero total turnover means zero foreign turnover too; report share 0
    share = turnover_foreign / turnover_total if turnover_total > 0 else 0.0
    syn_share = synergy_share(dec.total, dec.foreign)
    return RegionReport(
        synergy=dec,
        turnover_total=turnover_total,
        turnover_domestic=turnover_domestic,
        turnover_foreign=turnover_foreign,
        foreign_turnover_share=share,
        foreign_to_domestic_turnover=_ratio(turnover_foreign, turnover_domestic),
        foreign_synergy_share=syn_share,
        efficiency=efficiency_ratio(share, syn_share),
        firm_count=len(domestic) + len(foreign),
        foreign_count=len(foreign),
    )
