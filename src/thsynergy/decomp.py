"""Ownership-split cell counts, plug-in entropies, the signed three-way measure and region reporting.

Firms are counted in a sparse cube over (municipality, size class, tech
group), kept separately for domestic and foreign ownership so that every
marginal splits. A cell is one int, its coordinates read as the digits of a
mixed-radix number: in a cube of shape (None, n_o, n_t) the cell (g, o, t)
is (g * n_o + o) * n_t + t. G is the most significant digit, so its radix
is never needed and is None. A cube is its cells: the categories of an axis
are the coordinates its cells hold, so nothing else is stored. A marginal is
a cube too: the same split maps over the dimensions it keeps, coded the
same way over their radices.

The measure is the alternating sum of the seven marginal entropies,

    h(G) + h(O) + h(T) - h(GO) - h(GT) - h(OT) + h(GOT)

and can take either sign. Negative values indicate that the three
dimensions jointly carry more structure than their pairwise views explain,
which is the regime of interest for firm populations. Entropies are plain
plug-in estimates in bits with no bias correction; results depend on the
empirical counts only.

Every entropy is the correctly rounded sum of its -p log p terms, so
results are bit-for-bit reproducible whatever the order of the counts. The
kernel counts the cells that hold each distinct count and takes one log per
distinct count and total, in a table that the entropies of a run against
the same total share; each term, a float and so an integer multiple of
2**-1074, is added once per cell holding it as an exact integer, and one
int true division rounds that sum. Both that division and math.fsum round
correctly, so the sum is the one fsum gives over one term per cell.

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
the remaining counts are left untouched. A cube's entropies and measure
come from decompose: decompose(cube).profile() and decompose(cube).total.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import chain, filterfalse, groupby, repeat
from operator import add, floordiv, mod, mul
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

DIMS = ("G", "O", "T")  # geography, organization (size), technology
_FLUSH = 1024  # the floats a Tally group holds before add reduces them to their exact parts


class EmptyDataset(ValueError):
    """No firms to build a cube from."""


class ContingencyCube(NamedTuple):
    """Immutable-by-convention sparse cube. Do not mutate the dicts.

    dims names the dimensions the cube keeps, in G, O, T order (all three for
    a built cube, fewer for a marginal); shape holds the radix of each, None
    for G; domestic and foreign map int cells, coded over shape, to counts.
    """

    dims: tuple[str, ...]
    shape: tuple[int | None, ...]
    domestic: dict[int, int]
    foreign: dict[int, int]

    @property
    def total(self) -> int:
        """The firm count: the sum of both maps."""
        return sum(self.domestic.values()) + sum(self.foreign.values())


class Tally:
    """Split cell counts and turnover sums, built one firm at a time.

    A firm is the triple add() takes: its int cell, coded over the tally's
    shape (None, n_o, n_t), its ownership flag (True for foreign) and its
    turnover, which must not be negative or NaN (ValueError). ingest.validate_firm_csv
    adds each accepted row, coded over ClassificationConfig.cell_shape, and
    synthlab.generate returns firms coded over SynthParams.cell_shape. parts
    holds per flag the _exact_parts of the turnovers reduced so far, then those
    added since, and is reduced again past _FLUSH floats, so it holds nothing per
    firm; cube_report(tally) sums them beside the cube's counts. The cube
    shares the tally's count maps: take it after the last add.
    """

    def __init__(self, shape: tuple[int | None, int, int]):
        self.shape = tuple(shape)
        self.domestic: dict[int, int] = {}
        self.foreign: dict[int, int] = {}
        self.parts: tuple[list[float], list[float]] = ([], [])
        self._groups = ((self.domestic, self.parts[0]), (self.foreign, self.parts[1]))

    def add(self, cell: int, foreign: bool, turnover: float) -> None:
        if not turnover >= 0:  # NaN too; a negative, -inf above all, could make a sum's verdict depend on batching
            raise ValueError("turnover must be non-negative")
        counts, parts = self._groups[foreign]
        parts.append(turnover)
        if len(parts) > _FLUSH:
            parts[:] = _exact_parts(parts)
        counts[cell] = counts.get(cell, 0) + 1

    def cube(self) -> ContingencyCube:
        """The G, O, T cube of all firms added, sharing the tally's maps; EmptyDataset if none."""
        if not (self.domestic or self.foreign):
            raise EmptyDataset("no firms")
        return ContingencyCube(DIMS, self.shape, self.domestic, self.foreign)


def normalize_dims(dims: Iterable[str]) -> tuple[str, ...]:
    """Validate a dimension subset and return it in canonical G, O, T order."""
    wanted = set(dims)
    unknown = wanted - set(DIMS)
    if unknown:
        raise ValueError(f"unknown dimension(s): {sorted(unknown)}")
    if not wanted:
        raise ValueError("dimension subset must not be empty")
    return tuple(d for d in DIMS if d in wanted)


def _kept_digits(own: tuple[str, ...], shape: tuple, kept: tuple[str, ...]) -> list[tuple[int, int | None, int]]:
    """How to read the kept digits of a cell over own: (divisor, modulus, multiplier) for each run
    of adjacent kept dimensions, whose code is cell // divisor % modulus (no modulus for a leading
    run) and whose place value in the kept cell is multiplier."""
    runs, at = [], 0
    for is_kept, run in groupby(own, kept.__contains__):
        end = at + len(list(run))
        if is_kept:
            runs.append((math.prod(shape[end:]), math.prod(shape[at:end]) if at else None,
                         math.prod(r for d, r in zip(own[end:], shape[end:]) if d in kept)))
        at = end
    return runs


def _sum_by(counts: dict[int, int], runs: list[tuple[int, int | None, int]]) -> dict[int, int]:
    """Counts summed by their kept code: one walk over the map, each digit run read in C by map()."""
    parts = []
    for divisor, modulus, multiplier in runs:
        part = map(floordiv, counts, repeat(divisor)) if divisor != 1 else iter(counts)
        if modulus is not None:
            part = map(mod, part, repeat(modulus))
        parts.append(map(mul, part, repeat(multiplier)) if multiplier != 1 else part)
    keys = map(add, *parts) if len(parts) > 1 else parts[0]  # two runs at most: G and T
    out: dict[int, int] = {}
    get = out.get
    for kept, count in zip(keys, counts.values()):
        out[kept] = get(kept, 0) + count
    return out


def marginalize(cube: ContingencyCube, dims: Iterable[str]) -> ContingencyCube:
    """The marginal of a cube, or of a marginal, on a non-empty subset of its dimensions: a cube
    over the kept dimensions whose int cells are coded over the kept radices. Asking for the
    cube's own dimensions returns the cube itself; asking for one it lacks raises ValueError.
    """
    kept, own = normalize_dims(dims), cube.dims
    if kept == own:
        return cube
    missing = set(kept) - set(own)
    if missing:
        raise ValueError(f"cube over {''.join(own)} has no dimension(s) {sorted(missing)}")
    runs = _kept_digits(own, cube.shape, kept)
    shape = tuple(r for d, r in zip(own, cube.shape) if d in kept)
    return ContingencyCube(kept, shape, _sum_by(cube.domestic, runs), _sum_by(cube.foreign, runs))


def split_marginals(cube: ContingencyCube) -> Iterator[ContingencyCube]:
    """The cube's seven marginals, each drawn once from its smallest parent: GOT is the cube
    itself, GO, GT and OT are drawn from it, G from GO, O and T from OT. Each 2-D marginal is
    dropped once its children are drawn, so at most one is alive. Do not mutate the maps.
    """
    yield marginalize(cube, DIMS)  # the cube itself; ValueError on a marginal
    for pair, singles in (("GO", "G"), ("GT", ""), ("OT", "OT")):
        parent = marginalize(cube, pair)
        yield parent
        for dim in singles:
            yield marginalize(parent, dim)
        del parent


def ownership_tech_table(cube: ContingencyCube) -> tuple[tuple, list[list[int]]]:
    """Domestic vs foreign counts over the occupied technology groups.

    Returns (categories, [domestic_row, foreign_row]) ready for
    stats.chi_square_homogeneity. The categories are the T groups, t + 1 for
    the cube's T coordinates t, whose total is positive, sorted, so every firm
    is in a column and every column has a positive total. ValueError on a cube
    without T.
    """
    marginal = marginalize(cube, "T")
    domestic, foreign = marginal.domestic, marginal.foreign
    columns = sorted(t for t in domestic.keys() | foreign.keys() if domestic.get(t, 0) + foreign.get(t, 0) > 0)
    return tuple(t + 1 for t in columns), [[counts.get(t, 0) for t in columns] for counts in (domestic, foreign)]


def _fsum(*runs: Iterable[float]) -> float:
    """math.fsum of the runs' values. Near the float maximum fsum raises its "intermediate overflow" in
    some orders of the same values and not in others; there the values are read again, summed exactly
    as multiples of 2**-1074 and rounded once by int division, which raises OverflowError exactly when
    that is past the float range, or for an inf or nan. So a finite result is the correctly rounded
    sum, and whether there is one, rather than an OverflowError, inf or nan, does not depend on order."""
    try:
        return math.fsum(chain(*runs))
    except OverflowError:
        if not all(map(math.isfinite, chain(*runs))):
            raise
        return sum(p * ((1 << 1074) // q) for p, q in (v.as_integer_ratio() for v in chain(*runs))) / (1 << 1074)


def _exact_parts(turnovers: Sequence[float]) -> list[float]:
    """A few floats whose exact sum is that of the turnovers, so that _fsum of them, alone or with
    other parts, is _fsum of the turnovers they stand for: r1 = _fsum(turnovers),
    r2 = _fsum(turnovers + [-r1]) and so on, up to the first residual that is 0.0, or a sum that is not
    finite (inf for an OverflowError), which ends the parts so that _build_report raises.
    Reads the turnovers once a part and once more, and again where fsum overflows."""
    parts: list[float] = []
    try:
        while (part := _fsum(turnovers, [-p for p in parts])) and math.isfinite(part):
            parts.append(part)
    except OverflowError:
        part = math.inf
    return [*parts, part] if part else parts


class ZeroTotal(ValueError):
    """Entropy requested against a non-positive total."""


_SCALE = 1 << 1074  # every float is an integer multiple of 1 / _SCALE


class _Terms(dict):
    """Each count's p log2 p term against one total, p = count / total, as an integer multiple of
    1 / _SCALE, taken once: the entropies of a run against the same total share one table. An int
    total past 2**53 is not exact as a float, so there 1 and 1.0 can give different terms under one
    key; such a table keeps no term, and each is taken where it is read."""

    def __init__(self, total: int):
        super().__init__()
        self.total = total

    def __missing__(self, count) -> int:
        n, d = ((p := count / self.total) * math.log2(p)).as_integer_ratio()
        term = n << (1075 - d.bit_length())  # n / d times _SCALE: d is a power of two, at most _SCALE
        if self.total <= 2**53:
            self[count] = term
        return term


def _plugin_entropy(counts: Iterable[int], table: _Terms) -> float:
    """The entropy kernel in bits over counts in any order against table.total; 0 * log 0 is taken
    as 0. The cells are counted by count first, for _multiplicity_entropy. Past a total of 2**53,
    where 1 and 1.0 can give different terms, each cell gets its own."""
    return _multiplicity_entropy(Counter(counts).items() if table.total <= 2**53 else zip(counts, repeat(1)), table)


def _multiplicity_entropy(multiplicities: Iterable[tuple[int, int]], table: _Terms) -> float:
    """The entropy in bits of (count, cells) pairs, cells being how many cells hold count, against
    table.total. Each count's term is added cells times, as an exact integer, and one int true
    division rounds the sum as math.fsum rounds the same term once per cell."""
    # 0.0 - keeps a one-cell population at 0.0 rather than -0.0
    return 0.0 - sum(table[c] * cells for c, cells in multiplicities if c) / _SCALE


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
    return _plugin_entropy(counts.values(), _Terms(total))


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


class SplitEntropyTerm(NamedTuple):
    """One marginal entropy split by ownership, all against the full total.

    domestic and foreign are each non-negative; cross, derived as the residual
    total - (domestic + foreign), is <= 0 and the three sum exactly to total.
    """

    domestic: float
    foreign: float
    total: float

    @property
    def cross(self) -> float:
        return self.total - (self.domestic + self.foreign)


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
    return _split_entropy(domestic, foreign, _Terms(total))


def _split_entropy(domestic: Mapping, foreign: Mapping, table: _Terms) -> SplitEntropyTerm:
    """split_entropy against table.total, with the terms of a table the caller shares."""
    total = table.total
    if total <= 0:
        raise ZeroTotal(f"total must be positive, got {total}")
    _check_counts((domestic.values(), foreign.values()), total)
    # the ownership-blind counts as a stream, not a merged map: each domestic count plus its
    # foreign count, then the counts of cells only the foreign map holds
    combined = chain(map(add, domestic.values(), map(foreign.get, domestic, repeat(0))),
                     map(foreign.__getitem__, filterfalse(domestic.__contains__, foreign)))
    return SplitEntropyTerm(*(_plugin_entropy(counts, table)
                              for counts in (domestic.values(), foreign.values(), combined)))


class SynergyDecomposition(NamedTuple):
    """Additive ownership decomposition of the signed three-way measure.

    total     signed measure of the whole population
    domestic  contribution carried by domestic cell counts alone
    foreign_only  contribution carried by foreign cell counts alone
    cross     mixing term between the two groups
    foreign   foreign_only + cross, the combined foreign contribution
    terms     the one stored field: the seven split entropies in SUBSETS order, whose
              totals are the cube's entropy profile; each sum above is derived on read
              as ternary_information over one part of them
    """

    terms: tuple[SplitEntropyTerm, ...]

    @property
    def total(self) -> float:
        return ternary_information(self.profile())

    @property
    def domestic(self) -> float:
        return ternary_information(EntropyProfile(*(t.domestic for t in self.terms)))

    @property
    def foreign_only(self) -> float:
        return ternary_information(EntropyProfile(*(t.foreign for t in self.terms)))

    @property
    def cross(self) -> float:
        return ternary_information(EntropyProfile(*(t.cross for t in self.terms)))

    @property
    def foreign(self) -> float:
        return self.foreign_only + self.cross

    def profile(self) -> EntropyProfile:
        """The seven marginal entropies of the whole population."""
        return EntropyProfile(*(t.total for t in self.terms))


def decompose(cube: ContingencyCube) -> SynergyDecomposition:
    """Split the cube's signed measure into ownership contributions; each of the seven
    marginals is drawn once, from its smallest parent (split_marginals), and scored
    against the cube's total."""
    table = _Terms(cube.total)  # the 21 entropies share one term per distinct count
    # map frees each marginal before drawing the next, where a comprehension's loop variable would
    # keep it: the G marginal would sit beside GT, the largest (0.09 MB on 18k cells)
    terms = dict(map(lambda m: (m.dims, _split_entropy(m.domestic, m.foreign, table)), split_marginals(cube)))
    return SynergyDecomposition(tuple(terms[dims] for dims in SUBSETS))


def subgroup_synergy(cube: ContingencyCube, foreign: bool) -> float:
    """Signed measure of one ownership group, the foreign firms when foreign
    is true and the domestic ones otherwise, renormalized by its own size.

    Secondary diagnostic only. The additive decomposition keeps the full
    population denominator; this instead treats the chosen group as a
    population of its own, so its value is NOT a term of decompose().
    """
    group = ContingencyCube(cube.dims, cube.shape, cube.foreign if foreign else cube.domestic, {})
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


# --- region-level report ----------------------------------------------------

class RegionReport(NamedTuple):
    """Everything a region summary needs: decomposition, turnover, ratios.

    Stored: the decomposition, each group's turnover sum and the firm counts.
    The total turnover and every ratio are derived from them on read.
    Turnover figures are in the currency of the input data (NOK for the
    register this was built for). foreign_turnover_share is foreign turnover
    over all turnover; foreign_to_domestic_turnover is the same numerator
    over domestic turnover only. Both are reported because aggregate
    statements about "foreign versus domestic turnover" are ambiguous
    between the two. A ratio is None when its denominator is zero or its
    quotient is too large for a float.
    """

    synergy: SynergyDecomposition
    turnover_domestic: float
    turnover_foreign: float
    firm_count: int
    foreign_count: int

    @property
    def turnover_total(self) -> float:
        return self.turnover_domestic + self.turnover_foreign  # so the three sums add up exactly

    @property
    def foreign_turnover_share(self) -> float:
        # zero total turnover means zero foreign turnover too; report share 0
        return self.turnover_foreign / self.turnover_total if self.turnover_total > 0 else 0.0

    @property
    def foreign_to_domestic_turnover(self) -> float | None:
        return _ratio(self.turnover_foreign, self.turnover_domestic)

    @property
    def foreign_synergy_share(self) -> float | None:
        return _ratio(self.synergy.foreign, self.synergy.total)

    @property
    def efficiency(self) -> float | None:
        share = self.foreign_synergy_share  # undefined when the synergy share is undefined or zero
        return None if share is None else _ratio(self.foreign_turnover_share, share)

    def to_dict(self) -> dict:
        """Documented JSON shape, units annotated."""
        return {
            "units": {"information": "bits", "turnover": "input currency (NOK)"},
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
    cube = tally.cube()
    return _build_report(decompose(cube), *tally.parts, cube.total, sum(cube.foreign.values()))


def _build_report(dec: SynergyDecomposition, domestic: Sequence[float], foreign: Sequence[float],
                  firm_count: int, foreign_count: int) -> RegionReport:
    """Region summary from a decomposition, each ownership group's turnovers, or floats whose exact
    sum is theirs (_exact_parts), and the firm counts: the one place a group's reported sum is
    taken, with _fsum, whose correctly rounded sum, or refusal, depends only on the exact one."""
    try:
        report = RegionReport(dec, _fsum(domestic), _fsum(foreign), firm_count, foreign_count)
        if math.isfinite(report.turnover_total):  # not for an inf turnover or part, or two sums that overflow together
            return report
    except OverflowError:  # a sum past the float range
        pass
    raise OverflowError("turnover sum is not finite")  # the one check, for every route to a report
