"""Sparse three-way contingency cube over (municipality, size class, tech group).

Counts are kept separately for domestic and foreign ownership so downstream
decompositions can split every marginal. A cell is one int, its coordinates
read as the digits of a mixed-radix number: in a cube of shape
(None, n_o, n_t) the cell (g, o, t) is (g * n_o + o) * n_t + t. G is the most
significant digit, so its radix is never needed and is None. A cube is its
cells: the categories of an axis are the coordinates its cells hold, so
nothing else is stored. A marginal is a cube too: the same split maps over
the dimensions it keeps, coded the same way over their radices.
"""
from __future__ import annotations

import math
from itertools import chain, groupby, repeat
from operator import add, floordiv, mod, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    firm; decomp.cube_report(tally) sums them beside the cube's counts. The cube
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
    finite (inf for an OverflowError), which ends the parts so that decomp._build_report raises.
    Reads the turnovers once a part and once more, and again where fsum overflows."""
    parts: list[float] = []
    try:
        while (part := _fsum(turnovers, [-p for p in parts])) and math.isfinite(part):
            parts.append(part)
    except OverflowError:
        part = math.inf
    return [*parts, part] if part else parts
