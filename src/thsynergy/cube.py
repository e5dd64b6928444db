"""Sparse three-way contingency cube over (municipality, size class, tech group).

Counts are kept separately for domestic and foreign ownership so downstream
decompositions can split every marginal. Cells are sparse maps keyed by
(g, o, t) tuples; axis category lists are data driven and sorted, which makes
cube construction independent of input row order. A marginal is a cube too:
the same split maps over the axes it keeps, keyed by tuples of the kept
coordinates (1-tuples for one axis).
"""
from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

DIMS = ("G", "O", "T")  # geography, organization (size), technology
Cell = tuple


class EmptyDataset(ValueError):
    """No firms to build a cube from."""


class ContingencyCube(NamedTuple):
    """Immutable-by-convention sparse cube. Do not mutate the dicts.

    axes maps each dimension letter the cube keeps (all of G, O and T for a
    built cube, fewer for a marginal) to its sorted category tuple; domestic
    and foreign map cells, tuples of coordinates in G, O, T order, to counts.
    """

    axes: dict[str, tuple]
    domestic: dict[Cell, int]
    foreign: dict[Cell, int]

    @property
    def total(self) -> int:
        """The firm count: the sum of both maps."""
        return sum(self.domestic.values()) + sum(self.foreign.values())


class Tally:
    """Split cell counts and turnovers, built one firm at a time.

    A firm is the triple add() takes: its (g, o, t) cell, its ownership flag
    (True for foreign) and its turnover. ingest.validate_firm_csv passes
    each accepted row's triple to add, and synthlab.generate returns them.
    turnovers holds the domestic and the foreign turnovers, indexed by the
    flag; decomp._build_report sums them. The cube shares the tally's count
    maps: take it after the last add.
    """

    def __init__(self):
        self.domestic: dict[Cell, int] = {}
        self.foreign: dict[Cell, int] = {}
        self.turnovers = (array("d"), array("d"))
        self._groups = ((self.domestic, self.turnovers[0].append), (self.foreign, self.turnovers[1].append))

    def add(self, cell: Cell, foreign: bool, turnover: float) -> None:
        counts, append = self._groups[foreign]
        append(turnover)
        counts[cell] = counts.get(cell, 0) + 1

    def cube(self) -> ContingencyCube:
        """The cube of all firms added; axes hold the observed values, sorted."""
        if not (self.domestic or self.foreign):
            raise EmptyDataset("no firms")
        axes = {}
        for i, dim in enumerate(DIMS):
            coord = itemgetter(i)
            axes[dim] = tuple(sorted(set(map(coord, self.domestic)).union(map(coord, self.foreign))))
        return ContingencyCube(axes=axes, domestic=self.domestic, foreign=self.foreign)


def normalize_dims(dims: Iterable[str]) -> tuple[str, ...]:
    """Validate a dimension subset and return it in canonical G, O, T order."""
    wanted = set(dims)
    unknown = wanted - set(DIMS)
    if unknown:
        raise ValueError(f"unknown dimension(s): {sorted(unknown)}")
    if not wanted:
        raise ValueError("dimension subset must not be empty")
    return tuple(d for d in DIMS if d in wanted)


def _sum_by(counts: Mapping[Cell, int], key) -> dict:
    """Counts summed by key(cell): one walk over the map, key applied in C by map()."""
    out: dict = {}
    get = out.get
    for kept, count in zip(map(key, counts), counts.values()):
        out[kept] = get(kept, 0) + count
    return out


def marginalize(cube: ContingencyCube, dims: Iterable[str]) -> ContingencyCube:
    """The marginal of a cube, or of a marginal, on a non-empty subset of its dimensions: a cube
    over the kept axes whose cells are tuples of the kept coordinates (1-tuples for one axis).
    Asking for the cube's own dimensions returns the cube itself; asking for one it lacks
    raises ValueError.
    """
    kept, own = normalize_dims(dims), normalize_dims(cube.axes)
    if kept == own:
        return cube
    missing = set(kept) - set(own)
    if missing:
        raise ValueError(f"cube over {''.join(own)} has no dimension(s) {sorted(missing)}")
    key = itemgetter(*(own.index(d) for d in kept))
    domestic, foreign = _sum_by(cube.domestic, key), _sum_by(cube.foreign, key)
    if len(kept) == 1:  # itemgetter of one index returns the bare coordinate; cells are 1-tuples
        domestic, foreign = ({(k,): v for k, v in counts.items()} for counts in (domestic, foreign))
    return ContingencyCube({d: cube.axes[d] for d in kept}, domestic, foreign)


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
