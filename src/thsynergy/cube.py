"""Sparse three-way contingency cube over (municipality, size class, tech group).

Counts are kept separately for domestic and foreign ownership so downstream
decompositions can split every marginal. Cells are sparse maps keyed by
(g, o, t) tuples; axis category lists are data driven and sorted, which makes
cube construction independent of input row order. A marginal is a cube too:
the same split maps over the axes it keeps, keyed by tuples of the kept
coordinates (1-tuples for one axis), with the parent's total.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .ingest import ClassifiedFirm, Ownership

DIMS = ("G", "O", "T")  # geography, organization (size), technology
Cell = tuple


class EmptyDataset(ValueError):
    """No firms to build a cube from."""


@dataclass(frozen=True)
class ContingencyCube:
    """Immutable-by-convention sparse cube. Do not mutate the dicts.

    axes maps each dimension letter the cube keeps (all of G, O and T for a
    built cube, fewer for a marginal) to its sorted category tuple; domestic
    and foreign map cells, tuples of coordinates in G, O, T order, to counts;
    total is the firm count and must equal the sum of both maps (ValueError).
    """

    axes: dict[str, tuple]
    domestic: dict[Cell, int]
    foreign: dict[Cell, int]
    total: int

    def __post_init__(self):
        check = sum(self.domestic.values()) + sum(self.foreign.values())
        if check != self.total:
            raise ValueError(f"cell counts sum to {check}, total says {self.total!r}")

    def combined(self) -> dict[Cell, int]:
        return merge_counts(self.domestic, self.foreign)


def merge_counts(domestic: Mapping, foreign: Mapping) -> dict:
    """Add two count maps key by key; the ownership-blind view of a split map."""
    out = dict(domestic)
    for key, count in foreign.items():
        out[key] = out.get(key, 0) + count
    return out


class Tally:
    """Split cell counts and turnovers, built one firm at a time.

    add() takes a firm's (g, o, t) cell, its ownership flag and its turnover.
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

    def add_firms(self, firms: Iterable[ClassifiedFirm]) -> "Tally":
        add = self.add
        for firm in firms:
            add((firm.municipality, firm.size_class, firm.tech_group),
                firm.ownership is Ownership.FOREIGN, firm.turnover)
        return self

    def cube(self) -> ContingencyCube:
        """The cube of all firms added; axes hold the observed values, sorted."""
        total = sum(self.domestic.values()) + sum(self.foreign.values())
        if not total:
            raise EmptyDataset("no firms")
        axes = {}
        for i, dim in enumerate(DIMS):
            coord = itemgetter(i)
            axes[dim] = tuple(sorted(set(map(coord, self.domestic)).union(map(coord, self.foreign))))
        return ContingencyCube(axes=axes, domestic=self.domestic, foreign=self.foreign, total=total)


def build_cube(firms: Sequence[ClassifiedFirm]) -> ContingencyCube:
    """Aggregate classified firms into a cube.

    Raises EmptyDataset on an empty input. Axis categories are exactly the
    values observed in the data, sorted.
    """
    return Tally().add_firms(firms).cube()


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
    over the kept axes whose cells are tuples of the kept coordinates (1-tuples for one axis),
    with the source's total. Asking for the cube's own dimensions returns the cube itself;
    asking for one it lacks raises ValueError.
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
    return ContingencyCube({d: cube.axes[d] for d in kept}, domestic, foreign, cube.total)


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


# --- JSON fixture format ----------------------------------------------------

def cube_to_dict(cube: ContingencyCube) -> dict:
    """Documented JSON shape: axes, total and a sorted sparse cell list. ValueError on a marginal."""
    cube = marginalize(cube, DIMS)  # the cube itself when it has all three axes
    cells = []
    for cell in sorted(set(cube.domestic) | set(cube.foreign)):
        cells.append({
            "g": cell[0],
            "o": cell[1],
            "t": cell[2],
            "domestic": cube.domestic.get(cell, 0),
            "foreign": cube.foreign.get(cell, 0),
        })
    return {
        "schema_version": 1,
        "axes": {d: list(cube.axes[d]) for d in DIMS},
        "total": cube.total,
        "cells": cells,
    }


def cube_from_dict(payload: dict) -> ContingencyCube:
    """Inverse of cube_to_dict; each axis is stored sorted, whatever its order in the payload.
    ValueError on any other payload: a missing key, a value of the wrong type, an axis that is not a
    list of distinct labels that can be ordered, a cell off the axes or listed twice, a bad count or
    a wrong total."""
    try:
        axes = {}
        for d in DIMS:
            labels = payload["axes"][d]
            if type(labels) is not list or len(set(labels)) < len(labels):  # "ab" is no axis ('a', 'b')
                raise ValueError(f"axis {d} {labels!r} is not a list of distinct labels")
            axes[d] = tuple(sorted(labels))
        on_axes = [set(axes[d]) for d in DIMS]
        domestic: dict[Cell, int] = {}
        foreign: dict[Cell, int] = {}
        seen = set()
        for entry in payload["cells"]:
            cell = (entry["g"], entry["o"], entry["t"])
            if any(coord not in labels for coord, labels in zip(cell, on_axes)):
                raise ValueError(f"cell {cell} is not on the axes")
            if cell in seen:
                raise ValueError(f"cell {cell} is listed twice")
            seen.add(cell)
            for counts, count in ((domestic, entry["domestic"]), (foreign, entry["foreign"])):
                if type(count) is not int or count < 0:  # 1.9, true and -1 are no firm counts
                    raise ValueError(f"cell {cell} count {count!r} is not a non-negative integer")
                if count:
                    counts[cell] = count
        total = payload["total"]
    except KeyError as exc:
        raise ValueError(f"cube JSON has no key {exc}") from None
    except TypeError as exc:  # a list as a label, a cell or payload that is no object, labels 1 and "a"
        raise ValueError(f"cube JSON holds a value of the wrong type ({exc})") from None
    if type(total) is not int:  # 1.0 and true equal an integer sum but are no firm count
        check = sum(domestic.values()) + sum(foreign.values())
        raise ValueError(f"cell counts sum to {check}, total says {total!r}")
    return ContingencyCube(axes=axes, domestic=domestic, foreign=foreign, total=total)


def dump_cube(cube: ContingencyCube, fp: IO[str]) -> None:
    json.dump(cube_to_dict(cube), fp, indent=2, sort_keys=False)
    fp.write("\n")


def load_cube(fp: IO[str]) -> ContingencyCube:
    return cube_from_dict(json.load(fp))
