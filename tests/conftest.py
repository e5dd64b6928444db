"""Shared helpers: dense oracle tensors and coordinate maps as the package's
cubes, firm triples as a tally, and the unmemoized row-by-row reference of
the scan."""
from __future__ import annotations

import csv
import io
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # make `import oracles` work

from thsynergy.decomp import ContingencyCube, RegionReport, Tally, cube_report
from thsynergy.ingest import ClassificationConfig, MalformedRow, UnmappedNace, _parse_row, _read_header


def tally_of(firms: Iterable[tuple], shape: tuple) -> Tally:
    """A Tally of the given cell shape fed (cell, foreign, turnover) triples, as generate() returns them."""
    tally = Tally(shape)
    for firm in firms:
        tally.add(*firm)
    return tally


def report_of(firms: Iterable[tuple], shape: tuple) -> RegionReport:
    """The region report of firm triples, through their tally."""
    return cube_report(tally_of(firms, shape))


def exact_sum(values: Iterable[float]) -> float:
    """The exact sum of the values rounded once to a float; inf when that is past the float range or
    a value is inf: the one sum of the values, whatever their order. Each distinct value is read as a
    Fraction once, times its count."""
    try:
        return float(sum(Fraction(value) * count for value, count in Counter(values).items()))
    except OverflowError:
        return math.inf


def near_max_lists(seed: int, count: int):
    """count pairs (rng, values) of a seeded random.Random and 10 to 12 non-negative floats whose sum
    is within about one ulp at the float maximum (2e292) of it, so that the sum rounds to a float or
    past the range, and math.fsum raises its "intermediate overflow" in some orders and not others."""
    rng = random.Random(seed)
    for _ in range(count):
        weights = [rng.random() for _ in range(rng.randint(10, 12))]
        total = sum(weights)
        yield rng, [w / total * sys.float_info.max for w in weights]


def cell_code(coordinates: tuple[int, int, int], shape: tuple) -> int:
    """The int cell of (g, o, t) coordinates in a cube of shape (None, n_o, n_t)."""
    (g, o, t), (_, n_o, n_t) = coordinates, shape
    return (g * n_o + o) * n_t + t


def coded_cube(domestic: dict, foreign: dict, shape: tuple = (None, 3, 3)) -> ContingencyCube:
    """A G, O, T cube from maps of (g, o, t) coordinates to counts."""
    return ContingencyCube(("G", "O", "T"), shape, *({cell_code(cell, shape): count for cell, count in counts.items()}
                                                     for counts in (domestic, foreign)))


def row_by_row(data: bytes, config: ClassificationConfig):
    """The scan's (rows, issues) and add() calls from _parse_row and categorize on every row,
    without the memos; G numbers the accepted municipality labels in first-seen order. data is
    UTF-8 without a byte order mark, and every record is readable."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    positions, width = _read_header(reader)
    g_of = {}
    rows, issues, calls = 0, [], []
    for row in reader:
        rows += 1
        try:
            municipality, nace2, employees, turnover, share = _parse_row(row, reader.line_num, positions, width)
            o, t = config.categorize(nace2, employees)
        except (MalformedRow, UnmappedNace) as exc:
            issues.append((reader.line_num, exc.reason))
            continue
        coordinates = (g_of.setdefault(municipality, len(g_of)), o, t)
        calls.append((cell_code(coordinates, config.cell_shape), share >= config.foreign_cutoff, turnover))
    return rows, issues, calls


def cube_from_tensors(nat: np.ndarray, forn: np.ndarray) -> ContingencyCube:
    """Build a package cube from dense (domestic, foreign) count tensors: the cell of the tensor
    index (g, o, t) is the index's position in the flattened tensor, as in production cubes."""
    nat, forn = np.asarray(nat), np.asarray(forn)
    domestic, foreign = ({int(i): int(count) for i, count in enumerate(counts.ravel()) if count}
                         for counts in (nat, forn))
    return ContingencyCube(("G", "O", "T"), (None, *nat.shape[1:]), domestic, foreign)
