"""Shared helpers: dense oracle tensors as the package's cubes, firm triples
as a tally, and the unmemoized row-by-row reference of the scan."""
from __future__ import annotations

import csv
import io
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # make `import oracles` work

from thsynergy.cube import ContingencyCube, Tally
from thsynergy.decomp import RegionReport, cube_report
from thsynergy.ingest import ClassificationConfig, MalformedRow, UnmappedNace, _parse_row, _read_header


def tally_of(firms: Iterable[tuple]) -> Tally:
    """A Tally fed (cell, foreign, turnover) triples, as generate() returns them."""
    tally = Tally()
    for firm in firms:
        tally.add(*firm)
    return tally


def report_of(firms: Iterable[tuple]) -> RegionReport:
    """The region report of firm triples: their tally's cube through cube_report."""
    tally = tally_of(firms)
    return cube_report(tally.cube(), tally)


def row_by_row(data: bytes, config: ClassificationConfig):
    """The scan's (rows, issues) and add() calls from _parse_row and categorize on every row,
    without the memos. data is UTF-8 without a byte order mark, and every record is readable."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    positions, width = _read_header(reader)
    rows, issues, calls = 0, [], []
    for row in reader:
        rows += 1
        try:
            municipality, nace2, employees, turnover, share = _parse_row(row, reader.line_num, positions, width)
            cell, foreign = config.categorize(municipality, nace2, employees, share)
        except (MalformedRow, UnmappedNace) as exc:
            issues.append((reader.line_num, exc.reason))
            continue
        calls.append((cell, foreign, turnover))
    return rows, issues, calls


def cube_from_tensors(nat: np.ndarray, forn: np.ndarray) -> ContingencyCube:
    """Build a package cube from dense (domestic, foreign) count tensors.

    Axis labels mirror production shapes: municipality and size class are
    strings, technology group is a 1-based int.
    """
    nat = np.asarray(nat)
    forn = np.asarray(forn)
    shape = nat.shape
    domestic: dict = {}
    foreign: dict = {}
    for idx in np.ndindex(shape):
        cell = (f"g{idx[0]}", f"o{idx[1]}", idx[2] + 1)
        if nat[idx]:
            domestic[cell] = int(nat[idx])
        if forn[idx]:
            foreign[cell] = int(forn[idx])
    axes = {
        "G": tuple(f"g{i}" for i in range(shape[0])),
        "O": tuple(f"o{j}" for j in range(shape[1])),
        "T": tuple(k + 1 for k in range(shape[2])),
    }
    return ContingencyCube(axes=axes, domestic=domestic, foreign=foreign)
