"""Seeded register CSVs for the benchmark, with the facts needed to check outputs.

Everything is drawn from one numpy PCG64 stream per (seed, kind), so the
same seed always gives byte-identical files. The generator keeps the
integer-coded columns it wrote, and `reference.py` scores them without going
through the package under test.

Three kinds of file:
    register  356 municipality codes with Zipf-skewed sizes
    wide      location labels numbering 7% of the rows, drawn uniformly
    dirty     a register with ~5% defective rows of four kinds
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HEADER = "firm_id,municipality_code,nace2,employees,turnover_nok,foreign_share"

# Two-digit NACE division ranges -> technology group, as tabulated in the
# README. 92 divisions in all; the gaps below are the non-existent ones.
NACE_GROUP_RANGES = (
    (1, 3, 1), (5, 39, 2), (41, 43, 3), (45, 56, 4), (58, 63, 5),
    (64, 66, 6), (68, 68, 7), (69, 82, 8), (84, 88, 9), (90, 99, 10),
)
UNMAPPED_NACE = (4, 40, 44, 57, 67, 83, 89)
SIZE_BIN_EDGES = (0, 1, 5, 10, 20, 50, 100, 250)
FOREIGN_CUTOFF_PERMILLE = 200  # the default 20% cutoff, inclusive

KINDS = ("register", "wide", "dirty")
_KIND_STREAM = {kind: i for i, kind in enumerate(KINDS)}
DEFECT_KINDS = ("unmapped_nace", "employees_not_integer", "share_out_of_range", "short_row")


def nace_divisions() -> np.ndarray:
    return np.array([c for lo, hi, _ in NACE_GROUP_RANGES for c in range(lo, hi + 1)])


def nace_group_table() -> np.ndarray:
    """Lookup array: index = division, value = group (0 where unmapped)."""
    table = np.zeros(100, dtype=np.int64)
    for lo, hi, group in NACE_GROUP_RANGES:
        table[lo:hi + 1] = group
    return table


@dataclass
class Dataset:
    """A generated file and what a correct program must report about it."""

    kind: str
    path: str
    rows: int
    # integer-coded clean columns (defective rows excluded)
    location: np.ndarray = field(repr=False)
    nace2: np.ndarray = field(repr=False)
    employees: np.ndarray = field(repr=False)
    turnover: np.ndarray = field(repr=False)
    share_permille: np.ndarray = field(repr=False)
    defects: dict[int, str] = field(default_factory=dict)  # line number -> defect kind

    @property
    def foreign_mask(self) -> np.ndarray:
        return self.share_permille >= FOREIGN_CUTOFF_PERMILLE

    def facts(self) -> dict:
        """Row, ownership and turnover counts recorded for every file."""
        foreign = self.foreign_mask
        return {
            "kind": self.kind,
            "rows": self.rows,
            "foreign": int(foreign.sum()),
            "turnover_total": int(self.turnover.sum()),
            "turnover_foreign": int(self.turnover[foreign].sum()),
            "turnover_domestic": int(self.turnover[~foreign].sum()),
            "defects": {kind: sum(1 for k in self.defects.values() if k == kind) for kind in DEFECT_KINDS},
        }


def _share_text(permille: int) -> str:
    return "0" if permille == 0 else f"{permille // 1000}.{permille % 1000:03d}"


def generate(kind: str, seed: int, rows: int, path: str) -> Dataset:
    """Write one CSV of `rows` data rows to `path` and return its facts.

    Turnover is whole NOK, so every partial sum the program forms is an
    exact float and the turnover totals can be checked for equality.
    """
    if kind not in _KIND_STREAM:
        raise ValueError(f"unknown dataset kind {kind!r}")
    rng = np.random.default_rng([seed, _KIND_STREAM[kind]])
    n = rows

    if kind == "wide":
        n_labels = max(2, round(n * 0.07))
        labels = rng.choice(90_000_000, n_labels, replace=False) + 10_000_000
        location_names = [f"{code:08d}" for code in labels.tolist()]
        location = rng.integers(0, n_labels, n)
    else:
        n_labels = min(356, max(2, n // 4))
        codes = rng.choice(np.arange(101, 5700), n_labels, replace=False)
        location_names = [f"{code:04d}" for code in codes.tolist()]
        weights = 1.0 / np.arange(1, n_labels + 1) ** 1.1
        location = rng.choice(n_labels, n, p=weights / weights.sum())

    nace2 = rng.choice(nace_divisions(), n)
    employees = np.minimum(np.floor(rng.pareto(1.0, n) * 2.0), 100_000).astype(np.int64)
    turnover = np.rint(rng.lognormal(14.5, 1.6, n)).astype(np.int64)
    share_permille = np.where(rng.random(n) < 0.12, rng.integers(1, 1001, n), 0)

    fields = {
        "nace2": [f"{v:02d}" for v in nace2.tolist()],
        "employees": [str(v) for v in employees.tolist()],
        "foreign_share": [_share_text(v) for v in share_permille.tolist()],
    }
    loc_text = [location_names[i] for i in location.tolist()]
    turnover_text = [str(v) for v in turnover.tolist()]

    clean = np.ones(n, dtype=bool)
    short_rows: set[int] = set()
    defects: dict[int, str] = {}
    if kind == "dirty":
        bad = np.sort(rng.choice(n, max(4, n // 20), replace=False))
        which = rng.integers(0, len(DEFECT_KINDS), bad.size)
        which[:len(DEFECT_KINDS)] = np.arange(len(DEFECT_KINDS))  # every kind occurs
        for row, k in zip(bad.tolist(), which.tolist()):
            name = DEFECT_KINDS[k]
            defects[row + 2] = name  # the header is line 1
            if name == "unmapped_nace":
                fields["nace2"][row] = f"{UNMAPPED_NACE[row % len(UNMAPPED_NACE)]:02d}"
            elif name == "employees_not_integer":
                fields["employees"][row] = ("12.5", "n/a", "3e2")[row % 3]
            elif name == "share_out_of_range":
                fields["foreign_share"][row] = ("1.25", "-0.1", "2")[row % 3]
            else:
                short_rows.add(row)
        clean[bad] = False

    lines = [HEADER]
    nace_t, emp_t, share_t = fields["nace2"], fields["employees"], fields["foreign_share"]
    for i in range(n):
        if i in short_rows:
            lines.append(f"F{i:07d},{loc_text[i]},{nace_t[i]}")
        else:
            lines.append(f"F{i:07d},{loc_text[i]},{nace_t[i]},{emp_t[i]},{turnover_text[i]},{share_t[i]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")

    codes_sorted = np.argsort(np.array(location_names), kind="stable")
    rank = np.empty(n_labels, dtype=np.int64)
    rank[codes_sorted] = np.arange(n_labels)
    return Dataset(
        kind=kind,
        path=path,
        rows=n,
        location=rank[location][clean],
        nace2=nace2[clean],
        employees=employees[clean],
        turnover=turnover[clean],
        share_permille=share_permille[clean],
        defects=defects,
    )
