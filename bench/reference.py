"""Independent numpy reference for the compute report.

Classifies the generator's integer-coded columns with the README's bins and
NACE map, counts cells with one bincount per ownership group over a dense
(G, O, T) index, and scores every marginal against the full population with
`math.fsum`. Nothing here imports the package under test.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from gen import SIZE_BIN_EDGES, Dataset, nace_group_table

_AXES = (0, 1, 2)  # G, O, T
# dimension subsets in the package's profile order: G, O, T, GO, GT, OT, GOT
SUBSETS = tuple(c for r in (1, 2, 3) for c in combinations(_AXES, r))
SUBSET_NAMES = ("h_g", "h_o", "h_t", "h_go", "h_gt", "h_ot", "h_got")


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    nz = counts[counts > 0].astype(np.float64) / total
    return -math.fsum((nz * np.log2(nz)).tolist())


def _alternating(h: list[float]) -> float:
    g, o, t, go, gt, ot, got = h
    return g + o + t - go - gt - ot + got


def expected_report(data: Dataset) -> dict:
    """Synergy terms, entropies and counts a correct `compute` must report."""
    n_g = int(data.location.max()) + 1
    n_o = len(SIZE_BIN_EDGES)
    n_t = 10
    o = np.searchsorted(np.array(SIZE_BIN_EDGES), data.employees, side="right") - 1
    t = nace_group_table()[data.nace2] - 1
    if (t < 0).any():
        raise ValueError("reference input contains an unmapped NACE division")
    cell = (data.location * n_o + o) * n_t + t
    shape = (n_g, n_o, n_t)
    foreign = data.foreign_mask
    dom = np.bincount(cell[~foreign], minlength=n_g * n_o * n_t).reshape(shape)
    forn = np.bincount(cell[foreign], minlength=n_g * n_o * n_t).reshape(shape)
    total = int(data.location.size)

    split = {"total": [], "domestic": [], "foreign_only": [], "cross": []}
    for kept in SUBSETS:
        dropped = tuple(a for a in _AXES if a not in kept)
        d = dom.sum(axis=dropped) if dropped else dom
        f = forn.sum(axis=dropped) if dropped else forn
        h_total = _entropy_bits(d + f, total)
        h_dom = _entropy_bits(d, total)
        h_for = _entropy_bits(f, total)
        split["total"].append(h_total)
        split["domestic"].append(h_dom)
        split["foreign_only"].append(h_for)
        split["cross"].append(h_total - (h_dom + h_for))
    synergy = {name: _alternating(values) for name, values in split.items()}
    return {
        "firms": {"count": total, "foreign": int(foreign.sum())},
        "synergy": synergy,
        "entropy": dict(zip(SUBSET_NAMES, split["total"])),
        "occupied_cells": int(np.count_nonzero(dom + forn)),
    }
