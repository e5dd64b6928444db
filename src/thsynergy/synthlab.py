"""Seeded synthetic firm populations and foreign-share sweeps.

All randomness flows from one numpy PCG64 generator per seed, split into
two independent child streams: one for the population (categories and
turnover), one for the ownership labeling order. Regenerating with a
different foreign share therefore keeps every firm's coordinates and
turnover fixed and only moves the domestic/foreign boundary, and the
foreign sets are nested as the share grows.
"""
from __future__ import annotations

import csv
import math
import operator
from itertools import chain
from typing import IO, NamedTuple, Sequence

from . import _Validated
from .decomp import (DIMS, SUBSETS, RegionReport, SplitEntropyTerm, SynergyDecomposition, _build_report, _exact_parts,
                     _kept_digits, _multiplicity_entropy)

_INT64_MAX = 2**63 - 1


class _SynthFields(NamedTuple):
    n_firms: int = 500
    n_municipalities: int = 30
    n_size_classes: int = 8
    n_tech_groups: int = 10
    coupling: float = 0.5
    turnover_law: str = "uniform"  # uniform on [1e6, 1e9) or lognormal(mu, sigma)
    lognormal_mu: float = 16.0
    lognormal_sigma: float = 1.0
    seed: int = 0


class SynthParams(_Validated, _SynthFields):
    """Generator knobs. coupling is the probability that a firm's size and
    technology labels are deterministic functions (index modulo class count)
    of its municipality; otherwise they are independent uniform draws."""

    __slots__ = ()

    def _validated(self):
        ints = {}  # the counts and the seed as Python ints, which do not overflow in the cell radices
        for name in ("n_firms", "n_municipalities", "n_size_classes", "n_tech_groups", "seed"):
            try:
                ints[name] = operator.index(getattr(self, name))  # numpy ints pass, 2.5 and 2.0 do not
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        for name in ("n_firms", "n_municipalities", "n_size_classes", "n_tech_groups"):
            count = getattr(self, name)
            if count < 1:
                raise ValueError(f"{name} must be at least 1")
            if count > _INT64_MAX:  # numpy draws and reduces the indices as int64
                raise ValueError(f"{name} must be at most {_INT64_MAX}")
        self._check_numbers("coupling", "lognormal_mu", "lognormal_sigma")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must be in [0, 1]")
        if self.turnover_law not in ("uniform", "lognormal"):
            raise ValueError(f"unknown turnover_law {self.turnover_law!r}")
        try:
            finite = math.isfinite(self.lognormal_mu) and math.isfinite(self.lognormal_sigma)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError("lognormal_mu and lognormal_sigma must be finite")
        if self.lognormal_sigma < 0:
            raise ValueError("lognormal_sigma must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        return tuple.__new__(type(self), [ints.get(name, value) for name, value in zip(self._fields, self)])

    @property
    def cell_shape(self) -> tuple[None, int, int]:  # a generated cell's radices; its drawn indices are its digits
        return None, self.n_size_classes, self.n_tech_groups


def foreign_count(n_firms: int, share: float) -> int:
    """Number of foreign firms for a target share, ties rounded half up."""
    return min(n_firms, int(math.floor(n_firms * share + 0.5)))


def _draw(params: SynthParams) -> tuple:
    """Numpy arrays in labeling order: each firm's cell, its drawn indices coded over params.cell_shape
    (in an object array of Python ints past int64), and its turnover. Neither depends on the foreign
    share: at a given share, the first foreign_count(n_firms, share) firms are foreign.
    """
    import numpy as np  # numpy loads only for generate and sweep

    children = np.random.SeedSequence(params.seed).spawn(2)
    rng_pop = np.random.default_rng(children[0])
    rng_label = np.random.default_rng(children[1])

    n = params.n_firms
    g_idx = rng_pop.integers(0, params.n_municipalities, n)
    coupled = rng_pop.random(n) < params.coupling
    o_idx = rng_pop.integers(0, params.n_size_classes, n)
    t_idx = rng_pop.integers(0, params.n_tech_groups, n)
    if params.turnover_law == "uniform":
        turnover = rng_pop.uniform(1e6, 1e9, n)
    else:
        turnover = rng_pop.lognormal(params.lognormal_mu, params.lognormal_sigma, n)

    np.copyto(o_idx, g_idx % params.n_size_classes, where=coupled)  # coupled labels over the free draws
    np.copyto(t_idx, g_idx % params.n_tech_groups, where=coupled)
    del coupled
    _, n_o, n_t = params.cell_shape
    g_idx = g_idx.astype(object) if params.n_municipalities * n_o * n_t > _INT64_MAX else g_idx  # Python ints
    cells = (g_idx * n_o + o_idx) * n_t + t_idx
    del g_idx, o_idx, t_idx
    order = rng_label.permutation(n)
    return cells[order], turnover[order]


def generate(params: SynthParams, share: float) -> list[tuple[int, bool, float]]:
    """Draw a deterministic synthetic population for the given parameters: each firm's
    (cell, foreign, turnover) triple, as decomp.Tally.add takes it over params.cell_shape, in
    labeling order: the first foreign_count(n_firms, share) firms are foreign, share in [0, 1]."""
    if not 0.0 <= share <= 1.0:
        raise ValueError("share must lie in [0, 1]")
    cells, turnovers = _draw(params)
    k = foreign_count(params.n_firms, share)
    return [(cell, i < k, turnover) for i, (cell, turnover) in enumerate(zip(cells.tolist(), turnovers.tolist()))]


class SweepPoint(NamedTuple):
    share: float
    report: RegionReport


class SweepCurve(NamedTuple):
    """The sweep's points. A decomposition's domestic part is p_d * (T_d - log2 p_d), where p_d is
    the domestic share of the firms and T_d their own measure (decomp.subgroup_synergy), so a
    point's synergy share is exactly 1 - p_d * (T_d - log2 p_d) / T, T the population's measure.
    Under random labels T_d is T up to plug-in bias, and the share follows
    t0(s) = s + (1 - s) * log2(1 - s) / T, departing from it by p_d * (T - T_d) / T; t0 turns at
    s* = 1 - 2**(T - 1/ln 2), so the share need not be monotone in the foreign share."""

    points: tuple[SweepPoint, ...]

    def to_csv(self, fp: IO[str]) -> None:
        # column names are the on-disk contract; an undefined synergy share
        # serializes as an empty field
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["share", "r_ratio", "t_ratio"])
        for point in self.points:
            synergy_share = point.report.foreign_synergy_share
            writer.writerow([
                repr(point.share),
                repr(point.report.foreign_turnover_share),
                "" if synergy_share is None else repr(synergy_share),
            ])


def sweep_foreign_share(params: SynthParams, shares: Sequence[float]) -> SweepCurve:
    """Evaluate the share -> (turnover share, synergy share) curve.

    shares must be strictly increasing within [0, 1]. The population is drawn once, in labeling
    order, and each occupied GOT cell read into the smaller subsets by decomp._kept_digits. The
    turnovers between consecutive foreign counts are reduced once, to a few floats whose exact sum
    is theirs (decomp._exact_parts). A point at k foreign firms counts firms k_prev..k-1 into the
    last point's foreign cell counts, and its foreign and domestic groups are the parts of the runs
    before and after k. Each entropy reads a subset's counts by how many cells hold each count.
    OverflowError, at the first point, when the turnover sum is not finite.
    """
    if not shares:
        raise ValueError("shares must not be empty")
    if any(not 0.0 <= s <= 1.0 for s in shares):
        raise ValueError("shares must lie in [0, 1]")
    if any(b <= a for a, b in zip(shares, shares[1:])):
        raise ValueError("shares must be strictly increasing")
    import numpy as np  # numpy loads only for generate and sweep
    cells, turnovers = _draw(params)
    turnovers = memoryview(turnovers)  # its slices are views that fsum reads as Python floats
    n = params.n_firms
    ks = [foreign_count(n, share) for share in shares]
    chunks = [_exact_parts(turnovers[a:b]) for a, b in zip([0, *ks], [*ks, n])]
    occupied, cell = np.unique(cells, return_inverse=True)  # each firm's index among the occupied cells
    del cells
    # each occupied cell's code in a smaller subset, as marginalize reads it, then its index among them
    runs_of = (_kept_digits(DIMS, params.cell_shape, dims) for dims in SUBSETS[:-1])  # the last is GOT
    cells_of = [*(np.unique(sum((occupied // d if m is None else occupied // d % m) * k for d, m, k in runs),
                            return_inverse=True)[1] for runs in runs_of), None]  # GOT's are the cells
    del occupied

    def sums(cell_of, counts):  # a subset's cell counts from GOT cell counts, exact below 2**53
        return counts if cell_of is None else np.bincount(cell_of, weights=counts).astype(np.int64)
    def entropy(counts) -> float:  # from each count's multiplicity; the kernel skips the count 0
        multiplicities = np.bincount(counts)
        distinct = np.flatnonzero(multiplicities)
        return _multiplicity_entropy(zip(distinct.tolist(), multiplicities[distinct].tolist()), n)

    cell_counts = np.bincount(cell)
    subsets = [(of, (counts := sums(of, cell_counts)), entropy(counts)) for of in cells_of]
    points, foreign_cells = [], np.zeros_like(cell_counts)
    for j, (share, k_prev, k) in enumerate(zip(shares, [0, *ks], ks), 1):
        foreign_cells += np.bincount(cell[k_prev:k], minlength=len(foreign_cells))
        foreign_counts = (sums(cell_of, foreign_cells) for cell_of, _, _ in subsets)
        terms = (SplitEntropyTerm(entropy(c - f), entropy(f), h) for (_, c, h), f in zip(subsets, foreign_counts))
        report = _build_report(SynergyDecomposition(tuple(terms)), [*chain(*chunks[j:])], [*chain(*chunks[:j])], n, k)
        points.append(SweepPoint(float(share), report))
    return SweepCurve(tuple(points))

