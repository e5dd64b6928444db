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
from typing import IO, NamedTuple, Sequence

from .decomp import RegionReport, _build_report, _decompose_terms, _split_term
from .infotheory import _plugin_entropy
from .ingest import _Validated

_INT64_MAX = 2**63 - 1


class _SynthFields(NamedTuple):
    n_firms: int = 500
    n_municipalities: int = 30
    n_size_classes: int = 8
    n_tech_groups: int = 10
    coupling: float = 0.5
    foreign_share_target: float = 0.1
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
        for name in ("n_firms", "n_municipalities", "n_size_classes", "n_tech_groups"):
            count = getattr(self, name)
            if count < 1:
                raise ValueError(f"{name} must be at least 1")
            if count > _INT64_MAX:  # numpy draws and reduces the indices as int64
                raise ValueError(f"{name} must be at most {_INT64_MAX}")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must be in [0, 1]")
        if not 0.0 <= self.foreign_share_target <= 1.0:
            raise ValueError("foreign_share_target must be in [0, 1]")
        if self.turnover_law not in ("uniform", "lognormal"):
            raise ValueError(f"unknown turnover_law {self.turnover_law!r}")
        if not (math.isfinite(self.lognormal_mu) and math.isfinite(self.lognormal_sigma)):
            raise ValueError("lognormal_mu and lognormal_sigma must be finite")
        if self.lognormal_sigma < 0:
            raise ValueError("lognormal_sigma must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        return self

    @property
    def cell_shape(self) -> tuple[None, int, int]:  # a generated cell's radices; its drawn indices are its digits
        return None, self.n_size_classes, self.n_tech_groups


def foreign_count(n_firms: int, share: float) -> int:
    """Number of foreign firms for a target share, ties rounded half up."""
    return min(n_firms, int(math.floor(n_firms * share + 0.5)))


def _draw(params: SynthParams) -> tuple:
    """Numpy arrays in labeling order: the municipality, size class and tech group indices and
    the turnover. None depends on the foreign share: at a given share, the first
    foreign_count(n_firms, share) firms are foreign.
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
    order = rng_label.permutation(n)
    for column in (g_idx, o_idx, t_idx, turnover):
        column[:] = column[order]  # one reordered copy alive at a time
    return g_idx, o_idx, t_idx, turnover


def generate(params: SynthParams) -> list[tuple[int, bool, float]]:
    """Draw a deterministic synthetic population for the given parameters: each firm's
    (cell, foreign, turnover) triple, as cube.Tally.add takes it over params.cell_shape, in
    labeling order: the first foreign_count(n_firms, foreign_share_target) firms are foreign."""
    g, o, t, turnovers = _draw(params)
    _, n_o, n_t = params.cell_shape
    g = g.astype(object) if params.n_municipalities * n_o * n_t > _INT64_MAX else g  # Python ints past int64
    k = foreign_count(params.n_firms, params.foreign_share_target)
    cells = ((g * n_o + o) * n_t + t).tolist()
    return [(cell, i < k, turnover) for i, (cell, turnover) in enumerate(zip(cells, turnovers.tolist()))]


class SweepPoint(NamedTuple):
    share: float
    turnover_share: float
    synergy_share: float | None
    report: RegionReport


class SweepCurve(NamedTuple):
    params: SynthParams
    points: tuple[SweepPoint, ...] = ()

    def synergy_share_violations(self) -> int:
        """How often the synergy share strictly decreases along the curve.

        Monotonicity is an empirical tendency of this generator, not a
        theorem, so the count is measured and reported rather than assumed.
        Pairs with an undefined share are skipped.
        """
        count = 0
        previous = None
        for point in self.points:
            if point.synergy_share is None:
                continue
            if previous is not None and point.synergy_share < previous:
                count += 1
            previous = point.synergy_share
        return count

    def to_csv(self, fp: IO[str]) -> None:
        # column names are the on-disk contract; an undefined synergy share
        # serializes as an empty field
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["share", "r_ratio", "t_ratio"])
        for point in self.points:
            writer.writerow([
                repr(point.share),
                repr(point.turnover_share),
                "" if point.synergy_share is None else repr(point.synergy_share),
            ])


def sweep_foreign_share(params: SynthParams, shares: Sequence[float]) -> SweepCurve:
    """Evaluate the share -> (turnover share, synergy share) curve.

    shares must be strictly increasing within [0, 1]. The population is drawn once
    in labeling order and each firm coded once, by its GOT cell. A point at k foreign
    firms counts firms k_prev..k-1 into the last point's foreign cell counts.
    """
    if not shares:
        raise ValueError("shares must not be empty")
    if any(not 0.0 <= s <= 1.0 for s in shares):
        raise ValueError("shares must lie in [0, 1]")
    if any(b <= a for a, b in zip(shares, shares[1:])):
        raise ValueError("shares must be strictly increasing")
    import numpy as np  # numpy loads only for generate and sweep
    g, o, t, turnovers = _draw(params)
    turnovers = memoryview(turnovers)  # its slices are views that fsum reads as Python floats
    n = params.n_firms
    # code each axis by the categories present, then GO and GOT keys two axes at a time, below n**2
    g = np.unique(g, return_inverse=True)[1]
    o_present, o = np.unique(o, return_inverse=True)
    t_present, t = np.unique(t, return_inverse=True)
    o += g * len(o_present)
    go_keys, g = np.unique(o, return_inverse=True)
    t += g * len(t_present)
    got_keys, cell = np.unique(t, return_inverse=True)
    del g, o, t
    cell_go, cell_t = np.divmod(got_keys, len(t_present))  # each occupied GOT cell's coordinates
    cell_g, cell_o = np.divmod(go_keys[cell_go], len(o_present))
    with_t = (np.unique(a * len(t_present) + cell_t, return_inverse=True)[1] for a in (cell_g, cell_o))
    cells_of = (cell_g, cell_o, cell_t, cell_go, *with_t, None)  # in SUBSETS order; GOT's are the cells

    def sums(cell_of, counts):  # a subset's cell counts from GOT cell counts, exact below 2**53
        return counts if cell_of is None else np.bincount(cell_of, weights=counts).astype(np.int64)
    def entropy(counts) -> float:
        return _plugin_entropy(counts[counts > 0].tolist(), n)

    cell_counts = np.bincount(cell)
    subsets = [(cell_of, (counts := sums(cell_of, cell_counts)), entropy(counts)) for cell_of in cells_of]
    ks = [foreign_count(n, share) for share in shares]
    points, foreign_cells = [], np.zeros_like(cell_counts)
    for share, k_prev, k in zip(shares, [0, *ks], ks):
        foreign_cells += np.bincount(cell[k_prev:k], minlength=len(foreign_cells))
        foreign_counts = (sums(cell_of, foreign_cells) for cell_of, _, _ in subsets)
        terms = tuple(_split_term(entropy(c - f), entropy(f), h) for (_, c, h), f in zip(subsets, foreign_counts))
        report = _build_report(_decompose_terms(terms), turnovers[k:], turnovers[:k])
        points.append(SweepPoint(float(share), report.foreign_turnover_share, report.foreign_synergy_share, report))
    return SweepCurve(params=params, points=tuple(points))
