"""Independent reference implementations used only to check the library.

Everything here works on dense numpy arrays built from the full joint
distribution and recomputes results from first principles. No code is
shared with the package under test: the library sums sparse maps with
math.fsum, these oracles reduce dense tensors, and the split oracle
evaluates the literal per-cell cross-term formula instead of a residual.
"""
from __future__ import annotations

import numpy as np


def entropy_dense(p: np.ndarray) -> float:
    """Plug-in entropy in bits of any array of probabilities."""
    q = np.asarray(p, dtype=float).ravel()
    q = q[q > 0]
    return float(-(q * np.log2(q)).sum())


def ternary_dense(p: np.ndarray) -> float:
    """Signed three-way measure straight from a joint 3-d probability array."""
    p = np.asarray(p, dtype=float)
    h1 = entropy_dense(p.sum(axis=(1, 2)))
    h2 = entropy_dense(p.sum(axis=(0, 2)))
    h3 = entropy_dense(p.sum(axis=(0, 1)))
    h12 = entropy_dense(p.sum(axis=2))
    h13 = entropy_dense(p.sum(axis=1))
    h23 = entropy_dense(p.sum(axis=0))
    h123 = entropy_dense(p)
    return h1 + h2 + h3 - h12 - h13 - h23 + h123


_AXIS_DROPS = {
    ("G",): (1, 2),
    ("O",): (0, 2),
    ("T",): (0, 1),
    ("G", "O"): (2,),
    ("G", "T"): (1,),
    ("O", "T"): (0,),
    ("G", "O", "T"): (),
}


def _part_entropy(counts: np.ndarray, total: int) -> float:
    p = counts.astype(float).ravel() / total
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _cross_literal(nat: np.ndarray, forn: np.ndarray, total: int) -> float:
    """Literal mixing term: -(n/N) log2(1 + m/n) - (m/N) log2(1 + n/m).

    Cells where one group count is zero contribute nothing from that side,
    matching the 0 log 0 convention.
    """
    n = nat.astype(float).ravel()
    m = forn.astype(float).ravel()
    acc = 0.0
    for a, b in zip(n, m):
        if a > 0:
            acc -= (a / total) * np.log2(1.0 + b / a)
        if b > 0:
            acc -= (b / total) * np.log2(1.0 + a / b)
    return float(acc)


def split_decomposition_dense(nat: np.ndarray, forn: np.ndarray) -> dict:
    """Straight-line ownership decomposition from dense count tensors.

    Returns the four alternating sums plus the per-subset split terms, all
    computed with the literal formulas (cross term included) rather than
    residuals.
    """
    nat = np.asarray(nat)
    forn = np.asarray(forn)
    total = int(nat.sum() + forn.sum())
    terms = {}
    for dims, drop in _AXIS_DROPS.items():
        n_marg = nat.sum(axis=drop) if drop else nat
        f_marg = forn.sum(axis=drop) if drop else forn
        terms[dims] = {
            "domestic": _part_entropy(n_marg, total),
            "foreign": _part_entropy(f_marg, total),
            "cross": _cross_literal(n_marg, f_marg, total),
            "total": _part_entropy(n_marg + f_marg, total),
        }

    def alternating(part: str) -> float:
        t = terms
        return (
            t[("G",)][part] + t[("O",)][part] + t[("T",)][part]
            - t[("G", "O")][part] - t[("G", "T")][part] - t[("O", "T")][part]
            + t[("G", "O", "T")][part]
        )

    domestic = alternating("domestic")
    foreign_only = alternating("foreign")
    cross = alternating("cross")
    return {
        "terms": terms,
        "total": alternating("total"),
        "domestic": domestic,
        "foreign_only": foreign_only,
        "cross": cross,
        "foreign": foreign_only + cross,
    }


def chi_square_dense(table) -> tuple[float, int]:
    """Pearson statistic and dof recomputed with numpy reductions."""
    obs = np.asarray(table, dtype=float)
    rows = obs.sum(axis=1, keepdims=True)
    cols = obs.sum(axis=0, keepdims=True)
    expected = rows * cols / obs.sum()
    stat = float(((obs - expected) ** 2 / expected).sum())
    return stat, obs.shape[1] - 1


def chi_square_mpmath(table) -> float:
    """Pearson statistic at 50 digits, whose exponent range no float margin can overflow."""
    import mpmath

    with mpmath.workdps(50):
        obs = [[mpmath.mpf(v) for v in row] for row in table]
        rows = [mpmath.fsum(row) for row in obs]
        cols = [mpmath.fsum(col) for col in zip(*obs)]
        grand = mpmath.fsum(rows)
        return float(mpmath.fsum((o - r * c / grand) ** 2 / (r * c / grand)
                                 for r, row in zip(rows, obs) for o, c in zip(row, cols)))


def survival_mpmath(statistic: float, dof: int) -> float:
    """High-precision chi-square survival probability via mpmath."""
    import mpmath

    with mpmath.workdps(50):
        value = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(statistic) / 2,
                                mpmath.inf, regularized=True)
        return float(value)


# --- random cube material ---------------------------------------------------

def random_split_tensors(rng: np.random.Generator, max_axis: int = 4,
                         max_total: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Random dense (domestic, foreign) count tensors, total >= 1."""
    shape = tuple(int(s) for s in rng.integers(1, max_axis + 1, size=3))
    cells = int(np.prod(shape))
    total = int(rng.integers(1, max_total + 1))
    weights = rng.random(cells)
    counts = rng.multinomial(total, weights / weights.sum()).reshape(shape)
    forn = rng.binomial(counts, rng.random())
    return counts - forn, forn


def coded_marginal_counts(cells: dict, shape: tuple, kept: tuple) -> dict:
    """Counts of int G, O, T cells of shape (None, n_o, n_t) summed onto the kept dimensions,
    from first principles: each cell is decoded into its (g, o, t) coordinates, the kept ones
    are re-coded by Horner's rule over their radices, and one bincount over the distinct kept
    codes sums the counts. Object arrays hold codes past int64 as Python ints."""
    if not cells:
        return {}
    _, n_o, n_t = shape
    codes = np.array(list(cells), dtype=object)
    coordinates = {"G": codes // (n_o * n_t), "O": codes // n_t % n_o, "T": codes % n_t}
    radices = {"O": n_o, "T": n_t}
    kept_codes = coordinates[kept[0]]
    for dim in kept[1:]:
        kept_codes = kept_codes * radices[dim] + coordinates[dim]
    distinct, inverse = np.unique(kept_codes, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=np.array(list(cells.values()), dtype=float))
    return {int(code): int(total) for code, total in zip(distinct, sums)}
