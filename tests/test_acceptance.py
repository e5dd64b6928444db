"""Acceptance suite: one test per criterion, tolerances pinned in-line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; a pytest failure on any test is that criterion's fail line.
"""
import io
import time

import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors
from thsynergy.decomp import _ratio, decompose, marginalize, split_entropy, ternary_information
from thsynergy.ingest import ClassificationConfig
from thsynergy.stats import chi_square_homogeneity, chi_square_survival
from thsynergy.synthlab import SynthParams, sweep_foreign_share


def _ok(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS", flush=True)


# --- criterion 1: oracle agreement for the ternary measure ------------------

def test_criterion_1_ternary_oracle_agreement():
    tol = 1e-12
    budget_s = 10.0
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        nat, forn = oracles.random_split_tensors(rng, max_axis=4, max_total=200)
        cube = cube_from_tensors(nat, forn)
        got = decompose(cube).total
        want = oracles.ternary_dense((nat + forn) / cube.total)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"1000-cube oracle run took {elapsed:.1f}s"
    _ok(1, f"ternary oracle agreement, worst diff {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: signed extremes -------------------------------------------

def test_criterion_2_signed_extremes():
    tol = 1e-12
    xor = np.zeros((2, 2, 2), dtype=int)
    ident = np.zeros((2, 2, 2), dtype=int)
    for g in range(2):
        for o in range(2):
            xor[g, o, g ^ o] = 1
    ident[0, 0, 0] = ident[1, 1, 1] = 1
    t_xor = decompose(cube_from_tensors(xor, np.zeros_like(xor))).total
    t_ident = decompose(cube_from_tensors(ident, np.zeros_like(ident))).total
    assert abs(t_xor - (-1.0)) <= tol
    assert abs(t_ident - 1.0) <= tol
    _ok(2, "parity cube -1.0 and identical-triple cube +1.0")


# --- criterion 3: decomposition identities ----------------------------------

def test_criterion_3_decomposition_identities():
    tol = 1e-10
    budget_s = 30.0
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    for _ in range(1000):
        nat, forn = oracles.random_split_tensors(rng, max_axis=4, max_total=200)
        cube = cube_from_tensors(nat, forn)
        dec = decompose(cube)

        # combined-foreign identity and full additivity
        assert abs(dec.foreign - (dec.total - dec.domestic)) <= tol
        assert dec.foreign == dec.foreign_only + dec.cross
        assert abs(dec.total - (dec.domestic + dec.foreign_only + dec.cross)) <= tol

        # per-marginal split identity on all seven terms, against the
        # literal straight-line formulas of the independent oracle
        ref = oracles.split_decomposition_dense(nat, forn)
        for dims in (("G",), ("O",), ("T",), ("G", "O"), ("G", "T"), ("O", "T"), ("G", "O", "T")):
            marginal = marginalize(cube, dims)
            term = split_entropy(marginal.domestic, marginal.foreign, cube.total)
            assert abs(term.domestic + term.foreign + term.cross - term.total) <= tol
            want = ref["terms"][dims]
            assert abs(term.domestic - want["domestic"]) <= tol
            assert abs(term.foreign - want["foreign"]) <= tol
            assert abs(term.cross - want["cross"]) <= tol
            assert abs(term.total - want["total"]) <= tol

    # degenerate cubes land exactly, empty sums and all
    nat, forn = oracles.random_split_tensors(rng)
    both = nat + forn
    all_domestic = decompose(cube_from_tensors(both, np.zeros_like(both)))
    assert all_domestic.foreign_only == 0.0
    assert all_domestic.cross == 0.0
    assert all_domestic.foreign == 0.0
    assert all_domestic.domestic == all_domestic.total
    all_foreign = decompose(cube_from_tensors(np.zeros_like(both), both))
    assert all_foreign.domestic == 0.0
    assert all_foreign.cross == 0.0
    assert all_foreign.foreign == all_foreign.total

    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"identity suite took {elapsed:.1f}s"
    _ok(3, f"split identities on 1000 cubes, {elapsed:.1f}s")


# --- criterion 4: reference county aggregates -------------------------------

# Known reference aggregates for two Norwegian counties (500 largest firms,
# 2013 register year). The first county's foreign contribution circulates
# in two variants with different values; both are carried, labeled, and each
# implies a different efficiency figure. Turnover shares are read as foreign
# over total.
REFERENCE_AGGREGATES = {
    "more-og-romsdal": {
        "total_synergy": -0.421,
        "foreign_turnover_share": 0.24,
        "reference_synergy_share": 0.571,  # pairs with the -0.24 variant
        "variants": {
            "table": {"foreign_synergy": -0.24, "implied_efficiency": 0.42},
            "text": {"foreign_synergy": -0.396, "implied_efficiency": 0.25},
        },
    },
    "sor-trondelag": {
        "total_synergy": -0.204,
        "foreign_turnover_share": 0.09,
        "reference_synergy_share": 0.132,
        "variants": {
            "table": {"foreign_synergy": -0.027, "implied_efficiency": 0.68},
        },
    },
}


def test_criterion_4_reference_aggregates():
    share_tol = 0.001  # 0.1 percentage points
    eff_tol = 0.01     # figures quoted to two decimals

    st = REFERENCE_AGGREGATES["sor-trondelag"]
    st_share = _ratio(st["variants"]["table"]["foreign_synergy"], st["total_synergy"])
    assert st_share == pytest.approx(st["reference_synergy_share"], abs=share_tol)

    mr = REFERENCE_AGGREGATES["more-og-romsdal"]
    mr_share = _ratio(mr["variants"]["table"]["foreign_synergy"], mr["total_synergy"])
    assert mr_share == pytest.approx(mr["reference_synergy_share"], abs=share_tol)

    # both reference efficiency figures fall out of the same arithmetic,
    # one per foreign-synergy variant
    for county in REFERENCE_AGGREGATES.values():
        for variant in county["variants"].values():
            share = _ratio(variant["foreign_synergy"], county["total_synergy"])
            eff = _ratio(county["foreign_turnover_share"], share)
            assert eff == pytest.approx(variant["implied_efficiency"], abs=eff_tol)

    _ok(4, "reference synergy shares 13.2% and 57.1%, efficiencies 0.68/0.42/0.25")


# --- criterion 5: classification tables -------------------------------------

def test_criterion_5_classification_tables():
    config = ClassificationConfig()
    spot = {1: 1, 5: 2, 39: 2, 41: 3, 45: 4, 58: 5, 64: 6, 68: 7, 69: 8, 84: 9, 90: 10, 99: 10}
    for code, group in spot.items():
        assert config.categorize(code, 10)[1] == group - 1

    assert config.size_bin_edges == (0, 1, 5, 10, 20, 50, 100, 250)
    hits = {o: 0 for o in range(len(config.size_bin_edges))}
    for employees in range(0, 1001):
        assigned, _ = config.categorize(30, employees)
        assert assigned in hits  # exactly one bin, a known one
        hits[assigned] += 1
    assert sum(hits.values()) == 1001
    assert all(count > 0 for count in hits.values())
    _ok(5, "technology-group spot codes and size bins partitioning 0..1000")


# --- criterion 6: chi-square reference behavior -----------------------------

def test_criterion_6_chi_square():
    assert chi_square_homogeneity([[5, 5], [5, 5]]).p_value == 1.0

    example = chi_square_homogeneity([[10, 20], [20, 10]])
    assert example.statistic == pytest.approx(6.667, abs=0.001)
    assert example.p_value == pytest.approx(0.00982, abs=1e-4)

    grid_tol = 1e-8
    statistics = (0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0,
                  7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
    worst = 0.0
    for dof in range(1, 10):
        for stat in statistics:
            got = chi_square_survival(stat, dof)
            want = oracles.survival_mpmath(stat, dof)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= grid_tol
    _ok(6, f"p-value grid vs high-precision oracle, worst diff {worst:.2e}")


# --- criterion 7: sweep endpoints and reproducibility -----------------------

def test_criterion_7_sweep_endpoints():
    params = SynthParams(n_firms=300, n_municipalities=8, n_size_classes=5,
                         n_tech_groups=6, coupling=0.8, seed=11)
    shares = [0.0, 0.25, 0.5, 0.75, 1.0]
    curve = sweep_foreign_share(params, shares)

    first, last = curve.points[0], curve.points[-1]
    assert first.report.synergy.total != 0.0
    assert last.report.synergy.total != 0.0
    assert (first.report.foreign_turnover_share, first.report.foreign_synergy_share) == (0.0, 0.0)
    assert (last.report.foreign_turnover_share, last.report.foreign_synergy_share) == (1.0, 1.0)

    buffer_a, buffer_b = io.StringIO(), io.StringIO()
    curve.to_csv(buffer_a)
    sweep_foreign_share(params._replace(), shares).to_csv(buffer_b)
    assert buffer_a.getvalue() == buffer_b.getvalue()
    _ok(7, "exact (0,0) and (1,1) endpoints, reproducible bytes")


# --- criterion 8: invariance suite ------------------------------------------

def test_criterion_8_invariance_suite():
    tol = 1e-12
    runs = 200

    rng = np.random.default_rng(4242)
    for _ in range(runs):  # relabeling: permute categories on every axis
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        p0, p1, p2 = (rng.permutation(s) for s in nat.shape)
        nat_p = nat[p0][:, p1][:, :, p2]
        forn_p = forn[p0][:, p1][:, :, p2]
        permuted = cube_from_tensors(nat_p, forn_p)
        a, b = decompose(cube).profile(), decompose(permuted).profile()
        for field in ("h_g", "h_o", "h_t", "h_go", "h_gt", "h_ot", "h_got"):
            assert abs(getattr(a, field) - getattr(b, field)) <= tol
        assert abs(ternary_information(a) - ternary_information(b)) <= tol
        da, db = decompose(cube), decompose(permuted)
        for field in ("total", "domestic", "foreign_only", "cross", "foreign"):
            assert abs(getattr(da, field) - getattr(db, field)) <= tol

    rng = np.random.default_rng(4343)
    for _ in range(runs):  # replication: every count scaled by the same k
        nat, forn = oracles.random_split_tensors(rng)
        k = int(rng.integers(2, 7))
        cube = cube_from_tensors(nat, forn)
        scaled = cube_from_tensors(nat * k, forn * k)
        assert decompose(scaled).profile() == decompose(cube).profile()
        assert decompose(scaled) == decompose(cube)

    rng = np.random.default_rng(4444)
    for _ in range(runs):  # ownership swap: groups trade places
        nat, forn = oracles.random_split_tensors(rng)
        dec = decompose(cube_from_tensors(nat, forn))
        swapped = decompose(cube_from_tensors(forn, nat))
        assert swapped.total == dec.total
        assert swapped.cross == dec.cross
        assert swapped.domestic == dec.foreign_only
        assert swapped.foreign_only == dec.domestic

    _ok(8, f"relabeling, replication and swap invariance on {runs} cubes each")
