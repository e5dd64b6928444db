import json
import math

import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors, report_of
import thsynergy.cube
from thsynergy.cube import ContingencyCube, EmptyDataset, marginalize
from thsynergy.decomp import (
    decompose,
    efficiency_ratio,
    split_entropy,
    subgroup_synergy,
    synergy_share,
)
from thsynergy.infotheory import ZeroTotal, ternary_information


def firm(g, o, t, foreign=False, turnover=1000.0):
    """A firm as Tally.add takes it: (cell, foreign, turnover)."""
    return (g, o, t), foreign, turnover


def mixed_xor_tensors():
    # domestic on even parity, foreign on odd parity: disjoint supports
    nat = np.zeros((2, 2, 2), dtype=int)
    forn = np.zeros((2, 2, 2), dtype=int)
    for g in range(2):
        for o in range(2):
            nat[g, o, g ^ o] = 1
            forn[g, o, 1 - (g ^ o)] = 1
    return nat, forn


# --- split_entropy ----------------------------------------------------------

def test_split_disjoint_supports_has_zero_cross():
    term = split_entropy({"a": 2}, {"b": 2}, 4)
    assert term.domestic == 0.5
    assert term.foreign == 0.5
    assert term.cross == 0.0
    assert term.total == 1.0


def test_split_identical_supports():
    term = split_entropy({"a": 1}, {"a": 1}, 2)
    assert term.domestic == 0.5
    assert term.foreign == 0.5
    assert term.cross == -1.0
    assert term.total == 0.0


def test_split_additivity_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        size = int(rng.integers(1, 9))
        nat = {f"c{i}": int(rng.integers(0, 20)) for i in range(size)}
        forn = {f"c{i}": int(rng.integers(0, 20)) for i in range(size)}
        total = sum(nat.values()) + sum(forn.values())
        if total == 0:
            continue
        term = split_entropy(nat, forn, total)
        assert term.domestic + term.foreign + term.cross == pytest.approx(term.total, abs=1e-12)
        assert term.domestic >= 0.0
        assert term.foreign >= 0.0
        assert term.cross <= 1e-15


def test_split_cross_matches_literal_formula():
    # residual route vs the explicit -(n/N) log2(1 + m/n) sums
    rng = np.random.default_rng(17)
    for _ in range(200):
        nat, forn = oracles.random_split_tensors(rng, max_axis=3)
        total = int(nat.sum() + forn.sum())
        nat_map = {idx: int(v) for idx, v in np.ndenumerate(nat)}
        forn_map = {idx: int(v) for idx, v in np.ndenumerate(forn)}
        term = split_entropy(nat_map, forn_map, total)
        literal = oracles._cross_literal(nat, forn, total)
        assert term.cross == pytest.approx(literal, abs=1e-12)


def test_split_empty_group_is_exactly_zero():
    term = split_entropy({"a": 2, "b": 1}, {}, 3)
    assert term.foreign == 0.0
    assert term.cross == 0.0
    assert term.domestic == term.total


def test_split_rejects_zero_total():
    with pytest.raises(ZeroTotal):
        split_entropy({"a": 1}, {}, 0)


@pytest.mark.parametrize("domestic, foreign", [({"a": 3}, {}), ({}, {"a": 3}), ({"a": 2}, {"b": 1})])
def test_split_rejects_counts_past_the_total(domestic, foreign):
    with pytest.raises(ValueError, match="counts sum to 3, more than the total 2"):
        split_entropy(domestic, foreign, 2)


@pytest.mark.parametrize("domestic, foreign", [({"a": 3, "b": -1}, {}), ({}, {"a": 3, "b": -1}),
                                              ({"a": 3}, {"a": -1})])
def test_split_rejects_a_negative_count(domestic, foreign):
    # the counts sum to the total, so only the sign check catches them; log2 of a negative p would fail
    with pytest.raises(ValueError, match="^counts must be non-negative$"):
        split_entropy(domestic, foreign, 2)


# --- decompose --------------------------------------------------------------

def test_decompose_rejects_a_cube_with_a_negative_cell():
    # the cells sum to a positive total; the first marginal, the cube itself, is refused
    cube = ContingencyCube(("G", "O", "T"), {("a", "0", 1): 3, ("b", "0", 1): -1}, {})
    with pytest.raises(ValueError, match="^counts must be non-negative$"):
        decompose(cube)


def test_decompose_mixed_xor_cube():
    # both groups are XOR-shaped and their synergies cancel against the
    # cross term: every aggregate lands on zero (values frozen from the
    # dense oracle)
    cube = cube_from_tensors(*mixed_xor_tensors())
    dec = decompose(cube)
    assert dec.total == pytest.approx(0.0, abs=1e-12)
    assert dec.domestic == pytest.approx(0.0, abs=1e-12)
    assert dec.foreign_only == pytest.approx(0.0, abs=1e-12)
    assert dec.cross == pytest.approx(0.0, abs=1e-12)
    assert dec.foreign == pytest.approx(0.0, abs=1e-12)


def test_decompose_mixed_xor_split_terms():
    cube = cube_from_tensors(*mixed_xor_tensors())
    triple = marginalize(cube, ("G", "O", "T"))
    term = split_entropy(triple.domestic, triple.foreign, cube.total)
    assert (term.domestic, term.foreign, term.cross, term.total) == (1.5, 1.5, 0.0, 3.0)
    single = marginalize(cube, ("G",))
    term = split_entropy(single.domestic, single.foreign, cube.total)
    assert (term.domestic, term.foreign, term.cross, term.total) == (1.0, 1.0, -1.0, 1.0)


def test_decompose_matches_straight_line_oracle():
    rng = np.random.default_rng(43)
    for _ in range(200):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        dec = decompose(cube)
        ref = oracles.split_decomposition_dense(nat, forn)
        for name in ("total", "domestic", "foreign_only", "cross", "foreign"):
            assert getattr(dec, name) == pytest.approx(ref[name], abs=1e-10)


def test_decompose_total_identical_to_profile_route():
    rng = np.random.default_rng(47)
    for _ in range(100):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        # same marginals, same summation order: bitwise equal, not just close
        dec = decompose(cube)
        assert dec.total == ternary_information(dec.profile())


def test_decompose_identities():
    rng = np.random.default_rng(53)
    for _ in range(200):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        dec = decompose(cube)
        assert dec.foreign == dec.foreign_only + dec.cross
        assert dec.foreign == pytest.approx(dec.total - dec.domestic, abs=1e-10)
        assert dec.total == pytest.approx(dec.domestic + dec.foreign_only + dec.cross, abs=1e-10)


def test_decompose_all_domestic_exact():
    rng = np.random.default_rng(59)
    nat, forn = oracles.random_split_tensors(rng)
    cube = cube_from_tensors(nat + forn, np.zeros_like(nat))
    dec = decompose(cube)
    assert dec.foreign_only == 0.0
    assert dec.cross == 0.0
    assert dec.foreign == 0.0
    assert dec.domestic == dec.total


def test_decompose_all_foreign_exact():
    rng = np.random.default_rng(61)
    nat, forn = oracles.random_split_tensors(rng)
    cube = cube_from_tensors(np.zeros_like(nat), nat + forn)
    dec = decompose(cube)
    assert dec.domestic == 0.0
    assert dec.cross == 0.0
    assert dec.foreign_only == dec.total
    assert dec.foreign == dec.total


def test_decompose_swap_symmetry_exact():
    # exchanging the two ownership groups swaps their contributions and
    # leaves the total and the cross term bitwise unchanged
    rng = np.random.default_rng(67)
    for _ in range(100):
        nat, forn = oracles.random_split_tensors(rng)
        dec = decompose(cube_from_tensors(nat, forn))
        swapped = decompose(cube_from_tensors(forn, nat))
        assert swapped.total == dec.total
        assert swapped.cross == dec.cross
        assert swapped.domestic == dec.foreign_only
        assert swapped.foreign_only == dec.domestic


def test_decompose_walks_each_full_cell_map_three_times(monkeypatch):
    cube = cube_from_tensors(*mixed_xor_tensors())
    expected = decompose(cube)
    walked = []
    sum_by = thsynergy.cube._sum_by

    def counted(counts, key):
        walked.append(counts)
        return sum_by(counts, key)

    monkeypatch.setattr(thsynergy.cube, "_sum_by", counted)
    dec = decompose(cube)
    assert (dec, dec.terms) == (expected, expected.terms)
    # GO, GT and OT from each full map; G from GO, O and T from OT, one walk per group each
    assert sum(counts is cube.domestic for counts in walked) == 3
    assert sum(counts is cube.foreign for counts in walked) == 3
    assert len(walked) == 12


# --- renormalized subgroup diagnostic ---------------------------------------

def test_subgroup_synergy_all_domestic_equals_total():
    rng = np.random.default_rng(71)
    nat, forn = oracles.random_split_tensors(rng)
    cube = cube_from_tensors(nat + forn, np.zeros_like(nat))
    assert subgroup_synergy(cube, foreign=False) == decompose(cube).total


def test_subgroup_synergy_matches_renormalized_oracle():
    rng = np.random.default_rng(73)
    for _ in range(50):
        nat, forn = oracles.random_split_tensors(rng)
        if forn.sum() == 0:
            continue
        cube = cube_from_tensors(nat, forn)
        want = oracles.ternary_dense(forn / forn.sum())
        assert subgroup_synergy(cube, foreign=True) == pytest.approx(want, abs=1e-12)


def test_subgroup_synergy_is_not_the_decomposition_term():
    # the additive domestic term keeps the full denominator; renormalizing
    # changes the number whenever both groups are present
    nat, forn = mixed_xor_tensors()
    cube = cube_from_tensors(nat, forn)
    assert subgroup_synergy(cube, foreign=False) == -1.0
    assert decompose(cube).domestic == pytest.approx(0.0, abs=1e-12)


def test_subgroup_synergy_empty_group_raises():
    nat, _ = mixed_xor_tensors()
    cube = cube_from_tensors(nat, np.zeros_like(nat))
    with pytest.raises(EmptyDataset, match="no foreign firms"):
        subgroup_synergy(cube, foreign=True)


# --- ratio helpers ----------------------------------------------------------

def test_synergy_share():
    assert synergy_share(-0.204, -0.027) == pytest.approx(0.027 / 0.204)
    assert synergy_share(0.0, 0.0) is None


def test_zero_ratios_carry_no_sign():
    # 0.0 over a negative total is IEEE -0.0; serialized output must say "0.0"
    share = synergy_share(-0.5, 0.0)
    assert share == 0.0
    assert math.copysign(1.0, share) == 1.0
    eff = efficiency_ratio(0.0, -0.25)
    assert eff == 0.0
    assert math.copysign(1.0, eff) == 1.0


def test_efficiency_ratio():
    assert efficiency_ratio(0.09, 0.25) == pytest.approx(0.36)
    assert efficiency_ratio(0.09, None) is None
    assert efficiency_ratio(0.09, 0.0) is None


# --- region report ----------------------------------------------------------

def region_firms():
    return [
        firm("a", "0", 1, turnover=100.0),
        firm("a", "1-4", 2, turnover=200.0),
        firm("b", "0", 2, turnover=300.0),
        firm("b", "1-4", 1, True, turnover=400.0),
    ]


def test_region_report_turnover_and_counts():
    report = report_of(region_firms())
    assert report.firm_count == 4
    assert report.foreign_count == 1
    assert report.turnover_total == 1000.0
    assert report.turnover_foreign == 400.0
    assert report.turnover_domestic == 600.0
    assert report.foreign_turnover_share == 0.4
    assert report.foreign_to_domestic_turnover == pytest.approx(400.0 / 600.0)


def test_region_report_ratio_wiring():
    report = report_of(region_firms())
    dec = report.synergy
    assert report.foreign_synergy_share == pytest.approx(dec.foreign / dec.total)
    assert report.efficiency == pytest.approx(
        report.foreign_turnover_share / report.foreign_synergy_share)


def test_region_report_all_domestic():
    firms = [firm("a", "0", 1), firm("b", "1-4", 2)]
    report = report_of(firms)
    assert report.synergy.total != 0.0
    assert report.synergy.foreign == 0.0
    assert report.foreign_turnover_share == 0.0
    assert report.foreign_synergy_share == 0.0
    assert report.efficiency is None  # 0/0 stays undefined, not NaN
    assert report.foreign_to_domestic_turnover == 0.0


def test_region_report_all_foreign():
    firms = [firm("a", "0", 1, True), firm("b", "1-4", 2, True)]
    report = report_of(firms)
    assert report.foreign_turnover_share == 1.0
    assert report.foreign_synergy_share == 1.0
    assert report.foreign_to_domestic_turnover is None
    assert report.efficiency == 1.0


def test_region_report_empty_raises():
    with pytest.raises(EmptyDataset):
        report_of([])


def test_region_report_overflowing_turnover_sum_raises():
    # the foreign sum overflows to inf, which would make the foreign turnover share inf / inf = NaN
    firms = [firm("a", "0", 1, True, 1e308), firm("b", "0", 1, True, 1e308), firm("a", "1-4", 2, False, 1.0)]
    with pytest.raises(OverflowError, match="turnover sum is not finite"):
        report_of(firms)


def test_region_report_infinite_turnover_raises():
    # the scan refuses an infinite turnover, but a Tally fed by hand takes it
    with pytest.raises(OverflowError, match="turnover sum is not finite"):
        report_of([firm("a", "0", 1, False, math.inf), firm("b", "0", 1, True, 1.0)])


def test_region_report_undefined_synergy_share():
    # one firm: every entropy is zero, total measure is zero
    report = report_of([firm("a", "0", 1)])
    assert report.synergy.total == 0.0
    assert report.foreign_synergy_share is None
    assert report.efficiency is None


def test_region_report_json_shape():
    payload = report_of(region_firms()).to_dict()
    assert set(payload) == {"units", "firms", "synergy", "turnover", "ratios"}
    assert set(payload["synergy"]) == {"total", "domestic", "foreign_only", "cross", "foreign"}
    assert set(payload["ratios"]) == {
        "foreign_turnover_share", "foreign_to_domestic_turnover",
        "foreign_synergy_share", "efficiency"}
    assert "NOK" in payload["units"]["turnover"]
    json.dumps(payload)  # serializable as-is
