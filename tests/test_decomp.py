import json
import math
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock
import weakref

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import oracles
from conftest import cell_code, coded_cube, cube_from_tensors, exact_sum, near_max_lists, report_of, tally_of
import thsynergy.decomp
from thsynergy.decomp import (
    EmptyDataset,
    RegionReport,
    SplitEntropyTerm,
    SynergyDecomposition,
    Tally,
    ZeroTotal,
    _build_report,
    _ratio,
    cube_report,
    decompose,
    marginalize,
    split_entropy,
    split_marginals,
    subgroup_synergy,
    ternary_information,
)
from thsynergy.synthlab import SweepCurve, SweepPoint


SHAPE = (None, 2, 2)  # two size classes and two tech groups


def firm(g, o, t, foreign=False, turnover=1000.0):
    """A firm as Tally.add takes it: (cell, foreign, turnover)."""
    return cell_code((g, o, t), SHAPE), foreign, turnover


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


def test_split_streams_the_combined_counts():
    # the ownership-blind counts are a stream, not a merged copy of the domestic map, which would
    # allocate about that map's own size (0.3 MB more peak RSS for compute on the bench files)
    domestic = {cell: 1 + cell % 500 for cell in range(20_000)}
    foreign = {cell: 1 + cell % 7 for cell in range(0, 40_000, 4)}  # half of them on domestic cells
    total = sum(domestic.values()) + sum(foreign.values())
    tracemalloc.start()
    try:
        split_entropy(domestic, foreign, total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(domestic), (peak, sys.getsizeof(domestic))


# --- decompose --------------------------------------------------------------

def test_decompose_rejects_a_cube_with_a_negative_cell():
    # the cells sum to a positive total; the first marginal, the cube itself, is refused
    cube = coded_cube({(0, 0, 0): 3, (1, 0, 0): -1}, {})
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
    sum_by = thsynergy.decomp._sum_by

    def counted(counts, key):
        walked.append(counts)
        return sum_by(counts, key)

    monkeypatch.setattr(thsynergy.decomp, "_sum_by", counted)
    dec = decompose(cube)
    assert (dec, dec.terms) == (expected, expected.terms)
    # GO, GT and OT from each full map; G from GO, O and T from OT, one walk per group each
    assert sum(counts is cube.domestic for counts in walked) == 3
    assert sum(counts is cube.foreign for counts in walked) == 3
    assert len(walked) == 12


def test_decompose_frees_each_marginal_before_drawing_the_next(monkeypatch):
    # otherwise the G marginal would sit beside GT, the largest marginal of a register
    class Watched(dict):  # unlike a dict, weakly referable
        pass

    def watched(cube):
        drawn = None
        for marginal in split_marginals(cube):
            marginal = marginal._replace(domestic=Watched(marginal.domestic))
            assert drawn is None or drawn() is None, "the previous marginal is still alive"
            drawn = weakref.ref(marginal.domestic)
            yield marginal
            del marginal

    cube = cube_from_tensors(*mixed_xor_tensors())
    expected = decompose(cube)
    monkeypatch.setattr(thsynergy.decomp, "split_marginals", watched)
    assert decompose(cube) == expected


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


_group_counts = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
                                st.integers(1, 9), min_size=1, max_size=20)


@given(_group_counts, _group_counts)
def test_domestic_term_and_synergy_share_in_closed_form(domestic, foreign):
    # the domestic term is the domestic firms' own measure T_d rescaled by their share p_d, each split
    # entropy being p_d * (H_d - log2 p_d) and the alternating sum's signs summing to one; so the
    # synergy share is 1 - p_d * (T_d - log2 p_d) / T, which is how a sweep's t_ratio curve turns
    cube = coded_cube(domestic, foreign)
    dec = decompose(cube)
    p_d = sum(domestic.values()) / cube.total
    closed = p_d * (subgroup_synergy(cube, foreign=False) - math.log2(p_d))
    assert abs(dec.domestic - closed) <= 1e-12
    if abs(dec.total) >= 1e-6:
        share = RegionReport(dec, 1.0, 1.0, cube.total, sum(foreign.values())).foreign_synergy_share
        # rounding of order 1e-15 bits in either numerator, magnified by 1 / |T|
        assert share == pytest.approx(1 - closed / dec.total, rel=1e-9, abs=1e-12 / abs(dec.total))


# --- ratios ---------------------------------------------------------------

def ratio_report(total, foreign, turnover_foreign=9.0, turnover_domestic=91.0):
    """A report whose decomposition is only the two sums its ratios read."""
    return RegionReport(SimpleNamespace(total=total, foreign=foreign), turnover_domestic, turnover_foreign, 2, 1)


def test_synergy_share():
    assert ratio_report(-0.204, -0.027).foreign_synergy_share == pytest.approx(0.027 / 0.204)
    assert ratio_report(0.0, 0.0).foreign_synergy_share is None  # a zero denominator


def test_zero_ratios_carry_no_sign():
    # 0.0 over a negative total is IEEE -0.0; serialized output must say "0.0"
    share = ratio_report(-0.5, 0.0).foreign_synergy_share
    assert share == 0.0
    assert math.copysign(1.0, share) == 1.0
    eff = ratio_report(-0.5, 0.125, turnover_foreign=0.0).efficiency  # 0.0 over a synergy share of -0.25
    assert eff == 0.0
    assert math.copysign(1.0, eff) == 1.0


def test_efficiency_ratio():
    assert ratio_report(-0.5, -0.125).efficiency == pytest.approx(0.36)  # turnover share 0.09 over 0.25
    assert ratio_report(0.0, 0.0).efficiency is None  # the synergy share is None
    assert ratio_report(-0.5, 0.0).efficiency is None  # the synergy share is 0


# --- region report ----------------------------------------------------------

def region_firms():
    return [
        firm(0, 0, 0, turnover=100.0),
        firm(0, 1, 1, turnover=200.0),
        firm(1, 0, 1, turnover=300.0),
        firm(1, 1, 0, True, turnover=400.0),
    ]


def test_region_report_turnover_and_counts():
    report = report_of(region_firms(), SHAPE)
    assert report.firm_count == 4
    assert report.foreign_count == 1
    assert report.turnover_total == 1000.0
    assert report.turnover_foreign == 400.0
    assert report.turnover_domestic == 600.0
    assert report.foreign_turnover_share == 0.4
    assert report.foreign_to_domestic_turnover == pytest.approx(400.0 / 600.0)


def test_region_report_ratio_wiring():
    report = report_of(region_firms(), SHAPE)
    dec = report.synergy
    assert report.foreign_synergy_share == pytest.approx(dec.foreign / dec.total)
    assert report.efficiency == pytest.approx(
        report.foreign_turnover_share / report.foreign_synergy_share)


def test_region_report_all_domestic():
    firms = [firm(0, 0, 0), firm(1, 1, 1)]
    report = report_of(firms, SHAPE)
    assert report.synergy.total != 0.0
    assert report.synergy.foreign == 0.0
    assert report.foreign_turnover_share == 0.0
    assert report.foreign_synergy_share == 0.0
    assert report.efficiency is None  # 0/0 stays undefined, not NaN
    assert report.foreign_to_domestic_turnover == 0.0


def test_region_report_all_foreign():
    firms = [firm(0, 0, 0, True), firm(1, 1, 1, True)]
    report = report_of(firms, SHAPE)
    assert report.foreign_turnover_share == 1.0
    assert report.foreign_synergy_share == 1.0
    assert report.foreign_to_domestic_turnover is None
    assert report.efficiency == 1.0


def test_region_report_empty_raises():
    with pytest.raises(EmptyDataset):
        report_of([], SHAPE)


def test_region_report_overflowing_turnover_sum_raises():
    # the foreign sum overflows to inf, which would make the foreign turnover share inf / inf = NaN
    firms = [firm(0, 0, 0, True, 1e308), firm(1, 0, 0, True, 1e308), firm(0, 1, 1, False, 1.0)]
    with pytest.raises(OverflowError, match="turnover sum is not finite"):
        report_of(firms, SHAPE)


def test_region_report_infinite_turnover_raises():
    # the scan refuses an infinite turnover, but a Tally fed by hand takes it
    with pytest.raises(OverflowError, match="turnover sum is not finite"):
        report_of([firm(0, 0, 0, False, math.inf), firm(1, 0, 0, True, 1.0)], SHAPE)


# --- a tally's turnover sums, streamed as exact parts ---------------------------

DEFAULT_FLUSH = thsynergy.decomp._FLUSH


@pytest.mark.parametrize("flush", [1, 7, DEFAULT_FLUSH])
@pytest.mark.parametrize("turnovers", [
    [1.0, math.inf, 2.0, 3.0],  # an inf turnover, which only a Tally fed by hand takes
    [1.0, 1e308, 1e308, 2.0, 3.0],  # finite turnovers whose sum overflows
], ids=["inf-turnover", "finite-overflowing-sum"])
def test_tally_turnover_sum_not_finite_raises(flush, turnovers):
    with mock.patch.object(thsynergy.decomp, "_FLUSH", flush):
        tally = tally_of([firm(0, 0, i % 2, False, t) for i, t in enumerate(turnovers)] + [firm(1, 1, 1, True, 5.0)],
                         SHAPE)
    with pytest.raises(OverflowError, match="^turnover sum is not finite$"):
        cube_report(tally)


def test_tally_flush_that_meets_an_inf_part_keeps_it():
    # with _FLUSH 1 every add past the first reduces the group: the overflowing pair leaves the part
    # inf, and each later flush reads that part with the new turnover and leaves it inf
    with mock.patch.object(thsynergy.decomp, "_FLUSH", 1):
        tally = Tally(SHAPE)
        tally.add(*firm(0, 0, 0, True, 1e308))
        tally.add(*firm(0, 0, 0, True, 1e308))
        assert tally.parts[1] == [math.inf]
        for turnover in (1.0, 0.0, 1e308):
            tally.add(*firm(1, 0, 0, True, turnover))
            assert tally.parts[1] == [math.inf]
        tally.add(*firm(1, 1, 1, False, 3.0))
    with pytest.raises(OverflowError, match="^turnover sum is not finite$"):
        cube_report(tally)


@pytest.mark.parametrize("turnover", [-1.0, -5e-324, -math.inf, math.nan])  # nan: refused as the scan refuses it
def test_tally_rejects_a_negative_turnover(turnover):
    tally = Tally(SHAPE)
    with pytest.raises(ValueError, match="^turnover must be non-negative$"):
        tally.add(*firm(0, 0, 0, False, turnover))
    assert not tally.domestic and not tally.foreign and tally.parts == ([], [])  # nothing of the firm is kept


def test_tally_takes_negative_zero_as_the_scan_and_fsum_do():
    # -0.0 passes the scan's range check and sums to 0.0
    assert report_of([firm(0, 0, 0, False, -0.0), firm(1, 1, 1, True, 1.0)], SHAPE).turnover_domestic == 0.0


@st.composite
def streamed_firms(draw):
    """The _FLUSH to stream with (1, 7 or the default) and firm triples whose turnovers are
    lognormal magnitudes over many decades, tiled at random with zeros and subnormals, and
    sometimes one or two values near 1e308, so that a sum may overflow or just not."""
    flush = draw(st.sampled_from([1, 7, DEFAULT_FLUSH]))
    n = draw(st.integers(1, {1: 200, 7: 600}.get(flush, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    turnovers = rng.lognormal(draw(st.floats(-700.0, 700.0)), draw(st.sampled_from([0.0, 1.0, 30.0])), n)
    small = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308)), max_size=3))
    if small:
        at = rng.random(n) < draw(st.floats(0.0, 1.0))
        turnovers[at] = rng.choice(small, int(at.sum()))
    for value in draw(st.lists(st.floats(1e307, 1.7976931348623157e308), max_size=2)):
        turnovers[draw(st.integers(0, n - 1))] = value
    foreign = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    return flush, [firm(i % 2, i % 3 % 2, 0, f, t) for i, (f, t) in enumerate(zip(foreign.tolist(), turnovers.tolist()))]


@settings(deadline=None)
@given(streamed_firms())
@example((1, [firm(0, 0, 0, False, 1e308), firm(1, 0, 0, False, 5e-324), firm(1, 1, 0, False, 1.0),
              firm(0, 1, 0, True, 7e307)]))
@example((7, [firm(0, 0, 0, False, t) for t in [1e16, 1.0, -0.0, 1e-16, 1e300, 1e-300] * 3]))
def test_streamed_turnover_sums_equal_one_fsum(case):
    # a Tally holds each group as exact parts and at most _FLUSH more turnovers; its report is the one
    # built from each group's whole list of turnovers by one fsum, bit for bit, or the same refusal
    flush, firms = case
    with mock.patch.object(thsynergy.decomp, "_FLUSH", flush):
        tally = tally_of(firms, SHAPE)
    assert all(len(parts) <= max(flush, 40) for parts in tally.parts)  # a finite sum needs 40 parts at most
    cube = tally.cube()
    groups = ([t for _, f, t in firms if f == flag] for flag in (False, True))
    try:
        expected = _build_report(decompose(cube), *groups, len(firms), sum(f for _, f, _ in firms))
    except OverflowError:
        with pytest.raises(OverflowError, match="^turnover sum is not finite$"):
            cube_report(tally)
    else:
        assert repr(cube_report(tally)) == repr(expected)  # repr tells every float apart, -0.0 from 0.0


def test_turnover_sum_near_the_float_maximum_does_not_depend_on_the_row_order():
    # fsum raises its "intermediate overflow" in some orders of these turnovers and not in others; the
    # report's domestic sum is their exact sum rounded once, or the refusal when that overflows, in
    # every order and with every batch size
    for rng, turnovers in near_max_lists(0, 300):
        expected = exact_sum(turnovers)
        for flush in (1, 7, DEFAULT_FLUSH):
            for _ in range(4):
                rng.shuffle(turnovers)
                with mock.patch.object(thsynergy.decomp, "_FLUSH", flush):
                    tally = tally_of([firm(i % 2, 0, 0, False, t) for i, t in enumerate(turnovers)]
                                     + [firm(1, 1, 1, True, 0.0)], SHAPE)
                if math.isinf(expected):
                    with pytest.raises(OverflowError, match="^turnover sum is not finite$"):
                        cube_report(tally)
                else:
                    assert cube_report(tally).turnover_domestic == expected


def test_tally_memory_does_not_grow_with_the_firm_count():
    # the same 40 cells fed 20k and 200k firms: only the count maps' values and the unreduced tail
    # of each group differ, so the peak of what the tally allocates differs by a few KB at most
    def peak(n: int) -> int:
        tally = Tally(SHAPE)
        tracemalloc.start()
        try:
            for i in range(n):
                tally.add(i % 40, i % 3 == 0, 1e6 + i * 0.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(200_000)
    assert abs(large - small) < 4096, (small, large)


def test_region_report_undefined_synergy_share():
    # one firm: every entropy is zero, total measure is zero
    report = report_of([firm(0, 0, 0)], SHAPE)
    assert report.synergy.total == 0.0
    assert report.foreign_synergy_share is None
    assert report.efficiency is None


def test_region_report_json_shape():
    payload = report_of(region_firms(), SHAPE).to_dict()
    assert set(payload) == {"units", "firms", "synergy", "turnover", "ratios"}
    assert set(payload["synergy"]) == {"total", "domestic", "foreign_only", "cross", "foreign"}
    assert set(payload["ratios"]) == {
        "foreign_turnover_share", "foreign_to_domestic_turnover",
        "foreign_synergy_share", "efficiency"}
    assert "NOK" in payload["units"]["turnover"]
    json.dumps(payload)  # serializable as-is


# --- a result stores its inputs and derives the rest ---------------------------

@pytest.mark.parametrize("cls, stored, derived", [
    (SplitEntropyTerm, ("domestic", "foreign", "total"), ("cross",)),
    (SynergyDecomposition, ("terms",), ("total", "domestic", "foreign_only", "cross", "foreign")),
    (RegionReport, ("synergy", "turnover_domestic", "turnover_foreign", "firm_count", "foreign_count"),
     ("turnover_total", "foreign_turnover_share", "foreign_to_domestic_turnover", "foreign_synergy_share",
      "efficiency")),
    (SweepPoint, ("share", "report"), ()),
    (SweepCurve, ("points",), ()),
], ids=["split-term", "decomposition", "report", "sweep-point", "sweep-curve"])
def test_result_type_stores_its_inputs_and_derives_the_rest(cls, stored, derived):
    assert cls._fields == stored
    for name in derived:  # a read-only property, so no instance can hold a value of its own for it
        assert type(vars(cls)[name]) is property and vars(cls)[name].fset is None


def test_replaced_turnover_moves_every_derived_value():
    report = report_of(region_firms(), SHAPE)
    moved = report._replace(turnover_foreign=600.0)
    assert (moved.turnover_total, moved.foreign_turnover_share) == (1200.0, 0.5)
    assert moved.foreign_to_domestic_turnover == 1.0
    assert moved.efficiency == _ratio(0.5, report.foreign_synergy_share) != report.efficiency


def test_replaced_terms_keep_every_sum_consistent():
    rng = np.random.default_rng(53)
    dec = decompose(cube_from_tensors(*oracles.random_split_tensors(rng)))
    with pytest.raises(ValueError, match="cross"):  # a sum is no field, so it cannot be replaced
        dec._replace(cross=0.0)
    for other in (decompose(cube_from_tensors(*oracles.random_split_tensors(rng))) for _ in range(20)):
        # the terms of another cube, and the same terms with one part of one term moved
        for terms in (other.terms, (dec.terms[0]._replace(domestic=0.0), *dec.terms[1:])):
            moved = dec._replace(terms=terms)
            assert moved.foreign == moved.foreign_only + moved.cross
            assert moved.total == ternary_information(moved.profile())
            assert all(t.cross == t.total - (t.domestic + t.foreign) for t in moved.terms)
            assert moved.total == pytest.approx(moved.domestic + moved.foreign, abs=1e-10)
