import math
from itertools import chain, repeat

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors
from thsynergy.decomp import (
    EntropyProfile,
    ZeroTotal,
    _multiplicity_entropy,
    _plugin_entropy,
    decompose,
    shannon_entropy,
    ternary_information,
)


def xor_tensors():
    # even parity cells of a 2x2x2 cube, one observation each
    nat = np.zeros((2, 2, 2), dtype=int)
    for g in range(2):
        for o in range(2):
            nat[g, o, g ^ o] = 1
    return nat, np.zeros((2, 2, 2), dtype=int)


def identical_triple_tensors():
    nat = np.zeros((2, 2, 2), dtype=int)
    nat[0, 0, 0] = nat[1, 1, 1] = 1
    return nat, np.zeros((2, 2, 2), dtype=int)


# --- shannon_entropy --------------------------------------------------------

def test_entropy_uniform_pair():
    assert shannon_entropy({"a": 2, "b": 2}, 4) == 1.0


def test_entropy_point_mass():
    assert shannon_entropy({"a": 4}, 4) == 0.0


def test_entropy_point_mass_is_positive_zero():
    assert math.copysign(1.0, shannon_entropy({"a": 4, "b": 0}, 4)) == 1.0


def test_entropy_zero_counts_contribute_nothing():
    assert shannon_entropy({"a": 2, "b": 2, "c": 0}, 4) == 1.0


def test_entropy_partial_mass_allowed():
    # subgroup scored against the full population total
    assert shannon_entropy({"a": 1}, 2) == 0.5


def test_entropy_rejects_zero_total():
    with pytest.raises(ZeroTotal):
        shannon_entropy({"a": 1}, 0)


def test_entropy_rejects_negative_counts():
    with pytest.raises(ValueError, match="^counts must be non-negative$"):
        shannon_entropy({"a": -1}, 4)


def test_entropy_rejects_counts_past_the_total():
    # scored as is, {"a": 3} against 2 would give -0.877 bits
    with pytest.raises(ValueError, match="counts sum to 3, more than the total 2"):
        shannon_entropy({"a": 3}, 2)
    assert shannon_entropy({"a": 1}, 2) == 0.5  # a subgroup under the total is fine


def test_entropy_insertion_order_irrelevant():
    forward = {"a": 3, "b": 5, "c": 9}
    backward = {"c": 9, "b": 5, "a": 3}
    assert shannon_entropy(forward, 17) == shannon_entropy(backward, 17)


def _per_cell_entropy(counts, total):
    """The kernel's reference: one p log p term per nonzero cell, summed by fsum."""
    return 0.0 - math.fsum([(c / total) * math.log2(c / total) for c in counts if c])


@st.composite
def count_lists(draw):
    """Counts drawn from a small pool, so values repeat: zeros, ints past 2**53, floats and
    integral floats equal to an int; and a total at least their sum, sometimes past 2**53."""
    value = st.one_of(st.just(0), st.integers(1, 40), st.integers(2**53 - 4, 2**60),
                      st.integers(1, 40).map(float), st.floats(0.5, 2.0**60))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    counts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return counts, max(1, math.ceil(sum(counts))) + draw(st.sampled_from([0, 1, 2**53, 2**61 + 1]))


@given(count_lists())
@example(([0, 0, 5], 5))
@example(([3, 3, 3, 0, 1], 10))
@example(([1, 1.0], 2**53 + 1))  # 1 / total and 1.0 / total differ here
@example(([5.0, 5], 2**53 + 1))
def test_plugin_entropy_equals_per_cell_fsum_exactly(case):
    counts, total = case
    assert _plugin_entropy(counts, total) == _per_cell_entropy(counts, total)
    assert _plugin_entropy(iter(counts), total) == _per_cell_entropy(counts, total)


@st.composite
def multiplicity_lists(draw):
    """(count, cells) pairs: zeros, small ints, ints past 2**53, integral and non-integral floats,
    a count listed more than once, the first held by up to 10**6 cells (the others by up to 1000,
    so the expanded list stays small); and a total at least their sum."""
    count = st.one_of(st.just(0), st.integers(1, 40), st.integers(2**53 - 4, 2**60),
                      st.integers(1, 40).map(float), st.floats(0.5, 2.0**60))
    pairs = [draw(st.tuples(count, st.integers(1, 10**6))),
             *draw(st.lists(st.tuples(count, st.integers(1, 1000)), max_size=4))]
    return pairs, max(1, math.ceil(sum(c * m for c, m in pairs))) + draw(st.sampled_from([0, 1, 2**53, 2**61 + 1]))


@settings(max_examples=60, deadline=None)
@given(multiplicity_lists())
@example(([(0, 3), (5, 1)], 5))
@example(([(1, 10**6)], 10**6))  # a uniform population of 10**6 cells
@example(([(1, 1), (1.0, 1)], 2**53 + 1))  # 1 / total and 1.0 / total differ here
@example(([(3, 10**6), (2**53 + 1, 2), (0.75, 999)], 2**62))
def test_multiplicity_entropy_equals_per_cell_fsum_exactly(case):
    pairs, total = case
    assert _multiplicity_entropy(pairs, total) == _per_cell_entropy(
        chain.from_iterable(repeat(c, cells) for c, cells in pairs), total)


# --- profile and ternary measure --------------------------------------------

def test_profile_xor():
    cube = cube_from_tensors(*xor_tensors())
    profile = decompose(cube).profile()
    assert profile == EntropyProfile(1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0)


def test_ternary_xor_is_minus_one():
    cube = cube_from_tensors(*xor_tensors())
    assert decompose(cube).total == -1.0


def test_ternary_identical_triple_is_plus_one():
    cube = cube_from_tensors(*identical_triple_tensors())
    assert decompose(cube).total == 1.0


def test_ternary_single_cell_is_zero():
    nat = np.zeros((1, 1, 1), dtype=int)
    nat[0, 0, 0] = 7
    cube = cube_from_tensors(nat, np.zeros_like(nat))
    profile = decompose(cube).profile()
    assert profile == EntropyProfile(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert ternary_information(profile) == 0.0


def test_ternary_uniform_independent_cube_is_zero():
    nat = np.ones((2, 2, 2), dtype=int)
    cube = cube_from_tensors(nat, np.zeros_like(nat))
    assert decompose(cube).total == 0.0


def test_profile_matches_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        total = cube.total
        joint = (nat + forn) / total
        got = decompose(cube).total
        want = oracles.ternary_dense(joint)
        assert got == pytest.approx(want, abs=1e-12)
        profile = decompose(cube).profile()
        assert profile.h_got == pytest.approx(oracles.entropy_dense(joint), abs=1e-12)
        assert profile.h_g == pytest.approx(oracles.entropy_dense(joint.sum(axis=(1, 2))), abs=1e-12)


def test_profile_invariants_on_random_cubes():
    rng = np.random.default_rng(29)
    for _ in range(100):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        p = decompose(cube).profile()
        values = [p.h_g, p.h_o, p.h_t, p.h_go, p.h_gt, p.h_ot, p.h_got]
        assert all(v >= 0.0 for v in values)
        # joint entropy dominates every pair, every pair dominates its parts
        tol = 1e-12
        assert p.h_got >= p.h_go - tol and p.h_got >= p.h_gt - tol and p.h_got >= p.h_ot - tol
        assert p.h_go >= max(p.h_g, p.h_o) - tol
        assert p.h_gt >= max(p.h_g, p.h_t) - tol
        assert p.h_ot >= max(p.h_o, p.h_t) - tol
        assert abs(ternary_information(p)) <= p.h_got + tol


def test_replication_leaves_profile_unchanged():
    # scaling every count by k rescales nothing: identical floats out
    rng = np.random.default_rng(31)
    for k in (2, 3, 10):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        scaled = cube_from_tensors(nat * k, forn * k)
        assert decompose(scaled).profile() == decompose(cube).profile()


def test_relabeling_leaves_measure_unchanged():
    rng = np.random.default_rng(37)
    for _ in range(20):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        # reverse one axis: same joint distribution, different sort order
        flipped = cube_from_tensors(nat[::-1], forn[::-1])
        assert decompose(flipped).total == decompose(cube).total
        # a decomposition stores only its split terms, so == compares them and every sum follows
        assert decompose(flipped) == decompose(cube)
