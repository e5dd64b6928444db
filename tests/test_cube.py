import itertools

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

import oracles
from conftest import cell_code, coded_cube, cube_from_tensors, tally_of
from thsynergy.decomp import (
    SUBSETS,
    ContingencyCube,
    EmptyDataset,
    Tally,
    decompose,
    marginalize,
    normalize_dims,
    ownership_tech_table,
    split_entropy,
    split_marginals,
)


SHAPE = (None, 3, 3)  # three size classes and three tech groups


def code(g, o, t):
    return cell_code((g, o, t), SHAPE)


def firm(g, o, t, foreign=False, turnover=1000.0):
    """A firm as Tally.add takes it: (cell, foreign, turnover)."""
    return code(g, o, t), foreign, turnover


def cube_of(firms):
    return tally_of(firms, SHAPE).cube()


def small_cube():
    return cube_of([
        firm(0, 0, 0),
        firm(0, 0, 0),
        firm(0, 1, 1, True),
        firm(1, 0, 1),
        firm(1, 1, 0, True),
    ])


def test_build_counts_and_total():
    cube = small_cube()
    assert cube.total == 5
    assert cube.domestic == {code(0, 0, 0): 2, code(1, 0, 1): 1} == {0: 2, 10: 1}
    assert cube.foreign == {code(0, 1, 1): 1, code(1, 1, 0): 1} == {4: 1, 12: 1}
    assert (cube.dims, cube.shape) == (("G", "O", "T"), SHAPE)
    assert sum(cube.domestic.values()) + sum(cube.foreign.values()) == cube.total


def test_cube_total_is_the_sum_of_its_cells():
    assert ContingencyCube._fields == ("dims", "shape", "domestic", "foreign")
    hand_built = ContingencyCube(("G", "O", "T"), SHAPE, {code(0, 0, 0): 3, code(1, 0, 1): 1}, {code(0, 0, 1): 2})
    assert hand_built.total == 6
    for cube in (hand_built, small_cube()):
        for marginal in split_marginals(cube):
            assert marginal.total == sum(marginal.domestic.values()) + sum(marginal.foreign.values()) == cube.total
    # one domestic firm in each of G 0 and 1: G carries no information about O or T
    two_cells = coded_cube({(0, 0, 0): 1, (1, 0, 0): 1}, {})
    assert decompose(two_cells).total == 0.0


def test_build_empty_raises():
    with pytest.raises(EmptyDataset):
        cube_of([])


def test_build_order_independent():
    firms = [firm(0, 0, 0), firm(1, 1, 1, True), firm(0, 2, 0)]
    for perm in itertools.permutations(firms):
        assert cube_of(list(perm)) == cube_of(firms)


def test_combined_adds_both_groups():
    # the ownership-blind view adds the two groups cell by cell: here one cell of two firms
    cube = cube_of([firm(0, 0, 0), firm(0, 0, 0, True)])
    assert (cube.domestic, cube.foreign) == ({0: 1}, {0: 1})
    assert split_entropy(cube.domestic, cube.foreign, cube.total).total == 0.0


# --- marginalization --------------------------------------------------------

def test_marginal_single_dimension():
    # a one-axis marginal's cells are its bare coordinates, not 1-tuples
    marginal = marginalize(small_cube(), ("G",))
    assert (marginal.dims, marginal.shape) == (("G",), (None,))
    assert marginal.domestic == {0: 2, 1: 1}
    assert marginal.foreign == {0: 1, 1: 1}


def test_marginal_pair():
    # GT cells are g * n_t + t: O's digit is dropped from the middle of the code
    marginal = marginalize(small_cube(), ("G", "T"))
    assert (marginal.dims, marginal.shape) == (("G", "T"), (None, 3))
    assert marginal.domestic == {0 * 3 + 0: 2, 1 * 3 + 1: 1}
    assert marginal.foreign == {0 * 3 + 1: 1, 1 * 3 + 0: 1}


def test_marginal_identity_projection():
    cube = small_cube()
    marginal = marginalize(cube, ("G", "O", "T"))
    assert marginal.domestic == cube.domestic
    assert marginal.foreign == cube.foreign


def test_marginal_totals_preserved_every_subset():
    cube = small_cube()
    for r in (1, 2, 3):
        for dims in itertools.combinations("GOT", r):
            marginal = marginalize(cube, dims)
            assert marginal.total == sum(marginal.domestic.values()) + sum(marginal.foreign.values()) == cube.total


def test_marginal_dims_canonical_order():
    cube = small_cube()
    assert marginalize(cube, ("T", "G")).dims == ("G", "T")
    assert marginalize(cube, ("T", "G")) == marginalize(cube, ("G", "T"))


def test_marginal_of_own_dimensions_is_the_cube():
    cube = small_cube()
    assert marginalize(cube, "GOT") is cube
    pair = marginalize(cube, "OT")
    assert marginalize(pair, "TO") is pair


def test_marginal_missing_dimension_raises():
    pair = marginalize(small_cube(), "GO")
    with pytest.raises(ValueError, match="has no dimension"):
        marginalize(pair, "T")
    with pytest.raises(ValueError, match="has no dimension"):
        marginalize(pair, "GOT")
    with pytest.raises(ValueError, match="unknown dimension"):
        marginalize(pair, "X")


def test_cube_functions_reject_a_marginal_without_their_axes():
    cube = small_cube()
    pair = marginalize(cube, "GO")
    for needs_all_axes in (decompose, ownership_tech_table):
        with pytest.raises(ValueError, match="has no dimension"):
            needs_all_axes(pair)
    assert ownership_tech_table(marginalize(cube, "GT")) == ownership_tech_table(cube)  # it needs T alone


@st.composite
def split_cubes(draw):
    """Sparse cubes of a few coordinates per axis: mixed, all-domestic or all-foreign."""
    groups = draw(st.sampled_from(["mixed", "domestic", "foreign"]))
    cell = st.builds(code, st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
    counts = st.dictionaries(cell, st.integers(1, 9), max_size=20)
    domestic = draw(counts) if groups != "foreign" else {}
    foreign = draw(counts) if groups != "domestic" else {}
    if not domestic and not foreign:
        (domestic if groups == "domestic" else foreign)[draw(cell)] = draw(st.integers(1, 9))
    tally = Tally(SHAPE)
    tally.domestic.update(domestic)
    tally.foreign.update(foreign)
    return tally.cube()


@given(split_cubes())
@example(cube_of([firm(0, 0, 0)]))
@example(cube_of([firm(0, 0, 0, True), firm(0, 0, 0, True)]))
def test_split_marginals_equal_marginalize(cube):
    yielded = list(split_marginals(cube))
    assert sorted(m.dims for m in yielded) == sorted(SUBSETS)
    assert yielded[0] is cube  # not copied
    for m in yielded:
        assert m == marginalize(cube, m.dims)


@given(split_cubes())
def test_marginal_of_a_marginal_is_the_marginal_of_the_cube(cube):
    # every chain: each subset, then each subset of it
    for outer in SUBSETS:
        marginal = marginalize(cube, outer)
        for inner in SUBSETS:
            if set(inner) <= set(outer):
                assert marginalize(marginal, inner) == marginalize(cube, inner)


# cells inserted in T order 3, 1, 2, and so walked in that order
@example(coded_cube({(0, 0, 2): 2, (1, 0, 0): 1}, {(0, 1, 1): 1, (1, 0, 2): 4}))
@given(split_cubes())
def test_ownership_tech_table_lists_every_firm(cube):
    categories, (domestic_row, foreign_row) = ownership_tech_table(cube)
    assert categories == tuple(sorted(set(categories)))
    assert sum(domestic_row) == sum(cube.domestic.values())
    assert sum(foreign_row) == sum(cube.foreign.values())
    assert sum(domestic_row) + sum(foreign_row) == cube.total


# radix 1, small radices and radices past int64, where cells are Python ints numpy cannot hold
radices = st.one_of(st.just(1), st.integers(2, 12), st.integers(2**63, 2**80))


@st.composite
def coded_cubes(draw):
    """Sparse cubes of any shape whose coordinates include each axis's first and last; zero counts too."""
    shape = (None, draw(radices), draw(radices))
    coordinate = [st.one_of(st.integers(0, min(radix, 4) - 1), st.just(radix - 1)) for radix in shape[1:]]
    counts = st.dictionaries(st.tuples(st.integers(0, 5), *coordinate), st.integers(0, 9), max_size=20)
    return coded_cube(draw(counts), draw(counts), shape)


@given(coded_cubes())
@example(coded_cube({(0, 0, 0): 1}, {(2, 0, 0): 3}, (None, 1, 1)))
@example(coded_cube({(3, 2**64, 5): 2, (0, 1, 2**70 - 1): 0}, {(0, 0, 2**70 - 1): 1}, (None, 2**64 + 1, 2**70)))
def test_split_marginals_equal_bincounts_of_decoded_coordinates(cube):
    radix = dict(zip("GOT", cube.shape))
    for marginal in split_marginals(cube):
        assert marginal.shape == tuple(radix[d] for d in marginal.dims)
        assert marginal.domestic == oracles.coded_marginal_counts(cube.domestic, cube.shape, marginal.dims)
        assert marginal.foreign == oracles.coded_marginal_counts(cube.foreign, cube.shape, marginal.dims)
    # the chi-square columns are the 1-based groups, sorted, of the T coordinates with firms
    totals = {}
    for counts in (cube.domestic, cube.foreign):
        for t, count in oracles.coded_marginal_counts(counts, cube.shape, ("T",)).items():
            totals[t] = totals.get(t, 0) + count
    categories, _ = ownership_tech_table(cube)
    assert categories == tuple(sorted(t + 1 for t, count in totals.items() if count > 0))


def test_marginal_consistent_with_dense_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        got = marginalize(cube, ("O",))
        dense = (nat + forn).sum(axis=(0, 2))
        for j, count in enumerate(dense):
            assert got.domestic.get(j, 0) + got.foreign.get(j, 0) == count


def test_normalize_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_dims(())
    with pytest.raises(ValueError):
        normalize_dims(("G", "X"))

