import itertools

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors, tally_of
from thsynergy.cube import (
    ContingencyCube,
    EmptyDataset,
    Tally,
    marginalize,
    normalize_dims,
    split_marginals,
)
from thsynergy.decomp import decompose, split_entropy
from thsynergy.infotheory import SUBSETS
from thsynergy.stats import ownership_tech_table


def firm(g="1504", o="20-49", t=2, foreign=False, turnover=1000.0):
    """A firm as Tally.add takes it: (cell, foreign, turnover)."""
    return (g, o, t), foreign, turnover


def cube_of(firms):
    return tally_of(firms).cube()


def small_cube():
    return cube_of([
        firm("a", "0", 1),
        firm("a", "0", 1),
        firm("a", "1-4", 2, True),
        firm("b", "0", 2),
        firm("b", "1-4", 1, True),
    ])


def test_build_counts_and_total():
    cube = small_cube()
    assert cube.total == 5
    assert cube.domestic[("a", "0", 1)] == 2
    assert cube.domestic[("b", "0", 2)] == 1
    assert cube.foreign[("a", "1-4", 2)] == 1
    assert cube.foreign[("b", "1-4", 1)] == 1
    assert sum(cube.domestic.values()) + sum(cube.foreign.values()) == cube.total


def test_cube_total_is_the_sum_of_its_cells():
    assert ContingencyCube._fields == ("dims", "domestic", "foreign")
    hand_built = ContingencyCube(("G", "O", "T"), {("a", "0", 1): 3, ("b", "0", 2): 1}, {("a", "0", 2): 2})
    assert hand_built.total == 6
    for cube in (hand_built, small_cube()):
        for marginal in split_marginals(cube):
            assert marginal.total == sum(marginal.domestic.values()) + sum(marginal.foreign.values()) == cube.total
    # one domestic firm in each of G a and b: G carries no information about O or T
    two_cells = ContingencyCube(("G", "O", "T"), {("a", "0", 1): 1, ("b", "0", 1): 1}, {})
    assert decompose(two_cells).total == 0.0


def test_build_empty_raises():
    with pytest.raises(EmptyDataset):
        cube_of([])


def test_build_order_independent():
    firms = [firm("a", "0", 1), firm("b", "1-4", 2, True), firm("a", "5-9", 1)]
    for perm in itertools.permutations(firms):
        assert cube_of(list(perm)) == cube_of(firms)


def test_combined_adds_both_groups():
    # the ownership-blind view adds the two groups cell by cell: here one cell of two firms
    cube = cube_of([firm("a", "0", 1), firm("a", "0", 1, True)])
    assert (cube.domestic, cube.foreign) == ({("a", "0", 1): 1}, {("a", "0", 1): 1})
    assert split_entropy(cube.domestic, cube.foreign, cube.total).total == 0.0


# --- marginalization --------------------------------------------------------

def test_marginal_single_dimension():
    marginal = marginalize(small_cube(), ("G",))
    assert marginal.domestic == {("a",): 2, ("b",): 1}
    assert marginal.foreign == {("a",): 1, ("b",): 1}


def test_marginal_pair():
    marginal = marginalize(small_cube(), ("G", "T"))
    assert marginal.domestic == {("a", 1): 2, ("b", 2): 1}
    assert marginal.foreign == {("a", 2): 1, ("b", 1): 1}


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
    """Sparse cubes of a few labels per axis: mixed, all-domestic or all-foreign."""
    groups = draw(st.sampled_from(["mixed", "domestic", "foreign"]))
    cell = st.tuples(st.sampled_from("abcd"), st.sampled_from(["0", "1-4", "5-9"]), st.integers(1, 3))
    counts = st.dictionaries(cell, st.integers(1, 9), max_size=20)
    domestic = draw(counts) if groups != "foreign" else {}
    foreign = draw(counts) if groups != "domestic" else {}
    if not domestic and not foreign:
        (domestic if groups == "domestic" else foreign)[draw(cell)] = draw(st.integers(1, 9))
    tally = Tally()
    tally.domestic.update(domestic)
    tally.foreign.update(foreign)
    return tally.cube()


@given(split_cubes())
@example(cube_of([firm("a", "0", 1)]))
@example(cube_of([firm("a", "0", 1, True), firm("a", "0", 1, True)]))
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
@example(ContingencyCube(("G", "O", "T"), {("a", "0", 3): 2, ("b", "0", 1): 1},
                         {("a", "1-4", 2): 1, ("b", "0", 3): 4}))
@given(split_cubes())
def test_ownership_tech_table_lists_every_firm(cube):
    categories, (domestic_row, foreign_row) = ownership_tech_table(cube)
    assert categories == tuple(sorted(set(categories)))
    assert sum(domestic_row) == sum(cube.domestic.values())
    assert sum(foreign_row) == sum(cube.foreign.values())
    assert sum(domestic_row) + sum(foreign_row) == cube.total


def test_marginal_consistent_with_dense_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        got = marginalize(cube, ("O",))
        dense = (nat + forn).sum(axis=(0, 2))
        for j, count in enumerate(dense):
            assert got.domestic.get((f"o{j}",), 0) + got.foreign.get((f"o{j}",), 0) == count


def test_normalize_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_dims(())
    with pytest.raises(ValueError):
        normalize_dims(("G", "X"))

