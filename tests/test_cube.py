import io
import itertools
import json

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors
from thsynergy.cube import (
    ContingencyCube,
    EmptyDataset,
    Tally,
    build_cube,
    cube_from_dict,
    cube_to_dict,
    dump_cube,
    load_cube,
    marginalize,
    normalize_dims,
    split_marginals,
)
from thsynergy.infotheory import SUBSETS
from thsynergy.ingest import ClassifiedFirm, Ownership
from thsynergy.stats import ownership_tech_table


def firm(g="1504", o="20-49", t=2, ownership=Ownership.DOMESTIC, turnover=1000.0):
    return ClassifiedFirm(g, o, t, ownership, turnover)


def small_cube():
    return build_cube([
        firm("a", "0", 1),
        firm("a", "0", 1),
        firm("a", "1-4", 2, Ownership.FOREIGN),
        firm("b", "0", 2),
        firm("b", "1-4", 1, Ownership.FOREIGN),
    ])


def test_build_counts_and_total():
    cube = small_cube()
    assert cube.total == 5
    assert cube.domestic[("a", "0", 1)] == 2
    assert cube.domestic[("b", "0", 2)] == 1
    assert cube.foreign[("a", "1-4", 2)] == 1
    assert cube.foreign[("b", "1-4", 1)] == 1
    assert sum(cube.domestic.values()) + sum(cube.foreign.values()) == cube.total


def test_build_axes_sorted_and_data_driven():
    cube = small_cube()
    assert cube.axes == {"G": ("a", "b"), "O": ("0", "1-4"), "T": (1, 2)}


def test_build_empty_raises():
    with pytest.raises(EmptyDataset):
        build_cube([])


def test_build_order_independent():
    firms = [firm("a", "0", 1), firm("b", "1-4", 2, Ownership.FOREIGN), firm("a", "5-9", 1)]
    for perm in itertools.permutations(firms):
        assert build_cube(list(perm)) == build_cube(firms)


def test_combined_adds_both_groups():
    cube = build_cube([firm("a", "0", 1), firm("a", "0", 1, Ownership.FOREIGN)])
    assert cube.combined() == {("a", "0", 1): 2}


# --- marginalization --------------------------------------------------------

def test_marginal_single_dimension():
    marginal = marginalize(small_cube(), ("G",))
    assert marginal.combined() == {("a",): 3, ("b",): 2}
    assert marginal.domestic == {("a",): 2, ("b",): 1}
    assert marginal.foreign == {("a",): 1, ("b",): 1}


def test_marginal_pair():
    marginal = marginalize(small_cube(), ("G", "T"))
    assert marginal.combined() == {("a", 1): 2, ("a", 2): 1, ("b", 1): 1, ("b", 2): 1}


def test_marginal_identity_projection():
    cube = small_cube()
    marginal = marginalize(cube, ("G", "O", "T"))
    assert marginal.domestic == cube.domestic
    assert marginal.foreign == cube.foreign


def test_marginal_totals_preserved_every_subset():
    cube = small_cube()
    for r in (1, 2, 3):
        for dims in itertools.combinations("GOT", r):
            assert marginalize(cube, dims).total() == cube.total


def test_marginal_dims_canonical_order():
    cube = small_cube()
    assert marginalize(cube, ("T", "G")).dims == ("G", "T")
    assert marginalize(cube, ("T", "G")).combined() == marginalize(cube, ("G", "T")).combined()


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
@example(build_cube([firm("a", "0", 1)]))
@example(build_cube([firm("a", "0", 1, Ownership.FOREIGN), firm("a", "0", 1, Ownership.FOREIGN)]))
def test_split_marginals_equal_marginalize(cube):
    yielded = list(split_marginals(cube))
    assert sorted(dims for dims, _, _ in yielded) == sorted(SUBSETS)
    dims, domestic, foreign = yielded[0]
    assert dims == ("G", "O", "T") and domestic is cube.domestic and foreign is cube.foreign  # not copied
    for dims, domestic, foreign in yielded:
        expected = marginalize(cube, dims)
        if len(dims) == 1:  # the generator yields bare coordinates
            expected = [{key: count for (key,), count in counts.items()}
                        for counts in (expected.domestic, expected.foreign)]
        else:
            expected = [expected.domestic, expected.foreign]
        assert [domestic, foreign] == expected


def test_marginal_consistent_with_dense_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nat, forn = oracles.random_split_tensors(rng)
        cube = cube_from_tensors(nat, forn)
        got = marginalize(cube, ("O",)).combined()
        dense = (nat + forn).sum(axis=(0, 2))
        for j, count in enumerate(dense):
            assert got.get((f"o{j}",), 0) == count


def test_normalize_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_dims(())
    with pytest.raises(ValueError):
        normalize_dims(("G", "X"))


# --- JSON fixture round trip ------------------------------------------------

def test_cube_dict_round_trip():
    cube = small_cube()
    assert cube_from_dict(cube_to_dict(cube)) == cube


def test_cube_dict_shape():
    payload = cube_to_dict(small_cube())
    assert payload["schema_version"] == 1
    assert payload["total"] == 5
    assert payload["axes"]["G"] == ["a", "b"]
    cells = payload["cells"]
    assert cells == sorted(cells, key=lambda c: (c["g"], c["o"], c["t"]))
    assert all(set(c) == {"g", "o", "t", "domestic", "foreign"} for c in cells)


def test_cube_stream_round_trip():
    cube = small_cube()
    buffer = io.StringIO()
    dump_cube(cube, buffer)
    buffer.seek(0)
    assert load_cube(buffer) == cube


def test_cube_from_dict_checks_total():
    payload = cube_to_dict(small_cube())
    payload["total"] = 99
    with pytest.raises(ValueError):
        cube_from_dict(payload)


@pytest.mark.parametrize("cell, total, message", [
    ({"g": "a", "o": "0", "t": 1, "domestic": 1.9, "foreign": 0}, 1, "1.9 is not a non-negative integer"),
    ({"g": "a", "o": "0", "t": 1, "domestic": 3, "foreign": -1}, 2, "-1 is not a non-negative integer"),
    ({"g": "a", "o": "0", "t": 1, "domestic": True, "foreign": 0}, 1, "True is not a non-negative integer"),
    ({"g": "a", "o": "0", "t": 2, "domestic": 1, "foreign": 0}, 1, "is not on the axes"),
    ({"g": "a", "o": "0", "t": 1, "domestic": 1, "foreign": 0}, 1.5, "total says 1.5"),
    ({"g": "a", "o": "0", "t": 1, "domestic": 1, "foreign": 0}, 1.0, "total says 1.0"),
    ({"g": "a", "o": "0", "t": 1, "domestic": 1, "foreign": 0}, True, "total says True"),
], ids=["fractional", "negative", "boolean", "off-axis", "fractional-total", "float-total", "boolean-total"])
def test_cube_from_dict_rejects_inconsistent_cells(cell, total, message):
    payload = {"schema_version": 1, "axes": {"G": ["a"], "O": ["0"], "T": [1]}, "total": total, "cells": [cell]}
    with pytest.raises(ValueError, match=message):
        cube_from_dict(payload)


def _payload(axes=None, cells=None):
    """A one-cell cube payload, with its axes or its cells replaced when given."""
    return {"schema_version": 1, "axes": axes or {"G": ["a"], "O": ["0"], "T": [1]}, "total": 1,
            "cells": cells or [{"g": "a", "o": "0", "t": 1, "domestic": 1, "foreign": 0}]}


NO_TOTAL = _payload()
del NO_TOTAL["total"]


@pytest.mark.parametrize("payload, message", [
    (_payload(axes={"G": ["a"], "O": ["0"]}), "no key 'T'"),
    (_payload(cells=[{"g": "a", "o": "0", "t": 1, "domestic": 1}]), "no key 'foreign'"),
    (NO_TOTAL, "no key 'total'"),
    (_payload(axes={"G": [["a"]], "O": ["0"], "T": [1]}), "wrong type"),
    (_payload(cells=[{"g": ["a"], "o": "0", "t": 1, "domestic": 1, "foreign": 0}]), "wrong type"),
    (_payload(cells=[["a", "0", 1, 1, 0]]), "wrong type"),
    ([_payload()], "wrong type"),
    (_payload(cells=[{"g": "a", "o": "0", "t": 1, "domestic": 1, "foreign": 0}] * 2), "listed twice"),
    (_payload(axes={"G": ["a"], "O": ["0"], "T": [1, 1]}), "not a list of distinct labels"),
    (_payload(axes={"G": "ab", "O": ["0"], "T": [1]}), "not a list of distinct labels"),
    (_payload(axes={"G": ["a", 1], "O": ["0"], "T": [1]}), "wrong type"),
], ids=["no-T-axis", "no-foreign-count", "no-total", "list-label", "list-coordinate", "list-cell",
        "list-payload", "cell-twice", "repeated-label", "text-axis", "unorderable-labels"])
def test_cube_from_dict_rejects_malformed_payload(payload, message):
    with pytest.raises(ValueError, match=message):
        cube_from_dict(payload)
    with pytest.raises(ValueError, match=message):
        load_cube(io.StringIO(json.dumps(payload)))


def test_cube_from_dict_sorts_each_axis():
    # the same cube as Tally builds, whatever order the payload lists an axis in
    payload = _payload(axes={"G": ["b", "a"], "O": ["0"], "T": [2, 1]},
                       cells=[{"g": "a", "o": "0", "t": 2, "domestic": 1, "foreign": 0},
                              {"g": "b", "o": "0", "t": 1, "domestic": 0, "foreign": 1}])
    payload["total"] = 2
    tally = Tally()
    tally.add(("a", "0", 2), False, 1.0)
    tally.add(("b", "0", 1), True, 1.0)
    cube = cube_from_dict(payload)
    assert cube == tally.cube()
    assert cube.axes == {"G": ("a", "b"), "O": ("0",), "T": (1, 2)}
    assert ownership_tech_table(cube) == ((1, 2), [[0, 1], [1, 0]])


def test_cube_dict_round_trips_unobserved_categories():
    cube = cube_from_tensors(np.array([[[2, 0]], [[0, 0]]]), np.array([[[0, 0]], [[0, 1]]]))
    assert cube.axes == {"G": ("g0", "g1"), "O": ("o0",), "T": (1, 2)}
    assert cube_from_dict(cube_to_dict(cube)) == cube


def test_cube_dict_drops_zero_cells():
    cube = ContingencyCube(
        axes={"G": ("a",), "O": ("0",), "T": (1,)},
        domestic={("a", "0", 1): 2},
        foreign={},
        total=2,
    )
    payload = cube_to_dict(cube)
    assert payload["cells"] == [{"g": "a", "o": "0", "t": 1, "domestic": 2, "foreign": 0}]
    assert cube_from_dict(payload).foreign == {}
