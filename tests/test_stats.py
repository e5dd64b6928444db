import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors
from thsynergy.cube import ContingencyCube
from thsynergy.stats import (
    ChiSquareResult,
    DegenerateTable,
    chi_square_homogeneity,
    chi_square_survival,
    ownership_tech_table,
    regularized_gamma_q,
)

# frozen from the mpmath oracle at 50 digits
P_EXAMPLE = 0.009823274507519247


def test_uniform_table_statistic_zero_p_one():
    result = chi_square_homogeneity([[5, 5], [5, 5]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.dof == 1


def test_worked_example():
    result = chi_square_homogeneity([[10, 20], [20, 10]])
    assert result.statistic == pytest.approx(20.0 / 3.0, abs=1e-12)
    assert result.dof == 1
    assert result.p_value == pytest.approx(P_EXAMPLE, abs=1e-12)


def test_statistic_scales_linearly_with_counts():
    base = chi_square_homogeneity([[10, 20], [20, 10]])
    doubled = chi_square_homogeneity([[20, 40], [40, 20]])
    assert doubled.statistic == pytest.approx(2 * base.statistic, abs=1e-12)
    assert doubled.dof == base.dof


def test_wider_table_dof():
    result = chi_square_homogeneity([[10, 20, 30, 40], [40, 30, 20, 10]])
    assert result.dof == 3


def test_matches_dense_oracle_on_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        table = rng.integers(1, 50, size=(2, k))
        result = chi_square_homogeneity(table.tolist())
        stat, dof = oracles.chi_square_dense(table)
        assert result.statistic == pytest.approx(stat, abs=1e-10)
        assert result.statistic == pytest.approx(oracles.chi_square_mpmath(table.tolist()), abs=1e-10)
        assert result.dof == dof
        assert result.p_value == pytest.approx(oracles.survival_mpmath(stat, dof), abs=1e-10)


@pytest.mark.parametrize("table", [
    [[1e300, 1], [1, 1e300]],                       # row total * column total overflows
    [[1e300, 3e299, 5e299], [2e299, 1e300, 7e299]],
    [[1.5e308, 1], [1e-300, 2e307]],                # a squared difference overflows
])
def test_large_finite_margins_match_mpmath_oracle(table):
    result = chi_square_homogeneity(table)
    assert result.statistic == pytest.approx(oracles.chi_square_mpmath(table), rel=1e-12)
    assert result.p_value == pytest.approx(oracles.survival_mpmath(result.statistic, result.dof), abs=1e-12)


@pytest.mark.parametrize("table", [
    [[1, 2]],                        # one row
    [[1, 2], [3, 4], [5, 6]],        # three rows
    [[1, 2], [3]],                   # ragged
    [[5], [5]],                      # one column
    [[1, 0], [2, 0]],                # zero column
    [[0, 0], [3, 4]],                # zero row
    [[1, -2], [3, 4]],               # negative count
])
def test_degenerate_tables_raise(table):
    with pytest.raises(DegenerateTable):
        chi_square_homogeneity(table)


def test_result_is_a_chi_square_result():
    result = chi_square_homogeneity([[10, 20], [20, 10]])
    assert isinstance(result, ChiSquareResult)


# --- survival function ------------------------------------------------------

def test_survival_zero_statistic_is_exactly_one():
    for dof in range(1, 10):
        assert chi_square_survival(0.0, dof) == 1.0


def test_survival_monotone_in_statistic():
    values = [chi_square_survival(s, 3) for s in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
    assert values == sorted(values, reverse=True)


def test_survival_spot_checks_against_oracle():
    for stat, dof in ((0.1, 1), (3.84, 1), (6.666666666666667, 1), (15.0, 5), (20.0, 9)):
        assert chi_square_survival(stat, dof) == pytest.approx(
            oracles.survival_mpmath(stat, dof), abs=1e-12)


def test_survival_rejects_bad_input():
    with pytest.raises(ValueError):
        chi_square_survival(1.0, 0)
    with pytest.raises(ValueError):
        regularized_gamma_q(0.5, -1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)


def test_gamma_q_series_and_cfrac_agree_at_the_switch():
    # the two evaluation routes meet at x = a + 1; both sides must agree
    for a in (0.5, 1.0, 2.5, 4.5):
        x = a + 1.0
        below = regularized_gamma_q(a, x - 1e-9)
        above = regularized_gamma_q(a, x + 1e-9)
        assert below == pytest.approx(above, rel=1e-6)
        assert regularized_gamma_q(a, x) == pytest.approx(
            oracles.survival_mpmath(2 * x, int(2 * a)) if (2 * a).is_integer() else below,
            rel=1e-9)


# --- ownership table builder ------------------------------------------------

def test_ownership_tech_table():
    nat = np.zeros((2, 2, 3), dtype=int)
    forn = np.zeros((2, 2, 3), dtype=int)
    nat[0, 0, 0] = 4
    nat[1, 1, 1] = 2
    forn[0, 1, 1] = 1
    forn[1, 0, 2] = 3
    cube = cube_from_tensors(nat, forn)
    categories, table = ownership_tech_table(cube)
    assert categories == (1, 2, 3)
    assert table == [[4, 2, 0], [0, 1, 3]]
    result = chi_square_homogeneity(table)
    assert result.dof == 2


def test_ownership_tech_table_all_domestic_degenerates():
    nat = np.zeros((2, 1, 2), dtype=int)
    nat[0, 0, 0] = 2
    nat[1, 0, 1] = 2
    cube = cube_from_tensors(nat, np.zeros_like(nat))
    _, table = ownership_tech_table(cube)
    with pytest.raises(DegenerateTable):
        chi_square_homogeneity(table)


def test_ownership_tech_table_skips_groups_no_firm_uses():
    # a hand-built cube may hold a technology group whose cells count no firm; it gets no column
    cube = ContingencyCube(("G", "O", "T"), domestic={("a", "0", 1): 2, ("b", "0", 3): 1, ("a", "0", 2): 0},
                           foreign={("a", "0", 1): 1, ("b", "0", 3): 2})
    categories, table = ownership_tech_table(cube)
    assert categories == (1, 3)
    assert table == [[2, 1], [1, 2]]
    result = chi_square_homogeneity(table)
    assert result.dof == 1
    assert result.statistic == pytest.approx(2 / 3, rel=1e-12)
