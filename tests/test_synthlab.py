import io
import math
from array import array
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import exact_sum, near_max_lists, report_of, tally_of
from thsynergy.decomp import SynergyDecomposition, _build_report, _exact_parts, _fsum, decompose
from thsynergy.synthlab import SynthParams, foreign_count, generate, sweep_foreign_share


def test_generate_deterministic():
    params = SynthParams(n_firms=200, seed=42)
    assert generate(params, 0.1) == generate(params, 0.1)


def test_generate_different_seeds_differ():
    a = generate(SynthParams(n_firms=200, seed=1), 0.1)
    b = generate(SynthParams(n_firms=200, seed=2), 0.1)
    assert a != b


@pytest.mark.parametrize("n,share,want", [
    (10, 0.25, 3),    # 2.5 rounds half up
    (10, 0.24, 2),
    (10, 0.26, 3),
    (3, 0.5, 2),      # 1.5 rounds half up
    (500, 0.088, 44),
    (500, 0.0, 0),
    (500, 1.0, 500),
    (7, 1.0, 7),
])
def test_foreign_count_rounds_half_up(n, share, want):
    assert foreign_count(n, share) == want


def test_generate_hits_foreign_target():
    firms = generate(SynthParams(n_firms=500, seed=3), 0.088)
    assert sum(foreign for _, foreign, _ in firms) == 44


@pytest.mark.parametrize("share", [0.0, 0.088, 0.25, 0.5, 0.9, 1.0])
def test_generate_lists_the_foreign_firms_first(share):
    firms = generate(SynthParams(n_firms=500, seed=3), share)
    k = foreign_count(500, share)
    assert [foreign for _, foreign, _ in firms] == [True] * k + [False] * (500 - k)


@pytest.mark.parametrize("share", [-0.1, 1.2, math.nan])
def test_generate_rejects_a_share_outside_0_1(share):
    with pytest.raises(ValueError, match=r"share must lie in \[0, 1\]"):
        generate(SynthParams(n_firms=10), share)


def test_generate_returns_the_triples_tally_add_takes():
    params = SynthParams(n_firms=50, seed=5)
    firms = generate(params, 0.3)
    assert all(type(cell) is int and type(foreign) is bool and type(turnover) is float
               for cell, foreign, turnover in firms)
    tally = tally_of(firms, params.cell_shape)
    assert tally.cube().total == 50
    assert [sum(counts.values()) for counts in (tally.domestic, tally.foreign)] == [35, 15]


def test_population_invariant_under_share():
    # only the ownership labels may change with the target share
    base = SynthParams(n_firms=300, seed=9)
    low = generate(base, 0.1)
    high = generate(base, 0.6)
    assert [(cell, turnover) for cell, _, turnover in low] == [(cell, turnover) for cell, _, turnover in high]


def test_foreign_sets_nested_across_shares():
    base = SynthParams(n_firms=300, seed=9)
    low = generate(base, 0.2)
    high = generate(base, 0.5)
    low_idx = {i for i, (_, foreign, _) in enumerate(low) if foreign}
    high_idx = {i for i, (_, foreign, _) in enumerate(high) if foreign}
    assert low_idx <= high_idx


def test_full_coupling_ties_labels_to_municipality():
    params = SynthParams(n_firms=500, coupling=1.0, n_size_classes=5, n_tech_groups=7, seed=13)
    for cell, _, _ in generate(params, 0.1):
        g, (o, t) = cell // (5 * 7), divmod(cell % (5 * 7), 7)
        assert (o, t) == (g % 5, g % 7)


def test_zero_coupling_labels_vary_within_municipality():
    params = SynthParams(n_firms=2000, coupling=0.0, seed=13)
    firms = generate(params, 0.1)
    by_g: dict = {}
    for cell, _, _ in firms:
        by_g.setdefault(cell // (8 * 10), set()).add(cell // 10 % 8)
    assert max(len(v) for v in by_g.values()) > 1


def test_turnover_uniform_law_bounds():
    firms = generate(SynthParams(n_firms=1000, seed=21), 0.1)
    assert all(1e6 <= turnover < 1e9 for _, _, turnover in firms)


def test_turnover_lognormal_law_positive():
    firms = generate(SynthParams(n_firms=1000, turnover_law="lognormal",
                                 lognormal_mu=10.0, lognormal_sigma=2.0, seed=21), 0.1)
    assert all(turnover > 0 for _, _, turnover in firms)
    assert firms != generate(SynthParams(n_firms=1000, seed=21), 0.1)


@pytest.mark.parametrize("kwargs", [
    {"n_firms": 0},
    {"coupling": -0.1},
    {"coupling": 1.1},
    {"lognormal_sigma": -1.0},
    {"turnover_law": "pareto"},
    {"n_tech_groups": 0},
    {"seed": -1},
    {"n_firms": 10**20},
    {"n_size_classes": 2.5},
    {"n_firms": 10.5},
    {"n_municipalities": 30.0},
    {"n_tech_groups": "10"},
    {"seed": 1.5},
    {"coupling": "0.5"},  # each wrong type a ValueError naming the field, not a TypeError
    {"lognormal_mu": "16"},
    {"lognormal_sigma": "1"},
    {"coupling": None},
    {"lognormal_mu": 10**400},  # an int past the float range is not finite, not an OverflowError
    {"lognormal_sigma": 10**400},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):  # the message names the field
        SynthParams(**kwargs)


# --- sweep ------------------------------------------------------------------

def sweep_params():
    return SynthParams(n_firms=120, n_municipalities=6, n_size_classes=4,
                       n_tech_groups=5, coupling=0.7, seed=33)


def test_sweep_basic_shape():
    curve = sweep_foreign_share(sweep_params(), [0.0, 0.5, 1.0])
    assert [p.share for p in curve.points] == [0.0, 0.5, 1.0]
    assert all(p.report.firm_count == 120 for p in curve.points)


def test_sweep_endpoints_exact():
    curve = sweep_foreign_share(sweep_params(), [0.0, 0.25, 0.5, 0.75, 1.0])
    first, last = curve.points[0], curve.points[-1]
    assert first.report.synergy.total != 0.0
    assert last.report.synergy.total != 0.0
    assert (first.report.foreign_turnover_share, first.report.foreign_synergy_share) == (0.0, 0.0)
    assert (last.report.foreign_turnover_share, last.report.foreign_synergy_share) == (1.0, 1.0)


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        sweep_foreign_share(sweep_params(), [])
    with pytest.raises(ValueError):
        sweep_foreign_share(sweep_params(), [0.3, 0.2])
    with pytest.raises(ValueError):
        sweep_foreign_share(sweep_params(), [0.2, 0.2, 0.4])
    with pytest.raises(ValueError):
        sweep_foreign_share(sweep_params(), [-0.1, 0.5])


def test_sweep_shares_reported_in_order():
    curve = sweep_foreign_share(sweep_params(), [0.1, 0.4, 0.9])
    shares = [p.share for p in curve.points]
    assert shares == sorted(shares)


def test_sweep_csv_format_and_determinism():
    curve = sweep_foreign_share(sweep_params(), [0.0, 0.5, 1.0])
    buffer = io.StringIO()
    curve.to_csv(buffer)
    text = buffer.getvalue()
    lines = text.splitlines()
    assert lines[0] == "share,r_ratio,t_ratio"
    assert len(lines) == 4
    assert lines[1].startswith("0.0,0.0,")
    again = io.StringIO()
    sweep_foreign_share(sweep_params(), [0.0, 0.5, 1.0]).to_csv(again)
    assert again.getvalue() == text


def test_sweep_csv_blank_field_for_undefined_share():
    # single firm: total measure is zero, synergy share undefined
    params = SynthParams(n_firms=1, seed=1)
    curve = sweep_foreign_share(params, [0.0])
    assert curve.points[0].report.foreign_synergy_share is None
    buffer = io.StringIO()
    curve.to_csv(buffer)
    assert buffer.getvalue().splitlines()[1].endswith(",")


def test_sweep_csv_zero_endpoint_never_signed():
    # this population has a negative total measure at share 0.0, where the
    # foreign part is an exact zero; the quotient must not render as "-0.0"
    params = SynthParams(n_firms=300, coupling=0.6, seed=7)
    curve = sweep_foreign_share(params, [0.0, 1.0])
    assert curve.points[0].report.synergy.total < 0
    buffer = io.StringIO()
    curve.to_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[1] == "0.0,0.0,0.0"
    assert lines[2] == "1.0,1.0,1.0"


def test_coupling_controls_signal_against_measured_noise_band():
    # the decoupled generator is only near zero up to plug-in sampling
    # noise, so the band is established empirically over 100 seeds before
    # anything is asserted against it
    def t_for(coupling, seed):
        params = SynthParams(n_firms=2000, n_municipalities=10, n_size_classes=6,
                             n_tech_groups=8, coupling=coupling, seed=seed)
        return decompose(tally_of(generate(params, 0.1), params.cell_shape).cube()).total

    band = max(abs(t_for(0.0, seed)) for seed in range(100))
    assert band > 0.0
    for seed in range(1000, 1005):  # held-out decoupled seeds stay in band
        assert abs(t_for(0.0, seed)) <= 1.5 * band
    assert abs(t_for(1.0, 1234)) >= 5.0 * band  # coupled signal clears it


@st.composite
def sweep_cases(draw):
    # category counts up to 10**12 give more categories than firms
    categories = st.one_of(st.integers(1, 15), st.integers(1, 10**12))
    params = SynthParams(n_firms=draw(st.integers(1, 200)), n_municipalities=draw(categories),
                         n_size_classes=draw(categories), n_tech_groups=draw(categories),
                         coupling=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
                         turnover_law=draw(st.sampled_from(["uniform", "lognormal"])),
                         seed=draw(st.integers(0, 2**32)))
    # with few firms, neighbouring shares often round to the same foreign count: a point that
    # turns no firm foreign
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8, unique=True).map(sorted))
    return params, shares


@given(sweep_cases())
@example((sweep_params(), [0.0, 0.3, 0.55, 1.0]))
# more than ten categories on every axis and lognormal turnover
@example((SynthParams(n_firms=300, n_municipalities=14, n_size_classes=11, n_tech_groups=12,
                      coupling=0.4, turnover_law="lognormal", seed=7), [0.0, 0.3, 0.55, 1.0]))
@example((SynthParams(n_firms=200, seed=3), [0.0, 0.5, 0.502, 1.0]))  # 100 foreign firms twice
# many cells holding each count, and turnovers over ten decades summed in chunks of 2,000 firms
@example((SynthParams(n_firms=20_000, turnover_law="lognormal", lognormal_sigma=3.0, seed=5),
          [i / 10 for i in range(11)]))
@settings(deadline=None)
def test_sweep_decomposition_consistency(case):
    # each point's whole report (its stored seven split entropies, order-free turnover sums and
    # counts, and the sums and ratios derived from them) equals the one built from a population
    # generated at that share, bit for bit: repr round-trips every float and tells -0.0 from 0.0
    params, shares = case
    curve = sweep_foreign_share(params, shares)
    for point in curve.points:
        expected = report_of(generate(params, point.share), params.cell_shape)
        assert repr(point.report) == repr(expected)
        assert repr(point.report.to_dict()) == repr(expected.to_dict())


@st.composite
def turnover_runs(draw):
    """Non-negative turnovers, as the sweep reads them, and foreign counts a chunk apart up to a
    stop: zeros, subnormals and values of mixed magnitude from a small pool tiled at random,
    sometimes one value near 1e308; chunks of 1, 7 and 4096."""
    chunk = draw(st.sampled_from([1, 7, 4096]))
    pool = draw(st.lists(st.one_of(st.floats(0.0, 2.2250738585072014e-308), st.floats(1e-300, 1e-3),
                                   st.floats(1.0, 1e12), st.floats(1e300, 1e306)), min_size=1, max_size=6))
    n = draw(st.integers(0, {1: 300, 7: 2000, 4096: 20_000}[chunk]))
    values = np.random.default_rng(draw(st.integers(0, 2**32))).choice(pool, n)
    if n and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(st.floats(1e307, 1.7976931348623157e308))
    stop = draw(st.one_of(st.just(n), st.integers(0, n)))  # the last foreign count, often all firms
    return values, [*range(chunk, stop, chunk), stop]


@settings(deadline=None)
@given(turnover_runs())
@example((np.array([1e308, 5e-324, 1.0, 1e-300, 7e307]), [1, 2, 3, 4, 5]))
@example((np.array([1e308, 1e308]), [1, 2]))  # every run's sum is finite, and the total overflows
@example((np.array([1.0, math.inf, 2.0]), [0]))  # only the firms no point turns foreign hold an inf
@example((np.array([0.0, 0.0]), [1, 1, 2]))  # a point that turns no firm foreign
def test_chunk_turnover_parts_reproduce_fsum_of_every_prefix_and_suffix(case):
    # the sweep's sums: each run of firms between consecutive foreign counts reduced once, and a
    # point's foreign and domestic groups the parts of the runs before and after its count, each
    # summed by cube._fsum as _build_report sums them, give the exact sum of the firms' turnovers
    def summed(parts):  # inf for an OverflowError
        try:
            return _fsum(parts)
        except OverflowError:
            return math.inf

    values, ks = case
    turnovers, n = memoryview(values), len(values)
    chunks = [_exact_parts(turnovers[a:b]) for a, b in zip([0, *ks], [*ks, n])]
    for j, k in enumerate(ks, 1):
        foreign, domestic = exact_sum(turnovers[:k]), exact_sum(turnovers[k:])
        groups = [*chain(*chunks[j:])], [*chain(*chunks[:j])]
        assert (summed(groups[1]), summed(groups[0])) == (foreign, domestic)
        if math.isfinite(foreign + domestic):
            report = _build_report(SynergyDecomposition(()), *groups, n, k)
            assert (report.turnover_domestic, report.turnover_foreign) == (domestic, foreign)
        else:
            with pytest.raises(OverflowError, match="turnover sum is not finite"):
                _build_report(SynergyDecomposition(()), *groups, n, k)


def test_chunk_turnover_sums_near_the_float_maximum_do_not_depend_on_the_order():
    # the same turnovers as the tally's order test in test_decomp, on the sweep's route: runs reduced
    # apart at random foreign counts, then their parts summed as one group, in every order
    for rng, turnovers in near_max_lists(1, 300):
        expected, n = exact_sum(turnovers), len(turnovers)
        for _ in range(4):
            rng.shuffle(turnovers)
            ks = [*sorted(rng.sample(range(n), 3)), n]  # the last point turns every firm foreign
            view = memoryview(array("d", turnovers))
            chunks = [_exact_parts(view[a:b]) for a, b in zip([0, *ks], [*ks, n])]
            if math.isinf(expected):
                with pytest.raises(OverflowError, match="^turnover sum is not finite$"):
                    _build_report(SynergyDecomposition(()), [], [*chain(*chunks)], n, n)
            else:
                assert _build_report(SynergyDecomposition(()), [], [*chain(*chunks)], n, n).turnover_foreign == expected


def test_params_accept_numpy_integers():
    params = SynthParams(n_firms=np.int64(50), n_municipalities=np.int64(10**12), n_size_classes=np.int32(3),
                         n_tech_groups=np.int64(10**12), seed=np.uint8(4))
    assert params == SynthParams(50, 10**12, 3, 10**12, seed=4)
    assert [type(params[i]) for i in (0, 1, 2, 3, -1)] == [int] * 5  # no int64 overflow in the cell radices
    assert all(0 <= cell < 10**12 * 3 * 10**12 for cell, _, _ in generate(params, 0.1))


def test_sweep_peak_memory_per_firm():
    # numpy reports its buffers to tracemalloc; coding every firm in each of the seven subsets
    # peaked near 157 bytes a firm here, a GOT cell code per firm coded again over the categories
    # present near 76, the drawn cell code per firm read into the subsets per occupied cell near 60
    params = SynthParams(n_firms=50_000, n_municipalities=356)
    shares = [i / 10 for i in range(11)]
    sweep_foreign_share(params._replace(n_firms=100), shares)  # lazy imports before tracing
    tracemalloc.start()
    try:
        sweep_foreign_share(params, shares)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / params.n_firms <= 68
