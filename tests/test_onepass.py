"""Equivalence pins for the compute, validate and sweep paths.

The validate listing was recorded before compute was fused into a single
scan. The golden compute and sweep digests were re-recorded when entropies
moved from a running sum in sorted key order to math.fsum, which moved
synergy, entropy and t_ratio values in their last bits (at most 1e-14 on
these inputs); counts, turnover, r_ratio, chi-square and violation counts
stayed byte-identical. The sweep digests were re-recorded again when
turnover sums moved from running sums in firm order to one math.fsum per
ownership group, which moved r_ratio by at most 6.7e-16; t_ratio and the
violation counts stayed byte-identical, and so did the compute digests,
whose demo turnovers are whole NOK. One property test checks that the
command's document equals the one assembled step by step from the
unmemoized row-by-row checks (conftest.row_by_row) through a Tally,
cube_report and ownership_tech_table; another, that it does not depend on
the order of the rows.
"""
import hashlib
import json
import shutil
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

from conftest import row_by_row, tally_of
from thsynergy.cli import main
from thsynergy.decomp import cube_report, decompose
from thsynergy.ingest import CANONICAL_COLUMNS, ClassificationConfig, default_nace_map, parse_share, validate_firm_csv
from thsynergy.stats import DegenerateTable, chi_square_homogeneity, ownership_tech_table

DEMO = Path(__file__).resolve().parents[1] / "demos" / "data" / "firms_demo.csv"

GOLDEN = [
    ((), "9c21dbd6b5f8011c937d9b75f2d09bad7db52617104455bd520e34684bf22edb"),
    (("--foreign-cutoff", "50%"), "52d8a82e224a46bebf01263fca933806e67edf0eb70bd98ec956f0ed309557f7"),
]


# ids name the flags, so that re-pinning a digest does not rename the test
@pytest.mark.parametrize("flags, digest", GOLDEN, ids=["default", "cutoff-50pct"])
def test_compute_demo_document_is_pinned(tmp_path, monkeypatch, capsys, flags, digest):
    shutil.copy(DEMO, tmp_path / "firms_demo.csv")
    monkeypatch.chdir(tmp_path)  # the manifest records the input path as given
    assert main(["compute", "firms_demo.csv", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_compute_demo_document_with_size_bins_is_pinned(tmp_path, monkeypatch, capsys):
    # the size bins enter the document through the size classes and the manifest's config hash
    shutil.copy(DEMO, tmp_path / "firms_demo.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["compute", "firms_demo.csv", "--size-bins", "0,10,100"]) == 0
    assert (hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            == "9cdd1fdcb8c3fc6a89ff99d369d568dca38be134e652ecc36bd3e93f07638bf8")


# every defect kind, a multi-line quoted field and shuffled, padded columns
MIXED = (
    "municipality_code,employees,firm_id,nace2,turnover_nok,foreign_share,note\n"
    "1504,120,F1,30,5000000,0.0,ok\n"
    '1504,3,F2,62,900000,0.5,"two\nlines"\n'
    "\n"
    "5001,0,F3\n"
    "5001,4,F4,3x,100,0.1,bad nace2\n"
    "5001,4.5,F5,30,100,0.1,bad employees\n"
    "5001,4,F6,30,12e,0.1,bad turnover\n"
    "5001,4,F7,30,100,abc,bad share\n"
    "5001,4,F8,0,100,0.1,nace2 low\n"
    "5001,4,F9,100,100,0.1,nace2 high\n"
    "5001,-1,F10,30,100,0.1,employees negative\n"
    "5001,4,F11,30,-5,0.1,turnover negative\n"
    "5001,4,F12,30,100,1.5,share high\n"
    "5001,4,F13,30,100,-0.1,share low\n"
    "5001,4,F14,40,100,0.1,unmapped\n"
    " 1504 , 7 ,F15, 45 , 700000 , 0.2 ,padded ok\n"
    "5001,4,F16,30,100,0.1%,percent share\n"
    "5001,4,F17,89,100,0.1,unmapped 89\n"
    "5001,\x1c4\x1f,F18,\x1d30,100\x1e,0.1,padded with separator characters str.strip() removes\n"
)
MIXED_ISSUES = [
    (5, "blank row"),
    (6, "expected at least 6 fields, got 3"),
    (7, "nace2 '3x' is not an integer"),
    (8, "employees '4.5' is not an integer"),
    (9, "turnover_nok '12e' is not a number"),
    (10, "foreign_share 'abc' is not a number"),
    (11, "nace2 0 outside 01-99"),
    (12, "nace2 100 outside 01-99"),
    (13, "employees must be non-negative"),
    (14, "turnover must be non-negative"),
    (15, "foreign_share must be a fraction in [0, 1]"),
    (16, "foreign_share must be a fraction in [0, 1]"),
    (17, "NACE code 40 has no technology group mapping"),
    (19, "foreign_share '0.1%' is not a number"),
    (20, "NACE code 89 has no technology group mapping"),
]


def test_validate_listing_is_pinned(tmp_path, capsys):
    assert validate_firm_csv(MIXED.encode("utf-8")) == (19, MIXED_ISSUES)
    path = tmp_path / "mixed.csv"
    path.write_text(MIXED, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "19 data row(s), 15 issue(s)"
    assert lines[1:] == [f"  line {line}: {message}" for line, message in MIXED_ISSUES]


# --- one pass versus the step-by-step reference ------------------------------

MAPPED_NACE = sorted(default_nace_map())

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["0301", "1504", "5001", "46", "x"]),
        st.sampled_from(MAPPED_NACE),
        st.integers(0, 400),
        st.one_of(st.integers(0, 10**9), st.floats(0, 1e12, allow_nan=False)),
        st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.floats(0, 1)),
    ),
    min_size=1,
    max_size=40,
)


def _reference_document(path: Path, config: ClassificationConfig, manifest: dict) -> dict:
    """The compute document of a defect-free file, from row_by_row's firms, one step at a time."""
    rows, issues, firms = row_by_row(path.read_bytes(), config)
    assert rows and not issues
    tally = tally_of(firms)
    cube = tally.cube()
    categories, table = ownership_tech_table(cube)
    try:
        chi = chi_square_homogeneity(table)
        chi_block = {"categories": list(categories), "statistic": chi.statistic,
                     "dof": chi.dof, "p_value": chi.p_value}
    except DegenerateTable as exc:
        chi_block = {"undefined_reason": str(exc)}
    return {
        "schema_version": 1,
        "log_base": "2",
        "report": cube_report(tally).to_dict(),
        "entropy": decompose(cube).profile()._asdict(),
        "chi_square_domestic_vs_foreign": chi_block,
        "manifest": manifest,
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# finite turnover sums whose foreign-to-domestic quotient overflows: the ratio is null
@example(rows=[("0301", 1, 0, 0, 0.0), ("0301", 1, 0, 53, 1.0), ("0301", 1, 0, 2.9e-307, 0.0)],
         order=list(CANONICAL_COLUMNS), cutoff="0.2")
@example(rows=[("0301", 1, 0, 4.0, 0.2), ("0301", 1, 0, 2.2250738585072014e-308, 0.0)],
         order=list(CANONICAL_COLUMNS), cutoff="0.2")
@given(
    rows=rows_strategy,
    order=st.permutations(CANONICAL_COLUMNS),
    cutoff=st.sampled_from(["0.2", "50%", "1", "0.05"]),
)
def test_compute_document_equals_row_by_row_route(tmp_path, capsys, rows, order, cutoff):
    lines = [",".join(order)]
    for i, (municipality, nace2, employees, turnover, share) in enumerate(rows):
        values = {
            "firm_id": f"F{i}",
            "municipality_code": municipality,
            "nace2": f"{nace2:02d}",
            "employees": str(employees),
            "turnover_nok": repr(turnover),
            "foreign_share": repr(share),
        }
        lines.append(",".join(values[name] for name in order))
    path = tmp_path / "firms.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    capsys.readouterr()
    assert main(["compute", str(path), "--foreign-cutoff", cutoff]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    config = ClassificationConfig(foreign_cutoff=parse_share(cutoff))
    expected = _reference_document(path, config, document["manifest"])
    assert out == json.dumps(expected, indent=2) + "\n"
    turnover = document["report"]["turnover"]
    assert turnover["total"] == turnover["domestic"] + turnover["foreign"]


def _compute_rows(path: Path, capsys, rows) -> str:
    lines = [",".join(CANONICAL_COLUMNS)]
    for i, (municipality, nace2, employees, turnover, share) in enumerate(rows):
        lines.append(f"F{i},{municipality},{nace2:02d},{employees},{turnover!r},{share!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["compute", str(path)]) == 0
    return capsys.readouterr().out


FRACTIONAL = [("0301", 1, 0, 0.1, 0.0), ("0301", 1, 0, 0.2, 0.0), ("1504", 62, 9, 0.3, 0.0), ("1504", 62, 9, 7.5, 0.9)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
# a running domestic sum gives 0.6000000000000001 in file order and 0.6 in reverse order
@example(rows=(FRACTIONAL, FRACTIONAL[::-1]))
@given(rows=rows_strategy.flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
def test_compute_document_is_invariant_under_row_order(tmp_path, capsys, rows):
    # turnover sums, fractional ones included, are exactly rounded, so the order of the rows is not in them
    original, shuffled = rows
    path = tmp_path / "firms.csv"
    assert _compute_rows(path, capsys, shuffled) == _compute_rows(path, capsys, original)


# --- sweep ----------------------------------------------------------------------

SWEEP_SHARES = ",".join(repr(i / 10) for i in range(11))
SWEEP_GOLDEN = [
    # default generator: uniform turnover law, 500 firms, seed 0
    ((), "1bc3675dc590c807cb2af2885d09792ae60d1eb060946b8c2fb85e552c1ec2ad", "b427b93bb97f63ba", 2),
    # the parameters of demos/04_foreign_share_sweep.py
    (("--firms", "400", "--municipalities", "10", "--size-classes", "6", "--tech-groups", "8",
      "--coupling", "0.8", "--turnover-law", "lognormal", "--mu", "17.0", "--sigma", "0.9",
      "--seed", "2013"),
     "742f4afb85fd9df015c0ae318dca06de19227cd6701319a44046bf384e4a244b", "106d2fb8442b1c56", 5),
    # two-digit municipality and size labels, whose string order is not numeric order
    (("--size-classes", "12", "--municipalities", "40", "--turnover-law", "lognormal"),
     "0f10f81dbd993ca37d95fbd514ddc541b00ceae123b6b3d885d4d6f72d6b7b66", "54095fae222f499b", 2),
]


# config_hash covers every generator setting but the seed, so it pins the defaults the flags fall back to
@pytest.mark.parametrize("flags, digest, config_hash, violations", SWEEP_GOLDEN,
                         ids=["uniform", "demo-04", "two-digit-labels"])
def test_sweep_curve_is_pinned(tmp_path, flags, digest, config_hash, violations):
    out = tmp_path / "curve.csv"
    assert main(["sweep", *flags, "--shares", SWEEP_SHARES, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    sidecar = json.loads((tmp_path / "curve.csv.manifest.json").read_text(encoding="utf-8"))
    assert sidecar["synergy_share_violations"] == violations
    assert sidecar["config_hash"] == config_hash
