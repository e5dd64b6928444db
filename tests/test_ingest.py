import csv
import io
import json
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from conftest import cell_code, row_by_row
from test_onepass import _reference_document
import thsynergy.ingest
from thsynergy.cli import main
from thsynergy.decomp import Tally, cube_report
from thsynergy.ingest import (
    CANONICAL_COLUMNS,
    DEFAULT_SIZE_BIN_EDGES,
    ClassificationConfig,
    MalformedRow,
    MissingColumn,
    UnmappedNace,
    default_nace_map,
    parse_share,
    validate_firm_csv,
    _check_ranges,
    _parse_row,
    _read_header,
)
from thsynergy.synthlab import SynthParams

HEADER = "firm_id,municipality_code,nace2,employees,turnover_nok,foreign_share"
DEMO_CSV = Path(__file__).resolve().parents[1] / "demos" / "data" / "firms_demo.csv"


def csv_bytes(*rows: str, header: str = HEADER) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def scan(source, config: ClassificationConfig | None = None):
    """validate_firm_csv's (rows, issues) and the (cell, foreign, turnover) firms it passes to add."""
    firms = []
    rows, issues = validate_firm_csv(source, config, add=lambda *firm: firms.append(firm))
    return rows, issues, firms


# --- parsing ----------------------------------------------------------------

def test_parse_single_row():
    assert _parse_row(["F1", "1504", "30", "120", "5000000", "0.0"], 2, tuple(range(6)), 6) == (
        "1504", 30, 120, 5000000.0, 0.0)
    # municipality 1504 is the first seen (g 0), 120 employees size class 100-249 (o 6), NACE 30 group 2 (t 1)
    assert scan(csv_bytes("F1,1504,30,120,5000000,0.0")) == (1, [], [((0 * 8 + 6) * 10 + 1, False, 5000000.0)])


def test_parse_preserves_row_count_and_order():
    rows, issues, firms = scan(csv_bytes(
        "F1,1504,30,120,5000000,0.0",
        "F2,5001,62,3,900000,0.5",
        "F3,1504,68,0,100000,0.2",
    ))
    assert (rows, issues) == (3, [])
    assert [turnover for _, _, turnover in firms] == [5000000.0, 900000.0, 100000.0]
    # G numbers municipalities in first-seen order: 1504 is 0 both times, 5001 is 1
    shape = ClassificationConfig().cell_shape
    assert [cell for cell, _, _ in firms] == [cell_code(c, shape) for c in ((0, 6, 1), (1, 1, 4), (0, 0, 6))]


def test_parse_accepts_binary_stream():
    stream = io.BytesIO(csv_bytes("F1,1504,30,120,5000000,0.0"))
    rows, issues, firms = scan(stream)
    assert (rows, issues, len(firms)) == (1, [], 1)


def test_parse_column_order_irrelevant():
    data = csv_bytes(
        "0.0,120,30,1504,F1,5000000",
        header="foreign_share,employees,nace2,municipality_code,firm_id,turnover_nok",
    )
    assert scan(data) == scan(csv_bytes("F1,1504,30,120,5000000,0.0"))


def test_parse_firm_id_optional():
    data = csv_bytes("1504,30,120,5000000,0.0",
                     header="municipality_code,nace2,employees,turnover_nok,foreign_share")
    assert scan(data) == scan(csv_bytes("F1,1504,30,120,5000000,0.0"))


def test_parse_missing_column_lists_names():
    data = csv_bytes("F1,1504,30", header="firm_id,municipality_code,nace2")
    with pytest.raises(MissingColumn) as err:
        _read_header(csv.reader(io.StringIO(data.decode("utf-8"))))
    assert "employees" in str(err.value)
    assert "turnover_nok" in str(err.value)
    assert validate_firm_csv(data) == (0, [(1, err.value.reason)])


def test_parse_empty_input_raises_missing_column():
    with pytest.raises(MissingColumn):
        _read_header(csv.reader([]))
    rows, issues = validate_firm_csv(b"")
    assert (rows, [line for line, _ in issues]) == (0, [1])


@pytest.mark.parametrize("row,fragment", [
    ("F1,1504,abc,120,5000000,0.0", "nace2"),
    ("F1,1504,30,12.5,5000000,0.0", "employees"),
    ("F1,1504,30,-3,5000000,0.0", "employees"),
    ("F1,1504,30,120,xyz,0.0", "turnover_nok"),
    ("F1,1504,30,120,-1,0.0", "turnover"),
    ("F1,1504,30,120,5000000,1.5", "foreign_share"),
    ("F1,1504,30,120,5000000,nope", "foreign_share"),
    ("F1,1504,0,120,5000000,0.0", "nace2"),
    ("F1,1504,100,120,5000000,0.0", "nace2"),
])
def test_parse_rejects_malformed_rows(row, fragment):
    rows, issues, firms = scan(csv_bytes("F0,1504,30,1,1000,0.0", row))
    assert (rows, len(firms), [line for line, _ in issues]) == (2, 1, [3])
    assert fragment in issues[0][1]


def test_parse_rejects_short_row():
    assert validate_firm_csv(csv_bytes("F1,1504,30")) == (1, [(2, "expected at least 6 fields, got 3")])


def test_parse_never_skips_bad_rows():
    # a bad row is counted and reported, never dropped in silence, and never reaches add
    rows, issues, firms = scan(csv_bytes("F1,1504,30,1,1000,0.0", "bad row,,,,,"))
    assert (rows, [line for line, _ in issues], len(firms)) == (2, [3], 1)


@pytest.mark.parametrize("data, line", [
    (csv_bytes("F0,1504,30,1,1000,0.0", 'F1,1504,30,1,1000,0.0,"' + "x" * 200_000 + '"'), 3),
    (csv_bytes("F0,1504,30,1,1000,0.0") + b"F1,15\xff04,30,1,1000,0.0\n", 3),
    (csv_bytes("F0,1504,30,1,1000,0.0").replace(b"firm_id", b"firm\xffid"), 1),
], ids=["field-over-csv-limit", "byte-in-row", "byte-in-header"])
def test_parse_raises_malformed_row_where_the_scan_reports(data, line):
    # neither the csv module's Error nor a decoder error counting from its chunk escapes: the defect
    # ends the scan with one issue on its line, and the rows before it are kept
    rows, issues, firms = scan(data)
    assert [at for at, _ in issues] == [line]
    assert len(firms) == rows == max(line - 2, 0)


def test_parse_deterministic():
    data = csv_bytes("F1,1504,30,120,5000000,0.0", "F2,5001,62,3,900000,0.5")
    assert scan(data) == scan(data)


def test_parse_range_checks_each_row_once(monkeypatch):
    # each row that goes through _parse_row is range-checked once, on the values it returns
    checked, parsed = [], []

    def check(*values):
        checked.append(values)
        return _check_ranges(*values)

    def parse(*args):
        parsed.append(_parse_row(*args))
        return parsed[-1]

    monkeypatch.setattr(thsynergy.ingest, "_check_ranges", check)
    monkeypatch.setattr(thsynergy.ingest, "_parse_row", parse)
    with open(DEMO_CSV, "rb") as fh:
        assert validate_firm_csv(fh) == (30, [])
    assert parsed and checked == [values[1:] for values in parsed]


# --- classification ---------------------------------------------------------

def categorize(nace2=30, employees=10, config=None):
    """The (size class index, tech group - 1) cell digits of one firm."""
    return (config or ClassificationConfig()).categorize(nace2, employees)


@pytest.mark.parametrize("nace2,group", [
    (1, 1), (3, 1),
    (5, 2), (30, 2), (39, 2),
    (41, 3), (43, 3),
    (45, 4), (56, 4),
    (58, 5), (63, 5),
    (64, 6), (66, 6),
    (68, 7),
    (69, 8), (82, 8),
    (84, 9), (88, 9),
    (90, 10), (99, 10),
])
def test_nace_to_tech_group(nace2, group):
    assert categorize(nace2=nace2)[1] == group - 1


@pytest.mark.parametrize("nace2", [4, 40, 44, 57, 67, 83, 89])
def test_unmapped_nace_codes_raise(nace2):
    with pytest.raises(UnmappedNace) as err:
        categorize(nace2=nace2)
    assert err.value.nace2 == nace2


def test_nace_map_covers_everything_else():
    mapped = default_nace_map()
    gaps = {4, 40, 44, 57, 67, 83, 89}
    for code in range(1, 100):
        assert (code in mapped) == (code not in gaps)
    assert set(mapped.values()) == set(range(1, 11))


# the default bins, named by their inclusive employee ranges; a bin's O digit is its position here
SIZE_CLASSES = ("0", "1-4", "5-9", "10-19", "20-49", "50-99", "100-249", "250+")


@pytest.mark.parametrize("employees,label", [
    (0, "0"),
    (1, "1-4"), (4, "1-4"),
    (5, "5-9"), (9, "5-9"),
    (10, "10-19"), (19, "10-19"),
    (20, "20-49"), (49, "20-49"),
    (50, "50-99"), (99, "50-99"),
    (100, "100-249"), (249, "100-249"),
    (250, "250+"), (1000, "250+"),
])
def test_size_bins_half_open(employees, label):
    assert categorize(employees=employees)[0] == SIZE_CLASSES.index(label)


def test_size_bins_partition():
    assert ClassificationConfig().cell_shape == (None, len(SIZE_CLASSES), 10)
    seen = [categorize(employees=n)[0] for n in range(0, 1001)]
    assert seen == sorted(seen) and set(seen) == set(range(len(SIZE_CLASSES)))


def test_custom_size_edges():
    config = ClassificationConfig(size_bin_edges=(0, 10, 100))
    assert config.cell_shape == (None, 3, 10)
    assert [categorize(employees=n, config=config)[0] for n in (0, 9, 10, 99, 100, 10**6)] == [0, 0, 1, 1, 2, 2]


def ownership_flags(*shares: str, config: ClassificationConfig | None = None) -> list[bool]:
    """The flags validate_firm_csv passes to add for one row per share, all rows accepted: the
    first row goes through _parse_row and categorize, the rest through the memos."""
    rows, issues, firms = scan(csv_bytes(*(f"F{i},1504,30,1,1000,{share}" for i, share in enumerate(shares))), config)
    assert (rows, issues) == (len(shares), [])
    return [foreign for _, foreign, _ in firms]


def test_ownership_cutoff_inclusive():
    assert ownership_flags("0.2", "0.19999999", "1.0", "0.0") == [True, False, True, False]
    assert ownership_flags("0.0", "0.2") == [False, True]  # the flag at the cutoff from the memo-hit route too


def test_custom_cutoff():
    assert ownership_flags("0.3", "0.5", config=ClassificationConfig(foreign_cutoff=0.5)) == [False, True]
    assert ownership_flags("0.5", "0.3", config=ClassificationConfig(foreign_cutoff=0.5)) == [True, False]
    assert ownership_flags("0.95", "0.85", config=ClassificationConfig(foreign_cutoff=0.9)) == [True, False]


@pytest.mark.parametrize("text,value", [("0.2", 0.2), ("20%", 0.2), (" 35 % ".replace(" ", ""), 0.35), ("1", 1.0)])
def test_parse_share(text, value):
    assert parse_share(text) == pytest.approx(value)


@pytest.mark.parametrize("text", ["-0.1", "150%", "1.01"])
def test_parse_share_rejects_out_of_range(text):
    with pytest.raises(ValueError):
        parse_share(text)


@pytest.mark.parametrize("kwargs", [
    {"foreign_cutoff": 0.0},
    {"foreign_cutoff": 1.5},
    {"size_bin_edges": (1, 5)},
    {"size_bin_edges": (0, 5, 5)},
    {"size_bin_edges": (0, 10, 5)},
    {"size_bin_edges": (0, 10.7, 20.2)},  # not truncated to (0, 10, 20)
    {"size_bin_edges": (0, math.inf)},
    {"size_bin_edges": (0, math.nan)},
    {"size_bin_edges": (0, "10.5")},
    {"size_bin_edges": [0, "x"]},
    {"foreign_cutoff": "0.5"},  # each wrong type a ValueError naming the field, not a TypeError
    {"foreign_cutoff": None},
    {"size_bin_edges": 5},
    {"size_bin_edges": (0, None)},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError) as info:
        ClassificationConfig(**kwargs)
    assert next(iter(kwargs)) in str(info.value)  # the message names the field


def test_number_fields_keep_any_number_as_given():
    for value in (1, True, 0.5, np.float32(0.5), Fraction(1, 2), Decimal("0.5")):
        assert ClassificationConfig(foreign_cutoff=value).foreign_cutoff is value
        params = SynthParams(coupling=value, lognormal_mu=value, lognormal_sigma=value)
        assert all(getattr(params, name) is value for name in ("coupling", "lognormal_mu", "lognormal_sigma"))


# --- firm value checks ------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"nace2": 0}, {"nace2": 100},
    {"employees": -1},
    {"turnover": -0.5},
    {"share": -0.1}, {"share": 1.1},
])
def test_check_ranges_rejects_out_of_range_values(kwargs):
    base = dict(nace2=30, employees=1, turnover=1.0, share=0.0)
    _check_ranges(**base)
    base.update(kwargs)
    with pytest.raises(ValueError):
        _check_ranges(**base)


# --- validated types: every route to an instance runs the checks -------------

@pytest.mark.parametrize("cls, good, bad, message", [
    (ClassificationConfig, {}, {"foreign_cutoff": 0.0}, r"foreign_cutoff must be in \(0, 1\]"),
    (ClassificationConfig, {}, {"size_bin_edges": (0, 5, 5)}, "size_bin_edges must be strictly increasing"),
    (SynthParams, {}, {"coupling": 1.5}, r"coupling must be in \[0, 1\]"),
], ids=["config-cutoff", "config-edges", "synth"])
@pytest.mark.parametrize("route", ["positional", "keyword", "_replace", "_make"])
def test_validated_type_rejects_a_bad_value_on_every_route(cls, good, bad, message, route):
    valid = cls(**good)
    assert type(valid._replace()) is cls and valid._replace() == valid
    assert not hasattr(valid, "__dict__")
    fields = valid._asdict() | bad
    build = {
        "positional": lambda: cls(*fields.values()),
        "keyword": lambda: cls(**fields),
        "_replace": lambda: valid._replace(**bad),
        "_make": lambda: cls._make(fields.values()),
    }[route]
    with pytest.raises(ValueError, match=message):
        build()


def test_config_edges_become_a_tuple_of_ints_on_every_route():
    expected = ClassificationConfig(0.2, (0, 10, 50))
    for config in (ClassificationConfig(0.2, [0, 10.0, "50"]), ClassificationConfig(size_bin_edges=[0, 10, 50]),
                   ClassificationConfig()._replace(size_bin_edges=[0, 10.0, 50]),
                   ClassificationConfig._make((0.2, [0, 10, 50.0]))):
        assert config == expected and type(config.size_bin_edges) is tuple
        assert [type(e) for e in config.size_bin_edges] == [int, int, int]
        assert config.cell_shape == (None, 3, 10)


# --- lenient validation scan ------------------------------------------------

def test_validate_collects_all_issues():
    data = csv_bytes(
        "F1,1504,30,120,5000000,0.0",
        "F2,1504,40,3,900000,0.0",      # unmapped NACE, line 3
        "F3,1504,30,bad,900000,0.0",    # malformed, line 4
        "F4,1504,89,1,100,0.0",         # unmapped NACE, line 5
    )
    rows, issues = validate_firm_csv(data)
    assert rows == 4
    assert [line for line, _ in issues] == [3, 4, 5]
    assert "40" in issues[0][1]
    assert "89" in issues[2][1]


def test_validate_clean_file():
    rows, issues = validate_firm_csv(csv_bytes("F1,1504,30,120,5000000,0.0"))
    assert (rows, issues) == (1, [])


def test_validate_missing_column():
    rows, issues = validate_firm_csv(csv_bytes("F1,1504", header="firm_id,municipality_code"))
    assert rows == 0
    assert len(issues) == 1
    assert "missing required column" in issues[0][1]


@pytest.mark.parametrize("tail, reason", [
    (b"F2,B\xffrum,30,1,1000,0.0\nF3,\xff\n", "byte 0xff is not UTF-8 (invalid start byte)"),
    (b"F2,B\xc3(rum,30,1,1000,0.0\n", "byte 0xc3 is not UTF-8 (invalid continuation byte)"),
    (b"F2,B\xed\xa0\x80rum,30,1,1000,0.0\n", "byte 0xed is not UTF-8 (invalid continuation byte)"),
    (b"F2,B\xc3", "byte 0xc3 is not UTF-8 (unexpected end of data)"),
], ids=["stray-byte", "cut-sequence", "encoded-surrogate", "cut-at-end"])
def test_validate_names_the_first_byte_that_is_not_utf8_after_utf8_rows(tail, reason):
    data = csv_bytes("F0,B\u00e6rum,30,1,1000,0.0", "F1,B\u00e6rum,30,1,1000,0.0") + tail
    assert validate_firm_csv(data) == (2, [(4, reason)])


def test_validate_leaves_a_callers_text_stream_unchecked():
    # only byte input is decoded here: a lone surrogate in text is a field like any other
    text = io.StringIO(HEADER + "\nF1,15\ud80004,30,120,5000000,0.0\n")
    assert validate_firm_csv(text) == (1, [])


@pytest.mark.parametrize("reader", [validate_firm_csv, lambda source: validate_firm_csv(source, add=Tally(ClassificationConfig().cell_shape).add)],
                         ids=["validate", "tally"])
@pytest.mark.parametrize("data", [
    csv_bytes("F1,1504,30,120,5000000,0.0"),
    csv_bytes("F1,1504", header="firm_id,municipality_code"),
    csv_bytes("F1,1504,3x,120,5000000,0.0"),
    csv_bytes("F1,1504,30,120,5000000,0.0") + b"F2,B\xffrum,30,1,1000,0.0\n",
    csv_bytes("F1,1504,30,120,5000000,0.0") + b'F2,"' + b"x" * (csv.field_size_limit() + 1) + b'"\n',
], ids=["read-to-end", "header-defect", "row-defect", "not-utf8", "csv-error"])
def test_readers_leave_a_callers_binary_stream_open(reader, data):
    stream = io.BytesIO(data)
    reader(stream)
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == data


# --- memoized scan versus the row-by-row checks -----------------------------

# texts that int() and float() treat in special ways, and texts the checks reject
FIELD_TEXTS = {
    "municipality_code": ["0301", " 0301", "0301\t", "1504", "46", "x", "", " ", "\t"],
    "nace2": ["30", "030", "+30", " 30 ", "3_0", "\t62", "62", "1", "99", "0", "100", "-5",
              "40", "89", "3x", "30.0", "1e1", "\u0663\u0660", ""],
    "employees": ["0", "00", "+4", "1_0", " 7 ", "\t250", "-0", "-1", "4.5", "1e1", "",
                  "\u0664", "249", "1000000"],
    "turnover_nok": ["0", "-0.0", "1e-1", "1_000", " 5 ", "+7", "nan", "inf", "-inf", "-5",
                     "1e308", "12e", "", "2.9e-307", "53"],
    "foreign_share": ["0", "0.2", "1", "-0.0", "1e-1", "0_5", "nan", "inf", "20%", " 0.5 ",
                      "1.0000000001", "+0.2", "0.19999999999999998", "0.3", ""],
}


@st.composite
def field_rows(draw):
    # a few texts per memoized field, so that rows repeat them and the memos are used
    vocabulary = {name: draw(st.lists(st.sampled_from(texts), min_size=1, max_size=3, unique=True))
                  if name in ("municipality_code", "nace2", "employees") else texts
                  for name, texts in FIELD_TEXTS.items()}
    return draw(st.lists(st.tuples(
        st.fixed_dictionaries({name: st.sampled_from(texts) for name, texts in vocabulary.items()}),
        st.sampled_from([None, None, None, 0, 1, 5]),  # keep all fields, or only the first few
    ), max_size=60))


@settings(max_examples=300, deadline=None)
# "+30" is first seen on a row with a bad share, then on an accepted row, then again
@example(rows=[({"municipality_code": "0301", "nace2": "+30", "employees": "1_0", "turnover_nok": "5",
                 "foreign_share": share}, None) for share in ("nan", "0.2", "0.3")],
         order=list(CANONICAL_COLUMNS), cutoff=0.2, edges=DEFAULT_SIZE_BIN_EDGES)
# a row one field short, whose missing field is the firm_id the memos never read
@example(rows=[({"municipality_code": "0301", "nace2": "30", "employees": "1", "turnover_nok": "5",
                 "foreign_share": "0.2"}, keep) for keep in (None, 5)],
         order=[*CANONICAL_COLUMNS[1:], "firm_id"], cutoff=0.2, edges=DEFAULT_SIZE_BIN_EDGES)
@given(rows=field_rows(), order=st.permutations(CANONICAL_COLUMNS), cutoff=st.sampled_from([0.2, 0.5, 1.0]),
       edges=st.sampled_from([DEFAULT_SIZE_BIN_EDGES, (0, 10, 100)]))
def test_memoized_scan_equals_row_by_row_checks(rows, order, cutoff, edges):
    lines = [",".join(order)]
    for i, (texts, keep) in enumerate(rows):
        lines.append(",".join([f"F{i}" if name == "firm_id" else texts[name] for name in order][:keep]))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    config = ClassificationConfig(foreign_cutoff=cutoff, size_bin_edges=edges)
    calls = []
    rows_seen, issues = validate_firm_csv(data, config=config, add=lambda *call: calls.append(call))
    expected_rows, expected_issues, expected_calls = row_by_row(data, config)
    assert (rows_seen, issues) == (expected_rows, expected_issues)
    assert repr(calls) == repr(expected_calls)  # repr tells -0.0 from 0.0


def test_compute_past_the_memo_limit_equals_row_by_row_route(tmp_path, capsys):
    # 5,000 distinct employee texts, more than a memo holds; the last 1,000 rows repeat the first
    lines = [HEADER] + [f"F{i},{('0301', '1504', '46')[i % 3]},{(30, 62, 68, 1, 99)[i % 5]},{i % 5000},"
                        f"{i * 7919 % 10**6},{(i % 10) / 10}" for i in range(6000)]
    path = tmp_path / "firms.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["compute", str(path)]) == 0
    out = capsys.readouterr().out
    expected = _reference_document(path, ClassificationConfig(), json.loads(out)["manifest"])
    assert out == json.dumps(expected, indent=2) + "\n"


def _parse_row_calls(monkeypatch, texts, row="F{i},{text},62,5,1000,0.1"):
    """Indices of the rows, one per text put into row, that the scan sends through _parse_row."""
    calls = []

    def counted(row, *args):
        calls.append(int(row[0][1:]))
        return _parse_row(row, *args)

    monkeypatch.setattr(thsynergy.ingest, "_parse_row", counted)
    rows, issues = validate_firm_csv(csv_bytes(*(row.format(i=i, text=text) for i, text in enumerate(texts))))
    assert (rows, issues) == (len(texts), [])
    return calls


def test_memo_learns_every_municipality_past_its_limit(monkeypatch):
    # 5,000 distinct codes, more than _MEMO_LIMIT texts, each seen twice: the second pass is all memo hits
    codes = [f"{i:04d}" for i in range(5000)]
    assert _parse_row_calls(monkeypatch, codes + codes) == list(range(5000))


def test_memo_of_padded_municipalities_stops_growing_at_its_limit(monkeypatch):
    # 5,000 padded variants of one label fill the memo to 4,096 texts and no further; an unpadded
    # code after them is its own label and is still learned
    padded = [" " * left + "0301" + " " * right for left in range(1, 72) for right in range(72)][:5000]
    calls = _parse_row_calls(monkeypatch, padded + padded + ["0302", "0302"])
    assert calls == [*range(5000), *range(5000 + 4096, 10000), 10000]


def test_memo_of_employees_stops_growing_at_its_limit(monkeypatch):
    # 5,000 distinct employee texts fill their memo; past it no employee text is learned, not even
    # "0", which spells its own size class range
    calls = _parse_row_calls(monkeypatch, [*range(1, 5001), 0, 0], row="F{i},0301,62,{text},1000,0.1")
    assert calls == list(range(5002))


def test_memo_past_its_limit_numbers_each_label_once(monkeypatch):
    # past _MEMO_LIMIT a padded spelling is never learned, but its label is numbered once, so
    # every spelling lands on one G code; the unpadded one is its own label and is learned
    codes = [f"{i:04d}" for i in range(5000)] + [" 9999", "9999", "9999\t", "9999", " 9999"]
    calls, firms = [], []

    def counted(row, *args):
        calls.append(int(row[0][1:]))
        return _parse_row(row, *args)

    monkeypatch.setattr(thsynergy.ingest, "_parse_row", counted)
    data = csv_bytes(*(f"F{i},{code},62,5,1000,0.1" for i, code in enumerate(codes)))
    assert validate_firm_csv(data, add=lambda *firm: firms.append(firm)) == (len(codes), [])
    _, n_o, n_t = ClassificationConfig().cell_shape
    assert [cell // (n_o * n_t) for cell, _, _ in firms[5000:]] == [5000] * 5
    assert calls == [*range(5000), 5000, 5001, 5002, 5004]


def test_scan_and_report_peak_memory_per_cell():
    # 20,000 rows over 500 municipalities, every size class and tech group: about 15,700 cells.
    # Int cells peak near 125 bytes a cell here; (municipality, size label, group) tuple keys
    # and tuple-keyed marginals peaked near 165-178
    rng = random.Random(5)
    employees, naces = (0, 3, 7, 15, 30, 70, 150, 400), (1, 20, 41, 47, 62, 64, 68, 70, 85, 90)
    data = csv_bytes(*(f"F{i},{rng.randrange(500):04d},{rng.choice(naces)},{rng.choice(employees)},"
                       f"{rng.randrange(10**6, 10**9)},{rng.choice((0.0, 0.1, 0.5, 1.0))}" for i in range(20_000)))
    config = ClassificationConfig()
    tally = Tally(config.cell_shape)
    tracemalloc.start()
    try:
        validate_firm_csv(data, config, add=tally.add)
        cube_report(tally)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = len(tally.domestic.keys() | tally.foreign.keys())
    assert 15_000 <= cells <= 16_500
    assert peak / cells <= 145


# whitespace that int() and float() skip around a number, and a zero-width space that they do not
PADDING = ["", " ", "\t", "\n", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000", "\u200b"]
NUMERIC_FIELDS = (("nace2", int), ("employees", int), ("turnover_nok", float), ("foreign_share", float))


@settings(max_examples=500, deadline=None)
@given(st.fixed_dictionaries({name: st.tuples(
    st.sampled_from(PADDING), st.sampled_from(FIELD_TEXTS[name] + ["7", "30", "0.5", "\u0664\u0662"]),
    st.sampled_from(PADDING)).map("".join) for name, _ in NUMERIC_FIELDS}))
def test_parse_row_returns_what_int_and_float_return(texts):
    """Whenever int() or float() converts a raw field text, _parse_row returns exactly that value."""
    row = ["F1", "0301", *(texts[name] for name, _ in NUMERIC_FIELDS)]
    try:
        got = tuple(_parse_row(row, 2, tuple(range(6)), 6))
    except MalformedRow as exc:
        got = exc.reason
    raw = {}
    for at, (name, convert) in enumerate(NUMERIC_FIELDS, start=1):
        try:
            raw[name] = convert(texts[name])
        except ValueError:
            continue
        if not isinstance(got, str):
            assert repr(got[at]) == repr(raw[name])
    if len(raw) == len(NUMERIC_FIELDS):  # every field converts: the result is decided by the range checks
        values = tuple(raw[name] for name, _ in NUMERIC_FIELDS)
        try:
            _check_ranges(*values)
            expected = ("0301", *values)
        except ValueError as exc:
            expected = str(exc)
        assert repr(got) == repr(expected)
