import csv
import io
import json
import re

from hypothesis import example, given, settings, strategies as st
import pytest

from test_onepass import _adapter_document
import thsynergy.ingest
from thsynergy.cli import main
from thsynergy.ingest import (
    CANONICAL_COLUMNS,
    DEFAULT_SIZE_BIN_EDGES,
    ClassificationConfig,
    FirmRecord,
    MalformedRow,
    MissingColumn,
    Ownership,
    UnmappedNace,
    classify,
    classify_all,
    default_nace_map,
    load_config,
    parse_firm_records,
    parse_share,
    size_labels,
    validate_firm_csv,
    _check_ranges,
    _parse_row,
    _read_header,
)

HEADER = "firm_id,municipality_code,nace2,employees,turnover_nok,foreign_share"


def csv_bytes(*rows: str, header: str = HEADER) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


# --- parsing ----------------------------------------------------------------

def test_parse_single_row():
    records = parse_firm_records(csv_bytes("F1,1504,30,120,5000000,0.0"))
    assert records == [FirmRecord("F1", "1504", 30, 120, 5000000.0, 0.0)]


def test_parse_preserves_row_count_and_order():
    records = parse_firm_records(csv_bytes(
        "F1,1504,30,120,5000000,0.0",
        "F2,5001,62,3,900000,0.5",
        "F3,1504,68,0,100000,0.2",
    ))
    assert [r.firm_id for r in records] == ["F1", "F2", "F3"]


def test_parse_accepts_binary_stream():
    stream = io.BytesIO(csv_bytes("F1,1504,30,120,5000000,0.0"))
    assert len(parse_firm_records(stream)) == 1


def test_parse_schema_remap():
    data = csv_bytes(
        "X,1504,30,120,5000000,0.1",
        header="orgnr,kommune,naering,ansatte,omsetning,utenlandsk",
    )
    schema = {
        "firm_id": "orgnr",
        "municipality_code": "kommune",
        "nace2": "naering",
        "employees": "ansatte",
        "turnover_nok": "omsetning",
        "foreign_share": "utenlandsk",
    }
    records = parse_firm_records(data, schema)
    assert records[0].firm_id == "X"
    assert records[0].municipality_code == "1504"


def test_parse_rejects_schema_mapping_two_columns_to_one_header():
    data = csv_bytes("F1,1504,30,5000000,0.0", header="firm_id,municipality_code,x,turnover_nok,foreign_share")
    with pytest.raises(ValueError, match="schema maps nace2, employees to one header name"):
        parse_firm_records(data, {"nace2": "x", "employees": "x"})


def test_parse_column_order_irrelevant():
    data = csv_bytes(
        "0.0,120,30,1504,F1,5000000",
        header="foreign_share,employees,nace2,municipality_code,firm_id,turnover_nok",
    )
    assert parse_firm_records(data)[0] == FirmRecord("F1", "1504", 30, 120, 5000000.0, 0.0)


def test_parse_firm_id_optional():
    data = csv_bytes("1504,30,120,5000000,0.0",
                     header="municipality_code,nace2,employees,turnover_nok,foreign_share")
    records = parse_firm_records(data)
    assert records[0].firm_id == "row-2"


def test_parse_missing_column_lists_names():
    data = csv_bytes("F1,1504,30", header="firm_id,municipality_code,nace2")
    with pytest.raises(MissingColumn) as err:
        parse_firm_records(data)
    assert "employees" in str(err.value)
    assert "turnover_nok" in str(err.value)


def test_parse_empty_input_raises_missing_column():
    with pytest.raises(MissingColumn):
        parse_firm_records(b"")


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
    with pytest.raises(MalformedRow) as err:
        parse_firm_records(csv_bytes("F0,1504,30,1,1000,0.0", row))
    assert err.value.line_no == 3
    assert fragment in err.value.reason


def test_parse_rejects_short_row():
    with pytest.raises(MalformedRow):
        parse_firm_records(csv_bytes("F1,1504,30"))


def test_parse_never_skips_bad_rows():
    # strictness: a single defect aborts, nothing is returned
    data = csv_bytes("F1,1504,30,1,1000,0.0", "bad row,,,,,")
    with pytest.raises(MalformedRow):
        parse_firm_records(data)


@pytest.mark.parametrize("data, line", [
    (csv_bytes("F0,1504,30,1,1000,0.0", 'F1,1504,30,1,1000,0.0,"' + "x" * 200_000 + '"'), 3),
    (csv_bytes("F0,1504,30,1,1000,0.0") + b"F1,15\xff04,30,1,1000,0.0\n", 3),
    (csv_bytes("F0,1504,30,1,1000,0.0").replace(b"firm_id", b"firm\xffid"), 1),
], ids=["field-over-csv-limit", "byte-in-row", "byte-in-header"])
def test_parse_raises_malformed_row_where_the_scan_reports(data, line):
    # neither the csv module's Error nor a decoder error counting from its chunk escapes
    with pytest.raises(MalformedRow) as err:
        parse_firm_records(data)
    assert err.value.line_no == line
    assert (err.value.line_no, err.value.reason) == validate_firm_csv(data)[1][-1]


def test_parse_deterministic():
    data = csv_bytes("F1,1504,30,120,5000000,0.0", "F2,5001,62,3,900000,0.5")
    assert parse_firm_records(data) == parse_firm_records(data)


# --- classification ---------------------------------------------------------

def make_record(nace2=30, employees=10, share=0.0):
    return FirmRecord("F", "1504", nace2, employees, 1000.0, share)


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
    assert classify(make_record(nace2=nace2)).tech_group == group


@pytest.mark.parametrize("nace2", [4, 40, 44, 57, 67, 83, 89])
def test_unmapped_nace_codes_raise(nace2):
    with pytest.raises(UnmappedNace) as err:
        classify(make_record(nace2=nace2))
    assert err.value.nace2 == nace2


def test_nace_map_covers_everything_else():
    mapped = default_nace_map()
    gaps = {4, 40, 44, 57, 67, 83, 89}
    for code in range(1, 100):
        assert (code in mapped) == (code not in gaps)
    assert set(mapped.values()) == set(range(1, 11))


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
    assert classify(make_record(employees=employees)).size_class == label


def test_size_bins_partition():
    labels = ClassificationConfig().size_class_labels
    assert labels == ("0", "1-4", "5-9", "10-19", "20-49", "50-99", "100-249", "250+")
    seen = [classify(make_record(employees=n)).size_class for n in range(0, 1001)]
    assert set(seen) == set(labels)


def test_custom_size_edges():
    config = ClassificationConfig(size_bin_edges=(0, 10, 100))
    assert config.size_class_labels == ("0-9", "10-99", "100+")
    assert classify(make_record(employees=9), config).size_class == "0-9"
    assert classify(make_record(employees=10), config).size_class == "10-99"


def test_ownership_cutoff_inclusive():
    assert classify(make_record(share=0.20)).ownership is Ownership.FOREIGN
    assert classify(make_record(share=0.19999999)).ownership is Ownership.DOMESTIC
    assert classify(make_record(share=1.0)).ownership is Ownership.FOREIGN
    assert classify(make_record(share=0.0)).ownership is Ownership.DOMESTIC


def test_custom_cutoff():
    config = ClassificationConfig(foreign_cutoff=0.5)
    assert classify(make_record(share=0.3), config).ownership is Ownership.DOMESTIC
    assert classify(make_record(share=0.5), config).ownership is Ownership.FOREIGN


def test_classify_all_order_preserved():
    records = [make_record(nace2=30), make_record(nace2=68)]
    firms = classify_all(records)
    assert [f.tech_group for f in firms] == [2, 7]


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
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ClassificationConfig(**kwargs)


def test_size_labels_helper():
    assert size_labels((0, 1, 5)) == ("0", "1-4", "5+")


# --- record invariants ------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"nace2": 0}, {"nace2": 100},
    {"employees": -1},
    {"turnover": -0.5},
    {"foreign_share": -0.1}, {"foreign_share": 1.1},
])
def test_firm_record_invariants(kwargs):
    base = dict(firm_id="F", municipality_code="1504", nace2=30,
                employees=1, turnover=1.0, foreign_share=0.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        FirmRecord(**base)


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


@pytest.mark.parametrize("reader", [validate_firm_csv, parse_firm_records], ids=["validate", "parse"])
@pytest.mark.parametrize("data", [
    csv_bytes("F1,1504,30,120,5000000,0.0"),
    csv_bytes("F1,1504", header="firm_id,municipality_code"),
    csv_bytes("F1,1504,3x,120,5000000,0.0"),
    csv_bytes("F1,1504,30,120,5000000,0.0") + b"F2,B\xffrum,30,1,1000,0.0\n",
    csv_bytes("F1,1504,30,120,5000000,0.0") + b'F2,"' + b"x" * (csv.field_size_limit() + 1) + b'"\n',
], ids=["read-to-end", "header-defect", "row-defect", "not-utf8", "csv-error"])
def test_readers_leave_a_callers_binary_stream_open(reader, data):
    stream = io.BytesIO(data)
    try:
        reader(stream)
    except MalformedRow:  # the strict parser's way of reporting a defect
        pass
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == data


def test_validate_respects_cutoff_config():
    # classification runs during validation, so a config error would surface here
    config = ClassificationConfig(foreign_cutoff=0.9)
    rows, issues = validate_firm_csv(csv_bytes("F1,1504,30,1,1000,0.95"), config=config)
    assert (rows, issues) == (1, [])


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


def _row_by_row(data: bytes, config: ClassificationConfig):
    """The scan's (rows, issues) and add() calls from _parse_row and categorize on every row."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    positions, width = _read_header(reader, None)
    rows, issues, calls = 0, [], []
    for row in reader:
        rows += 1
        try:
            municipality, nace2, employees, turnover, share = _parse_row(row, reader.line_num, positions, width)
            cell, foreign = config.categorize(municipality, nace2, employees, share)
        except (MalformedRow, UnmappedNace) as exc:
            issues.append((reader.line_num, exc.reason))
            continue
        calls.append((cell, foreign, turnover))
    return rows, issues, calls


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
    expected_rows, expected_issues, expected_calls = _row_by_row(data, config)
    assert (rows_seen, issues) == (expected_rows, expected_issues)
    assert repr(calls) == repr(expected_calls)  # repr tells -0.0 from 0.0


def test_compute_past_the_memo_limit_equals_adapter_route(tmp_path, capsys):
    # 5,000 distinct employee texts, more than a memo holds; the last 1,000 rows repeat the first
    lines = [HEADER] + [f"F{i},{('0301', '1504', '46')[i % 3]},{(30, 62, 68, 1, 99)[i % 5]},{i % 5000},"
                        f"{i * 7919 % 10**6},{(i % 10) / 10}" for i in range(6000)]
    path = tmp_path / "firms.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["compute", str(path)]) == 0
    out = capsys.readouterr().out
    expected = _adapter_document(path, ClassificationConfig(), "2", json.loads(out)["manifest"])
    assert out == json.dumps(expected, indent=2) + "\n"


def _parse_row_calls(monkeypatch, codes):
    """Indices of the rows, one per municipality text, that the scan sends through _parse_row."""
    calls = []

    def counted(row, *args):
        calls.append(int(row[0][1:]))
        return _parse_row(row, *args)

    monkeypatch.setattr(thsynergy.ingest, "_parse_row", counted)
    rows, issues = validate_firm_csv(csv_bytes(*(f"F{i},{code},62,5,1000,0.1" for i, code in enumerate(codes))))
    assert (rows, issues) == (len(codes), [])
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
        got = _parse_row(row, 2, tuple(range(6)), 6)
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


# --- config file ------------------------------------------------------------

def test_load_config(tmp_path):
    path = tmp_path / "override.cfg"
    path.write_text("# comment\nforeign_cutoff = 50%\nsize_bin_edges = 0,10,100\n", encoding="utf-8")
    config = load_config(str(path))
    assert config.foreign_cutoff == pytest.approx(0.5)
    assert config.size_bin_edges == (0, 10, 100)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: unknown config key 'mystery'")):
        load_config(str(path))


def test_load_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("foreign_cutoff = 10%\nforeign_cutoff = 50%\n", encoding="utf-8")
    with pytest.raises(ValueError, match="config key 'foreign_cutoff' is set twice"):
        load_config(str(path))
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
        load_config(str(path))


def test_load_config_rejects_bare_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("foreign_cutoff\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: config line not key = value")):
        load_config(str(path))


@pytest.mark.parametrize("text, message", [
    ("size_bin_edges = 0, x\n", "1: size_bin_edges: invalid literal for int() with base 10: 'x'"),
    ("# cutoff\n\nforeign_cutoff = abc\n", "3: foreign_cutoff: could not convert string to float: 'abc'"),
    ("foreign_cutoff = 0\n", "1: foreign_cutoff: foreign_cutoff must be in (0, 1]"),
    ("foreign_cutoff = 150%\n", "1: foreign_cutoff: share '150%' outside [0, 1]"),
    ("foreign_cutoff = 20%\nsize_bin_edges = 1, 5\n", "2: size_bin_edges: size_bin_edges must start at 0"),
], ids=["edge-not-int", "cutoff-not-float", "cutoff-zero", "cutoff-over-one", "edges-not-from-zero"])
def test_load_config_value_error_names_file_line_and_key(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{message}")):
        load_config(str(path))


def test_load_config_names_file_and_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"# cutoff\r\nforeign_cutoff = 0.5\xff\r\n")
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}:2: byte 0xff is not UTF-8 (invalid start byte)"
    assert type(err.value) is ValueError
