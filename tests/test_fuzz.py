"""Byte-level fuzzing of the CLI: every input gives a report or an exit code.

main() runs as `validate` and as `compute --output` on arbitrary bytes and
on a valid header followed by junk rows, and as `chisq` on arbitrary table
text. No exception may escape, the exit code must be one of the documented
ones, any report written must be strict JSON and no statistic printed may
be `nan` or `inf`. The scan's rows and issues on the same inputs do not
depend on the classification settings, which is why `validate` takes none.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from thsynergy.cli import main
from thsynergy.ingest import CANONICAL_COLUMNS, ClassificationConfig, validate_firm_csv

HEADER = ",".join(CANONICAL_COLUMNS).encode("utf-8") + b"\n"

junk_field = st.one_of(
    st.sampled_from([b"", b" ", b"30", b"4", b"0", b"-1", b"1e400", b"nan", b"0.2", b"20%", b"1504", b'"', b"\xff"]),
    st.binary(max_size=8),
)
# rows in header order, mostly valid, so that some runs write a report
near_rows = st.tuples(
    st.sampled_from([b"F1", b""]),
    st.sampled_from([b"1504", b"5001", b"", b" x "]),
    st.sampled_from([b"30", b"62", b"40", b"4"]),
    st.sampled_from([b"0", b"4", b"250", b"-1"]),
    st.sampled_from([b"100", b"0", b"1e308", b"nan"]),
    st.sampled_from([b"0.2", b"0", b"1", b"2"]),
).map(b",".join)
junk_rows = st.lists(st.one_of(near_rows, st.lists(junk_field, max_size=8).map(b",".join)),
                     max_size=12).map(b"\n".join)
inputs = st.one_of(st.binary(max_size=300), junk_rows.map(lambda body: HEADER + body))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None)
@given(data=inputs)
def test_cli_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        report = Path(tmp) / "report.json"
        for argv in (["validate", str(path)], ["compute", str(path), "--output", str(report)]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3)
        if report.exists():
            json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            json.loads(Path(str(report) + ".manifest.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)


@settings(max_examples=200, deadline=None)
@given(data=inputs)
def test_scan_result_does_not_depend_on_the_classification(data):
    # the cutoff only splits accepted firms and any employee count has a size class, so no setting
    # changes which rows are valid; should one start to, validate must take that setting again
    results = [validate_firm_csv(io.BytesIO(data), config)
               for config in (ClassificationConfig(), ClassificationConfig(1.0, (0,)),
                              ClassificationConfig(0.05, (0, 3, 1000)))]
    assert results[1] == results[0] and results[2] == results[0]


counts_text = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "1", "1e308", "1e-320", "-0.0", "nan", "inf", ""]),
)
# mostly two rows of equal length, the shape that reaches the statistic
tables = st.one_of(
    st.text(max_size=40),
    st.integers(2, 4).flatmap(lambda k: st.lists(
        st.lists(counts_text, min_size=k, max_size=k).map(",".join), min_size=2, max_size=2).map(";".join)),
)


@settings(max_examples=300, deadline=None)
@given(table=tables)
def test_chisq_on_arbitrary_table_text(table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["chisq", "--", table])
    assert code in (0, 1, 2)
    assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
