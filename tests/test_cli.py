import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import thsynergy.synthlab
from thsynergy import DEFAULT_SIZE_BIN_EDGES
from thsynergy.cli import _manifest, _sha256, config_digest, main
from thsynergy.decomp import EntropyProfile
from thsynergy.ingest import ClassificationConfig
from thsynergy.stats import ChiSquareResult
from thsynergy.synthlab import SynthParams

HEADER = "firm_id,municipality_code,nace2,employees,turnover_nok,foreign_share"

CLEAN_ROWS = [
    "F1,1504,30,120,5000000,0.0",
    "F2,1504,62,3,900000,0.5",
    "F3,5001,68,0,100000,0.25",
    "F4,5001,30,40,2500000,0.1",
    "F5,1504,45,7,700000,0.0",
]


def write_csv(tmp_path, rows, name="firms.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return str(path)


# --- validate ---------------------------------------------------------------

def test_validate_clean(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "5 data row(s), 0 issue(s)" in out


def test_validate_reports_unmapped_nace_with_line(tmp_path, capsys):
    rows = list(CLEAN_ROWS)
    rows.insert(1, "FX,1504,40,3,100,0.0")  # line 3 in the file
    path = write_csv(tmp_path, rows)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "line 3" in out
    assert "40" in out


def test_validate_reports_malformed_rows(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS + ["FZ,1504,30,notanumber,100,0.0"])
    assert main(["validate", path]) == 1
    assert "employees" in capsys.readouterr().out


class WriteRecorder(io.StringIO):
    """A text stream that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("command, stream", [("validate", "stdout"), ("compute", "stderr")])
def test_issue_listing_is_one_write(tmp_path, monkeypatch, command, stream):
    # under PYTHONUNBUFFERED=1 each write is a system call, so the listing is written at once
    path = write_csv(tmp_path, CLEAN_ROWS + ["FX,1504,40,3,100,0.0", "FZ,1504,30,notanumber,100,0.0"])
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, stream, recorder)
    assert main([command, path]) == 1
    assert recorder.writes == ["7 data row(s), 2 issue(s)\n"
                               "  line 7: NACE code 40 has no technology group mapping\n"
                               "  line 8: employees 'notanumber' is not an integer\n"]


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.csv")]) == 3
    assert "error" in capsys.readouterr().err


# --- compute ----------------------------------------------------------------

def test_compute_stdout_report(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS)
    assert main(["compute", path]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == 2
    assert document["report"]["firms"] == {"count": 5, "foreign": 2}
    assert set(document["entropy"]) == {"h_g", "h_o", "h_t", "h_go", "h_gt", "h_ot", "h_got"}
    assert document["manifest"]["command"] == "compute"
    assert "timestamp" not in document["manifest"]
    synergy = document["report"]["synergy"]
    assert synergy["foreign"] == pytest.approx(synergy["total"] - synergy["domestic"], abs=1e-10)


def test_compute_report_file_and_sidecar(tmp_path):
    path = write_csv(tmp_path, CLEAN_ROWS)
    out = tmp_path / "report.json"
    assert main(["compute", path, "--output", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["schema_version"] == 2
    sidecar = json.loads((tmp_path / "report.json.manifest.json").read_text(encoding="utf-8"))
    assert sidecar["command"] == "compute"
    # the sidecar is the document's manifest and then the timestamp, in that key order
    assert list(sidecar.items()) == [*document["manifest"].items(), ("timestamp", sidecar["timestamp"])]


@pytest.mark.parametrize("ns", [
    0,
    1_700_000_000 * 10**9,  # whole seconds: no fraction, as isoformat() drops a zero microsecond
    1_700_000_000 * 10**9 + 999,  # under a microsecond, floored away as datetime.now floors it
    1_700_000_000 * 10**9 + 1_000,
    1_709_251_199 * 10**9 + 999_999_999,  # the last microsecond of 2024-02-29
    4_102_444_800 * 10**9 + 123_456_789,  # 2100-01-01
], ids=["epoch", "whole", "sub-microsecond", "one-microsecond", "leap-day", "year-2100"])
def test_sidecar_timestamp_is_the_text_datetime_gives(tmp_path, monkeypatch, ns):
    from datetime import datetime, timezone

    from thsynergy.cli import _write_outputs

    monkeypatch.setattr("time.time_ns", lambda: ns)
    _write_outputs(str(tmp_path / "out.json"), "{}\n", _manifest("compute", [], {}))
    sidecar = json.loads((tmp_path / "out.json.manifest.json").read_text(encoding="utf-8"))
    assert list(sidecar) == ["command", "inputs", "config_hash", "version", "timestamp"]
    stamp = sidecar["timestamp"]
    seconds, micro = divmod(ns // 1000, 10**6)
    assert stamp == datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=micro).isoformat()
    assert datetime.fromisoformat(stamp).utcoffset().total_seconds() == 0


@pytest.mark.parametrize("settings", [
    {},
    {"foreign_cutoff": 0.1, "size_bin_edges": [0, 10, 50, 250]},
    {"nace_map": {"62": 4, "10": 1}, "coupling": 0.8, "firms": 5000},
    {"kommune": "Tr\u00f8ndelag", "\u00e5r": 2016, "\u6570": [None, True, 1.5e-300]},
], ids=["empty", "classification", "nested", "non-ascii"])
def test_config_digest_is_the_sha256_of_the_canonical_settings(settings):
    canon = json.dumps(settings, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert config_digest(settings) == hashlib.sha256(canon).hexdigest()[:16]


def test_config_digest_without_the_built_in_sha256_uses_hashlib(monkeypatch):
    for name in ("_sha2", "_sha256"):  # the built-in SHA-256 of Python 3.12+ and of 3.10-3.11
        monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
    assert type(_sha256(b"")) is type(hashlib.sha256())
    settings = {"foreign_cutoff": 0.1, "size_bin_edges": [0, 10, 50, 250]}
    canon = json.dumps(settings, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert config_digest(settings) == hashlib.sha256(canon).hexdigest()[:16]


@pytest.mark.parametrize("value, keys", [
    (EntropyProfile(*range(7)), ["h_g", "h_o", "h_t", "h_go", "h_gt", "h_ot", "h_got"]),
    (ChiSquareResult(1.0, 1, 0.5), ["statistic", "dof", "p_value"]),
    (_manifest("sweep", [], {}, seed=5), ["command", "inputs", "config_hash", "version", "seed"]),
    (ClassificationConfig(), ["foreign_cutoff", "size_bin_edges"]),
    (SynthParams(), ["n_firms", "n_municipalities", "n_size_classes", "n_tech_groups", "coupling",
                     "turnover_law", "lognormal_mu", "lognormal_sigma", "seed"]),
], ids=["entropy", "chi-square", "manifest", "config", "synth"])
def test_document_facing_fields_keep_their_order(value, keys):
    # the key order of the report's entropy and chi-square blocks, of its manifest, and of the hashed settings
    assert list(value if isinstance(value, dict) else value._asdict()) == keys


def test_compute_byte_identical_reruns(tmp_path):
    path = write_csv(tmp_path, CLEAN_ROWS)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["compute", path, "--output", str(out1)]) == 0
    assert main(["compute", path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_validation_failure_aborts(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS + ["FX,1504,40,1,100,0.0"])
    out = tmp_path / "report.json"
    assert main(["compute", path, "--output", str(out)]) == 1
    assert not out.exists()
    assert "40" in capsys.readouterr().err


def test_compute_all_domestic(tmp_path, capsys):
    rows = ["F1,1504,30,5,1000,0.0", "F2,5001,62,50,2000,0.1"]
    path = write_csv(tmp_path, rows)
    assert main(["compute", path]) == 0
    document = json.loads(capsys.readouterr().out)
    ratios = document["report"]["ratios"]
    assert ratios["foreign_turnover_share"] == 0.0
    assert ratios["foreign_synergy_share"] == 0.0
    assert ratios["efficiency"] is None
    assert document["report"]["synergy"]["foreign"] == 0.0
    assert "undefined_reason" in document["chi_square_domestic_vs_foreign"]


def test_compute_chi_square_block(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS)
    assert main(["compute", path]) == 0
    block = json.loads(capsys.readouterr().out)["chi_square_domestic_vs_foreign"]
    assert set(block) == {"categories", "statistic", "dof", "p_value"}
    assert block["dof"] == len(block["categories"]) - 1


def test_compute_cutoff_flag_changes_classification(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS)
    assert main(["compute", path, "--foreign-cutoff", "60%"]) == 0
    document = json.loads(capsys.readouterr().out)
    # no firm's share reaches a 60% cutoff
    assert document["report"]["firms"]["foreign"] == 0


def test_compute_cutoff_percent_equals_fraction(tmp_path):
    path = write_csv(tmp_path, CLEAN_ROWS)
    out1 = tmp_path / "p.json"
    out2 = tmp_path / "f.json"
    assert main(["compute", path, "--foreign-cutoff", "25%", "--output", str(out1)]) == 0
    assert main(["compute", path, "--foreign-cutoff", "0.25", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_all_domestic_turnover_sums_are_floats(tmp_path, capsys):
    # an empty group sums to the float 0.0, written as 0.0, not as the integer 0
    path = write_csv(tmp_path, CLEAN_ROWS)
    assert main(["compute", path, "--foreign-cutoff", "60%"]) == 0
    out = capsys.readouterr().out
    assert '"foreign": 0.0\n' in out
    assert json.loads(out)["report"]["turnover"]["domestic"] == 9200000.0


def test_compute_negative_zero_turnover_sums_to_zero(tmp_path, capsys):
    path = write_csv(tmp_path, ["F1,1504,30,120,-0.0,0.0", "F2,1504,62,3,0,0.5"])
    assert main(["compute", path]) == 0
    turnover = json.loads(capsys.readouterr().out)["report"]["turnover"]
    assert [repr(turnover[key]) for key in ("total", "domestic", "foreign")] == ["0.0", "0.0", "0.0"]


def test_compute_bad_cutoff_is_usage_error(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS)
    assert main(["compute", path, "--foreign-cutoff", "nope"]) == 2
    assert capsys.readouterr().err == "error: --foreign-cutoff: could not convert string to float: 'nope'\n"


@pytest.mark.parametrize("command", ["compute"])
def test_cutoff_outside_the_config_range_is_usage_error(tmp_path, capsys, command):
    # a share of 0 parses, but the config built from it rejects it
    assert main([command, write_csv(tmp_path, CLEAN_ROWS), "--foreign-cutoff", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --foreign-cutoff: foreign_cutoff must be in (0, 1]\n")


@pytest.mark.parametrize("command", ["compute"])
@pytest.mark.parametrize("edges, message", [
    ("1,5", "size_bin_edges must start at 0"),
    ("0,x", "size_bin_edges must be whole numbers"),
], ids=["not-from-zero", "not-an-integer"])
def test_bad_size_bins_is_usage_error_naming_the_flag(tmp_path, capsys, command, edges, message):
    assert main([command, write_csv(tmp_path, CLEAN_ROWS), "--size-bins", edges]) == 2
    assert capsys.readouterr() == ("", f"error: --size-bins: {message}\n")


@pytest.mark.parametrize("flag, value", [("--size-bins", "0,10"), ("--foreign-cutoff", "0.5")],
                         ids=["size-bins", "foreign-cutoff"])
def test_validate_takes_no_classification_flag(tmp_path, capsys, flag, value):
    # no classification setting changes which rows are valid, so validate declares neither flag
    with pytest.raises(SystemExit) as err:
        main(["validate", write_csv(tmp_path, CLEAN_ROWS), flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_size_bins_help_and_config_share_the_default_edges(capsys, monkeypatch):
    # the package root holds the default that compute's --help prints and ClassificationConfig starts from
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main(["compute", "--help"])
    assert err.value.code == 0
    assert f"(default {','.join(map(str, DEFAULT_SIZE_BIN_EDGES))})" in capsys.readouterr().out
    assert ClassificationConfig().size_bin_edges == DEFAULT_SIZE_BIN_EDGES


def test_compute_missing_file_is_io_error(tmp_path):
    assert main(["compute", str(tmp_path / "absent.csv")]) == 3


# --- compute robustness -----------------------------------------------------

def test_compute_header_only_is_validation_failure(tmp_path, capsys):
    path = write_csv(tmp_path, [])
    out = tmp_path / "report.json"
    assert main(["compute", path, "--output", str(out)]) == 1
    assert "no data rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "NaN"])
def test_non_finite_turnover_is_rejected_on_its_line(tmp_path, capsys, value):
    rows = list(CLEAN_ROWS)
    rows.insert(1, f"FX,1504,30,5,{value},0.0")  # line 3 in the file
    path = write_csv(tmp_path, rows)
    assert main(["validate", path]) == 1
    assert "  line 3: turnover must be finite" in capsys.readouterr().out.splitlines()
    assert main(["compute", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "  line 3: turnover must be finite" in captured.err.splitlines()


def test_compute_overflowing_turnover_sum_writes_no_json(tmp_path, capsys):
    path = write_csv(tmp_path, ["F1,1504,30,5,1e308,0.0", "F2,5001,62,3,1e308,0.5"])
    out = tmp_path / "report.json"
    assert main(["compute", path, "--output", str(out)]) == 1
    assert "turnover sum is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_compute_one_cell_population_has_no_negative_zero(tmp_path, capsys):
    path = write_csv(tmp_path, ["F1,1504,30,5,100,0.0", "F2,1504,30,5,200,0.5"])
    assert main(["compute", path]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    assert set(json.loads(out)["entropy"].values()) == {0.0}


def test_utf8_bom_before_a_required_first_column(tmp_path, capsys):
    header = "municipality_code,firm_id,nace2,employees,turnover_nok,foreign_share"
    rows = ["1504,F1,30,120,5000000,0.0", "5001,F2,62,3,900000,0.5"]
    text = "\n".join([header, *rows]) + "\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["validate", str(bom)]) == 0
    assert "2 data row(s), 0 issue(s)" in capsys.readouterr().out
    assert main(["compute", str(bom)]) == 0
    with_bom = json.loads(capsys.readouterr().out)
    assert main(["compute", str(plain)]) == 0
    without_bom = json.loads(capsys.readouterr().out)
    assert with_bom["report"] == without_bom["report"]
    assert with_bom["entropy"] == without_bom["entropy"]


@pytest.mark.parametrize("value", ["", "   "])
def test_empty_municipality_is_rejected_on_its_line(tmp_path, capsys, value):
    rows = list(CLEAN_ROWS)
    rows.insert(1, f"FX,{value},30,5,100,0.0")  # line 3 in the file
    path = write_csv(tmp_path, rows)
    assert main(["validate", path]) == 1
    assert "  line 3: municipality_code is empty" in capsys.readouterr().out.splitlines()
    assert main(["compute", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "  line 3: municipality_code is empty" in captured.err.splitlines()


def test_duplicate_header_column_is_a_line_one_issue(tmp_path, capsys):
    path = tmp_path / "firms.csv"
    path.write_text(HEADER + ",nace2\n" + "\n".join(row + ",99" for row in CLEAN_ROWS) + "\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == ["0 data row(s), 1 issue(s)", "  line 1: duplicate column(s): nace2"]
    assert main(["compute", str(path)]) == 1
    assert "  line 1: duplicate column(s): nace2" in capsys.readouterr().err.splitlines()


def test_field_over_the_csv_size_limit_is_an_issue(tmp_path, capsys):
    rows = list(CLEAN_ROWS)
    rows.insert(2, 'FX,1504,30,5,100,0.0,"' + "x" * 200_000 + '"')  # line 4 in the file
    path = write_csv(tmp_path, rows)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("  line 4: field larger than field limit")
    assert main(["compute", path]) == 1
    assert "  line 4: field larger than field limit" in capsys.readouterr().err


def test_undecodable_byte_names_its_line(tmp_path, capsys):
    # far past the decoder's first chunk, so a chunk offset would not locate it
    rows = [f"F{i},1504,30,5,100,0.0" for i in range(2000)]
    path = tmp_path / "firms.csv"
    path.write_bytes(("\n".join([HEADER, *rows]) + "\n").encode("utf-8") + b"FX,15\xff04,30,5,100,0.0\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "  line 2002: byte 0xff is not UTF-8 (invalid start byte)"
    assert main(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "  line 2002: byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("bad_line, end", [
    (1002, "\n"), (1202, "\n"), (1002, "\r\n"), (1202, "\r\n"), (1002, "\r"), (1202, "\r"),
], ids=["1002", "1202", "1002-crlf", "1202-crlf", "1002-cr", "1202-cr"])
def test_undecodable_byte_leaves_earlier_rows_counted_and_checked(tmp_path, capsys, bad_line, end):
    # the defect ten lines up sits in the decoder's failing chunk, whose rows
    # a scan that stops at the decode error never sees
    rows = [f"F{i},1504,30,5,100,0.0" for i in range(bad_line - 2)]
    rows[bad_line - 12] = "FD,1504,30,-5,100,0.0"
    path = tmp_path / "firms.csv"
    path.write_bytes((end.join([HEADER, *rows]) + end).encode("utf-8") + b"FX,15\xff04,30,5,100,0.0" + end.encode())
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{bad_line - 2} data row(s), 2 issue(s)",
        f"  line {bad_line - 10}: employees must be non-negative",
        f"  line {bad_line}: byte 0xff is not UTF-8 (invalid start byte)",
    ]


def test_undecodable_byte_on_a_pipe_names_its_line(capsys):
    read_end, write_end = os.pipe()  # a stream that cannot seek back
    os.write(write_end, ("\n".join([HEADER, *CLEAN_ROWS[:1]]) + "\n").encode("utf-8") + b"FX,15\xff04,30,5,100,0.0\n")
    os.close(write_end)
    try:
        assert main(["validate", f"/dev/fd/{read_end}"]) == 1
    finally:
        os.close(read_end)
    assert capsys.readouterr().out.splitlines() == [
        "1 data row(s), 1 issue(s)", "  line 3: byte 0xff is not UTF-8 (invalid start byte)"]


def test_undecodable_byte_inside_a_quoted_record_names_its_line(tmp_path, capsys):
    # the byte is on the record's second line; the record is not counted as a row
    path = tmp_path / "firms.csv"
    path.write_bytes(("\n".join([HEADER, *CLEAN_ROWS[:1]]) + '\n"F2\n').encode("utf-8") + b'x\xff",1504,30,5,100,0.0\n')
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "1 data row(s), 1 issue(s)", "  line 4: byte 0xff is not UTF-8 (invalid start byte)"]


def test_unwritable_sidecar_leaves_no_partial_report(tmp_path, capsys):
    path = write_csv(tmp_path, CLEAN_ROWS)
    out = tmp_path / "report.json"
    out.write_text("previous report\n", encoding="utf-8")
    (tmp_path / "report.json.manifest.json").mkdir()  # the sidecar cannot be written there
    assert main(["compute", path, "--output", str(out)]) == 3
    assert "error" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["firms.csv", "report.json", "report.json.manifest.json"]


@pytest.mark.parametrize("command", ["compute", "sweep"])
def test_unplaceable_output_leaves_no_sidecar(tmp_path, capsys, command):
    # the sidecar is moved into place first; the output's move then fails on the directory
    args = [write_csv(tmp_path, CLEAN_ROWS)] if command == "compute" else ["--firms", "50", "--shares", "0,1"]
    (tmp_path / "out.txt").mkdir()
    assert main([command, *args, "--output", str(tmp_path / "out.txt")]) == 3
    assert str(tmp_path / "out.txt") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["firms.csv", "out.txt"] if command == "compute" else ["out.txt"])
    assert not any((tmp_path / "out.txt").iterdir())


@pytest.mark.parametrize("command", ["compute", "sweep"])
def test_unwritable_output_error_names_the_requested_path(tmp_path, capsys, command):
    target = tmp_path / "absent" / "out.txt"  # its directory does not exist
    args = [write_csv(tmp_path, CLEAN_ROWS)] if command == "compute" else ["--shares", "0,1"]
    assert main([command, *args, "--output", str(target)]) == 3
    err = capsys.readouterr().err
    assert str(target) in err
    assert ".tmp" not in err.replace(str(tmp_path), "")  # no temporary file, whose name changes per run


class FullStream(io.StringIO):
    """A standard output on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


DISK_FULL = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("command", ["validate", "compute", "chisq", "sweep"])
def test_unwritable_stdout_is_io_error(tmp_path, capsys, monkeypatch, command):
    args = {"validate": [write_csv(tmp_path, CLEAN_ROWS)], "compute": [write_csv(tmp_path, CLEAN_ROWS)],
            "chisq": ["10,20;20,10"], "sweep": ["--shares", "0,1", "--output", str(tmp_path / "c.csv")]}
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert main([command, *args[command]]) == 3
    assert capsys.readouterr().err == DISK_FULL


@pytest.mark.parametrize("command", ["validate", "compute", "chisq", "sweep"])
def test_closed_stdout_is_io_error(tmp_path, capsys, monkeypatch, command):
    # a process started with standard output closed (`>&-`) has sys.stdout None
    curve = tmp_path / "c.csv"
    args = {"validate": [write_csv(tmp_path, CLEAN_ROWS)], "compute": [write_csv(tmp_path, CLEAN_ROWS)],
            "chisq": ["10,20;20,10"], "sweep": ["--shares", "0,1", "--output", str(curve)]}
    monkeypatch.setattr(sys, "stdout", None)
    assert main([command, *args[command]]) == 3
    assert capsys.readouterr().err == "error: standard output is closed\n"
    assert not list(tmp_path.glob("c.csv*"))  # the sweep refused before drawing a firm


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["validate", "--help"]],
                         ids=["version", "help", "validate-help"])
def test_help_and_version_with_stdout_closed_exit_3(argv):
    # argparse would print them to stderr in place of the closed stdout and exit 0 inside parse_args
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = shlex.join([sys.executable, "-m", "thsynergy.cli", *argv]) + " >&-"
    result = subprocess.run(command, shell=True, env=env, stderr=subprocess.PIPE, encoding="utf-8")
    assert (result.returncode, result.stderr) == (3, "error: standard output is closed\n")


def test_closed_stdout_leaves_compute_output_working(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["compute", write_csv(tmp_path, CLEAN_ROWS), "--output", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["report"]["firms"]["count"] == 5
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_buffered_stdout_on_a_full_device_exits_3(tmp_path):
    # without PYTHONUNBUFFERED the write only fails when the buffer is flushed, which the
    # interpreter would otherwise do at exit and end with status 120
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": src}
    with open("/dev/full", "w", encoding="utf-8") as full:
        result = subprocess.run([sys.executable, "-m", "thsynergy.cli", "validate", write_csv(tmp_path, CLEAN_ROWS)],
                                env=env, stdout=full, stderr=subprocess.PIPE, encoding="utf-8")
    assert (result.returncode, result.stderr) == (3, DISK_FULL)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["validate", "--help"]],
                         ids=["version", "help", "validate-help"])
def test_help_and_version_on_a_full_device_exit_3(argv, unbuffered):
    # argparse drops the OSError of its own write: unbuffered that exited 0 and lost the text, and
    # buffered the interpreter's flush at exit printed "Exception ignored" and exited 120
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": src}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w", encoding="utf-8") as full:
        result = subprocess.run([sys.executable, "-m", "thsynergy.cli", *argv],
                                env=env, stdout=full, stderr=subprocess.PIPE, encoding="utf-8")
    assert (result.returncode, result.stderr) == (3, DISK_FULL)


@pytest.mark.parametrize("command, status", [(["compute", "defects"], 1), (["compute", "absent"], 3),
                                             (["chisq", "0,0;1,1"], 1)],
                         ids=["compute-defects", "compute-missing-file", "chisq-degenerate"])
def test_closed_stderr_writes_nothing(tmp_path, capsys, monkeypatch, command, status):
    # a process started with standard error closed (`2>&-`) has sys.stderr None; print(file=None)
    # would write the error to stdout
    files = {"defects": write_csv(tmp_path, ["FZ,1504,30,notanumber,100,0.0"]), "absent": str(tmp_path / "absent.csv")}
    monkeypatch.setattr(sys, "stderr", None)
    assert main([files.get(arg, arg) for arg in command]) == status
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, status", [(["compute", "absent"], 3), (["validate", "absent"], 3),
                                             (["compute", "defects"], 3), (["chisq", "0,0;0,0"], 1)],
                         ids=["compute-missing-file", "validate-missing-file", "compute-defects", "chisq-degenerate"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, capsys, monkeypatch, command, status):
    # `2>/dev/full`: _error drops the OSError of its own write, so main returns the code it maps the
    # failure to; compute's defect listing that cannot be written is an I/O error like any other
    files = {"defects": write_csv(tmp_path, ["FZ,1504,30,notanumber,100,0.0"]), "absent": str(tmp_path / "absent.csv")}
    monkeypatch.setattr(sys, "stderr", FullStream())
    assert main([files.get(arg, arg) for arg in command]) == status
    assert capsys.readouterr().out == ""


# --- the console script -------------------------------------------------------

# what an installed `thsynergy` runs, between an atexit callback and a line that must never run
ENTRY_CODE = """\
import atexit
def mark(text):
    with open("marks.txt", "a", encoding="utf-8") as fh:
        fh.write(text)
atexit.register(mark, "atexit\\n")
from thsynergy.cli import entry
entry()
mark("after entry\\n")
"""
# a listing of about 190 kB, more than a pipe holds, so the child's write waits on the reader
DEFECT_ROWS = [f"F{i},1504,30,x{i},100,0.0" for i in range(4000)]


@pytest.mark.parametrize("argv, redirect, status", [
    (["--version"], "", 0),
    (["--help"], "", 0),
    (["validate", "clean"], "", 0),
    (["validate", "defects"], "", 1),
    (["validate", "clean", "--frobnicate"], "", 2),
    pytest.param(["validate", "clean"], "> /dev/full", 3,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")),
    (["--version"], ">&-", 3),
], ids=["version", "help", "validate-clean", "validate-defects", "unknown-flag", "full-device", "closed-stdout"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_console_script_ends_as_main_returns(tmp_path, capsys, monkeypatch, argv, redirect, status, unbuffered):
    # entry() runs the atexit callbacks once, flushes and ends the process without teardown: its
    # exit status, stdout and stderr are those of main run in-process
    files = {"clean": write_csv(tmp_path, CLEAN_ROWS), "defects": write_csv(tmp_path, DEFECT_ROWS, "defects.csv")}
    argv = [files.get(arg, arg) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = f"{shlex.join([sys.executable, '-c', ENTRY_CODE, *argv])} {redirect}"
    result = subprocess.run(command, shell=True, cwd=tmp_path, env=env, capture_output=True)
    assert (tmp_path / "marks.txt").read_text(encoding="utf-8") == "atexit\n"

    monkeypatch.setattr(sys, "stdout", {"": sys.stdout, "> /dev/full": FullStream(), ">&-": None}[redirect])
    try:
        returned = main(argv)
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        returned = exc.code
    captured = capsys.readouterr()
    assert returned == status
    assert (result.returncode, result.stdout, result.stderr) == (status, captured.out.encode(), captured.err.encode())


# --- start-up -----------------------------------------------------------------

DEMO_CSV = Path(__file__).resolve().parents[1] / "demos" / "data" / "firms_demo.csv"


def run_python(tmp_path, code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, encoding="utf-8")
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize("code", [
    f"from thsynergy.cli import main; main(['validate', {str(DEMO_CSV)!r}]); "
    f"main(['compute', {str(DEMO_CSV)!r}, '--output', 'report.json'])",
    "import thsynergy",
], ids=["validate-and-compute", "import"])
def test_only_sweep_and_generate_load_numpy(tmp_path, code):
    run_python(tmp_path, f"{code}\nimport sys; assert 'numpy' not in sys.modules")


@pytest.mark.skipif(sys.platform != "linux", reason="reads the thread count from /proc/self/status")
def test_entry_starts_sweep_with_one_blas_thread_unless_set(tmp_path):
    # numpy's OpenBLAS starts a worker pool when it loads; no command does linear algebra
    # entry() ends the process itself, so the child reads both from an atexit callback
    code = ("import atexit, os\n"
            "def report():\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "    with open('/proc/self/status', encoding='utf-8') as fh:\n"
            "        print(*next(line.split() for line in fh if line.startswith('Threads:')))\n"
            "atexit.register(report)\n"
            "from thsynergy.cli import entry\nentry()\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    # buffered, so the callback's lines reach the pipe only through entry()'s flush
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for value in (None, "2"):
        out = tmp_path / f"{value}.csv"
        argv = ["sweep", "--firms", "200", "--shares", "0,0.5,1", "--output", str(out)]
        child_env = env if value is None else env | {"OPENBLAS_NUM_THREADS": value}
        result = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=child_env,
                                capture_output=True, encoding="utf-8")
        assert result.returncode == 0, result.stderr
        runs[value] = result.stdout.splitlines()[-2:], out.read_bytes()  # after the sweep's own line
    assert runs[None][0] == ["1", "Threads: 1"]
    assert runs["2"][0][0] == "2"  # the user's value is kept
    assert runs[None][1] == runs["2"][1]  # and the curve does not depend on it


def test_main_leaves_the_environment_as_it_found_it(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["sweep", "--firms", "200", "--shares", "0,1", "--output", str(tmp_path / "c.csv")]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


# the serializers, OpenSSL's hashlib, and dataclasses with the inspect it loads; compute hashes its
# config with the built-in SHA-256, and the package's record types are NamedTuples
WATCHED = ("_hashlib", "dataclasses", "datetime", "hashlib", "inspect", "json")


# a command line, or the Python code of a library import
@pytest.mark.parametrize("argv, modules, stdlib", [
    ("import thsynergy", [], []),
    ("from thsynergy import chi_square_homogeneity", ["stats"], []),
    ("from thsynergy import ownership_tech_table", ["decomp"], []),
    ("import thsynergy.decomp", ["decomp"], []),
    (["--version"], ["cli"], []),
    (["--help"], ["cli"], []),
    (["validate", str(DEMO_CSV), "--frobnicate"], ["cli"], []),
    (["validate", str(DEMO_CSV)], ["cli", "ingest"], []),
    (["chisq", "10,20;20,10"], ["cli", "stats"], []),
    (["compute", str(DEMO_CSV), "--output", "report.json"],
     ["cli", "decomp", "ingest", "stats"], ["json"]),
    (["sweep", "--shares", "0,1", "--output", "curve.csv"],  # numpy loads inspect; numpy.random secrets, hmac, _hashlib
     ["cli", "decomp", "synthlab"], ["_hashlib", "datetime", "hashlib", "inspect", "json"]),
], ids=["import", "import-stats-export", "import-decomp-export", "import-decomp",
        "version", "help", "unknown-flag", "validate", "chisq", "compute", "sweep"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules, stdlib):
    call = argv if isinstance(argv, str) else (
        f"from thsynergy.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass")
    result = run_python(tmp_path, f"{call}\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)")
    loaded = result.stderr.splitlines()[-1].split()
    assert [m for m in loaded if m.startswith("thsynergy")] == ["thsynergy", *(f"thsynergy.{m}" for m in modules)]
    assert [m for m in WATCHED if m in loaded] == list(stdlib)


# --- sweep ------------------------------------------------------------------

def test_sweep_writes_curve_and_sidecar(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["sweep", "--firms", "80", "--coupling", "0.8", "--seed", "5",
                 "--shares", "0,0.5,1", "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "share,r_ratio,t_ratio"
    assert len(lines) == 4
    sidecar = json.loads((tmp_path / "curve.csv.manifest.json").read_text(encoding="utf-8"))
    assert list(sidecar) == ["command", "inputs", "config_hash", "version", "seed", "timestamp"]
    assert sidecar["command"] == "sweep"
    assert sidecar["seed"] == 5
    assert capsys.readouterr().out == f"3 point(s) written to {out}\n"


def test_sweep_byte_identical_reruns(tmp_path):
    args = ["sweep", "--firms", "80", "--seed", "7", "--shares", "0,0.25,0.5,1"]
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_non_monotone_shares_usage_error(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["sweep", "--shares", "0.3,0.2,0.5", "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "increasing" in capsys.readouterr().err


def test_sweep_share_out_of_range_usage_error(tmp_path):
    assert main(["sweep", "--shares", "0,1.5", "--output", str(tmp_path / "c.csv")]) == 2


def test_sweep_negative_zero_share_is_zero(tmp_path):
    runs = []
    for shares in ("-0.0,1", "0,1"):
        out = tmp_path / f"{shares}.csv"
        assert main(["sweep", "--firms", "50", f"--shares={shares}", "--output", str(out)]) == 0
        sidecar = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        runs.append((out.read_bytes(), sidecar["config_hash"]))
    assert runs[0] == runs[1]


def test_sweep_unparseable_shares_usage_error(tmp_path):
    assert main(["sweep", "--shares", "0,abc", "--output", str(tmp_path / "c.csv")]) == 2


def test_sweep_bad_params_usage_error(tmp_path):
    assert main(["sweep", "--firms", "0", "--shares", "0,1",
                 "--output", str(tmp_path / "c.csv")]) == 2


@pytest.mark.parametrize("flags", [("--mu", "nan"), ("--mu=-inf",), ("--sigma", "inf"), ("--sigma", "-1")])
def test_sweep_non_finite_or_negative_turnover_parameters_usage_error(tmp_path, flags):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--turnover-law", "lognormal", *flags, "--shares", "0,1", "--output", str(out)]) == 2
    assert not out.exists()


def test_sweep_overflowing_turnover_sum_writes_no_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--turnover-law", "lognormal", "--mu", "800", "--shares", "0,0.5,1",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: turnover sum is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ("--mu", "800", "--shares", "0.5,1"),  # inf draws, and a first share above 0
    ("--mu", "708", "--sigma", "0.1", "--firms", "50", "--shares", "0,0.5,1"),  # finite draws whose sum overflows
    # each group's sum is finite at every point, and their total overflows
    ("--mu", "708", "--sigma", "0", "--firms", "10", "--shares", "0.5,1"),
], ids=["infinite-from-half", "finite-overflowing", "finite-groups-overflowing-total"])
def test_sweep_turnover_sum_not_finite_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--turnover-law", "lognormal", *flags, "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: turnover sum is not finite\n"
    assert not out.exists()


def test_sweep_zero_turnover_sum_writes_no_csv(tmp_path, capsys):
    # every lognormal draw underflows to 0.0, so no foreign turnover share exists
    out = tmp_path / "c.csv"
    assert main(["sweep", "--turnover-law", "lognormal", "--mu", "-800", "--shares", "0,0.5,1",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: turnover sum is not positive\n"
    assert not out.exists()


def test_sweep_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted(params, shares):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (400000000,) and data type int64")

    monkeypatch.setattr(thsynergy.synthlab, "sweep_foreign_share", exhausted)
    out = tmp_path / "c.csv"
    assert main(["sweep", "--shares", "0,1", "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 2.98 GiB for an array with shape "
                                       "(400000000,) and data type int64\n")
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
def test_sweep_past_the_address_space_limit_exits_1(tmp_path):
    # RLIMIT_AS is set in the child only; its first array, 400M int64 indices, cannot be allocated
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = str(Path(__file__).resolve().parents[1] / "src")
    # no inherited OPENBLAS_NUM_THREADS: the child runs on entry()'s own default of one BLAS thread
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | {"PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-m", "thsynergy.cli", "sweep", "--firms", "400000000",
                             "--shares", "0,1", "--output", str(tmp_path / "c.csv")],
                            env=env, preexec_fn=limit, capture_output=True, encoding="utf-8")
    assert result.returncode == 1
    assert result.stderr.startswith("error: out of memory") and result.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, field", [("--municipalities", "n_municipalities"),
                                         ("--size-classes", "n_size_classes"), ("--tech-groups", "n_tech_groups")])
def test_sweep_category_count_past_int64_is_usage_error(tmp_path, capsys, flag, field):
    out = tmp_path / "c.csv"
    assert main(["sweep", flag, str(2**63), "--shares", "0,1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field} must be at most {2**63 - 1}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be non-negative"),
    (["--firms", str(10**20)], f"n_firms must be at most {2**63 - 1}"),
])
def test_sweep_setting_out_of_range_is_usage_error_naming_it(tmp_path, capsys, flags, message):
    out = tmp_path / "c.csv"
    assert main(["sweep", *flags, "--shares", "0,1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# --- chisq ------------------------------------------------------------------

def test_chisq_worked_example(capsys):
    assert main(["chisq", "10,20;20,10"]) == 0
    out = capsys.readouterr().out
    assert "statistic=6.66667" in out
    assert "dof=1" in out
    assert "p_value=0.00982327" in out


def test_chisq_uniform(capsys):
    assert main(["chisq", "5,5;5,5"]) == 0
    out = capsys.readouterr().out
    assert "statistic=0" in out
    assert "p_value=1" in out


def test_chisq_degenerate_is_validation_failure(capsys):
    assert main(["chisq", "1,2"]) == 1
    assert main(["chisq", "0,0;1,2"]) == 1


def test_chisq_unparseable_is_usage_error(capsys):
    assert main(["chisq", "a,b;c,d"]) == 2


def test_chisq_table_starting_with_minus_reaches_the_checks(capsys):
    assert main(["chisq", "-1,2;3,4"]) == 1
    assert capsys.readouterr().err == "error: counts must be non-negative\n"
    assert main(["chisq", "--", "-1,2;3,4"]) == 1
    with pytest.raises(SystemExit) as err:
        main(["chisq", "-h"])
    assert err.value.code == 0


def test_chisq_large_finite_statistic(capsys):
    # row total * column total overflows; the statistic, about 2e300, does not
    assert main(["chisq", "1e300,1;1,1e300"]) == 0
    assert capsys.readouterr().out == "statistic=2e+300 dof=1 p_value=0\n"


@pytest.mark.parametrize("table, message", [
    ("nan,1;2,3", "counts must be finite"),
    ("inf,1;2,3", "counts must be finite"),
    ("1e308,1e308;1e308,1e308", "total of row 0 and row 1 overflows"),
    ("0,1;1e-320,0", "expected count in column 0 underflows to zero"),
    # an overflowing total is named before any expected count is taken
    ("1e308,1e308;1e308,1", "total of row 0 overflows"),
    ("1e308,1;1e308,1e308", "total of row 1 overflows"),
    ("1.7e308,0;0,1.7e308", "grand total overflows"),  # each row total is finite
])
def test_chisq_non_finite_is_validation_failure(capsys, table, message):
    assert main(["chisq", table]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# --- parser behavior --------------------------------------------------------

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_compute_log_base_flag_is_usage_error(tmp_path, capsys):
    # information is always in bits
    with pytest.raises(SystemExit) as err:
        main(["compute", write_csv(tmp_path, CLEAN_ROWS), "--log-base", "e"])
    assert err.value.code == 2
    assert "unrecognized arguments: --log-base e" in capsys.readouterr().err


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--shares", "0,1"])  # no --output
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "thsynergy" in capsys.readouterr().out
