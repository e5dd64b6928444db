"""Tests of the benchmark itself: the smoke mode, the output checks and the tracer.

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import check_compute, check_validate  # noqa: E402
from gen import generate  # noqa: E402
from reference import expected_report  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_runs_every_workload_in_both_modes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(SPEC["workloads"])
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for i, result in enumerate(results):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == (layer if i % 2 else e2e)
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    import run
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _report_file(tmp_path, expected, facts, **synergy_overrides):
    synergy = dict(expected["synergy"], **synergy_overrides)
    synergy["foreign"] = synergy["foreign_only"] + synergy["cross"]
    document = {
        "report": {
            "firms": expected["firms"],
            "synergy": synergy,
            "turnover": {key: float(facts[f"turnover_{key}"]) for key in ("total", "domestic", "foreign")},
        },
        "entropy": expected["entropy"],
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_compute_check_accepts_reference_and_rejects_drift(tmp_path):
    data = generate("register", 3, 500, str(tmp_path / "in.csv"))
    expect = {"facts": data.facts(), "report": expected_report(data)}
    assert check_compute(_report_file(tmp_path, expect["report"], expect["facts"]), expect) == []
    drifted = expect["report"]["synergy"]["cross"] + 1e-6
    assert check_compute(_report_file(tmp_path, expect["report"], expect["facts"], cross=drifted), expect)
    path = tmp_path / "nan.json"
    path.write_text('{"report": {"firms": NaN}}', encoding="utf-8")
    assert check_compute(str(path), expect)


def test_validate_check_needs_exactly_the_injected_lines(tmp_path):
    data = generate("dirty", 3, 400, str(tmp_path / "in.csv"))
    expect = {"facts": data.facts(), "defects": {str(k): v for k, v in data.defects.items()}}
    messages = {
        "unmapped_nace": "NACE code 04 has no technology group mapping",
        "employees_not_integer": "employees 'n/a' is not an integer",
        "share_out_of_range": "foreign_share must be a fraction in [0, 1]",
        "short_row": "expected at least 6 fields, got 3",
    }
    lines = [f"400 data row(s), {len(data.defects)} issue(s)"]
    lines += [f"  line {line}: {messages[kind]}" for line, kind in sorted(data.defects.items())]
    out = tmp_path / "out.txt"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert check_validate(str(out), 1, expect) == []
    assert check_validate(str(out), 0, expect)
    out.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert check_validate(str(out), 1, expect)


def test_self_time_subtracts_children_and_missing_names_are_skipped():
    spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["decomp.report", 1.0, 9.0, 0, 0],
        ["decomp.decompose", 2.0, 6.0, 1, 0],
        ["cube.marginalize", 3.0, 4.0, 2, 0],
    ]
    assert self_times(spans) == [2.0, 4.0, 3.0, 1.0]
    tracer = Tracer()
    tracer._patch("thsynergy.cli", "no_such_function", lambda fn: fn)
    assert tracer._patched == []
    tracer.spans = spans
    tracer.counts.update({"decomp.decompose": 1, "cube.marginalize": 1})
    metrics = layer_metrics(tracer, untraced_s=9.5, import_s=0.1)
    assert metrics["decomp.decompose_self_s"] == 3.0
    assert metrics["cli.self_s"] == 2.0
    assert metrics["trace.coverage"] == 0.8
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["ingest.scans_per_run"] == 0
