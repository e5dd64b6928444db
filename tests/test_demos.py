"""Each demo script runs to completion in a fresh interpreter and prints its pinned output,
the README's quick-start sweep writes the CSV that the README shows, and the
README's Library example and hand-built cube run."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import cube_from_tensors
from thsynergy.cli import main
from thsynergy.decomp import SUBSETS, decompose

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's standard output; a change to any printed figure must re-pin it here
DEMO_STDOUT_SHA256 = {
    "01_entropy_and_synergy": "efd3850b7a49bb00c6d88019ad7e0262bd7263ea4401446b53b1d9bdb8d49fc7",
    "02_ownership_decomposition": "6b826ffc1cca86546c5fdb3e9c811608f4287b276ba4fef4620d3f6e1c3ada40",
    "03_csv_to_report": "3217c4d33d7083cc39261ceea922beaeec7120932d912fbcb27f871b7746aee3",
    "04_foreign_share_sweep": "84945ebedfc97b165cab448f4616dde8e1216739be5c27f4f60abaa08d43df53",
}


def test_all_four_demos_are_found():
    assert [demo.stem for demo in DEMOS] == list(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]


def test_readme_quick_start_sweep_writes_the_readme_csv(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    command = re.search(r"^thsynergy (sweep .*) --output curve\.csv$", readme, re.M).group(1).split()
    shown = re.search(r"^```csv\n(.*?)^```$", readme, re.M | re.S).group(1)
    out = tmp_path / "curve.csv"
    assert main([*command, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == shown


def test_readme_library_example_reads_a_file_with_a_byte_order_mark(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    # firm_id moved last, so that a byte order mark left on the header would hide a required column
    demo = (ROOT / "demos" / "data" / "firms_demo.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in demo.splitlines()]
    text = "".join(",".join([*fields[1:], fields[0]]) + "\n" for fields in rows)
    (tmp_path / "firms.csv").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(code, namespace)
    assert (namespace["rows"], namespace["issues"], namespace["report"].firm_count) == (30, [], 30)


def test_readme_hand_built_cube_matches_the_dense_oracle():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"give the shape `\(None, 2, 2\)`:\n\n```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    # the same firms as dense (g, o, t) count tensors: domestic 3 at (0, 0, 0) and 2 at (1, 1, 1), foreign 1 at (0, 1, 1)
    nat, forn = np.zeros((2, 2, 2), dtype=np.int64), np.zeros((2, 2, 2), dtype=np.int64)
    nat[0, 0, 0], nat[1, 1, 1], forn[0, 1, 1] = 3, 2, 1
    cube = namespace["cube"]
    assert cube == cube_from_tensors(nat, forn)
    dec, ref = decompose(cube), oracles.split_decomposition_dense(nat, forn)
    for name in ("total", "domestic", "foreign_only", "cross", "foreign"):
        assert getattr(dec, name) == pytest.approx(ref[name], abs=1e-12)
    for dims, term in zip(SUBSETS, dec.terms):
        assert term._asdict() | {"cross": term.cross} == pytest.approx(ref["terms"][dims], abs=1e-12)
