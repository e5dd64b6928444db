"""Each demo script runs to completion in a fresh interpreter and prints something,
the README's quick-start sweep writes the CSV that the README shows, and the
README's Library example runs."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thsynergy.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, encoding="utf-8", timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


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
