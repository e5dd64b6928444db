#!/usr/bin/env python3
"""Benchmark of the thsynergy command line: four workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload compute_register --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Set-up (not timed) writes the workload's seeded input to `.bench_work/` and
computes what a correct program must report about it.

`--trace 0` measures the end-to-end metrics. It launches the CLI from
`src/` as a child process, one invocation at a time (a closed loop with one
client), until `--seconds` have passed and at least five invocations have
finished. A bare launcher process reaps each child with `os.wait4`, so its
CPU time and peak RSS are its own. A fixed probe is timed before and after
every invocation, and `wall_ref` and `cpu_ref` are the invocation's times in
units of the adjacent probes; see `PROBE`. Each invocation is preceded by
a `thsynergy --version`, whose time gives `setup_s` the same way, scaled to
seconds on a machine where the probe takes `NOMINAL_PROBE_S`. Every output
is checked.

`--trace 1` measures the per-layer metrics. It runs the same command
in-process once untraced and once with the wrappers from `tracer.py`, checks
both outputs, and writes the spans to `.bench_out/`.

`--smoke` runs every workload at a tiny size in both modes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units come
from `BENCHMARK.json`. The exit code is 1 when any check failed and 2 when
the benchmark cannot run at all (for example, no `src/thsynergy`).
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# stdlib-only modules: numpy stays out of this process (see prepare.py)
from checks import check_compute, check_sweep, check_validate, sha256  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

ENTRY = "from thsynergy.cli import entry; entry()"  # what the installed console script runs
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import thsynergy.cli; "
    "print(time.perf_counter() - t)"
)
SHARES = [i / 10 for i in range(11)]
MIN_INVOCATIONS = 5
# Fixed work timed in a fresh interpreter before and after every invocation: a
# probe of the machine's current speed. On a host whose cores are shared, CPU
# speed drifts by tens of percent over seconds to minutes. The probe pays what
# an invocation pays (process start, the numpy import, CSV parsing, tuple and
# dict churn) but runs no program code, so dividing by it cancels much of the
# drift.
PROBE = """\
import csv
import numpy
counts = {}
lines = (f"F{i:07d},{i % 356:04d},{i % 92 + 1:02d},{i % 97},{i * 7919 % 10**7},0.{i % 1000:03d}"
         for i in range(40_000))
for row in csv.reader(lines):
    key = (int(row[2]), int(row[3]) // 10)
    counts[key] = counts.get(key, 0) + float(row[4])
cells = [(f"m{i % 2800}", i % 8, i % 10, float(i)) for i in range(20_000)]
for cell in cells * 4:
    counts[cell[:3]] = counts.get(cell[:3], 0) + 1
"""
# setup_s is start-up time on a machine where the probe takes this long
NOMINAL_PROBE_S = 0.4
IMPORT_SAMPLES = 3
# printed for reading but not in the result line: raw times are too unsteady on
# a shared host to gate on, and failures are the result's own fields
INFO_UNITS = {"wall_s": "s", "firms_per_s": "firms/s", "cpu_s": "s", "setup_raw_s": "s",
              "probe_s": "s", "invocations": "count", "failed_ratio": "fraction"}
BUDGET_S = 170.0  # the whole run must end within 180 s


@dataclass(frozen=True)
class Workload:
    command: str
    dataset: str | None  # generator kind; None for the synthetic sweep
    firms: int
    smoke_firms: int


WORKLOADS = {
    "compute_register": Workload("compute", "register", 25_000, 2_000),
    "compute_wide": Workload("compute", "wide", 25_000, 2_000),
    "sweep_shares": Workload("sweep", None, 12_000, 1_000),
    "validate_dirty": Workload("validate", "dirty", 25_000, 2_000),
}


class Case:
    """One workload's generated input, command line and output check.

    The CLI runs with the work directory as its current directory and gets
    relative paths, so report bytes do not depend on where the checkout is.
    """

    def __init__(self, name: str, seed: int, work: Path, smoke: bool):
        self.name = name
        self.seed = seed
        self.work = work
        self.spec = WORKLOADS[name]
        self.firms = self.spec.smoke_firms if smoke else self.spec.firms
        self.expect: dict = {}
        if self.spec.dataset is not None:
            subprocess.run([sys.executable, str(HERE / "prepare.py"), self.spec.dataset,
                            str(seed), str(self.firms), str(work)], check=True, timeout=120)
            with open(work / "expect.json", encoding="utf-8") as fh:
                self.expect = json.load(fh)
        self.stdout = work / "stdout.txt"
        self.output = "report.json" if self.spec.command == "compute" else "sweep.csv"

    @property
    def firms_processed(self) -> int:
        return self.firms * (len(SHARES) if self.spec.command == "sweep" else 1)

    def argv(self) -> list[str]:
        if self.spec.command == "compute":
            return ["compute", "input.csv", "--output", self.output]
        if self.spec.command == "validate":
            return ["validate", "input.csv"]
        return ["sweep", "--firms", str(self.firms), "--municipalities", "356",
                "--shares", ",".join(map(repr, SHARES)), "--seed", str(self.seed),
                "--output", self.output]

    def describe(self) -> dict:
        out = {"workload": self.name, "seed": self.seed, "firms": self.firms}
        if self.expect:
            out.update(self.expect["facts"])
        if self.expect.get("report"):
            out["occupied_cells"] = self.expect["report"]["occupied_cells"]
        return out

    def clear(self) -> None:
        for name in (self.stdout.name, self.output, self.output + ".manifest.json"):
            with contextlib.suppress(FileNotFoundError):
                (self.work / name).unlink()

    def check(self, exit_code: int) -> tuple[list[str], str | None]:
        """Problems with the last invocation's output, and the output's sha256."""
        if self.spec.command == "validate":
            return check_validate(str(self.stdout), exit_code, self.expect), sha256(self.stdout)
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"], None
        output = str(self.work / self.output)
        if self.spec.command == "compute":
            problems = check_compute(output, self.expect)
        else:
            problems = check_sweep(output, SHARES)
        return problems, sha256(output)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


# Spawns one command, reaps it with os.wait4 and writes (exit code, wall s,
# CPU s, max RSS KB) to a file. On Linux a child's max RSS starts from the
# resident peak of the process that spawned it, so children are spawned from
# this bare interpreter rather than from the benchmark process.
LAUNCHER = """\
import os, sys, time
out, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(out, "w") as fh:
    fh.write(repr((os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)))
"""


def run_child(code: str, args: list[str], stdout: Path, cwd: Path, timeout: float) -> Child:
    """Run `python3 -c code args...` and account for that child alone.

    The child and its launcher form their own process group, which is
    killed as a whole when `timeout` runs out.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = cwd / "child.txt"
    result.unlink(missing_ok=True)
    with open(stdout, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER, str(result), sys.executable, "-c", code, *args],
            stdout=out, stderr=err, env=env, cwd=cwd, start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 0.0))
        except BaseException:  # the timeout, or an interrupt: stop the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
                raise
    try:
        exit_code, wall, cpu, rss_kb = ast.literal_eval(result.read_text(encoding="utf-8"))
    except (FileNotFoundError, SyntaxError, ValueError):
        return Child(-signal.SIGKILL, timeout, 0.0, 0.0)
    return Child(exit_code, wall, cpu, rss_kb / 1024.0)


class Tally:
    """Invocations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, None] = {}

    def record(self, label: str, problems: list[str], digest: str | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])
        if digest is not None:
            self.digests[digest] = None


def _stderr_tail(work: Path) -> list[str]:
    text = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return [f"stderr: {text.splitlines()[-1]}"] if text else []


def run_version(work: Path, tally: Tally, deadline: float) -> Child:
    """One `thsynergy --version` invocation: interpreter, package import and parser."""
    out = work / "version.txt"
    child = run_child(ENTRY, ["--version"], out, work, deadline - perf_counter())
    text = out.read_text(encoding="utf-8")
    ok = child.exit_code == 0 and text.startswith("thsynergy ")
    tally.record("--version", [] if ok else [f"exit {child.exit_code}, output {text[:40]!r}"])
    return child


def run_probe(work: Path, tally: Tally, deadline: float) -> float:
    child = run_child(PROBE, [], work / "probe.txt", work, deadline - perf_counter())
    tally.record("probe", [] if child.exit_code == 0 else [f"probe exit {child.exit_code}"])
    return child.wall_s


def end_to_end(case: Case, seconds: float, min_invocations: int, tally: Tally,
               deadline: float) -> dict[str, float]:
    """Closed loop of `--version` plus workload invocations, each pair between two probes."""
    run_version(case.work, tally, deadline)  # warm-up: fills the bytecode caches
    versions: list[Child] = []
    children: list[Child] = []
    probes = [run_probe(case.work, tally, deadline)]
    start = perf_counter()
    while len(children) < min_invocations or perf_counter() - start < seconds:
        if children and deadline - perf_counter() < 1.5 * max(c.wall_s for c in children):
            break
        versions.append(run_version(case.work, tally, deadline))
        case.clear()
        child = run_child(ENTRY, case.argv(), case.stdout, case.work, deadline - perf_counter())
        problems, digest = case.check(child.exit_code)
        if problems:
            problems += _stderr_tail(case.work)
        tally.record(f"invocation {len(children) + 1}", problems, digest)
        children.append(child)
        probes.append(run_probe(case.work, tally, deadline))
    speed = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    wall = statistics.median(c.wall_s for c in children)
    return {
        "wall_s": wall,
        "wall_ref": statistics.median(c.wall_s / p for c, p in zip(children, speed)),
        "firms_per_s": case.firms_processed / wall,
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "cpu_ref": statistics.median(c.cpu_s / p for c, p in zip(children, speed)),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        "setup_s": NOMINAL_PROBE_S * statistics.median(v.wall_s / p for v, p in zip(versions, speed)),
        "setup_raw_s": statistics.median(v.wall_s for v in versions),
        "probe_s": statistics.median(probes),
        "invocations": len(children),
    }


def _in_process(case: Case, main, tally: Tally, label: str, tracer: Tracer | None = None) -> float:
    case.clear()
    gc.collect()
    cwd = os.getcwd()
    os.chdir(case.work)
    try:
        with open(case.stdout, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            start = perf_counter()
            try:
                with tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext():
                    exit_code = main(case.argv())
            except SystemExit as exc:  # how argparse rejects arguments
                exit_code = exc.code if isinstance(exc.code, int) else 1
            wall = perf_counter() - start
    except Exception as exc:  # a crash of the program under test fails this call only
        tally.record(label, [f"raised {exc!r}"])
        return 0.0
    finally:
        os.chdir(cwd)
    tally.record(label, *case.check(exit_code))
    return wall


def per_layer(case: Case, import_samples: int, tally: Tally, deadline: float) -> dict[str, float]:
    imports = []
    out = case.work / "import.txt"
    for _ in range(import_samples):
        child = run_child(IMPORT_PROBE, [], out, case.work, deadline - perf_counter())
        try:
            imports.append(float(out.read_text(encoding="utf-8")))
            tally.record("import", [] if child.exit_code == 0 else [f"exit {child.exit_code}"])
        except ValueError:
            tally.record("import", [f"exit {child.exit_code}, no timing printed"] + _stderr_tail(case.work))

    sys.path.insert(0, str(SRC))
    import thsynergy.cli  # the checkout's package, imported only once set-up is done
    if not Path(thsynergy.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"thsynergy imported from {thsynergy.cli.__file__}, not {SRC}")

    untraced = _in_process(case, thsynergy.cli.main, tally, "untraced")
    tracer = Tracer(run_id=f"{case.name}-{case.seed}")
    tracer.install()
    try:
        _in_process(case, thsynergy.cli.main, tally, "traced", tracer)
    finally:
        tracer.uninstall()

    trace_dir = ROOT / ".bench_out"
    trace_dir.mkdir(exist_ok=True)
    with open(trace_dir / f"trace-{case.name}-seed{case.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": tracer.spans,
                   "counts": dict(tracer.counts), "facts": tracer.facts}, fh)
    return layer_metrics(tracer, untraced, statistics.median(imports) if imports else 0.0)


def load_metric_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = perf_counter() + BUDGET_S
    units = load_metric_units(trace)
    work = ROOT / ".bench_work" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        case = Case(name, seed, work, smoke)
        print("input: " + json.dumps(case.describe()))
        if trace:
            values = per_layer(case, 1 if smoke else IMPORT_SAMPLES, tally, deadline)
        else:
            values = end_to_end(case, seconds, 1 if smoke else MIN_INVOCATIONS, tally, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    for digest in tally.digests:
        print(f"output sha256 {digest}")
    print(f"{name} seed {seed}: {tally.attempted} attempted, {tally.failed} failed")
    values.setdefault("failed_ratio", tally.failed / max(tally.attempted, 1))
    for metric, value in values.items():
        print(f"  {metric:28s} {value:.6g} {units.get(metric) or INFO_UNITS.get(metric, '')}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, traced and untraced")
    args = parser.parse_args(argv)
    # a terminated run unwinds like an interrupt, so run_child stops its process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "thsynergy" / "cli.py").is_file():
        print(f"error: no thsynergy sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error("give --workload or --smoke")
    ok = True
    for name, trace in runs:
        result = run_one(name, args.seed, 0.0 if args.smoke else args.seconds, trace, args.smoke)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
