"""Output checks for each workload. Each returns a list of problems; empty means correct."""
from __future__ import annotations

import csv
import hashlib
import json
import re

SYNERGY_TOL = 1e-9     # bits, against the numpy reference
IDENTITY_TOL = 1e-12   # total == domestic + foreign_only + cross
SYNERGY_TERMS = ("total", "domestic", "foreign_only", "cross")

# a substring of the message validate prints for each injected defect kind
DEFECT_MESSAGES = {
    "unmapped_nace": "has no technology group mapping",
    "employees_not_integer": "is not an integer",
    "share_out_of_range": "foreign_share must be a fraction",
    "short_row": "expected at least",
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check_compute(path: str, expect: dict) -> list[str]:
    """Compare a compute report with the generator's counts and the numpy reference."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh, parse_constant=_reject_constant)
        report = document["report"]
        firms = report["firms"]
        synergy = report["synergy"]
        turnover = report["turnover"]
        entropy = document["entropy"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc!r}"]
    try:
        return _compare_report(firms, synergy, turnover, entropy, expect)
    except (KeyError, TypeError) as exc:
        return [f"report malformed: {exc!r}"]


def _compare_report(firms, synergy, turnover, entropy, expect: dict) -> list[str]:
    facts, expected = expect["facts"], expect["report"]
    problems = []
    if firms != {"count": facts["rows"], "foreign": facts["foreign"]}:
        problems.append(f"firms {firms} != rows {facts['rows']}, foreign {facts['foreign']}")
    for term in SYNERGY_TERMS:
        got, want = synergy[term], expected["synergy"][term]
        if not abs(got - want) <= SYNERGY_TOL:
            problems.append(f"synergy.{term} {got!r} differs from reference {want!r}")
    parts = synergy["domestic"] + synergy["foreign_only"] + synergy["cross"]
    if not abs(synergy["total"] - parts) <= IDENTITY_TOL:
        problems.append(f"total {synergy['total']!r} != domestic + foreign_only + cross {parts!r}")
    if not abs(synergy["foreign"] - (synergy["foreign_only"] + synergy["cross"])) <= IDENTITY_TOL:
        problems.append("foreign != foreign_only + cross")
    for name, want in expected["entropy"].items():
        if not abs(entropy[name] - want) <= SYNERGY_TOL:
            problems.append(f"entropy.{name} {entropy[name]!r} differs from reference {want!r}")
    # whole-NOK turnover keeps every partial sum exact, so totals compare equal
    for key in ("total", "domestic", "foreign"):
        if turnover[key] != float(facts[f"turnover_{key}"]):
            problems.append(f"turnover.{key} {turnover[key]!r} != {facts[f'turnover_{key}']}")
    return problems


def check_sweep(path: str, shares: list[float]) -> list[str]:
    """The curve covers the grid, has exact endpoints and a non-decreasing r_ratio."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        points = [(float(s), float(r), float(t) if t else None) for s, r, t in body]
    except (OSError, ValueError, IndexError) as exc:
        return [f"sweep CSV unreadable: {exc!r}"]
    problems = []
    if header != ["share", "r_ratio", "t_ratio"]:
        problems.append(f"header {header}")
    if [p[0] for p in points] != shares:
        return problems + [f"shares {[p[0] for p in points]} != grid {shares}"]
    for label, index in (("r_ratio", 1), ("t_ratio", 2)):
        ends = (points[0][index], points[-1][index])
        if ends != (0.0, 1.0):
            problems.append(f"{label} endpoints {ends} != (0.0, 1.0)")
    r = [p[1] for p in points]
    if any(b < a for a, b in zip(r, r[1:])):
        problems.append(f"r_ratio decreases: {r}")
    return problems


_ISSUE = re.compile(r"  line (\d+): (.*)")


def check_validate(path: str, exit_code: int, expect: dict) -> list[str]:
    """Exit code 1, the generated row count and exactly the injected defect lines."""
    defects = {int(line): kind for line, kind in expect["defects"].items()}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"validate output unreadable: {exc!r}"]
    problems = []
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, expected 1")
    summary = f"{expect['facts']['rows']} data row(s), {len(defects)} issue(s)"
    if not lines or lines[0] != summary:
        problems.append(f"summary {lines[:1]} != {summary!r}")
    issues = [_ISSUE.fullmatch(line) for line in lines[1:]]
    if not all(issues):
        return problems + ["unparseable issue line"]
    got = [int(m.group(1)) for m in issues]
    if got != sorted(defects):
        missing = sorted(set(defects) - set(got))[:5]
        extra = sorted(set(got) - set(defects))[:5]
        return problems + [f"issue lines differ: missing {missing}, unexpected {extra}"]
    for m in issues:
        kind = defects[int(m.group(1))]
        if DEFECT_MESSAGES[kind] not in m.group(2):
            problems.append(f"line {m.group(1)} ({kind}): {m.group(2)!r}")
            break
    return problems
