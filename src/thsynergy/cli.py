"""Command-line front end.

Subcommands:
    validate  strict scan of a firm CSV, listing every defect with its line
    compute   full region report as JSON (decomposition, entropies, ratios,
              domestic-vs-foreign chi-square over technology groups)
    sweep     synthetic foreign-share sweep written as CSV
    chisq     standalone 2 x k homogeneity test

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O error.

Reports embed their run manifest without a timestamp so identical inputs
and flags produce byte-identical output; the wall clock lives only in the
`<output>.manifest.json` sidecar. No environment variable affects results.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, replace

from . import __version__
from .ingest import ClassificationConfig, default_nace_map, load_config, parse_share, validate_firm_csv

# Everything else is imported by the subcommand that runs it, so that `--version`,
# `validate` and `chisq` load neither the cube, the decomposition nor json.

_LOG_BASES = {"2": 2.0, "e": 2.718281828459045, "10": 10.0}


@dataclass(frozen=True)
class RunManifest:
    command: str
    inputs: tuple[str, ...]
    config_hash: str
    version: str
    seed: int | None = None

    def to_dict(self, timestamp: str | None = None) -> dict:
        out = {key: value for key, value in asdict(self).items() if value is not None}
        return out if timestamp is None else out | {"timestamp": timestamp}


def _sha256(data: bytes):
    # CPython's own SHA-256: importing hashlib maps OpenSSL, 3.5 MB of peak RSS. To hash whole
    # inputs, weigh that against speed: 200 MB/s built in, 1,200 via OpenSSL on a Xeon.
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def config_digest(settings: dict) -> str:
    """The first 16 hex digits of the SHA-256 of the settings as sort-keyed, compact JSON."""
    import json

    canon = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return _sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_outputs(output_path: str, text: str, manifest: RunManifest, extra: dict | None = None) -> None:
    """Write the output and its .manifest.json sidecar. Raises OSError.

    Each is written to a temporary file next to its target and then moved
    into place with os.replace, the output last, so a failed run never
    leaves a partial output nor an output without its sidecar. The OSError
    names the target that could not be written, never its temporary file.
    """
    import json
    from datetime import datetime, timezone

    payload = manifest.to_dict(timestamp=datetime.now(timezone.utc).isoformat())
    if extra:
        payload.update(extra)
    writes = ((output_path + ".manifest.json", json.dumps(payload, indent=2) + "\n"), (output_path, text))
    temps = [f"{path}.{os.getpid()}.tmp" for path, _ in writes]
    try:
        for temp, (path, content) in zip(temps, writes):
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        for temp, (path, _) in zip(temps, writes):
            os.replace(temp, path)
    except OSError as exc:
        for temp in temps:
            if os.path.exists(temp):
                os.unlink(temp)
        raise OSError(exc.errno, exc.strerror, path) from None  # path: the target of the failed step


def _load_effective_config(args) -> ClassificationConfig:
    config = load_config(args.config) if args.config else ClassificationConfig()
    if args.foreign_cutoff is not None:
        try:
            config = replace(config, foreign_cutoff=parse_share(args.foreign_cutoff))
        except ValueError as exc:
            raise ValueError(f"--foreign-cutoff: {exc}") from None
    return config


# --- subcommands ------------------------------------------------------------

def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _print_issues(rows: int, issues: list[tuple[int, str]], file) -> None:
    print(f"{rows} data row(s), {len(issues)} issue(s)", file=file)
    for line, message in issues:
        print(f"  line {line}: {message}", file=file)


def cmd_validate(args) -> int:
    try:
        config = _load_effective_config(args)
        with open(args.input, "rb") as fh:
            rows, issues = validate_firm_csv(fh, config=config)
    except OSError as exc:
        return _error(exc, 3)
    except ValueError as exc:
        return _error(exc, 2)
    _print_issues(rows, issues, sys.stdout)
    return 1 if issues else 0


def cmd_compute(args) -> int:
    import json

    from .cube import Tally
    from .decomp import cube_report
    from .stats import DegenerateTable, chi_square_homogeneity, ownership_tech_table

    tally = Tally()
    try:
        config = _load_effective_config(args)
        with open(args.input, "rb") as fh:
            rows, issues = validate_firm_csv(fh, config=config, add=tally.add)
    except OSError as exc:
        return _error(exc, 3)
    except ValueError as exc:
        return _error(exc, 2)
    if issues:
        _print_issues(rows, issues, sys.stderr)
        return 1
    if not rows:
        return _error(f"{args.input}: no data rows", 1)

    cube = tally.cube()
    try:
        report = cube_report(cube, tally, base=_LOG_BASES[args.log_base])
    except OverflowError as exc:
        return _error(f"{args.input}: {exc}", 1)
    categories, table = ownership_tech_table(cube)
    try:
        chi_block: dict = {"categories": list(categories), **asdict(chi_square_homogeneity(table))}
    except DegenerateTable as exc:
        chi_block = {"undefined_reason": str(exc)}

    manifest = RunManifest(
        command="compute",
        inputs=(args.input,),
        # both classification settings and the log base; the fixed NACE map stays in the hash,
        # keyed by text as JSON keys it, so that hashes match those of earlier versions
        config_hash=config_digest({**asdict(config), "nace_map": {str(k): v for k, v in default_nace_map().items()},
                                   "log_base": args.log_base}),
        version=__version__,
    )
    document = {
        "schema_version": 1,
        "log_base": args.log_base,
        "report": report.to_dict(),
        "entropy": asdict(report.synergy.profile()),
        "chi_square_domestic_vs_foreign": chi_block,
        "manifest": manifest.to_dict(),
    }
    try:
        text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError:
        return _error(f"{args.input}: report holds a number that is not finite", 1)
    if args.output:
        try:
            _write_outputs(args.output, text, manifest)
        except OSError as exc:
            return _error(exc, 3)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    import io

    from .synthlab import SynthParams, sweep_foreign_share

    try:
        shares = [float(part) for part in args.shares.split(",") if part.strip() != ""]
    except ValueError:
        return _error(f"cannot parse --shares {args.shares!r}", 2)
    try:
        params = SynthParams(
            n_firms=args.firms,
            n_municipalities=args.municipalities,
            n_size_classes=args.size_classes,
            n_tech_groups=args.tech_groups,
            coupling=args.coupling,
            turnover_law=args.turnover_law,
            lognormal_mu=args.mu,
            lognormal_sigma=args.sigma,
            seed=args.seed,
        )
        curve = sweep_foreign_share(params, shares)
    except ValueError as exc:
        return _error(exc, 2)
    except OverflowError as exc:  # a turnover sum is not finite
        return _error(exc, 1)
    # turnovers are non-negative, so the total is positive at one share exactly when it is at every share
    if curve.points[0].report.turnover_total <= 0:  # every drawn turnover underflowed: no turnover share exists
        return _error("turnover sum is not positive", 1)
    manifest = RunManifest(
        command="sweep",
        inputs=(),
        # every generator knob except the seed (recorded on its own) and the swept share
        config_hash=config_digest({
            **{k: v for k, v in asdict(params).items() if k not in ("seed", "foreign_share_target")},
            "shares": shares,
        }),
        version=__version__,
        seed=params.seed,
    )
    violations = curve.synergy_share_violations()
    text = io.StringIO()
    curve.to_csv(text)
    try:
        _write_outputs(args.output, text.getvalue(), manifest, extra={"synergy_share_violations": violations})
    except OSError as exc:
        return _error(exc, 3)
    print(f"{len(curve.points)} point(s) written to {args.output}")
    print(f"synergy share monotonicity violations: {violations}")
    return 0


def cmd_chisq(args) -> int:
    from .stats import DegenerateTable, chi_square_homogeneity

    rows = []
    try:
        for row_text in args.table.split(";"):
            rows.append([float(v) for v in row_text.split(",")])
    except ValueError:
        return _error(f"cannot parse table {args.table!r}", 2)
    try:
        result = chi_square_homogeneity(rows)
    except DegenerateTable as exc:
        return _error(exc, 1)
    print(f"statistic={result.statistic:.6g} dof={result.dof} p_value={result.p_value:.6g}")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thsynergy",
        description="Ownership-split three-way information measures for firm registers.",
    )
    parser.add_argument("--version", action="version", version=f"thsynergy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_classification_flags(p):
        p.add_argument("--config", help="key = value file overriding cutoff and size bins")
        p.add_argument("--foreign-cutoff", default=None,
                       help="ownership cutoff as fraction ('0.2') or percent ('20%%')")

    p_val = sub.add_parser("validate", help="scan a firm CSV and list every defect")
    p_val.add_argument("input", help="firm CSV path")
    add_classification_flags(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_comp = sub.add_parser("compute", help="region report JSON from a firm CSV")
    p_comp.add_argument("input", help="firm CSV path")
    add_classification_flags(p_comp)
    p_comp.add_argument("--log-base", choices=sorted(_LOG_BASES), default="2")
    p_comp.add_argument("--output", help="report path (stdout when omitted); a .manifest.json sidecar is written next to it")
    p_comp.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="synthetic foreign-share sweep to CSV")
    p_sweep.add_argument("--firms", type=int, default=500)
    p_sweep.add_argument("--municipalities", type=int, default=30)
    p_sweep.add_argument("--size-classes", type=int, default=8)
    p_sweep.add_argument("--tech-groups", type=int, default=10)
    p_sweep.add_argument("--coupling", type=float, default=0.5)
    p_sweep.add_argument("--turnover-law", choices=("uniform", "lognormal"), default="uniform")
    p_sweep.add_argument("--mu", type=float, default=16.0, help="lognormal mu")
    p_sweep.add_argument("--sigma", type=float, default=1.0, help="lognormal sigma")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--shares", required=True, help="strictly increasing comma list in [0, 1]")
    p_sweep.add_argument("--output", required=True, help="curve CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_chi = sub.add_parser("chisq", help="2 x k homogeneity test on inline counts")
    p_chi.add_argument("table", help="rows separated by ';', counts by ',' (e.g. '10,20;20,10')")
    p_chi.set_defaults(func=cmd_chisq)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) == 2 and argv[0] == "chisq" and argv[1] not in ("-h", "--help", "--"):
        argv.insert(1, "--")  # a table such as '-1,2;3,4' is never an option
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
