"""Command-line front end.

Subcommands:
    validate  strict scan of a firm CSV, listing every defect with its line
    compute   full region report as JSON (decomposition, entropies, ratios,
              domestic-vs-foreign chi-square over technology groups)
    sweep     synthetic foreign-share sweep written as CSV
    chisq     standalone 2 x k homogeneity test

Exit codes: 0 success, 1 validation failure or out of memory, 2 usage
error, 3 I/O error (a closed or unwritable standard output included). main
maps every OSError a subcommand raises to 3, every ValueError to 2 and a
MemoryError to 1; a subcommand catches only what it reports otherwise.

Reports embed their run manifest without a timestamp so identical inputs
and flags produce byte-identical output; the wall clock lives only in the
`<output>.manifest.json` sidecar. No environment variable affects results.
entry() sets OPENBLAS_NUM_THREADS to 1 unless it is set, which changes only
how many threads numpy's OpenBLAS starts. For `sweep` it also keeps OpenSSL
out of the process when the interpreter's built-in hash modules import, so
numpy's hashlib falls back to them and the sweep peaks 3.5 MB lower. It turns
the cyclic garbage collector off, since a run's cyclic garbage does not grow
with its input; main leaves the collector to its caller. It ends the process
with the atexit callbacks, a flush and os._exit, skipping teardown, so
`python -m cProfile -m thsynergy.cli` prints no profile: profile or trace
through main.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import io
import os
import sys

from . import DEFAULT_SIZE_BIN_EDGES, __version__

# Everything else is imported by the subcommand that runs it, so that `--version` and `chisq` load
# neither ingest, decomp nor json, and `validate` ingest alone of them.


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


def _manifest(command: str, inputs: list[str], settings: dict, **fields) -> dict:
    """A run's record: command, inputs, the config_digest of its settings as config_hash, version, then fields."""
    return {"command": command, "inputs": inputs, "config_hash": config_digest(settings), "version": __version__,
            **fields}


def _write_outputs(output_path: str, text: str, manifest: dict) -> None:
    """Write the output and its .manifest.json sidecar: the manifest, then a timestamp. Raises OSError.

    Each is written to a temporary file next to its target and then moved
    into place with os.replace, the output last, so a failed run never
    leaves a partial output nor an output without its sidecar; when the
    output cannot be moved into place, the sidecar placed before it is
    removed. The OSError names the target that could not be written, never
    its temporary file.
    """
    import json
    import time

    # the text of datetime.now(timezone.utc).isoformat(), which floors to the microsecond, without datetime
    seconds, micro = divmod(time.time_ns() // 1000, 10**6)
    stamp = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(seconds)[:6] + (f".{micro:06d}" if micro else "")
    payload = {**manifest, "timestamp": stamp + "+00:00"}
    writes = ((output_path + ".manifest.json", json.dumps(payload, indent=2) + "\n"), (output_path, text))
    temps = [f"{path}.{os.getpid()}.tmp" for path, _ in writes]
    placed = []
    try:
        for temp, (path, content) in zip(temps, writes):
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        for temp, (path, _) in zip(temps, writes):
            os.replace(temp, path)
            placed.append(path)
    except OSError as exc:
        for leftover in temps + placed:
            if os.path.exists(leftover):
                os.unlink(leftover)
        raise OSError(exc.errno, exc.strerror, path) from None  # path: the target of the failed step


def _load_effective_config(args):
    """The ClassificationConfig of --foreign-cutoff and --size-bins; a bad value's ValueError names its flag."""
    from .ingest import ClassificationConfig, parse_share

    config = ClassificationConfig()
    for flag, field, parse in (("--foreign-cutoff", "foreign_cutoff", parse_share),
                               ("--size-bins", "size_bin_edges", lambda text: text.split(","))):
        text = getattr(args, field)
        if text is not None:
            try:
                config = config._replace(**{field: parse(text)})  # the config converts and checks the edges
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    return config


# --- subcommands ------------------------------------------------------------

def _error(message, code: int) -> int:
    if sys.stderr is not None:  # None when the process was started with standard error closed (`2>&-`)
        with contextlib.suppress(OSError):  # standard error unwritable (`2>/dev/full`): keep the exit code
            sys.stderr.write(f"error: {message}\n")
    return code


def _print_issues(rows: int, issues: list[tuple[int, str]], file) -> None:
    # one write for the whole listing: an unbuffered stream makes each write a system call
    if file is not None:  # compute's standard error, closed
        file.write(f"{rows} data row(s), {len(issues)} issue(s)\n"
                   + "".join(f"  line {line}: {message}\n" for line, message in issues))


def cmd_validate(args) -> int:
    from .ingest import validate_firm_csv

    # no classification setting changes which rows are valid, so validate takes none
    with open(args.input, "rb") as fh:
        rows, issues = validate_firm_csv(fh)
    _print_issues(rows, issues, sys.stdout)
    return 1 if issues else 0


def cmd_compute(args) -> int:
    import json

    from .decomp import Tally, cube_report, ownership_tech_table
    from .ingest import default_nace_map, validate_firm_csv
    from .stats import DegenerateTable, chi_square_homogeneity

    config = _load_effective_config(args)
    tally = Tally(config.cell_shape)
    with open(args.input, "rb") as fh:
        rows, issues = validate_firm_csv(fh, config=config, add=tally.add)
    if issues:
        _print_issues(rows, issues, sys.stderr)
        return 1
    if not rows:
        return _error(f"{args.input}: no data rows", 1)

    try:
        report = cube_report(tally)
    except OverflowError as exc:
        return _error(f"{args.input}: {exc}", 1)
    categories, table = ownership_tech_table(tally.cube())
    try:
        chi_block: dict = {"categories": list(categories), **chi_square_homogeneity(table)._asdict()}
    except DegenerateTable as exc:
        chi_block = {"undefined_reason": str(exc)}

    # both classification settings and the fixed NACE map, keyed by text as JSON keys it
    manifest = _manifest("compute", [args.input],
                         {**config._asdict(), "nace_map": {str(k): v for k, v in default_nace_map().items()}})
    document = {
        "schema_version": 2,
        "report": report.to_dict(),
        "entropy": report.synergy.profile()._asdict(),
        "chi_square_domestic_vs_foreign": chi_block,
        "manifest": manifest,
    }
    try:
        text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError:
        return _error(f"{args.input}: report holds a number that is not finite", 1)
    if args.output:
        _write_outputs(args.output, text, manifest)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    from .synthlab import SynthParams, sweep_foreign_share

    try:
        # + 0.0 turns -0.0 into 0.0, so the sign of a zero share moves neither the CSV nor config_hash
        shares = [float(part) + 0.0 for part in args.shares.split(",") if part.strip() != ""]
    except ValueError:
        return _error(f"cannot parse --shares {args.shares!r}", 2)
    # the generator flags are stored under their field names and default to None: SynthParams holds the defaults
    params = SynthParams(**{k: v for k, v in vars(args).items() if k in SynthParams._fields and v is not None})
    try:
        curve = sweep_foreign_share(params, shares)
    except OverflowError as exc:  # a turnover sum is not finite
        return _error(exc, 1)
    # turnovers are non-negative, so the total is positive at one share exactly when it is at every share
    if curve.points[0].report.turnover_total <= 0:  # every drawn turnover underflowed: no turnover share exists
        return _error("turnover sum is not positive", 1)
    # every generator knob but the seed, which is recorded on its own, plus the swept shares
    manifest = _manifest("sweep", [], {**{k: v for k, v in params._asdict().items() if k != "seed"}, "shares": shares},
                         seed=params.seed)
    text = io.StringIO()
    curve.to_csv(text)
    _write_outputs(args.output, text.getvalue(), manifest)
    print(f"{len(curve.points)} point(s) written to {args.output}")
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

    p_val = sub.add_parser("validate", help="scan a firm CSV and list every defect")
    p_val.add_argument("input", help="firm CSV path")
    p_val.set_defaults(func=cmd_validate)

    p_comp = sub.add_parser("compute", help="region report JSON from a firm CSV")
    p_comp.add_argument("input", help="firm CSV path")
    p_comp.add_argument("--foreign-cutoff", help="ownership cutoff as fraction ('0.2') or percent ('20%%')")
    p_comp.add_argument("--size-bins", dest="size_bin_edges", metavar="EDGES",
                        help="employee bin edges, a comma list starting at 0 (default %s)"
                        % ",".join(map(str, DEFAULT_SIZE_BIN_EDGES)))
    p_comp.add_argument("--output", help="report path (stdout when omitted); a .manifest.json sidecar is written next to it")
    p_comp.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="synthetic foreign-share sweep to CSV")
    p_sweep.add_argument("--firms", type=int, dest="n_firms", metavar="FIRMS")
    p_sweep.add_argument("--municipalities", type=int, dest="n_municipalities", metavar="MUNICIPALITIES")
    p_sweep.add_argument("--size-classes", type=int, dest="n_size_classes", metavar="SIZE_CLASSES")
    p_sweep.add_argument("--tech-groups", type=int, dest="n_tech_groups", metavar="TECH_GROUPS")
    p_sweep.add_argument("--coupling", type=float)
    p_sweep.add_argument("--turnover-law", choices=("uniform", "lognormal"))
    p_sweep.add_argument("--mu", type=float, dest="lognormal_mu", metavar="MU", help="lognormal mu")
    p_sweep.add_argument("--sigma", type=float, dest="lognormal_sigma", metavar="SIGMA", help="lognormal sigma")
    p_sweep.add_argument("--seed", type=int)
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
    closed = sys.stdout is None  # the process was started with standard output closed
    try:
        # argparse prints --help and --version itself, dropping an OSError from the write and using
        # stderr in place of a closed stdout, so their text is captured and written here
        text = io.StringIO()
        try:
            with contextlib.redirect_stdout(text):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:
                if closed:
                    raise OSError("standard output is closed") from None
                sys.stdout.write(text.getvalue())
                sys.stdout.flush()
            raise
        # every command but compute --output writes to stdout, so refuse before doing any work
        if closed and (args.func is not cmd_compute or not args.output):
            raise OSError("standard output is closed")
        status = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a buffered write that fails shows here, not in the interpreter's flush at exit
        return status
    except OSError as exc:
        return _error(exc, 3)
    except ValueError as exc:
        return _error(exc, 2)
    except MemoryError as exc:  # numpy's carries the size it could not allocate; a bare one says nothing
        return _error(f"out of memory: {exc}" if str(exc) else "out of memory", 1)


# the built-in modules that hashlib and random take their hashes from when _hashlib cannot be imported
_BUILTIN_HASHES = ("_md5", "_sha1", *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")),
                   "_blake2", "_sha3")


def _keep_openssl_out() -> None:
    # numpy.random imports secrets, which imports hmac and hashlib, which import _hashlib and so map
    # OpenSSL, 3.3 MB of RSS the sweep never hashes with. With _hashlib blocked both fall back to the
    # built-in modules, as on a build without OpenSSL; without one of those, `import hashlib` logs an
    # error, so the block is set only when all of them import and _hashlib is not loaded already.
    if "_hashlib" in sys.modules:
        return
    before = set(sys.modules)
    try:
        for name in _BUILTIN_HASHES:
            __import__(name)
    except ImportError:
        for name in sys.modules.keys() - before:  # leave loaded only what the sweep loads without the probe
            del sys.modules[name]
    else:
        sys.modules["_hashlib"] = None


def entry() -> None:
    # No command does linear algebra, yet numpy's OpenBLAS starts a pool of worker threads when it
    # loads (inside sweep), which costs time and CPU. Set here, where the process is ours, not in main
    # or a library module, so that in-process callers keep their environment; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # A run frees what it makes by reference count; its cyclic garbage, mostly numpy's import's, does
    # not grow with its input, and os._exit below frees it. The collector's passes, 35 in a sweep and
    # nearly all while numpy imports, would cost time and free next to nothing. Set here, as above.
    gc.disable()
    if sys.argv[1:2] == ["sweep"]:  # the one command that loads numpy; the others never load hashlib
        _keep_openssl_out()
    try:
        status = main()
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        status = exc.code
    # End the process here: tearing down every module and object, numpy's included, only delays the exit
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError):  # main reported it
            if stream is not None:
                stream.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
