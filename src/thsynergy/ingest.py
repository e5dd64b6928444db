"""Firm-register ingestion: CSV parsing and categorical classification.

Raw rows carry a municipality code, a two-digit NACE activity code, an
employee count, turnover in NOK and a foreign ownership share. Classification
turns each row into the three categorical coordinates used downstream
(municipality, size class, technology group) plus an ownership flag.
"""
from __future__ import annotations

import csv
import io
import math
import re
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, TextIO


class MalformedRow(ValueError):
    """A row failed strict validation. Carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class MissingColumn(MalformedRow):
    """A required column is absent from the CSV header, line 1."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        super().__init__(1, f"missing required column(s): {', '.join(self.names)}")


class UnmappedNace(ValueError):
    """A two-digit NACE code with no technology-group mapping."""

    def __init__(self, nace2: int):
        self.nace2 = nace2
        self.reason = f"NACE code {nace2:02d} has no technology group mapping"
        super().__init__(self.reason)


class Ownership(str, Enum):
    DOMESTIC = "domestic"
    FOREIGN = "foreign"


# --- default classification tables -----------------------------------------

# Two-digit NACE division -> technology group 1..10, the standard ten-group
# high-level aggregation. Divisions 04, 40, 44, 57, 67, 83 and 89 do not
# exist in the classification and are deliberately absent.
_NACE_GROUP_RANGES = (
    (1, 3, 1),
    (5, 39, 2),
    (41, 43, 3),
    (45, 56, 4),
    (58, 63, 5),
    (64, 66, 6),
    (68, 68, 7),
    (69, 82, 8),
    (84, 88, 9),
    (90, 99, 10),
)

def default_nace_map() -> dict[int, int]:
    out: dict[int, int] = {}
    for lo, hi, group in _NACE_GROUP_RANGES:
        for code in range(lo, hi + 1):
            out[code] = group
    return out


_NACE_MAP = default_nace_map()  # the grouping is fixed; no setting changes it
DEFAULT_SIZE_BIN_EDGES = (0, 1, 5, 10, 20, 50, 100, 250)
DEFAULT_FOREIGN_CUTOFF = 0.20


def size_labels(edges: tuple[int, ...]) -> tuple[str, ...]:
    """Human-readable labels for half-open employee bins.

    Single-value bins get the bare number ("0"), middle bins "lo-hi" with an
    inclusive upper end, and the unbounded top bin "lo+". Default edges yield
    0, 1-4, 5-9, 10-19, 20-49, 50-99, 100-249 and 250+.
    """
    out = []
    for i, lo in enumerate(edges):
        if i + 1 < len(edges):
            hi = edges[i + 1] - 1
            out.append(str(lo) if hi == lo else f"{lo}-{hi}")
        else:
            out.append(f"{lo}+")
    return tuple(out)


def parse_share(text: str) -> float:
    """Parse an ownership share given as a fraction ("0.2") or percent ("20%")."""
    text = text.strip()
    if text.endswith("%"):
        value = float(text[:-1]) / 100.0
    else:
        value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"share {text!r} outside [0, 1]")
    return value


@dataclass(frozen=True)
class ClassificationConfig:
    """The two settings of the row -> categories mapping.

    foreign_cutoff is inclusive: a share exactly at the cutoff counts as
    foreign. Bin edges must start at 0 and increase strictly; each edge opens
    a half-open interval ending just before the next edge, the last one
    unbounded. The NACE -> technology group mapping is fixed (_NACE_MAP).
    """

    foreign_cutoff: float = DEFAULT_FOREIGN_CUTOFF
    size_bin_edges: tuple[int, ...] = DEFAULT_SIZE_BIN_EDGES

    def __post_init__(self):
        if not 0.0 < self.foreign_cutoff <= 1.0:
            raise ValueError("foreign_cutoff must be in (0, 1]")
        edges = tuple(int(e) for e in self.size_bin_edges)
        if not edges or edges[0] != 0:
            raise ValueError("size_bin_edges must start at 0")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("size_bin_edges must be strictly increasing")
        object.__setattr__(self, "size_bin_edges", edges)

    @cached_property
    def size_class_labels(self) -> tuple[str, ...]:
        return size_labels(self.size_bin_edges)

    def categorize(self, municipality: str, nace2: int, employees: int, share: float) -> tuple[tuple, bool]:
        """Classify one firm: ((municipality, size class, tech group), is_foreign)."""
        group = _NACE_MAP.get(nace2)
        if group is None:
            raise UnmappedNace(nace2)
        size_class = self.size_class_labels[bisect_right(self.size_bin_edges, employees) - 1]
        return (municipality, size_class, group), share >= self.foreign_cutoff


def _check_ranges(nace2: int, employees: int, turnover: float, share: float) -> None:
    """The value checks every firm passes; ValueError names the first failure."""
    if not 1 <= nace2 <= 99:
        raise ValueError(f"nace2 {nace2} outside 01-99")
    if employees < 0:
        raise ValueError("employees must be non-negative")
    if turnover < 0:
        raise ValueError("turnover must be non-negative")
    if not math.isfinite(turnover):
        raise ValueError("turnover must be finite")
    if not 0.0 <= share <= 1.0:
        raise ValueError("foreign_share must be a fraction in [0, 1]")


@dataclass(frozen=True)
class FirmRecord:
    """One validated register row, units as in the source data (NOK, headcount)."""

    firm_id: str
    municipality_code: str
    nace2: int
    employees: int
    turnover: float
    foreign_share: float

    def __post_init__(self):
        _check_ranges(self.nace2, self.employees, self.turnover, self.foreign_share)


@dataclass(frozen=True)
class ClassifiedFirm:
    """A firm reduced to its three categorical coordinates plus ownership."""

    municipality: str
    size_class: str
    tech_group: int
    ownership: Ownership
    turnover: float


# --- CSV parsing ------------------------------------------------------------

CANONICAL_COLUMNS = (
    "firm_id",
    "municipality_code",
    "nace2",
    "employees",
    "turnover_nok",
    "foreign_share",
)
_REQUIRED = CANONICAL_COLUMNS[1:]  # firm_id may be absent


_BATCH_CHARS = 16384  # size hint of each readlines() batch: 64 KiB kept peak RSS 0.2 MB higher
_ESCAPED = re.compile("[\udc80-\udcff]")  # what errors="surrogateescape" decodes a stray byte to


@contextmanager
def _text_lines(source: bytes | bytearray | BinaryIO | TextIO) -> Iterator[Iterable[str]]:
    """The lines of source, each with its line end (LF, CRLF or a lone CR). Byte input is read
    as UTF-8, a leading byte order mark dropped, through _checked_lines; text passes unchecked.
    A caller's binary stream is left open on every exit: the decoding wrapper is detached."""
    if isinstance(source, io.TextIOBase):
        yield source
        return
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", errors="surrogateescape", newline="")
    try:
        yield _checked_lines(text)
    finally:
        text.detach()  # a collected wrapper would close the stream


def _checked_lines(stream: TextIO) -> Iterator[str]:
    """The lines of a stream decoded with errors="surrogateescape"; pulling the first line that
    holds an escaped byte raises its UnicodeDecodeError. Only such a batch is searched by line."""
    def batches():
        while batch := stream.readlines(_BATCH_CHARS):
            text = "".join(batch)
            if not text.isascii() and _ESCAPED.search(text):
                for at, line in enumerate(batch):
                    if _ESCAPED.search(line):
                        yield batch[:at]
                        line.encode("utf-8", "surrogateescape").decode("utf-8")  # raises on the bytes as read
            yield batch
    return chain.from_iterable(batches())


def _reader_defect(lines_read: int, exc: csv.Error | UnicodeDecodeError) -> tuple[int, str]:
    """(line, reason) of a defect met by a reader that had pulled lines_read whole lines: a
    csv.Error is on the last line pulled, a byte that is not UTF-8 on the line it failed to pull."""
    if isinstance(exc, UnicodeDecodeError):
        return lines_read + 1, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
    return lines_read, str(exc)


def _read_header(reader, schema: Mapping[str, str] | None = None) -> tuple[tuple, int]:
    """Read the header row and return (positions, width): positions are
    indexed like CANONICAL_COLUMNS, None for an absent firm_id, and width is
    the field count a data row needs. Raises ValueError when the schema maps
    two columns to one header name, MissingColumn, or MalformedRow on line 1
    when the header names a mapped column more than once.
    """
    mapping = {name: name for name in CANONICAL_COLUMNS} | dict(schema or {})
    targets = [mapping[c] for c in CANONICAL_COLUMNS]
    shared = [c for c in CANONICAL_COLUMNS if targets.count(mapping[c]) > 1]
    if shared:  # their fields would all be read from one column
        raise ValueError(f"schema maps {', '.join(shared)} to one header name")
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn(_REQUIRED) from None
    positions = tuple(header.index(mapping[c]) if mapping[c] in header else None for c in CANONICAL_COLUMNS)
    missing = [mapping[c] for c, pos in zip(CANONICAL_COLUMNS, positions) if pos is None and c in _REQUIRED]
    if missing:
        raise MissingColumn(missing)
    duplicate = [mapping[c] for c in CANONICAL_COLUMNS if header.count(mapping[c]) > 1]
    if duplicate:
        raise MalformedRow(1, f"duplicate column(s): {', '.join(duplicate)}")
    return positions, max(p for p in positions if p is not None) + 1


def _parse_row(row: list[str], line: int, positions: tuple, width: int) -> tuple[str, int, int, float, float]:
    """Check one data row; return (municipality, nace2, employees, turnover, share).

    Raises MalformedRow naming the line and the first defect found.
    """
    if not row:
        raise MalformedRow(line, "blank row")
    if len(row) < width:
        raise MalformedRow(line, f"expected at least {width} fields, got {len(row)}")
    _, muni_at, nace_at, employees_at, turnover_at, share_at = positions
    values = []
    for at, name, convert, kind in ((nace_at, "nace2", int, "an integer"),
                                    (employees_at, "employees", int, "an integer"),
                                    (turnover_at, "turnover_nok", float, "a number"),
                                    (share_at, "foreign_share", float, "a number")):
        text = row[at].strip()  # names the field without its padding when it does not convert
        try:
            values.append(convert(text))
        except ValueError:
            raise MalformedRow(line, f"{name} {text!r} is not {kind}") from None
    nace2, employees, turnover, share = values
    try:
        _check_ranges(nace2, employees, turnover, share)
    except ValueError as exc:
        raise MalformedRow(line, str(exc)) from None
    municipality = row[muni_at].strip()
    if not municipality:
        raise MalformedRow(line, "municipality_code is empty")
    return municipality, nace2, employees, turnover, share


def parse_firm_records(source, schema: Mapping[str, str] | None = None) -> list[FirmRecord]:
    """Parse a UTF-8 CSV stream into FirmRecords, strictly.

    Arguments:
        source: bytes, a binary stream or a text stream positioned at the header.
        schema: optional map from canonical column names (firm_id,
            municipality_code, nace2, employees, turnover_nok, foreign_share)
            to the actual header names in the file.

    Any defect aborts the whole parse with a MalformedRow on its line, the
    header's included: a field the csv module cannot read and a byte that
    is not UTF-8 among them. Rows are never silently dropped, so the
    returned list length always equals the data row count.
    """
    out = []
    with _text_lines(source) as lines:
        reader = csv.reader(lines)
        try:
            positions, width = _read_header(reader, schema)
            id_at = positions[0]
            for row in reader:
                line = reader.line_num
                fields = _parse_row(row, line, positions, width)
                firm_id = row[id_at].strip() if id_at is not None else f"row-{line}"
                out.append(FirmRecord(firm_id, *fields))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise MalformedRow(*_reader_defect(reader.line_num, exc)) from None
    return out


def classify(record: FirmRecord, config: ClassificationConfig | None = None) -> ClassifiedFirm:
    """Map one FirmRecord to its categorical coordinates.

    Raises UnmappedNace when the two-digit code has no technology group in
    the configured map.
    """
    cell, foreign = (config or ClassificationConfig()).categorize(
        record.municipality_code, record.nace2, record.employees, record.foreign_share)
    return ClassifiedFirm(*cell, Ownership.FOREIGN if foreign else Ownership.DOMESTIC, record.turnover)


def classify_all(records: Iterable[FirmRecord], config: ClassificationConfig | None = None) -> list[ClassifiedFirm]:
    config = config or ClassificationConfig()
    return [classify(r, config) for r in records]


# Distinct texts per memo. Past it a memo learns only a text that is its own value, as an unpadded
# municipality is its label, which the cube keeps anyway; padded variants of a label stay bounded.
_MEMO_LIMIT = 4096


def validate_firm_csv(source, config: ClassificationConfig | None = None,
                      add: Callable[[tuple, bool, float], None] | None = None,
                      ) -> tuple[int, list[tuple[int, str]]]:
    """Check and classify every row in one pass, collecting every defect.

    Returns (data_row_count, issues), each issue (line_no, message). Each
    accepted row goes in file order to add(cell, foreign, turnover), cell
    being its (municipality, size class, tech group). A header defect, a
    record the csv module cannot read and a byte that is not UTF-8 end the
    scan with an issue on their line; the rows before it are counted and
    checked, and the record holding it is not counted. The input is read
    once, never re-read. The header must use the canonical column names;
    parse_firm_records stays strict and takes a schema remap.

    Each field's classification is memoized per distinct text: the raw
    municipality, nace2 and employees texts of an accepted row map to its
    cell coordinates, since each of their checks reads that field alone. A
    row whose three texts are all known and whose turnover and share convert
    and lie in range is accepted from the memos. Every other row goes
    through _parse_row and categorize, which name its defect or accept it
    and teach the memos its texts, as far as _MEMO_LIMIT allows.
    """
    config = config or ClassificationConfig()
    categorize, cutoff, inf = config.categorize, config.foreign_cutoff, math.inf
    municipalities: dict[str, str] = {}
    sizes: dict[str, str] = {}
    groups: dict[str, int] = {}
    issues: list[tuple[int, str]] = []
    rows = 0
    with _text_lines(source) as lines:
        reader = csv.reader(lines)
        try:
            positions, width = _read_header(reader)
            _, muni_at, nace_at, employees_at, turnover_at, share_at = positions
            memos = ((municipalities, muni_at), (sizes, employees_at), (groups, nace_at))
            for row in reader:
                rows += 1
                try:
                    cell = (municipalities[row[muni_at]], sizes[row[employees_at]], groups[row[nace_at]])
                    turnover, share = float(row[turnover_at]), float(row[share_at])
                    known = len(row) >= width and 0.0 <= turnover < inf and 0.0 <= share <= 1.0
                except (LookupError, ValueError):  # a new text, a short row or a failed conversion
                    known = False
                if not known:
                    line = reader.line_num
                    try:
                        municipality, nace2, employees, turnover, share = _parse_row(row, line, positions, width)
                        cell = categorize(municipality, nace2, employees, share)[0]
                    except (MalformedRow, UnmappedNace) as exc:
                        issues.append((line, exc.reason))
                        continue
                    for (memo, at), value in zip(memos, cell):
                        if len(memo) < _MEMO_LIMIT or row[at] == value:
                            memo[row[at]] = value
                if add is not None:
                    add(cell, share >= cutoff, turnover)
        except MalformedRow as exc:  # a header defect, MissingColumn included
            issues.append((exc.line_no, exc.reason))
        except (csv.Error, UnicodeDecodeError) as exc:
            issues.append(_reader_defect(reader.line_num, exc))
    return rows, issues


def load_config(path: str) -> ClassificationConfig:
    """Read a key = value config file for classification overrides.

    Recognized keys:
        foreign_cutoff   fraction ("0.2") or percent ("20%")
        size_bin_edges   comma-separated non-negative integers starting at 0

    Lines starting with # and blank lines are ignored, as is a leading byte
    order mark. Unknown and repeated keys are an error rather than a silent
    no-op or override, and so is a byte that is not UTF-8. Every ValueError
    starts with "<path>:<line>:".
    """
    settings: dict = {}
    number = 0
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            for number, raw in enumerate(_checked_lines(fh), 1):
                stripped = raw.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                where = f"{path}:{number}:"
                key, sep, value = (part.strip() for part in stripped.partition("="))
                if not sep:
                    raise ValueError(f"{where} config line not key = value: {raw!r}")
                if key in settings:
                    raise ValueError(f"{where} config key {key!r} is set twice")
                if key not in ("foreign_cutoff", "size_bin_edges"):
                    raise ValueError(f"{where} unknown config key {key!r}")
                try:
                    if key == "foreign_cutoff":
                        settings[key] = parse_share(value)
                    else:
                        settings[key] = tuple(int(part.strip()) for part in value.split(","))
                    ClassificationConfig(**{key: settings[key]})  # the range checks, reported on this line
                except ValueError as exc:
                    raise ValueError(f"{where} {key}: {exc}") from None
        except UnicodeDecodeError as exc:  # the line's own checks raise plain ValueErrors
            raise ValueError("{}:{}: {}".format(path, *_reader_defect(number, exc))) from None
    return ClassificationConfig(**settings)
