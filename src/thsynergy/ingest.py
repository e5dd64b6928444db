"""Firm-register ingestion: one checking, classifying scan of a CSV.

Raw rows carry a municipality code, a two-digit NACE activity code, an
employee count, turnover in NOK and a foreign ownership share. The scan
turns each accepted row into a firm triple (cell, foreign, turnover): the
int code of the three categorical coordinates used downstream (municipality,
size class, technology group), an ownership flag and the turnover.
"""
from __future__ import annotations

import csv
import io
import math
import re
from bisect import bisect_right
from contextlib import contextmanager
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, TextIO

from . import DEFAULT_FOREIGN_CUTOFF, DEFAULT_SIZE_BIN_EDGES, _Validated


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


class _ClassificationFields(NamedTuple):
    foreign_cutoff: float = DEFAULT_FOREIGN_CUTOFF
    size_bin_edges: tuple[int, ...] = DEFAULT_SIZE_BIN_EDGES


class ClassificationConfig(_Validated, _ClassificationFields):
    """The two settings of the row -> categories mapping.

    foreign_cutoff is inclusive: a share exactly at the cutoff counts as
    foreign. Bin edges must start at 0 and increase strictly; each edge opens
    a half-open interval ending just before the next edge, the last one
    unbounded. The NACE -> technology group mapping is fixed (_NACE_MAP).
    """

    __slots__ = ()

    def _validated(self):
        self._check_numbers("foreign_cutoff")
        if not 0.0 < self.foreign_cutoff <= 1.0:
            raise ValueError("foreign_cutoff must be in (0, 1]")
        try:
            edges = tuple(self.size_bin_edges)
            if any(not isinstance(e, str) and e % 1 for e in edges):  # a fraction part, or nan from an infinity
                raise ValueError
            edges = tuple(map(int, edges))  # ValueError on a text such as "x" or "10.5"
        except TypeError:  # not a sequence, or an edge such as None
            raise ValueError("size_bin_edges must be a sequence of whole numbers") from None
        except ValueError:
            raise ValueError("size_bin_edges must be whole numbers") from None
        if not edges or edges[0] != 0:
            raise ValueError("size_bin_edges must start at 0")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("size_bin_edges must be strictly increasing")
        return tuple.__new__(type(self), (self.foreign_cutoff, edges))

    @property
    def cell_shape(self) -> tuple:
        """The radices of a scanned firm's cell (see decomp): G numbered in first-seen order, then
        the O and T digits that categorize gives, of len(size_bin_edges) and ten values."""
        return None, len(self.size_bin_edges), len(_NACE_GROUP_RANGES)

    def categorize(self, nace2: int, employees: int) -> tuple[int, int]:
        """One firm's O and T cell digits: its size class index, bisect_right(size_bin_edges,
        employees) - 1, and its technology group minus 1. UnmappedNace if the code has no group."""
        group = _NACE_MAP.get(nace2)
        if group is None:
            raise UnmappedNace(nace2)
        return bisect_right(self.size_bin_edges, employees) - 1, group - 1


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


# --- CSV parsing ------------------------------------------------------------

CANONICAL_COLUMNS = (
    "firm_id",
    "municipality_code",
    "nace2",
    "employees",
    "turnover_nok",
    "foreign_share",
)
# firm_id may be absent; no check reads it, but a present one counts in the row width and the duplicate check
_REQUIRED = CANONICAL_COLUMNS[1:]


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


def _read_header(reader) -> tuple[tuple, int]:
    """Read the header row and return (positions, width): positions are
    indexed like CANONICAL_COLUMNS, None for an absent firm_id, and width is
    the field count a data row needs. Raises MissingColumn, or MalformedRow
    on line 1 when the header names a column more than once.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn(_REQUIRED) from None
    positions = tuple(header.index(c) if c in header else None for c in CANONICAL_COLUMNS)
    missing = [c for c, pos in zip(CANONICAL_COLUMNS, positions) if pos is None and c in _REQUIRED]
    if missing:
        raise MissingColumn(missing)
    duplicate = [c for c in CANONICAL_COLUMNS if header.count(c) > 1]
    if duplicate:
        raise MalformedRow(1, f"duplicate column(s): {', '.join(duplicate)}")
    return positions, max(p for p in positions if p is not None) + 1


def _parse_row(row: list[str], line: int, positions: tuple, width: int) -> tuple[str, int, int, float, float]:
    """Check one data row and return its (municipality, nace2, employees, turnover, share).

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
    try:
        _check_ranges(*values)
    except ValueError as exc:
        raise MalformedRow(line, str(exc)) from None
    municipality = row[muni_at].strip()
    if not municipality:
        raise MalformedRow(line, "municipality_code is empty")
    return (municipality, *values)


# Distinct texts per memo. Past it only the municipality memo learns, and only a text that is its
# own label, as an unpadded municipality is, which the scan numbers anyway; padded variants stay bounded.
_MEMO_LIMIT = 4096


def validate_firm_csv(source, config: ClassificationConfig | None = None,
                      add: Callable[[int, bool, float], None] | None = None,
                      ) -> tuple[int, list[tuple[int, str]]]:
    """Check and classify every row in one pass, collecting every defect.

    Returns (data_row_count, issues), each issue (line_no, message). Each
    accepted row goes in file order to add(cell, foreign, turnover), cell
    being the int code of its (municipality, size class, tech group) over
    config.cell_shape: (g * n_o + o) * n_t + t, with municipalities numbered
    g = 0, 1, ... in the order their labels are first accepted. A header
    defect, a record the csv module cannot read and a byte that is not UTF-8
    end the scan with an issue on their line; the rows before it are counted
    and checked, and the record holding it is not counted. The input is read
    once, never re-read. The header must use the canonical column names.

    Each field's classification is memoized per distinct text: the raw
    municipality, employees and nace2 texts of an accepted row map to their
    shares of its cell code, g * n_o * n_t, o * n_t and t, since each of
    their checks reads that field alone. A row whose three texts are all
    known and whose turnover and share convert and lie in range is accepted
    from the memos, its cell the sum of the three shares. Every other row
    goes through _parse_row and categorize, which name its defect or give
    its digits, and teaches the memos its texts, as far as _MEMO_LIMIT allows.
    """
    config = config or ClassificationConfig()
    categorize, cutoff, inf = config.categorize, config.foreign_cutoff, math.inf
    _, n_o, n_t = config.cell_shape
    municipalities, sizes, groups = {}, {}, {}  # raw text -> its share of the cell code
    g_shares: dict[str, int] = {}  # each municipality label's share, in first-seen order
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
                    cell = municipalities[row[muni_at]] + sizes[row[employees_at]] + groups[row[nace_at]]
                    turnover, share = float(row[turnover_at]), float(row[share_at])
                    known = len(row) >= width and 0.0 <= turnover < inf and 0.0 <= share <= 1.0
                except (LookupError, ValueError):  # a new text, a short row or a failed conversion
                    known = False
                if not known:
                    line = reader.line_num
                    try:
                        municipality, nace2, employees, turnover, share = _parse_row(row, line, positions, width)
                        o, t = categorize(nace2, employees)
                    except (MalformedRow, UnmappedNace) as exc:
                        issues.append((line, exc.reason))
                        continue
                    g_share = g_shares.setdefault(municipality, len(g_shares) * n_o * n_t)
                    cell = g_share + o * n_t + t
                    for (memo, at), part in zip(memos, (g_share, o * n_t, t)):
                        if len(memo) < _MEMO_LIMIT or memo is municipalities and row[at] == municipality:
                            memo[row[at]] = part
                if add is not None:
                    add(cell, share >= cutoff, turnover)
        except MalformedRow as exc:  # a header defect, MissingColumn included
            issues.append((exc.line_no, exc.reason))
        except (csv.Error, UnicodeDecodeError) as exc:
            issues.append(_reader_defect(reader.line_num, exc))
    return rows, issues

