"""Competing-risks samples and their counting-process representation.

A subject is observed from an entry time (0 unless left-truncated) until an
exit time, at which it either fails from cause 1, fails from cause 2, or is
censored.  Estimation works on a compiled panel: the sorted distinct exit
times together with at-risk counts and cause-specific jump counts.
"""

from __future__ import annotations

import csv
import io
import numbers
import warnings
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class DataError(ValueError):
    """Invalid user input (malformed file, bad configuration, empty sample)."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int; a :class:`DataError` unless it is an integer of
    at least ``least`` (not a bool, though Python counts one an integer)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DataError(f"{name} must be >= {least}, got {value}")
    return int(value)


class Status(IntEnum):
    CENSORED = 0
    CAUSE1 = 1
    CAUSE2 = 2


@dataclass(frozen=True, eq=False)
class Sample:
    """A sample as three aligned arrays, one entry per subject.

    ``entry`` is the left-truncation time (0 if the subject was observed
    from time origin), ``exit`` the observed time min(event, censoring) and
    ``status`` the exit code 0 (censored), 1 or 2 (the failure cause).
    """

    entry: np.ndarray
    exit: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return len(self.exit)


@dataclass(frozen=True, eq=False)
class CountingProcessPanel:
    """Compiled counting-process view of a sample.

    ``times`` holds the strictly increasing distinct exit times.  At each
    grid time t, ``at_risk`` is Y(t) = #{i : entry_i < t <= exit_i} and
    ``d1``/``d2``/``d0`` count the cause-1 failures, cause-2 failures and
    censorings at exactly t.  ``subject_jumps`` maps each observation to its
    event jump as a (time index, cause) pair, with (-1, 0) for censored
    subjects.  ``entries`` keeps the sorted entry times so that the at-risk
    process can be reconstructed between grid times.
    """

    times: np.ndarray = field(repr=False)
    at_risk: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    d0: np.ndarray = field(repr=False)
    subject_jumps: np.ndarray = field(repr=False)  # shape (n, 2): time index, cause
    entries: np.ndarray = field(repr=False)
    n: int = 0

    def __post_init__(self):
        for arr in (self.times, self.at_risk, self.d1, self.d2, self.d0,
                    self.subject_jumps, self.entries):
            arr.setflags(write=False)

    @property
    def last_time(self) -> float:
        return float(self.times[-1])

    @property
    def n_events(self) -> int:
        return int(self.d1.sum() + self.d2.sum())


def compile_panel(sample: Sample) -> CountingProcessPanel:
    """Compile a sample into its counting-process panel.

    Tied exits share the same at-risk count (events at a timestamp do not
    deplete Y for concurrent censorings); Y uses the entry-strict,
    exit-inclusive convention.  Exact float equality defines a tie.
    """
    return compile_panel_arrays(sample.entry, sample.exit, sample.status)


def _first_bad_row(entry: np.ndarray, exit_: np.ndarray,
                   status: np.ndarray) -> tuple[int, str] | None:
    """The index of the first row that fails a check and why, or None."""
    checks = (
        (np.isfinite(entry) & np.isfinite(exit_), "times must be finite"),
        (entry >= 0.0, "entry time must be >= 0"),
        (exit_ > entry, "exit must be strictly later than entry"),
        ((status == 0) | (status == 1) | (status == 2), "status must be 0, 1 or 2"),
    )
    ok = np.logical_and.reduce([good for good, _ in checks])
    if ok.all():
        return None
    i = int(np.argmin(ok))
    why = next(msg for good, msg in checks if not good[i])
    return i, f"{why}, got entry={entry[i]}, exit={exit_[i]}, status={status[i]}"


def compile_panel_arrays(entry: np.ndarray, exit_: np.ndarray,
                         status: np.ndarray) -> CountingProcessPanel:
    """Array-level panel compilation (entry, exit, status code 0/1/2).

    This is where every panel's input is checked: 1-d arrays of one length,
    finite times, entry >= 0, exit > entry and a status of 0, 1 or 2.  A
    violation raises :class:`DataError` naming the first bad row.
    """
    entry = np.asarray(entry, dtype=float)
    exit_ = np.asarray(exit_, dtype=float)
    status = np.asarray(status)
    if not (entry.ndim == 1 and entry.shape == exit_.shape == status.shape):
        raise DataError(f"entry, exit and status must be 1-d arrays of one "
                        f"length, got shapes {entry.shape}, {exit_.shape}, "
                        f"{status.shape}")
    n = exit_.shape[0]
    if n == 0:
        raise DataError("cannot compile an empty sample")
    bad = _first_bad_row(entry, exit_, status)
    if bad is not None:
        raise DataError(f"row {bad[0]}: {bad[1]}")
    status = status.astype(np.int64)

    times, inverse, exits = np.unique(exit_, return_inverse=True,
                                      return_counts=True)
    # one count per (grid time, status code) pair, codes in Status order
    d0, d1, d2 = np.bincount(3 * inverse + status,
                             minlength=3 * times.shape[0]).reshape(-1, 3).T

    entries_sorted = np.sort(entry)
    # Y(t) = #{entry < t} - #{exit < t}; exits after entries, so the
    # difference counts exactly the subjects with entry < t <= exit.
    at_risk = (np.searchsorted(entries_sorted, times, side="left")
               - (np.cumsum(exits) - exits))

    jumps = np.empty((n, 2), dtype=np.int64)
    jumps[:, 0] = np.where(status > 0, inverse, -1)
    jumps[:, 1] = status

    return CountingProcessPanel(
        times=times,
        at_risk=at_risk.astype(np.int64),
        d1=d1.astype(np.int64),
        d2=d2.astype(np.int64),
        d0=d0.astype(np.int64),
        subject_jumps=jumps,
        entries=entries_sorted,
        n=n,
    )


@dataclass(frozen=True)
class PositiveRiskReport:
    """Diagnostic for the positive-risk requirement on (0, horizon].

    ``min_fraction`` is the minimum of Y/n over the panel's grid times up to
    the horizon (the values the estimators actually divide by), attained at
    ``min_time``.  ``zero_after`` is the left endpoint of the first interval
    within (0, horizon] on which the at-risk process vanishes (Y drops to 0
    immediately after that time), or None if Y stays positive.
    """

    n: int
    horizon: float
    min_fraction: float
    min_time: float
    zero_after: float | None

    @property
    def ok(self) -> bool:
        return self.zero_after is None


def check_positive_risk(panel: CountingProcessPanel, horizon: float) -> PositiveRiskReport:
    """Report where the at-risk process gets small or vanishes before ``horizon``.

    Purely diagnostic; never raises for a risk-set failure.
    """
    if not horizon > 0:
        raise DataError(f"horizon must be positive, got {horizon}")

    within = panel.times <= horizon
    if within.any():
        frac = panel.at_risk[within] / panel.n
        k = int(np.argmin(frac))
        min_fraction = float(frac[k])
        min_time = float(panel.times[within][k])
    else:
        # no exits by the horizon: report the at-risk level at the horizon
        y_h = _at_risk_between(panel, np.array([horizon]))[0]
        min_fraction = float(y_h / panel.n)
        min_time = float(horizon)

    # Y is constant on each interval (b[k], b[k+1]] between consecutive
    # entry/exit breakpoints, and identically 0 past the last exit.
    breaks = np.unique(np.concatenate((panel.entries, panel.times, [0.0])))
    y_right = _at_risk_between(panel, breaks[1:])
    gaps = np.flatnonzero((y_right == 0) & (breaks[:-1] < horizon))
    zero_after = float(breaks[gaps[0]]) if gaps.size else None
    if zero_after is None and panel.last_time < horizon:
        zero_after = panel.last_time

    return PositiveRiskReport(n=panel.n, horizon=float(horizon),
                              min_fraction=min_fraction, min_time=min_time,
                              zero_after=zero_after)


def _at_risk_between(panel: CountingProcessPanel, t: np.ndarray) -> np.ndarray:
    exits = np.repeat(panel.times, panel.d0 + panel.d1 + panel.d2)
    return (np.searchsorted(panel.entries, t, side="left")
            - np.searchsorted(exits, t, side="left"))


def read_utf8(path) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped; a byte
    that is no UTF-8 is a :class:`DataError` naming its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].decode("utf-8")
        line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise DataError(f"line {line}: invalid UTF-8 byte "
                        f"0x{raw[exc.start]:02x} in {path}") from None


def ingest_csv(path, *, entry_col: str = "entry", exit_col: str = "exit",
               status_col: str = "status") -> Sample:
    """Read a sample from a headed CSV file.

    The exit and status columns are required, and so is the entry column
    under any name but the default ``entry``, whose absence means every
    entry time is 0.  A status field, stripped, must be 0, 1 or 2 (see
    :class:`Status`); callers with other codes map them first.  Empty lines
    are skipped.  Rows get the same checks as :func:`compile_panel_arrays`,
    and every error names a file line.  The checks run column by column
    (field count, exit, entry, status code, then the row check), so with
    several bad rows the first row failing the earliest check is the one
    named.  The file must be UTF-8; a leading byte-order mark is ignored.  A
    header that names the entry, exit or status column twice is an error,
    and so is one name given to two of those roles.

    The rows are parsed in one C pass (``np.loadtxt``).  Where that parse
    fails, or its rows fail a check, the csv-module walk of
    :func:`_walk_rows` reads them instead: it names the bad line, and it
    also accepts what the C parser refuses (``1_000``, padded codes).
    """
    text = read_utf8(path)
    stream = io.StringIO(text, newline="")
    reader = csv.reader(stream)
    header = next(reader, [])
    col = {name: j for j, name in enumerate(header)}
    # only the default entry column may be absent: a misspelt name given
    # for it would otherwise drop the left truncation without a word
    required = ((exit_col, status_col) if entry_col == "entry"
                else (entry_col, exit_col, status_col))
    for name in required:
        if name not in col:
            raise DataError(f"missing required column {name!r} in {path}")
    for name in (entry_col, exit_col, status_col):
        if header.count(name) > 1:
            raise DataError(f"duplicated column {name!r} in {path}")
    if len({entry_col, exit_col, status_col}) != 3:
        raise DataError(f"entry, exit and status must be three different "
                        f"columns, got {entry_col!r}, {exit_col!r} and "
                        f"{status_col!r}")
    roles = {role: col[name] for role, name in (("entry", entry_col),
                                                ("exit", exit_col),
                                                ("status", status_col))
             if name in col}

    walk_only = _WALK_ONLY if text.isascii() else _WALK_ONLY + _WALK_ONLY_WIDE
    if not any(c in text for c in walk_only):
        # numpy iterates a list of lines faster than a stream's readline
        sample = _parse_rows(text[stream.tell():].splitlines(keepends=True),
                             roles)
        if sample is not None:
            return sample
    return _walk_rows(reader, roles)


# numpy strings drop trailing NULs, numpy's C float parser skips \x1c-\x1f
# as blanks where float() refuses them, and str.splitlines ends a line at
# \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029 where the csv module does not:
# only the walk reads these
_WALK_ONLY = "\x00\x1c\x1d\x1e\x1f\v\f"
_WALK_ONLY_WIDE = "\x85\u2028\u2029"
# the one status format a file may use: the codes "0", "1" and "2"
_STATUS_CODES = {str(int(code)): code for code in Status}
# the codes' fields as the C parse holds them, in Status order
_STATUS_KEYS = np.array(list(_STATUS_CODES), dtype="U2").view(np.uint64)


def _parse_rows(lines: list[str], roles: dict[str, int]) -> Sample | None:
    """The rows of the body ``lines`` from one ``np.loadtxt`` call, or None
    where the parse or a row check fails.

    Status fields are read two characters wide, one more than a code, so a
    longer field is cut to a string that matches no code.  A field matches
    a code only when equal to it; a padded field is left to the walk, which
    strips it.
    """
    dtype = [(role, "U2" if role == "status" else "f8") for role in roles]
    with warnings.catch_warnings():
        # a body without rows warns; the walk accepts it silently
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(lines, dtype=dtype, comments=None,
                              delimiter=",", quotechar='"',
                              usecols=list(roles.values()), ndmin=1)
        except ValueError:
            return None
    status = _status_codes(rows["status"])
    exit_ = rows["exit"].copy()
    entry = rows["entry"].copy() if "entry" in roles else np.zeros(len(rows))
    if _first_bad_row(entry, exit_, status) is not None:
        return None
    return Sample(entry, exit_, status)


def _status_codes(fields: np.ndarray) -> np.ndarray:
    """The code of each "U2" status field, -1 where none matches; a field
    equals a code exactly when its 8 bytes do (numpy pads it with NULs)."""
    keys = np.ascontiguousarray(fields).view(np.uint64)
    is0, is1, is2 = (keys == key for key in _STATUS_KEYS)
    return is1 + 2 * is2 - ~(is0 | is1 | is2)


def _walk_rows(reader, roles: dict[str, int]) -> Sample:
    """The rows after the header, read by the csv module one at a time.

    This is the reference reading of the file: every error names the file
    line (``reader.line_num``) of its row.
    """
    need = 1 + max(roles.values())
    rows, lines = [], []
    for row in reader:
        if not row:
            continue
        if len(row) < need:
            raise DataError(f"line {reader.line_num}: expected at least "
                            f"{need} fields, got {len(row)}")
        rows.append(row)
        lines.append(reader.line_num)

    def floats(role):
        text = [row[roles[role]] for row in rows]
        try:
            return np.array(text, dtype=float)
        except ValueError:
            for k, value in enumerate(text):
                try:
                    float(value)
                except ValueError as exc:
                    raise DataError(f"line {lines[k]}: {exc}") from None
            raise

    exit_ = floats("exit")
    entry = floats("entry") if "entry" in roles else np.zeros(len(rows))
    codes = [row[roles["status"]].strip() for row in rows]
    try:
        status = np.array([_STATUS_CODES[c] for c in codes], dtype=np.int64)
    except KeyError as exc:
        k = codes.index(exc.args[0])
        raise DataError(f"line {lines[k]}: unknown status code "
                        f"{exc.args[0]!r}") from None
    bad = _first_bad_row(entry, exit_, status)
    if bad is not None:
        raise DataError(f"line {lines[bad[0]]}: {bad[1]}")
    return Sample(entry, exit_, status)
