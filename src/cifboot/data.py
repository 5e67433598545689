"""Competing-risks samples and their counting-process representation.

A subject is observed from an entry time (0 unless left-truncated) until an
exit time, at which it either fails from cause 1, fails from cause 2, or is
censored.  Estimation works on a compiled panel: the sorted distinct exit
times together with at-risk counts and cause-specific jump counts.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class DataError(ValueError):
    """Invalid user input (malformed file, bad configuration, empty sample)."""


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

    times, inverse = np.unique(exit_, return_inverse=True)
    m = times.shape[0]
    d1 = np.bincount(inverse[status == Status.CAUSE1], minlength=m)
    d2 = np.bincount(inverse[status == Status.CAUSE2], minlength=m)
    d0 = np.bincount(inverse[status == Status.CENSORED], minlength=m)

    entries_sorted = np.sort(entry)
    exits_sorted = np.sort(exit_)
    # Y(t) = #{entry < t} - #{exit < t}; exits after entries, so the
    # difference counts exactly the subjects with entry < t <= exit.
    at_risk = (np.searchsorted(entries_sorted, times, side="left")
               - np.searchsorted(exits_sorted, times, side="left"))

    jumps = np.full((n, 2), -1, dtype=np.int64)
    is_event = status > 0
    jumps[is_event, 0] = inverse[is_event]
    jumps[:, 1] = np.where(is_event, status, 0)

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

    return PositiveRiskReport(
        n=panel.n,
        horizon=float(horizon),
        min_fraction=min_fraction,
        min_time=min_time,
        zero_after=zero_after,
    )


def _at_risk_between(panel: CountingProcessPanel, t: np.ndarray) -> np.ndarray:
    exits = np.repeat(panel.times, panel.d0 + panel.d1 + panel.d2)
    return (np.searchsorted(panel.entries, t, side="left")
            - np.searchsorted(exits, t, side="left"))


def ingest_csv(path, *, entry_col: str = "entry", exit_col: str = "exit",
               status_col: str = "status", censored_code: str = "0",
               cause1_code: str = "1", cause2_code: str = "2") -> Sample:
    """Read a sample from a headed CSV file.

    The exit and status columns are required; the entry column is used when
    present and defaults to 0 otherwise.  Status codes are compared as
    stripped strings against the three configured codes.  Empty lines are
    skipped.  Rows get the same checks as :func:`compile_panel_arrays`, and
    every error names a file line.  The checks run column by column (field
    count, exit, entry, status code, then the row check), so with several
    bad rows the first row failing the earliest check is the one named.
    The file must be UTF-8; a leading byte-order mark is ignored.  A header
    that names the entry, exit or status column twice is an error, and so
    is one name given to two of those roles.

    The rows are parsed in one C pass (``np.loadtxt``).  Where that parse
    fails, or its rows fail a check, the csv-module walk of
    :func:`_walk_rows` reads them instead: it names the bad line, and it
    also accepts what the C parser refuses (``1_000``, padded codes).
    """
    code_map = {censored_code: Status.CENSORED,
                cause1_code: Status.CAUSE1,
                cause2_code: Status.CAUSE2}
    if len(code_map) != 3:
        raise DataError("status codes must be three distinct values")

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].decode("utf-8")
        line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise DataError(f"line {line}: invalid UTF-8 byte "
                        f"0x{raw[exc.start]:02x} in {path}") from None

    stream = io.StringIO(text, newline="")
    reader = csv.reader(stream)
    header = next(reader, [])
    col = {name: j for j, name in enumerate(header)}
    for name in (exit_col, status_col):
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

    body = stream.tell()
    if not any(c in s for s in (text, *code_map) for c in _WALK_ONLY):
        sample = _parse_rows(stream, roles, code_map)
        if sample is not None:
            return sample
        stream.seek(body)
    return _walk_rows(reader, roles, code_map)


# numpy strings drop trailing NULs, and numpy's C float parser skips
# \x1c-\x1f as blanks where float() refuses them: only the walk reads these
_WALK_ONLY = "\x00\x1c\x1d\x1e\x1f"


def _parse_rows(stream, roles: dict[str, int],
                code_map: dict[str, Status]) -> Sample | None:
    """The rows after the header from one ``np.loadtxt`` call, or None where
    the parse or a row check fails.

    Status fields are read one character wider than the longest code, so a
    longer field is cut to a string that matches no code.  A field matches
    a code only when equal to it; a padded field is left to the walk, which
    strips it.
    """
    width = 1 + max(map(len, code_map))
    dtype = [(role, f"U{width}" if role == "status" else "f8")
             for role in roles]
    with warnings.catch_warnings():
        # a body without rows warns; the walk accepts it silently
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(stream, dtype=dtype, comments=None,
                              delimiter=",", quotechar='"',
                              usecols=list(roles.values()), ndmin=1)
        except ValueError:
            return None
    status = np.full(len(rows), -1, dtype=np.int64)
    for code, value in code_map.items():
        if code == code.strip():  # a padded code matches no stripped field
            status[rows["status"] == code] = value
    exit_ = rows["exit"].copy()
    entry = rows["entry"].copy() if "entry" in roles else np.zeros(len(rows))
    if _first_bad_row(entry, exit_, status) is not None:
        return None
    return Sample(entry, exit_, status)


def _walk_rows(reader, roles: dict[str, int],
               code_map: dict[str, Status]) -> Sample:
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
        status = np.array([code_map[c] for c in codes], dtype=np.int64)
    except KeyError as exc:
        k = codes.index(exc.args[0])
        raise DataError(f"line {lines[k]}: unknown status code "
                        f"{exc.args[0]!r}") from None
    bad = _first_bad_row(entry, exit_, status)
    if bad is not None:
        raise DataError(f"line {lines[bad[0]]}: {bad[1]}")
    return Sample(entry, exit_, status)
