import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cifboot as cb

import oracles
from conftest import build_panel, subjects


def test_sample_container():
    sample = cb.Sample(np.zeros(2), np.array([1.0, 2.0]), np.array([1, 0]))
    assert len(sample) == 2
    np.testing.assert_array_equal(sample.entry, [0.0, 0.0])
    np.testing.assert_array_equal(sample.exit, [1.0, 2.0])
    np.testing.assert_array_equal(sample.status, [1, 0])


def test_compile_empty_sample_rejected():
    with pytest.raises(cb.DataError, match="empty"):
        cb.compile_panel(cb.Sample(np.array([]), np.array([]), np.array([])))
    with pytest.raises(cb.DataError, match="empty"):
        cb.compile_panel_arrays(np.array([]), np.array([]), np.array([]))


def arrays_with(row, entry=None, exit_=None, status=None):
    """Three valid rows, with one field of ``row`` replaced."""
    e, x, s = np.zeros(3), np.array([1.0, 2.0, 3.0]), np.array([1, 2, 0])
    e[row] = e[row] if entry is None else entry
    x[row] = x[row] if exit_ is None else exit_
    s[row] = s[row] if status is None else status
    return e, x, s


def test_compile_arrays_rejects_unknown_status():
    with pytest.raises(cb.DataError, match="row 1: status must be 0, 1 or 2"):
        cb.compile_panel_arrays(*arrays_with(1, status=3))


def test_compile_arrays_rejects_non_finite_times():
    with pytest.raises(cb.DataError, match="row 2: times must be finite"):
        cb.compile_panel_arrays(*arrays_with(2, exit_=np.nan))
    with pytest.raises(cb.DataError, match="row 0: times must be finite"):
        cb.compile_panel_arrays(*arrays_with(0, entry=-np.inf))


def test_compile_arrays_rejects_bad_entry_and_exit():
    with pytest.raises(cb.DataError, match="row 1: exit must be strictly later"):
        cb.compile_panel_arrays(*arrays_with(1, entry=2.5))
    with pytest.raises(cb.DataError, match="row 0: exit must be strictly later"):
        cb.compile_panel_arrays(*arrays_with(0, entry=1.0))
    with pytest.raises(cb.DataError, match="row 2: entry time must be >= 0"):
        cb.compile_panel_arrays(*arrays_with(2, entry=-0.5))


def test_compile_arrays_reports_first_bad_row():
    e, x, s = arrays_with(2, status=7)
    x[1] = np.nan
    with pytest.raises(cb.DataError, match="row 1: times must be finite"):
        cb.compile_panel_arrays(e, x, s)


def test_compile_arrays_rejects_mismatched_shapes():
    with pytest.raises(cb.DataError, match="one length"):
        cb.compile_panel_arrays(np.zeros(2), np.array([1.0, 2.0, 3.0]),
                                np.array([1, 2, 0]))
    with pytest.raises(cb.DataError, match="1-d"):
        cb.compile_panel_arrays(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]),
                                np.array([1, 2, 0]))


def test_compile_basic_panel():
    # three subjects, one exit each: cause 1 at t=1, cause 2 at t=2, cause 1 at t=3
    panel = build_panel([(0, 2, 1), (0, 4, 2), (0, 6, 1)])
    np.testing.assert_array_equal(panel.times, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(panel.at_risk, [3, 2, 1])
    np.testing.assert_array_equal(panel.d1, [1, 0, 1])
    np.testing.assert_array_equal(panel.d2, [0, 1, 0])
    np.testing.assert_array_equal(panel.d0, [0, 0, 0])
    assert panel.n == 3
    assert panel.n_events == 3
    assert panel.last_time == 3.0


def test_tied_exits_share_risk_set():
    # event and censoring at the same timestamp: both still in Y there
    panel = build_panel([(0, 2, 1), (0, 2, 0), (0, 2, 2), (0, 4, 0)])
    np.testing.assert_array_equal(panel.times, [1.0, 2.0])
    np.testing.assert_array_equal(panel.at_risk, [4, 1])
    assert panel.d1[0] == 1 and panel.d2[0] == 1 and panel.d0[0] == 1


def test_left_truncation_entry_strict():
    # entry at exactly t means not yet at risk at t
    panel = build_panel([(2, 6, 1), (0, 2, 1), (0, 4, 0)])
    np.testing.assert_array_equal(panel.times, [1.0, 2.0, 3.0])
    # at t=1: entries 0,0 < 1 and exits >= 1 for all three minus the late entrant
    np.testing.assert_array_equal(panel.at_risk, [2, 2, 1])


def test_subject_jumps_follow_input_order():
    panel = build_panel([(0, 4, 0), (0, 2, 2), (0, 6, 1)])
    np.testing.assert_array_equal(panel.subject_jumps,
                                  [[-1, 0], [0, 2], [2, 1]])


@given(subjects(n_min=2, n_max=10, truncated=True))
def test_compilation_is_permutation_invariant(subs):
    panel = build_panel(subs)
    shuffled = build_panel(subs[::-1])
    for name in ("times", "at_risk", "d1", "d2", "d0", "entries"):
        np.testing.assert_array_equal(getattr(panel, name), getattr(shuffled, name))


@given(subjects(n_min=2, n_max=10, truncated=True))
def test_at_risk_matches_direct_count(subs):
    panel = build_panel(subs)
    for k, t in enumerate(panel.times):
        direct = sum(1 for a, b, _ in subs if a / 2 < t <= b / 2)
        assert panel.at_risk[k] == direct


def test_positive_risk_clean_sample():
    panel = build_panel([(0, 2, 1), (0, 4, 2), (0, 6, 0)])
    report = cb.check_positive_risk(panel, 2.5)
    assert report.ok
    assert report.zero_after is None
    # minimum of Y/n over the grid times up to the horizon (1 and 2)
    assert report.min_fraction == pytest.approx(2 / 3)
    assert report.min_time == 2.0


def test_positive_risk_min_over_grid_times():
    # Y dips to 1 at the last exit inside the horizon even though it is
    # larger on most of the window
    panel = build_panel([(0, 1, 1), (0, 1, 2), (0, 1, 0), (0, 2, 1)])
    report = cb.check_positive_risk(panel, 1.0)
    assert report.min_fraction == pytest.approx(1 / 4)
    assert report.min_time == 1.0
    assert report.ok


def test_positive_risk_detects_truncation_gap():
    # nobody under observation on (0.5, 1.5]: late entrant only
    panel = build_panel([(0, 1, 1), (3, 5, 1)])
    report = cb.check_positive_risk(panel, 2.5)
    assert not report.ok
    assert report.zero_after == pytest.approx(0.5)


def test_positive_risk_short_followup():
    panel = build_panel([(0, 1, 1), (0, 2, 0)])
    report = cb.check_positive_risk(panel, 5.0)
    assert report.zero_after == pytest.approx(1.0)
    assert not report.ok


@given(subjects(n_min=1, n_max=8, truncated=True), st.integers(0, 40), st.booleans())
@example([(0, 2, 1), (4, 6, 1)], 0, True)  # a gap opening at the horizon
def test_positive_risk_matches_direct_counts(subs, pick, on_break):
    # Y counted straight from the rows: at each interval's midpoint between
    # consecutive entry/exit breakpoints, and at each grid time; half the
    # horizons sit on a breakpoint, where "before the horizon" is decided
    breaks = sorted({0.0} | {a / 2 for a, _, _ in subs} | {b / 2 for _, b, _ in subs})
    horizon = breaks[1 + pick % (len(breaks) - 1)] if on_break else (1 + pick % 28) / 4
    panel = build_panel(subs)
    report = cb.check_positive_risk(panel, horizon)

    def y(t):
        return sum(1 for a, b, _ in subs if a / 2 < t <= b / 2)

    gaps = [lo for lo, hi in zip(breaks, breaks[1:])
            if lo < horizon and y((lo + hi) / 2) == 0]
    if gaps:
        assert report.zero_after == gaps[0]
    elif breaks[-1] < horizon:
        assert report.zero_after == breaks[-1]
    else:
        assert report.zero_after is None

    grid = [t for t in panel.times.tolist() if t <= horizon] or [horizon]
    assert report.min_fraction == min(y(t) / len(subs) for t in grid)
    assert y(report.min_time) / len(subs) == report.min_fraction


def test_positive_risk_rejects_bad_horizon():
    panel = build_panel([(0, 2, 1)])
    with pytest.raises(cb.DataError):
        cb.check_positive_risk(panel, 0.0)


def test_panel_arrays_read_only():
    panel = build_panel([(0, 2, 1), (0, 4, 2)])
    with pytest.raises(ValueError):
        panel.times[0] = 9.0
    with pytest.raises(ValueError):
        panel.at_risk[0] = 99


def test_ingest_csv_roundtrip(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("entry,exit,status\n0,1.5,1\n0.25,2,0\n0,3,2\n")
    sample = cb.ingest_csv(path)
    assert sample.exit.tolist() == [1.5, 2.0, 3.0]
    assert sample.status.tolist() == [1, 0, 2]
    assert sample.entry[1] == 0.25


def test_ingest_csv_entry_column_optional(tmp_path):
    path = tmp_path / "noentry.csv"
    path.write_text("exit,status\n1,1\n2,2\n")
    sample = cb.ingest_csv(path)
    assert sample.entry.tolist() == [0.0, 0.0]


def test_ingest_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("exit,outcome\n1,1\n")
    with pytest.raises(cb.DataError, match="status"):
        cb.ingest_csv(path)


def test_ingest_csv_unknown_status_code(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("exit,status\n1,1\n2,death\n")
    with pytest.raises(cb.DataError, match="line 3"):
        cb.ingest_csv(path)


def test_ingest_csv_malformed_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("exit,status\nnot-a-number,1\n")
    with pytest.raises(cb.DataError, match="line 2"):
        cb.ingest_csv(path)


def test_ingest_csv_custom_codes(tmp_path):
    path = tmp_path / "coded.csv"
    path.write_text("exit,status\n1,relapse\n2,alive\n3,nrm\n")
    sample = cb.ingest_csv(path, censored_code="alive",
                           cause1_code="relapse", cause2_code="nrm")
    assert sample.status.tolist() == [1, 0, 2]


def test_ingest_csv_rejects_duplicate_codes(tmp_path):
    path = tmp_path / "coded.csv"
    path.write_text("exit,status\n1,x\n")
    with pytest.raises(cb.DataError, match="distinct"):
        cb.ingest_csv(path, censored_code="x", cause1_code="x")


def test_ingest_csv_bad_observation_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("entry,exit,status\n0,1,1\n2,1,0\n")
    with pytest.raises(cb.DataError, match="line 3"):
        cb.ingest_csv(path)


def test_ingest_csv_blank_lines_keep_line_numbers(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("exit,status\n\n1,1\n\n2,0\n1,7\n")
    with pytest.raises(cb.DataError, match="^line 6: unknown status code '7'"):
        cb.ingest_csv(path)
    path.write_text("entry,exit,status\n\n\n0,1,1\n3,2,0\n")
    with pytest.raises(cb.DataError, match="^line 5: exit must be strictly later"):
        cb.ingest_csv(path)


@pytest.mark.parametrize("row", ["0,inf,0", "0,1e400,2", "nan,1,1"])
def test_ingest_csv_rejects_non_finite_times(tmp_path, row):
    path = tmp_path / "inf.csv"
    path.write_text(f"entry,exit,status\n0,1,1\n{row}\n")
    with pytest.raises(cb.DataError, match="^line 3: times must be finite"):
        cb.ingest_csv(path)


def test_ingest_csv_short_row_and_blank_code(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("entry,exit,status\n0,1,1\n0,2\n")
    with pytest.raises(cb.DataError,
                       match="^line 3: expected at least 3 fields, got 2$"):
        cb.ingest_csv(path)
    path.write_text("entry,exit,status\n0,1,1\n0,2, \n")
    with pytest.raises(cb.DataError, match="^line 3: unknown status code ''$"):
        cb.ingest_csv(path)


def test_ingest_csv_ignores_byte_order_mark(tmp_path):
    # spreadsheet programs save UTF-8 CSVs with a leading BOM; it must not
    # hide the first column name
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffentry,exit,status\n0.5,1,1\n0.2,2,2\n",
                    encoding="utf-8")
    assert cb.ingest_csv(path).entry.tolist() == [0.5, 0.2]
    path.write_text("\ufeffexit,status\n1,1\n2,0\n", encoding="utf-8")
    assert cb.ingest_csv(path).exit.tolist() == [1.0, 2.0]


def test_ingest_csv_rejects_duplicated_column(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("exit,status,exit\n1,1,2\n")
    with pytest.raises(cb.DataError, match=r"duplicated column 'exit' in .*dup\.csv"):
        cb.ingest_csv(path)
    path.write_text("entry,exit,status,entry\n0,1,1,0\n")
    with pytest.raises(cb.DataError, match="duplicated column 'entry'"):
        cb.ingest_csv(path)
    # columns the reader does not use may repeat
    path.write_text("note,exit,status,note\na,1,1,b\nc,2,0,d\n")
    assert cb.ingest_csv(path).exit.tolist() == [1.0, 2.0]


def test_ingest_csv_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"exit,status\r\n1,1\r\n2,\xff\r\n")
    with pytest.raises(cb.DataError,
                       match=r"^line 3: invalid UTF-8 byte 0xff in .*latin1\.csv$"):
        cb.ingest_csv(path)
    # lines end at CR alone too, and the byte-order mark adds none
    path.write_bytes(b"\xef\xbb\xbfexit,status\r1,1\r2,2\r3,0\xe9\r")
    with pytest.raises(cb.DataError, match="^line 4: invalid UTF-8 byte 0xe9"):
        cb.ingest_csv(path)


@pytest.mark.parametrize("roles", [{"exit_col": "status"},
                                   {"status_col": "exit"},
                                   {"entry_col": "exit"},
                                   {"exit_col": "b", "status_col": "b"}])
def test_ingest_csv_rejects_one_column_in_two_roles(tmp_path, roles):
    path = tmp_path / "roles.csv"
    path.write_text("entry,exit,status,b\n0,1,1,1\n0,2,2,2\n")
    with pytest.raises(cb.DataError, match="must be three different columns"):
        cb.ingest_csv(path, **roles)


@pytest.mark.parametrize("text, cause1_code, message", [
    ("exit,status\n\x1c1,1\n", "1", "^line 2: could not convert string to float"),
    ("exit,status\n1,1\x00\n", "1", r"^line 2: unknown status code '1\\x00'"),
    ("exit,status\n1,1\n", "1\x00", "^line 2: unknown status code '1'"),
])
def test_ingest_csv_reads_control_characters_like_the_walk(
        tmp_path, text, cause1_code, message):
    # numpy's C float parser skips \x1c-\x1f as blanks and its strings drop
    # trailing NULs; neither may let a row through that the walk refuses
    path = tmp_path / "ctrl.csv"
    path.write_text(text)
    with pytest.raises(cb.DataError, match=message):
        cb.ingest_csv(path, cause1_code=cause1_code)


@st.composite
def csv_samples(draw, scale):
    """Subjects written as CSV text: random column order, custom status
    codes and blank lines, the entry column dropped when every entry is 0."""
    subs = draw(subjects(n_min=1, truncated=True))
    cols = ["exit", "status"] + (["entry"] if any(a for a, _, _ in subs) else [])
    cols = draw(st.permutations(cols))
    codes = draw(st.lists(st.text("abz09", min_size=1, max_size=3),
                          min_size=3, max_size=3, unique=True))
    lines = [",".join(cols)]
    for a, b, s in subs:
        lines += [""] * draw(st.integers(0, 2))
        pad = draw(st.sampled_from(["", " "]))
        field = {"entry": repr(a / 2 * scale), "exit": repr(b / 2 * scale),
                 "status": pad + codes[s] + pad}
        lines.append(",".join(field[c] for c in cols))
    return "\n".join(lines) + "\n", subs, codes


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 1000, 2.0 ** -1000])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ingest_csv_compiles_like_arrays(tmp_path, scale, data):
    text, subs, codes = data.draw(csv_samples(scale))
    path = tmp_path / "sample.csv"
    path.write_text(text)
    got = cb.compile_panel(cb.ingest_csv(
        path, censored_code=codes[0], cause1_code=codes[1], cause2_code=codes[2]))
    want = build_panel(subs)
    assert got.n == want.n
    for name in ("times", "at_risk", "d1", "d2", "d0", "subject_jumps", "entries"):
        expect = getattr(want, name)
        if name in ("times", "entries"):
            expect = expect * scale
        actual = getattr(got, name)
        assert actual.dtype == expect.dtype and actual.shape == expect.shape
        assert actual.tobytes() == expect.tobytes(), name


_TIME_ODDITIES = ["1_000", "nan", "inf", "-inf", "1e400", " 1.5", "1.5 ",
                  '"1.5"', '"1""5"', '1"5"', "x", "", "-0", "1e-320", "+2",
                  "\uff11", "\x1c1", "1\x1f", "1\x00", '"2\n"']
_CODE_ODDITIES = ["{}2", " {}", "{} ", '"{}"', '"{}\r\n"', '{}""', '"a""b"',
                  "", "{}\x00", "\x1c{}"]


@st.composite
def messy_csv(draw):
    """CSV text on which a C-level parse and the csv module might differ:
    quoting, blank and whitespace-only lines, mixed line ends, short and
    long rows, a byte-order mark, codes and fields that extend a code, and
    numbers only Python's float() reads.  At most one field per file is
    odd, so that the rest of the file does not hide how it is read."""
    codes = draw(st.one_of(
        st.sampled_from([("0", "1", "2"), ("alive", "relapse", "nrm"),
                         ("1", "10", "2"), ("1", "1\x00", "2")]),
        st.lists(st.text(' az0"\x00', max_size=3), min_size=3, max_size=3,
                 unique=True).map(tuple)))
    cols = draw(st.permutations(["entry", "exit", "status", "note"]))
    cols = [c for c in cols if c != "entry" or draw(st.booleans())]
    header = ",".join(f'"{c}"' if draw(st.booleans()) else c for c in cols)
    lines = [header]
    n = draw(st.integers(0, 6))
    odd_row = draw(st.integers(0, 2 * n))  # past the last row: none odd
    for k in range(n):
        fault = draw(st.integers(0, 19))  # 4 to 19: a clean row
        if fault < 2:
            lines.append(["", draw(st.sampled_from(["  ", "\t"]))][fault])
        entry = draw(st.floats(0, 2))
        field = {"entry": repr(entry),
                 "exit": repr(entry + draw(st.floats(0.001, 3))),
                 "status": draw(st.sampled_from(codes)),
                 "note": draw(st.sampled_from(["n", '"a,b"', '"say ""hi"""']))}
        if k == odd_row:
            odd = draw(st.sampled_from(["entry", "exit", "status"]))
            if odd == "status":
                field[odd] = draw(st.sampled_from(_CODE_ODDITIES)).format(
                    draw(st.sampled_from(codes)))
            else:
                field[odd] = draw(st.sampled_from(_TIME_ODDITIES))
        row = [field[c] for c in cols]
        row = {2: row[:-1], 3: row + ["extra"]}.get(fault, row)
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + text, codes


def _outcome(read, path, codes):
    kwargs = dict(zip(("censored_code", "cause1_code", "cause2_code"), codes))
    try:
        return read(path, **kwargs)
    except (cb.DataError, oracles.ReferenceDataError) as exc:
        return "DataError", str(exc)
    except Exception as exc:  # the walk's own failures must match too
        return type(exc).__name__, str(exc)


@settings(max_examples=1000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ingest_csv_matches_the_csv_walk(tmp_path, data):
    text, codes = data.draw(messy_csv())
    path = tmp_path / "messy.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(oracles.reference_ingest_csv, path, codes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(cb.ingest_csv, path, codes)
    assert caught == []
    if isinstance(got, cb.Sample):
        got = got.entry, got.exit, got.status
        assert not isinstance(want[0], str), want
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    else:
        assert isinstance(want[0], str) and got == want
