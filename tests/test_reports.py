"""Serialization: the JSON report writer and the u.csv reader.

``json.dumps(obj, sort_keys=True, indent=2)`` is the oracle of the direct
JSON writer, and the row-by-row ``csv.reader`` loop that ``read_u_csv``
used before its one-pass parse is kept here as the oracle of the reader.
"""

import csv
import json
import math
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import depthrec.cli as cli
from depthrec.cli import main
from depthrec.errors import DepthRecError, DomainError
from depthrec.ivp import RegularIC, solve_regular
from depthrec.modulus import ClosedFormModulus, SampledModulus
from depthrec.reports import (
    _json, format_float, read_solution_csv, read_u_csv, report_json_text, solution_csv_text,
    u_csv_text,
)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# -- JSON writer --------------------------------------------------------------

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7,
                   0.1, 123456789.123]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_INTS = st.one_of(st.integers(), st.integers(min_value=-10 ** 40, max_value=10 ** 40),
                  st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 300]))
# st.text draws control characters, non-ASCII and astral code points
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS,
                     _FLOATS.map(np.float64), st.text(max_size=8))
_TREES = st.recursive(
    st.one_of(_SCALARS, st.lists(_FLOATS, max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example([1.0, 2, 3.5])
@example([1.0, math.nan, -0.0, 5e-324, math.inf, -math.inf])
@example([True, 1.5, None, "\x00é\U0001f600", 10 ** 30])
@example({"b": 1, "a": [0.1, 0.2], "é": "\n\t\"\\", "A": None})
# the memo of all-float lists: ints and bools pack to the bytes of floats,
# -0.0 and 0.0 do not, NaN lists repeat, and one list sits at two depths
@example({"a": [1.0, 2.0], "b": [1, 2]})
@example([[0.0], [-0.0]])
@example([[1.0, math.nan], [1.0, math.nan]])
@example([[True], [1.0]])
@example([[0.5, 1.5], [[0.5, 1.5]], [0.5, 1.5]])
def test_json_writer_equals_json_dumps(tree):
    assert _json(tree, "", {}) == _dumps(tree)
    assert report_json_text({"payload": tree, "other": [tree]}) == \
        _dumps({"payload": tree, "other": [tree]}) + "\n"


def test_json_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        report_json_text({"x": object()})
    with pytest.raises(TypeError):
        report_json_text({"x": np.int64(1)})
    with pytest.raises(TypeError):
        report_json_text({"x": np.bool_(True)})


@pytest.fixture(scope="module")
def sampled_profile(tmp_path_factory):
    """A spline profile on which every report-writing subcommand succeeds."""
    path = tmp_path_factory.mktemp("sampled") / "u.csv"
    assert main(["forward", "--rho", "2 + 0.15*sin(2*theta + 0.5)",
                 "--domain", "0.2", "2.9", "--samples", "201",
                 "--out", str(path)]) == 0
    return str(path)


def _first_critical(path: str, tmp_path) -> float:
    out = tmp_path / "critical.json"
    assert main(["critical", "--u-csv", path, "--out", str(out)]) == 0
    return json.loads(out.read_text())["criticals"]["points"][0]["theta"]


@pytest.mark.parametrize("command", ["critical", "maximal", "enumerate",
                                     "enumerate --max-switches 2", "cone",
                                     "branch", "validate"])
def test_json_writer_on_real_reports(command, sampled_profile, tmp_path, monkeypatch):
    extra = {
        "enumerate": ["--ic", "0.5", "2.0", "--max-switches", "1"],
        # solutions that share pieces, so the report repeats node columns
        "enumerate --max-switches 2": ["--ic", "1.0", "2.0", "--max-switches", "2"],
        "cone": ["--sample", "1.0", "2.0"],
        "branch": ["--theta0", repr(_first_critical(sampled_profile, tmp_path))],
    }.get(command, [])
    reports = []

    def recording(report):
        reports.append(report)
        return report_json_text(report)

    monkeypatch.setattr(cli, "report_json_text", recording)
    out = tmp_path / "report.json"
    assert main([command.split()[0], "--u-csv", sampled_profile, *extra,
                 "--out", str(out)]) == 0
    [report] = reports
    assert out.read_text() == _dumps(report) + "\n"
    if command == "enumerate --max-switches 2":
        columns = [tuple(piece["nodes"][key]) for sol in report["solutions"]
                   for piece in sol["pieces"] for key in ("theta", "rho", "drho")]
        assert len(set(columns)) < len(columns)


def test_json_writers_in_threads_match_serial_runs():
    # four reports, each with columns repeated within it and shared with the
    # others, written at once by four threads
    rng = np.random.default_rng(5)
    shared = rng.normal(size=300).tolist()
    reports = []
    for i in range(4):
        own = rng.normal(size=200 + 50 * i).tolist()
        reports.append({"solutions": [{"rho": own, "theta": shared, "i": i},
                                      {"rho": shared, "theta": own, "i": [i, 1.0]}],
                        "again": [own, [own], shared]})
    serial = [report_json_text(report) for report in reports]
    barrier = threading.Barrier(4, timeout=60)
    results = [[] for _ in reports]

    def write(i):
        barrier.wait()
        for _ in range(20):
            results[i].append(report_json_text(reports[i]))

    threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for text, runs in zip(serial, results):
        assert runs == [text] * 20
    assert serial == [_dumps(report) + "\n" for report in reports]


# -- u.csv reader ---------------------------------------------------------------

def _read_u_csv_oracle(path: str):
    """The row-by-row reader that the one-pass parse replaced."""
    thetas: list[float] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].strip().lower() == "theta":
                continue
            if len(row) < 2:
                raise DomainError(f"bad profile row {row!r} in {path}")
            thetas.append(float(row[0]))
            values.append(float(row[1]))
    return np.array(thetas), np.array(values)


def _assert_reads_like_oracle(path: str) -> None:
    try:
        thetas, values = _read_u_csv_oracle(path)
    except DomainError as exc:  # a short row
        with pytest.raises(DomainError) as got:
            read_u_csv(path)
        assert str(got.value) == str(exc)
        return
    except ValueError as exc:  # a cell float() rejects: now a DomainError
        cell = str(exc).split(": ", 1)[1]
        with pytest.raises(DomainError, match="^" + re.escape(f"bad number {cell} in")):
            read_u_csv(path)
        return
    try:
        want = SampledModulus(thetas, values)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            read_u_csv(path)
        assert str(got.value) == str(exc)
        return
    u = read_u_csv(path)
    assert u.thetas.tobytes() == want.thetas.tobytes()
    assert u.values.tobytes() == want.values.tobytes()
    if want._spline is not None:
        assert u._pieces.tobytes() == want._pieces.tobytes()


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "u.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return str(path)


_ROWS = "0.1,2.5\n0.2,2.75\n0.35,2.625\n0.5,2.5\n0.75,2.0\n"

NAMED_FILES = {
    "header": "theta,u\n" + _ROWS,
    "header_caps_spaced": " Theta , U \n" + _ROWS,
    "quoted_header": '"theta","u"\n' + _ROWS,
    "header_in_the_middle": _ROWS[:17] + "theta,u\n" + _ROWS[17:],
    "no_header": _ROWS,
    "blank_lines": "theta,u\n\n" + _ROWS.replace("\n", "\n\n"),
    "crlf": ("theta,u\n" + _ROWS).replace("\n", "\r\n"),
    "cr": ("theta,u\n" + _ROWS).replace("\n", "\r"),
    "no_final_newline": "theta,u\n" + _ROWS.rstrip("\n"),
    "quoted_fields": 'theta,u\n"0.1","2.5"\n0.2,"2.75"\n"0.35",2.625\n0.5,2.5\n0.75,2.0\n',
    "quoted_newline": 'theta,u\n"0.1\n",2.5\n' + _ROWS[8:],
    "extra_columns": "theta,u,w\n0.1,2.5,x\n0.2,2.75\n0.35,2.625,,\n0.5,2.5,1,2\n0.75,2.0,\n",
    "surrounding_whitespace": "theta,u\n 0.1 ,\t2.5\n0.2 , 2.75\n\t0.35,2.625 \n0.5,2.5\n0.75,2.0\n",
    "exponents_and_signs": "theta,u\n-1e-1,+2.5E0\n0.2,2.75\n3.5e-1,2.625\n0.5,2.5\n0.75,2\n",
    "nan_and_inf": "theta,u\n0.1,nan\n0.2,inf\n0.35,-Infinity\n0.5,+NaN\n0.75,2.0\n",
    "underscores": "theta,u\n0.1,2_5\n0.2,2.75\n0.35,2.625\n0.5,2.5\n0.75,2.0\n",
    "whitespace_only_line": "theta,u\n0.1,2.5\n   \n" + _ROWS[8:],
    "short_row": "theta,u\n0.1,2.5\n0.2\n" + _ROWS[8:],
    "bad_number": "theta,u\n0.1,2.5\n0.2,abc\n" + _ROWS[8:],
    "empty_cell": "theta,u\n0.1,\n" + _ROWS[8:],
    "comment_is_not_special": "theta,u\n0.1,2.5 # note\n" + _ROWS[8:],
    "too_few_rows": "theta,u\n0.1,2.5\n0.2,2.75\n",
    "header_only": "theta,u\n",
    "blank_after_header": "theta,u\n\n\n",
    "empty": "",
    "not_increasing": "theta,u\n0.2,2.5\n0.1,2.75\n0.35,2.625\n0.5,2.5\n",
}


@pytest.mark.parametrize("name", sorted(NAMED_FILES))
def test_read_u_csv_named_files_match_oracle(name, tmp_path):
    _assert_reads_like_oracle(_write(tmp_path, NAMED_FILES[name]))


@pytest.mark.parametrize("name", ["header", "no_header", "quoted_header", "crlf"])
def test_read_u_csv_drops_a_byte_order_mark(name, tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF; it was read as
    # part of the first cell ("bad number '\ufefftheta'")
    plain = read_u_csv(_write(tmp_path, NAMED_FILES[name]))
    path = tmp_path / "bom.csv"
    path.write_bytes(NAMED_FILES[name].encode("utf-8-sig"))
    u = read_u_csv(str(path))
    assert u.thetas.tobytes() == plain.thetas.tobytes()
    assert u.values.tobytes() == plain.values.tobytes()


def test_read_u_csv_on_forward_output_matches_oracle(tmp_path):
    path = str(tmp_path / "u.csv")
    assert main(["forward", "--rho", "2.1 + 0.17*sin(3*theta + 1.3)",
                 "--domain", "0.2", "2.9", "--samples", "801", "--out", path]) == 0
    _assert_reads_like_oracle(path)


_CELL_FORMATS = [repr, "{:.17g}".format, "{:.6e}".format, " {!r} ".format,
                 '"{!r}"'.format, "\t{!r}".format, "{:+.3f}".format]


@st.composite
def _csv_files(draw):
    n = draw(st.integers(0, 8))
    grid = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
    rows = []
    for theta in grid.tolist():
        value = draw(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_SPECIAL_FLOATS)))
        cells = [draw(st.sampled_from(_CELL_FORMATS))(x) for x in (theta, value)]
        cells += draw(st.lists(st.sampled_from(["", "x", "1", '"a,b"']), max_size=2))
        rows.append(",".join(cells))
    junk = st.sampled_from(["", "", "   ", "0.5", "abc,1", "1,abc", ",", "1_0,2",
                            "theta,u", '"theta",u', "0.5,1 # c"])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(junk))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(["theta,u", "THETA , u", '"theta","u"'])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(rows) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=200, deadline=None)
@given(_csv_files())
def test_read_u_csv_matches_oracle(tmp_path_factory, text):
    _assert_reads_like_oracle(_write(tmp_path_factory.mktemp("csv"), text))


# -- node tables against the node-by-node loops ---------------------------------

def _u_csv_text_oracle(u, samples=501):
    lo, hi = u.domain
    lines = ["theta,u"]
    for th in np.linspace(lo, hi, samples):
        lines.append(f"{format_float(th)},{format_float(u.value(float(th)))}")
    return "\n".join(lines) + "\n"


def _solution_csv_text_oracle(sol, u=None):
    thetas = np.asarray(sol.thetas, dtype=float)
    rhos = np.asarray(sol.rhos, dtype=float)
    drhos = np.asarray(sol.drhos, dtype=float)
    lines = ["theta,rho,drho,x,y,residual"]
    for th, r, dr in zip(thetas, rhos, drhos):
        x = r * math.cos(th)
        y = r * math.sin(th)
        res = abs(dr * dr + r * r - u.value(float(th))) if u is not None else 0.0
        lines.append(",".join(format_float(v) for v in (th, r, dr, x, y, res)))
    return "\n".join(lines) + "\n"


def _text_or_error(fn, *args):
    try:
        return fn(*args)
    except DepthRecError as exc:
        return type(exc), str(exc)


_PROFILES = [
    ClosedFormModulus("(0.51*cos(3*theta + 1.3))^2 + (2.1 + 0.17*sin(3*theta + 1.3))^2",
                      (0.2, 2.9)),
    ClosedFormModulus("1 - theta^2 - 1e-13", (0.0, 1.0)),   # clamps to 0 at theta = 1
    ClosedFormModulus("theta - 1", (0.0, 2.0)),             # negative: InvalidModulus
    ClosedFormModulus("9 + sqrt(1 - theta)", (0.0, 2.0)),   # fails past theta = 1
    SampledModulus(np.linspace(0.0, 2.0, 41), 2.0 + np.sin(3.0 * np.linspace(0.0, 2.0, 41))),
]


@pytest.mark.parametrize("u", _PROFILES)
def test_u_csv_text_matches_node_loop(u):
    assert _text_or_error(u_csv_text, u) == _text_or_error(_u_csv_text_oracle, u)
    for samples in (0, 1, 2, 7):
        assert _text_or_error(u_csv_text, u, samples) == \
            _text_or_error(_u_csv_text_oracle, u, samples)


@pytest.mark.parametrize("u", _PROFILES)
def test_solution_csv_text_matches_node_loop(u):
    lo, hi = u.domain
    piece = solve_regular(_PROFILES[0], RegularIC(0.5, 2.0), +1, "forward")
    for sol in (piece, SimpleNamespace(thetas=np.linspace(lo, hi, 33), rhos=np.full(33, 0.5),
                                       drhos=np.zeros(33))):
        assert _text_or_error(solution_csv_text, sol, u) == \
            _text_or_error(_solution_csv_text_oracle, sol, u)
    assert solution_csv_text(piece) == _solution_csv_text_oracle(piece)


# -- solution.csv reader --------------------------------------------------------

def _solution_file(tmp_path, text: str) -> str:
    path = tmp_path / "solution.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("text,message", [
    ("theta,rho\n0.5,2.0\n0.6,abc\n", "bad number 'abc' in {path}, line 3"),
    ("theta,depth\n0.5,2.0\n", "unknown column 'depth' in {path}, line 1"),
    ("", "no header row in {path}, line 1"),
    ("theta,rho\n0.5,2.0\n0.6\n", "bad solution row ['0.6'] in {path}, line 3: 2 cells expected"),
])
def test_read_solution_csv_rejects_bad_tables(tmp_path, text, message):
    # a bad number, an unknown column, an empty file and a short row each
    # raise the package's DomainError naming the file and line
    path = _solution_file(tmp_path, text)
    with pytest.raises(DomainError) as got:
        read_solution_csv(path)
    assert str(got.value) == message.format(path=path)
