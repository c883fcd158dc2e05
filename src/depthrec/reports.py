"""Serialization: CSV node tables, the JSON report, atomic writes.

All float formatting is deterministic: CSV carries 17 significant digits
(lossless round-trip), JSON uses Python's shortest-repr floats.  The JSON
comes from a direct writer whose bytes equal those of
``json.dumps(report, sort_keys=True, indent=2)`` (``NaN``/``Infinity``
included); ``json.dumps`` cannot use its C encoder with an indent, and its
pure-Python one costs about twice as much.  Writes go through a temp file
plus rename so readers never see partial output.

Float formatting is most of the JSON writer's time.  Within one report
each list whose items are all exactly ``float`` is formatted once per
nesting depth and its text reused: ``enumerate`` pairs every left path
with every right path, so one report repeats each shared node column in
several solutions.  The memo is keyed by the list's IEEE bytes, which tell
``-0.0`` from ``0.0``; only exact floats are keyed, because ``1`` and
``True`` pack to the bytes of ``1.0`` but are written ``1`` and ``true``.
It lives for one ``report_json_text`` call, so concurrent writers share
nothing.  ``u.csv`` is formatted by one ``%`` over all its cells.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from array import array
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .criticals import CriticalSet
from .errors import DomainError
from .ivp import SolutionPiece
from .modulus import ModulusModel, SampledModulus
from .series import factorials
from .solutions import ConvergenceCone, PiecewiseSolution
from .taylor import TaylorBranch

__all__ = [
    "atomic_write_text", "format_float", "u_csv_text", "read_u_csv",
    "solution_csv_text", "read_solution_csv", "report_json_text",
    "piece_payload", "solution_payload", "criticals_payload",
    "branch_payload", "cone_payload", "empty_report",
]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-depthrec-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def u_csv_text(u: ModulusModel, samples: int = 501) -> str:
    lo, hi = u.domain
    thetas = np.linspace(lo, hi, samples)
    # "%.17g" writes what format_float writes; the rows interleave theta and U
    cells = np.column_stack([thetas, u.value_grid(thetas)]).ravel().tolist()
    return "theta,u\n" + ("%.17g,%.17g\n" * samples) % tuple(cells)


def read_u_csv(path: str) -> SampledModulus:
    """Profile samples from a ``theta,u`` CSV file.

    Rows that are blank or whose first cell reads ``theta`` are skipped;
    columns after the second are ignored.  A short row or a cell that is not
    a number raises ``DomainError``.  A regular file (one header line at
    most, no other irregular row) is parsed by ``np.loadtxt`` in one pass,
    with the same cells and the same float conversion as ``float``; any
    other file goes through ``csv.reader`` row by row.  The file is read as
    UTF-8, a leading byte-order mark (a spreadsheet's "CSV UTF-8" export)
    dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        text = handle.read()
    header = text.split(",", 1)[0].strip().lower() == "theta"
    # loadtxt warns on a file without data rows; leave those to the row loop
    if (text.partition("\n")[2] if header else text).strip():
        try:
            table = np.loadtxt(io.StringIO(text, newline=""), delimiter=",",
                               comments=None, quotechar='"', usecols=(0, 1),
                               skiprows=int(header), ndmin=2)
        except ValueError:
            pass
        else:
            thetas, values = table.T.copy()
            return SampledModulus(thetas, values)
    return SampledModulus(*_u_csv_rows(text, path))


def _u_csv_rows(text: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    thetas: list[float] = []
    values: list[float] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row or row[0].strip().lower() == "theta":
            continue
        if len(row) < 2:
            raise DomainError(f"bad profile row {row!r} in {path}")
        thetas.append(_csv_float(row[0], path, reader.line_num))
        values.append(_csv_float(row[1], path, reader.line_num))
    return np.array(thetas), np.array(values)


def _csv_float(cell: str, path: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DomainError(f"bad number {cell!r} in {path}, line {line}") from None


def solution_csv_text(sol, u: ModulusModel | None = None) -> str:
    """Node table theta,rho,drho,x,y,residual for a piece or a solution."""
    thetas = np.asarray(sol.thetas, dtype=float)
    rhos = np.asarray(sol.rhos, dtype=float)
    drhos = np.asarray(sol.drhos, dtype=float)
    if u is None:
        residuals = np.zeros_like(thetas)
    else:
        residuals = np.abs(drhos * drhos + rhos * rhos - u.value_grid(thetas))
    lines = ["theta,rho,drho,x,y,residual"]
    for th, r, dr, res in zip(thetas, rhos, drhos, residuals):
        x = r * math.cos(th)
        y = r * math.sin(th)
        lines.append(",".join(format_float(v) for v in (th, r, dr, x, y, res)))
    return "\n".join(lines) + "\n"


def read_solution_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a node table written by :func:`solution_csv_text`.

    The first row names the columns, each one of ``theta, rho, drho, x, y,
    residual``; blank rows are skipped.  An empty file, an unknown column, a
    row with more or fewer cells than the header or a cell that is not a
    number raises ``DomainError`` naming the path and line.
    """
    cols: dict[str, list[float]] = {k: [] for k in
                                    ("theta", "rho", "drho", "x", "y", "residual")}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"no header row in {path}, line 1")
        for key in header:
            if key not in cols:
                raise DomainError(f"unknown column {key!r} in {path}, line {reader.line_num}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DomainError(f"bad solution row {row!r} in {path}, "
                                  f"line {reader.line_num}: {len(header)} cells expected")
            for key, val in zip(header, row):
                cols[key].append(_csv_float(val, path, reader.line_num))
    return {k: np.array(v) for k, v in cols.items()}


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


def piece_payload(piece: SolutionPiece) -> dict:
    return {
        "sign": piece.sign,
        "direction": piece.direction,
        "dense_contact": piece.dense_contact,
        "termination": {"kind": piece.termination.kind.value,
                        "theta": piece.termination.theta},
        "nodes": {
            "theta": _floats(piece.thetas),
            "rho": _floats(piece.rhos),
            "drho": _floats(piece.drhos),
        },
    }


def solution_payload(sol: PiecewiseSolution) -> dict:
    return {
        "c1": sol.c1,
        "sign_pattern": sol.sign_pattern,
        "junctions": [{"theta": j.theta, "kind": j.kind.value,
                       "delta_rho": j.delta_rho, "delta_drho": j.delta_drho}
                      for j in sol.junctions],
        "pieces": [piece_payload(p) for p in sol.pieces],
    }


def criticals_payload(cs: CriticalSet) -> dict:
    return {
        "dense": cs.dense,
        "dense_intervals": [[a, b] for a, b in cs.dense_intervals],
        "rejected": [{"theta": th, "reason": reason} for th, reason in cs.rejected],
        "points": [{
            "theta": p.theta,
            "depth": p.depth,
            "kind": p.kind.value,
            "boundary": p.boundary,
            "u_jet": _floats(p.u_jet.coeffs),
        } for p in cs.points],
    }


def branch_payload(branch: TaylorBranch) -> dict:
    return {
        "theta0": branch.ic.theta0,
        "rho0": branch.ic.rho0,
        "beta": branch.beta,
        "status": branch.status.value,
        "free_index": branch.free_index,
        "consistency_residual": branch.consistency_residual,
        "derivatives": _floats(branch.coeffs * factorials(branch.order)),
    }


def cone_payload(cone: ConvergenceCone) -> dict:
    return {
        "apex_theta": cone.apex_theta,
        "apex_depth": cone.apex_depth,
        "domain": [cone.domain[0], cone.domain[1]],
        "side": cone.side,
        "upper": solution_payload(cone.upper),
        "lower": solution_payload(cone.lower),
    }


def empty_report() -> dict:
    return {"criticals": {}, "branches": [], "maximal": {}, "cones": [],
            "solutions": []}


def _json(value, indent: str, memo: dict) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    at nesting ``indent``; dict keys must be strings.  ``memo`` maps
    ``(indent, bytes)`` of each all-float list written so far to its text."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) != {float}:
            body = sep.join([_json(v, inner, memo) for v in value])
            return f"[\n{inner}{body}\n{indent}]"
        key = (indent, array("d", value).tobytes())
        text = memo.get(key)
        if text is None:
            # one join; a finite float's repr holds no "n", "nan" and "inf" do
            body = sep.join(map(float.__repr__, value))
            if "n" in body:
                body = sep.join([_json(v, inner, memo) for v in value])
            text = memo[key] = f"[\n{inner}{body}\n{indent}]"
        return text
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_json_str(k)}: {_json(v, inner, memo)}"
                         for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_json_text(report: dict) -> str:
    return _json(report, "", {}) + "\n"
