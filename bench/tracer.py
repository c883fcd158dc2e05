"""Span tracer for the depthrec layers, installed from outside the package.

The tracer replaces each traced function in every ``depthrec`` module
namespace that binds it (``from ... import`` copies a name into the
importing module, so wrapping only the defining module would miss calls
made through those copies).  The ``ModulusModel`` methods are wrapped on
the class.  ``uninstall`` puts every original object back.

Each call becomes one span: name, start, end, parent span and op id, plus
a status (returned or raised) and one integer measure chosen per function
(jet order, nodes emitted, bytes produced).  Spans are kept in flat
arrays in memory; :meth:`Tracer.layer_metrics` reduces them to per-layer
counts and times and :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (defining module, attribute, class or None); the span name is "<module>.<attribute>"
TARGETS = [
    ("modulus", "value", "ModulusModel"),
    ("modulus", "derivative", "ModulusModel"),
    ("modulus", "jet", "ModulusModel"),
    ("criticals", "find_critical_points", None),
    ("taylor", "from_modulus", "CriticalIC"),
    ("taylor", "expand_branch", None),
    ("taylor", "eval_series", None),
    ("ivp", "solve_regular", None),
    ("ivp", "continuation_candidates", None),
    ("ivp", "branch_to_piece", None),
    ("ivp", "bound_following_piece", None),
    ("solutions", "solve_bvp_between_criticals", None),
    ("solutions", "stitch", None),
    ("solutions", "maximal_solution", None),
    ("solutions", "enumerate_branches", None),
    ("solutions", "build_cone", None),
    ("reports", "u_csv_text", None),
    ("reports", "read_u_csv", None),
    ("reports", "solution_csv_text", None),
    ("reports", "report_json_text", None),
    ("svg", "render_svg", None),
    ("cli", "main", None),
]
SPAN_NAMES = [f"{module}.{attr}" for module, attr, _cls in TARGETS]

TERMINATION_KINDS = ["domain_end", "contact", "floor_contact", "step_failure"]


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


def _jet_order(args, kwargs, result) -> int:
    return int(kwargs["order"] if "order" in kwargs else args[2])


def _nodes(args, kwargs, result) -> int:
    return len(result.thetas)


def _termination(result) -> int:
    return TERMINATION_KINDS.index(result.termination.kind.value)


# per-span integer measure, taken after the span's end time is read
MEASURES = {
    "modulus.jet": _jet_order,
    "ivp.solve_regular": _nodes,
    "reports.u_csv_text": _text_bytes,
    "reports.solution_csv_text": _text_bytes,
    "reports.report_json_text": _text_bytes,
    "svg.render_svg": _text_bytes,
}


class Tracer:
    """Records one span per call of each function in :data:`TARGETS`."""

    def __init__(self):
        self.op = -1
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.status = array("b")     # 0 returned, 1 raised
        self.measure = array("q")
        self.tag = array("b")        # termination kind of solve_regular, else -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ``depthrec`` namespace."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "depthrec" or key.startswith("depthrec.")]
        for name_id, (module, attr, cls_name) in enumerate(TARGETS):
            home = sys.modules[f"depthrec.{module}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name_id))
                else:
                    wrapped = self._wrap(raw, name_id)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name_id)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name_id: int):
        measure_fn = MEASURES.get(SPAN_NAMES[name_id])
        is_solver = SPAN_NAMES[name_id] == "ivp.solve_regular"
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops, status = self.parent, self.op_id, self.status
        measures, tags = self.measure, self.tag

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            status.append(1)
            measures.append(0)
            tags.append(-1)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            status[i] = 0
            if measure_fn is not None:
                measures[i] = measure_fn(args, kwargs, result)
            if is_solver:
                tags[i] = _termination(result)
            return result

        return functools.wraps(fn)(traced)

    # reduction ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op_id, dtype=np.int32).astype(np.int64),
            "status": np.frombuffer(self.status, dtype=np.int8).astype(np.int64),
            "measure": np.frombuffer(self.measure, dtype=np.int64).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int8).astype(np.int64),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls, self and total time, plus derived counts.

        Self time is a span's duration minus the durations of its direct
        child spans.  Total time sums only spans with no ancestor of the
        same name, so recursion is not counted twice.
        """
        a = self.arrays()
        n = len(a["name"])
        k = len(SPAN_NAMES)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time[:n]

        # bitmask of the span names on each span's ancestor chain; parents
        # are allocated before their children, so one forward pass suffices
        names = a["name"].tolist()
        parents = a["parent"].tolist()
        masks = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                masks[i] = masks[p] | (1 << names[p])
        mask = np.array(masks, dtype=np.int64) if n else np.zeros(0, dtype=np.int64)
        outermost = ((mask >> a["name"]) & 1) == 0

        calls = np.bincount(a["name"], minlength=k)
        self_ms = np.bincount(a["name"], weights=self_time, minlength=k) * 1e3
        total_ms = np.bincount(a["name"][outermost], weights=dur[outermost],
                               minlength=k) * 1e3
        out: dict[str, tuple[float, str]] = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (int(calls[i]), "count")
            out[f"{span}.self_ms"] = (float(self_ms[i]), "ms")
            out[f"{span}.total_ms"] = (float(total_ms[i]), "ms")

        def nid(span: str) -> int:
            return SPAN_NAMES.index(span)

        def is_(span: str) -> np.ndarray:
            return a["name"] == nid(span)

        def under(span: str) -> np.ndarray:
            return ((mask >> nid(span)) & 1) == 1

        solver = is_("ivp.solve_regular")
        nodes = int(a["measure"][solver].sum())
        u_under_solver = int(np.count_nonzero(is_("modulus.value") & under("ivp.solve_regular")))
        bvps = int(np.count_nonzero(is_("solutions.solve_bvp_between_criticals")))
        resolves = int(np.count_nonzero(solver & under("solutions.solve_bvp_between_criticals")))
        b2p = is_("ivp.branch_to_piece")
        b2p_calls = int(np.count_nonzero(b2p))
        b2p_kept = int(np.count_nonzero(b2p & (a["status"] == 0)))

        out["modulus.jet.order_sum"] = (int(a["measure"][is_("modulus.jet")].sum()), "count")
        out["ivp.solve_regular.nodes"] = (nodes, "count")
        out["ivp.u_evals_per_node"] = (u_under_solver / nodes if nodes else 0.0, "evals/node")
        for code, kind in enumerate(TERMINATION_KINDS):
            out[f"ivp.termination.{kind}"] = (
                int(np.count_nonzero(solver & (a["tag"] == code))), "count")
        out["ivp.branch_to_piece.kept_ratio"] = (
            b2p_kept / b2p_calls if b2p_calls else 0.0, "ratio")
        out["solutions.bvp.resolves_per_bvp"] = (resolves / bvps if bvps else 0.0, "solves/bvp")
        report_fns = [s for s in SPAN_NAMES if s.startswith("reports.") and s in MEASURES]
        out["reports.bytes_out"] = (
            int(sum(a["measure"][is_(s)].sum() for s in report_fns)), "bytes")
        out["svg.bytes_out"] = (int(a["measure"][is_("svg.render_svg")].sum()), "bytes")
        return out

    def save(self, path: str) -> None:
        """Write every span and the name table as a compressed ``.npz``."""
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES),
                            termination_kinds=np.array(TERMINATION_KINDS),
                            **self.arrays())
