"""depthrec benchmark: seeded closed-loop workloads checked by the forward-model oracle.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

One process, one thread, one client: each op starts after the previous one
ends.  With ``--trace 0`` the workload's input pool is cycled in whole
passes and the end-to-end metrics are reported.  The number of passes is
fixed from ``--seconds`` and the workload's nominal op time (measured on a
2-vCPU x86-64 VM), so a run measures about ``--seconds`` seconds there; a
fixed op count rather than a deadline makes ``attempted`` and ``failed``
repeat exactly for a seed, and weighs every input of the pool equally.

The op times are reported speed-adjusted (``ops_per_s_adj``,
``op_ms_p50_adj``, ``op_ms_p90_adj``): a shared host runs this process
faster or slower by up to a third for seconds to minutes at a time, which
no run length averages away.  So a fixed piece of reference work that uses
nothing from ``depthrec`` is timed beside the ops, and each second or so of
op times is scaled to the host speed at which that work takes
``REF_NOMINAL_MS``.  A change to the program moves the adjusted times as it
moves the wall times; a change in the host's speed moves only the latter.
The unadjusted wall times are printed and kept in the details.  With
``--trace 1`` the pool is run once untraced and once under the span tracer
(a fixed op count, so counts repeat exactly), and the per-layer metrics are
reported, with the tracer's cost as ``trace.overhead_ratio``.

Set-up (importing ``depthrec``, generating and preparing the inputs, one
warm-up op) is repeated ``SETUP_REPEATS`` times, purging ``depthrec`` from
``sys.modules`` each time; ``setup_s`` is the median, each set-up
speed-adjusted like the ops by the reference work timed just before and
after it.  numpy and scipy are imported once beforehand and are not part
of it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat the metrics for people, with the failure reasons, the warnings
caught and the machine; the same details go to ``.bench_out/``.  An op
fails when it raises a ``DepthRecError``, exits non-zero or fails the
oracle; ``correct`` is false only when an op raises any other exception or,
in a traced run, tracing changed an output.
"""

from __future__ import annotations

import os

# one thread: pin the BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.interpolate  # noqa: F401  (imported here so set-up times only depthrec)
import scipy.optimize  # noqa: F401

from tracer import Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("errors", "expressions", "series", "parametrization", "modulus",
           "criticals", "taylor", "ivp", "solutions", "reports", "svg", "cli")
SETUP_REPEATS = 5
CAP_FACTOR = 3.0  # a timed loop stops after this many times --seconds
# The host's speed, from the reference work: timed about every REF_EVERY_MS
# of ops, its median over each ~ADJUST_WINDOW_MS of ops scales that window's
# op times to the speed at which the reference work takes REF_NOMINAL_MS
# (its median on a 2-vCPU x86-64 VM).
REF_EVERY_MS = 100.0
ADJUST_WINDOW_MS = 1000.0
REF_NOMINAL_MS = 1.5


@dataclass
class OpResult:
    seconds: float
    outcome: Outcome
    warnings: Counter
    crash: str | None = None
    ref_seconds: float = math.nan  # reference work timed right after this op, if any


def reference_work() -> float:
    """Fixed interpreter and numpy work whose time tracks the host's speed.

    It uses nothing from ``depthrec``, so a change to the program cannot move
    it; a shared host that runs every process slower for a while moves it
    as much as the ops (measured: window medians of maximal op times varied
    by 16% over three minutes, their ratio to this work's by 3%).
    """
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    grid = np.linspace(0.0, 1.0, 2000)
    return acc + float(np.sum(np.sin(grid) ** 2))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def import_depthrec() -> SimpleNamespace:
    """Fresh import of every depthrec module from the checkout's ``src``."""
    for key in [k for k in sys.modules if k == "depthrec" or k.startswith("depthrec.")]:
        del sys.modules[key]
    pkg = importlib.import_module("depthrec")
    if Path(pkg.__file__).resolve().parent != SRC / "depthrec":
        raise SystemExit(f"depthrec imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"depthrec.{m}") for m in MODULES})


def run_op(D, workload, inp, workdir: str) -> OpResult:
    """Time one op, catching its warnings, then check it untimed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = workload.run(D, inp, workdir)
            error = None
        except D.errors.DepthRecError as exc:
            error = exc
        except Exception as exc:  # a crash outside the typed hierarchy is a defect
            dt = time.perf_counter() - t0
            crash = "".join(traceback.format_exception(exc))
            outcome = Outcome(f"crash:{type(exc).__name__}", f"{type(exc).__name__}: {exc}")
            return OpResult(dt, outcome, Counter(), crash)
        dt = time.perf_counter() - t0
    counts = Counter(w.category.__name__ for w in caught)
    if error is not None:
        outcome = Outcome(type(error).__name__, f"{type(error).__name__}: {error}")
    else:
        outcome = workload.check(inp, result, workdir)
    return OpResult(dt, outcome, counts)


def set_up(workload, seed: int, workdir: str):
    """Import, generate, prepare and warm up once; returns the seconds taken."""
    t0 = time.perf_counter()
    D = import_depthrec()
    cases = workload.generate(seed)
    inputs = workload.prepare(D, cases, workdir)
    run_op(D, workload, inputs[0], workdir)
    return time.perf_counter() - t0, D, inputs


def pass_count(workload, seconds: float) -> int:
    """Whole passes over the pool that take about ``seconds`` at the nominal op time."""
    return max(1, round(seconds * 1e3 / (workload.nominal_op_ms * workload.pool_size)))


def timed_loop(D, workload, inputs, passes: int, workdir: str,
               cap_seconds: float = math.inf) -> list[OpResult]:
    """Cycle the pool ``passes`` times; recurring inputs must repeat their bytes.

    On a machine far slower than the nominal one the loop stops early, after
    ``cap_seconds``, so that a run still ends in time.
    """
    results: list[OpResult] = []
    first_digest: dict[int, str] = {}
    ref_stride = max(1, round(REF_EVERY_MS / workload.nominal_op_ms))
    start = time.perf_counter()
    for j in range(passes * len(inputs)):
        if time.perf_counter() - start > cap_seconds:
            break
        idx = j % len(inputs)
        res = run_op(D, workload, inputs[idx], workdir)
        if j % ref_stride == 0:
            res.ref_seconds = time_reference()
        expected = first_digest.setdefault(idx, res.outcome.digest)
        if res.outcome.reason is None and res.outcome.digest != expected:
            res.outcome = Outcome("nondeterministic_bytes", res.outcome.digest)
        results.append(res)
    return results


def traced_pass(D, workload, inputs, workdir: str):
    """The pool once untraced, then once traced; returns both runs and the tracer."""
    plain = [run_op(D, workload, inp, workdir) for inp in inputs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for j, inp in enumerate(inputs):
            tracer.op = j
            traced.append(run_op(D, workload, inp, workdir))
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def machine_facts(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed}


def summarize(results: list[OpResult]) -> dict:
    reasons = Counter(r.outcome.reason for r in results if r.outcome.reason is not None)
    warned = Counter()
    for r in results:
        warned.update(r.warnings)
    return {"attempted": len(results), "failed": sum(reasons.values()),
            "fail_reasons": dict(sorted(reasons.items())),
            "warnings": dict(sorted(warned.items())),
            "crashes": [r.crash for r in results if r.crash][:3]}


def speed_adjusted(times: np.ndarray, refs: np.ndarray, window: int) -> np.ndarray:
    """Op times scaled to the host speed at which the reference takes its nominal time.

    ``refs`` holds the reference time measured after each op (NaN where none
    was); each run of ``window`` consecutive ops is scaled by the median
    reference time within it, or by the previous window's when it has none
    (the short last window of a capped loop).
    """
    adjusted = np.empty_like(times)
    host = float(np.nanmedian(refs))
    for lo in range(0, len(times), window):
        measured = refs[lo:lo + window][~np.isnan(refs[lo:lo + window])]
        if measured.size:
            host = float(np.median(measured))
        adjusted[lo:lo + window] = times[lo:lo + window] * (REF_NOMINAL_MS * 1e-3 / host)
    return adjusted


def timing_metrics(times: np.ndarray, suffix: str = "") -> dict:
    return {
        f"ops_per_s{suffix}": (len(times) / float(times.sum()), "1/s"),
        f"op_ms_p50{suffix}": (float(np.median(times)) * 1e3, "ms"),
        f"op_ms_p90{suffix}": (float(np.percentile(times, 90)) * 1e3, "ms"),
    }


def end_to_end(results: list[OpResult], setups: list[float], setup_refs: list[float],
               workload) -> tuple[dict, dict]:
    """Gated metrics (speed-adjusted set-up and op times, memory) and the raw wall times."""
    times = np.array([r.seconds for r in results])
    refs = np.array([r.ref_seconds for r in results])
    window = max(1, round(ADJUST_WINDOW_MS / workload.nominal_op_ms))
    adjusted = speed_adjusted(times, refs, window)
    adjusted_setups = [s * REF_NOMINAL_MS * 1e-3 / r for s, r in zip(setups, setup_refs)]
    metrics = {"setup_s": (statistics.median(adjusted_setups), "s"),
               **timing_metrics(adjusted, "_adj"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    p90 = float(np.percentile(adjusted, 90))
    detail = {"samples": len(times),
              "samples_above_p90": int(np.count_nonzero(adjusted > p90)),
              "wall": {"setup_s": statistics.median(setups),
                       **{k: v for k, (v, _u) in timing_metrics(times).items()}},
              "ref_ms_median": float(np.nanmedian(refs)) * 1e3,
              "ref_ms_quartiles": [float(q) * 1e3 for q in np.nanpercentile(refs, [25, 75])]}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "depthrec" / "__init__.py").is_file():
        print(f"bench: no depthrec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        setups, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            refs = [time_reference() for _ in range(3)]
            seconds, D, inputs = set_up(workload, args.seed, workdir)
            refs += [time_reference() for _ in range(3)]
            setups.append(seconds)
            setup_refs.append(statistics.median(refs))
        gc.collect()
        gc.freeze()
        detail = {"workload": workload.name, "trace": args.trace,
                  "machine": machine_facts(args.seed), "pool_size": len(inputs),
                  "setup_s_runs": setups, "setup_ref_ms": [r * 1e3 for r in setup_refs]}
        if args.trace:
            plain, traced, tracer = traced_pass(D, workload, inputs, workdir)
            results = traced
            changed = sum(a.outcome != b.outcome for a, b in zip(plain, traced))
            metrics = tracer.layer_metrics()
            metrics["taylor.outside_radius_warnings"] = (
                sum(r.warnings["OutsideRadiusWarning"] for r in traced), "count")
            metrics["trace.overhead_ratio"] = (
                sum(r.seconds for r in traced) / sum(r.seconds for r in plain), "ratio")
            detail["outputs_changed_by_tracing"] = changed
            spans_path = OUT / f"spans-{workload.name}.npz"
            tracer.save(str(spans_path))
            detail["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                               "count": len(tracer.name)}
        else:
            detail["passes"] = pass_count(workload, args.seconds)
            results = timed_loop(D, workload, inputs, detail["passes"], workdir,
                                 cap_seconds=CAP_FACTOR * args.seconds)
            metrics, sampling = end_to_end(results, setups, setup_refs, workload)
            detail.update(sampling)
            changed = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(summarize(results))
    detail["fail_rate"] = detail["failed"] / detail["attempted"]
    correct = not detail["crashes"] and changed == 0

    print(f"depthrec bench  workload={workload.name} seed={args.seed} trace={args.trace} "
          f"pool={len(inputs)} ops={detail['attempted']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_rate':<44} {detail['fail_rate']:>14.6g} ratio  {detail['fail_reasons']}")
    print(f"  warnings caught: {detail['warnings']}")
    if "samples" in detail:
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
        for name, value in detail["wall"].items():
            print(f"  {name + ' (wall, unadjusted)':<44} {value:>14.6g} {units[name]}")
        print(f"  samples: {detail['samples']}, above p90: {detail['samples_above_p90']}; "
              f"reference work {detail['ref_ms_median']:.4g} ms median "
              f"(nominal {REF_NOMINAL_MS} ms)")
    print(f"  machine: {json.dumps(detail['machine'], sort_keys=True)}")
    for crash in detail["crashes"]:
        print(crash)
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
