"""Checks of the benchmark itself: seeded inputs, tracer transparency and repeatability.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys

import numpy as np
import pytest

import run as bench
from tracer import SPAN_NAMES, TARGETS, Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(bench.SRC))

# a few inputs per workload keep the suite short; maximal's first inputs
# include failing profiles, so error outcomes are compared too
SAMPLE = {"roundtrip": 4, "maximal": 8, "cli": 2}


@pytest.fixture(scope="module")
def D():
    return bench.import_depthrec()


def _inputs(D, name, workdir, seed=3):
    workload = WORKLOADS[name]
    return workload, workload.prepare(D, workload.generate(seed), workdir)[: SAMPLE[name]]


def _traced_run(D, workload, inputs, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = []
        for j, inp in enumerate(inputs):
            tracer.op = j
            outcomes.append(bench.run_op(D, workload, inp, workdir).outcome)
    finally:
        tracer.uninstall()
    return outcomes, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_byte_identical_per_seed(name):
    workload = WORKLOADS[name]
    first = json.dumps(workload.generate(5)).encode()
    assert json.dumps(workload.generate(5)).encode() == first
    assert json.dumps(workload.generate(6)).encode() != first
    assert len(workload.generate(5)) == workload.pool_size


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_length_leaves_ten_samples_above_p90(name):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    assert bench.pass_count(workload, spec["run_seconds"]) * workload.pool_size >= 110


def test_timed_loop_repeats_attempted_and_failed(D, tmp_path):
    """A fixed op count makes a seed's failures repeat exactly, run after run."""
    workdir = str(tmp_path)
    workload, inputs = _inputs(D, "maximal", workdir)
    runs = [[r.outcome.reason for r in bench.timed_loop(D, workload, inputs, 2, workdir)]
            for _ in range(2)]
    assert len(runs[0]) == 2 * len(inputs)
    assert runs[0] == runs[1]
    assert any(runs[0])


def test_speed_adjustment_cancels_host_slowdown():
    """A window where the host runs everything twice as slow reads as the others."""
    times = np.array([0.010, 0.012, 0.020, 0.024, 0.010, 0.012, 0.011])
    refs = np.array([0.0015, np.nan, 0.0030, np.nan, 0.0015, np.nan, np.nan])
    adjusted = bench.speed_adjusted(times, refs, window=2)
    nominal = bench.REF_NOMINAL_MS * 1e-3
    expected = np.array([0.010, 0.012, 0.010, 0.012, 0.010, 0.012, 0.011]) * nominal / 0.0015
    assert adjusted == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_outputs(D, name, tmp_path):
    """Same node arrays (roundtrip, maximal) and CLI bytes (cli) with the tracer on."""
    workdir = str(tmp_path)
    workload, inputs = _inputs(D, name, workdir)
    plain = [bench.run_op(D, workload, inp, workdir).outcome for inp in inputs]
    traced, tracer = _traced_run(D, workload, inputs, workdir)
    assert traced == plain
    assert len(tracer.name) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(D, name, tmp_path):
    workdir = str(tmp_path)
    workload, inputs = _inputs(D, name, workdir)
    runs = [_traced_run(D, workload, inputs, workdir)[1].layer_metrics() for _ in range(2)]
    counts = [{k: v for k, (v, unit) in m.items() if unit != "ms"} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == (6 * SAMPLE[name] if name == "cli" else 0)


def test_uninstall_restores_originals(D):
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "depthrec" or k.startswith("depthrec.")]
    classes = [D.modulus.ModulusModel, D.taylor.CriticalIC]
    before = [dict(vars(owner)) for owner in modules + classes]

    tracer = Tracer()
    tracer.install()
    try:
        rebound = 0
        for module, attr, cls_name in TARGETS:
            if cls_name is not None:
                owner = getattr(sys.modules[f"depthrec.{module}"], cls_name)
                assert vars(owner)[attr] is not before[classes.index(owner) + len(modules)][attr]
                continue
            original = vars(sys.modules[f"depthrec.{module}"])[attr].__wrapped__
            for ns, names in zip(modules, before):
                if names.get(attr) is original:
                    # copies made by ``from ... import`` are wrapped too
                    assert vars(ns)[attr].__wrapped__ is original
                    rebound += ns.__name__ != f"depthrec.{module}"
        assert rebound > 0
    finally:
        tracer.uninstall()

    after = [dict(vars(owner)) for owner in modules + classes]
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[k] is b[k] for k in b)


def test_self_time_excludes_children(D, tmp_path):
    """A span's self time is its duration minus its direct children's."""
    workdir = str(tmp_path)
    workload, inputs = _inputs(D, "maximal", workdir)
    _outcomes, tracer = _traced_run(D, workload, inputs[:1], workdir)
    metrics = tracer.layer_metrics()
    total = sum(metrics[f"{s}.self_ms"][0] for s in SPAN_NAMES)
    top = metrics["criticals.find_critical_points.total_ms"][0] \
        + metrics["solutions.maximal_solution.total_ms"][0]
    assert total == pytest.approx(top, rel=1e-9)
