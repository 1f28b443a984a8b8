"""Self-tests of the benchmark itself.

Run with ``python3 -m pytest -q bench/selftest.py`` from the repository
root.  The file name keeps the library's own test run from collecting
it.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import loewnerkit  # noqa: E402
from loewnerkit import cli  # noqa: E402
from loewnerkit import deterministic as dm  # noqa: E402
from loewnerkit import herglotz as hz  # noqa: E402
from loewnerkit import stochastic as st  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, span_summary  # noqa: E402

CATALOGUE = [hz.CayleyLinear(), hz.Cayley(), hz.ConstantImaginary(),
             hz.Automorphism(0.7, -0.3), hz.Automorphism(0.0, 1.0),
             hz.Exponential(), hz.Taylor([1.0, 0.5 + 0.25j, -0.1j])]

POINTS = np.array([0.0, 0.3 + 0.2j, -0.55j, 0.9 * np.exp(2.1j), 0.999])


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


@pytest.mark.parametrize("spec", CATALOGUE, ids=lambda s: s.text_form())
def test_proxy_is_bit_identical(spec):
    tracer = Tracer()
    proxy = tracer.spec(spec)
    assert isinstance(proxy, type(spec))
    assert proxy == spec and proxy.text_form() == spec.text_form()
    for method in ("_bp_field", "_value"):
        for z in list(POINTS) + [POINTS]:
            assert _bits(getattr(proxy, method)(z)) == \
                _bits(getattr(spec, method)(z))
    assert _bits(proxy._taylor(6)) == _bits(spec._taylor(6))
    summary = tracer.summary()["herglotz.field"]
    assert summary["calls"] == 2 * (len(POINTS) + 1)
    assert summary["count"] == 2 * 2 * len(POINTS)


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 6]; a has c [2, 3]
    names = ["root", "a", "b", "c"]
    cols = {"name": np.array([0, 1, 3, 2]),
            "start": np.array([0.0, 1.0, 2.0, 5.0]),
            "end": np.array([10.0, 4.0, 3.0, 6.0]),
            "parent": np.array([-1, 0, 1, 0]),
            "count": np.zeros(4, dtype=np.int64)}
    out = span_summary(cols, names)
    assert out["root"]["self_s"] == pytest.approx(6.0)
    assert out["a"]["self_s"] == pytest.approx(2.0)
    assert out["b"]["self_s"] == pytest.approx(1.0)
    assert out["c"]["self_s"] == pytest.approx(1.0)
    assert out["root"]["busy_s"] == pytest.approx(10.0)
    assert [out[n]["calls"] for n in names] == [1, 1, 1, 1]


def test_tracer_spans_nest_and_uninstall_restores():
    before = {(m.__name__, k): v for m in (loewnerkit, hz, dm, st, cli)
              for k, v in vars(m).items()}
    bound_table = dict(cli._BOUND_SPECS)
    tracer = Tracer()
    tracer.install(loewnerkit)
    try:
        assert cli.evolve_phi is dm.evolve_phi
        assert cli.evolve_phi is not before[("loewnerkit.cli", "evolve_phi")]
        spec = cli.parse_spec("cayley")
        path = st.sample_brownian(st.derive_path_seed(3, 0), 0.01, 10)
        st.evolve_phi_pathwise(spec, 1.0, 0.2, path, [0.1])
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in (loewnerkit, hz, dm, st, cli)
             for k, v in vars(m).items()}
    assert after == before
    assert cli._BOUND_SPECS == bound_table
    summary = tracer.summary()
    # 10 RK4 steps, four field calls each, all inside the stepper's span
    assert summary["herglotz.field"]["calls"] == 40
    assert tracer.counters["stochastic.rk4_steps"] == 10
    cols = tracer.columns()
    names = np.array(tracer.names)[cols["name"]]
    stepper = int(np.flatnonzero(names == "stochastic.evolve_phi_pathwise")[0])
    assert np.all(cols["parent"][names == "herglotz.field"] == stepper)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.make_tasks(workload, 11, 0)
    assert first == workloads.make_tasks(workload, 11, 0)
    assert first != workloads.make_tasks(workload, 12, 0)
    assert first != workloads.make_tasks(workload, 11, 1)
    assert len(first) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_count_depends_only_on_the_arguments(workload):
    # a fixed task set per seed keeps attempted and failed reproducible
    import run
    assert run.pass_count(workload, 0.5) == 1
    assert run.pass_count(workload, 30) == int(30 // run.NOMINAL_PASS_S[workload])
    assert run.pass_count(workload, 30) >= 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_traced_matches_untraced(workload, tmp_path):
    tasks = workloads.make_tasks(workload, 3, 0)
    # one task of each kind, the cheapest of its kind
    chosen = {}
    for task in tasks:
        best = chosen.get(task.kind)
        if best is None or task.path_steps < best.path_steps:
            chosen[task.kind] = task
    tasks = [workloads.warmup_task(workload)] + list(chosen.values())
    plain = [workloads.run_task(t, str(tmp_path / ("u%d" % i)))
             for i, t in enumerate(tasks)]
    tracer = Tracer()
    tracer.install(loewnerkit)
    try:
        traced = [workloads.run_task(t, str(tmp_path / ("u%d" % i)))
                  for i, t in enumerate(tasks)]
    finally:
        tracer.uninstall()
    for task, a, b in zip(tasks, plain, traced):
        assert a.status in ("ok", "error"), (task, a.detail)
        assert (a.status, a.digest) == (b.status, b.digest), task
    assert len(tracer) > 0


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "det_cli",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
