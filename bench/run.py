"""loewnerkit benchmark: closed-loop workloads with checked outputs.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc_blocked --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 1

Each workload (see workloads.py) runs in its own single-threaded process
against the library in ``src/``; BLAS and OpenMP pools are pinned to one
thread.  The run first measures set-up in fresh processes, then runs
passes over generated task lists, each pass a new list.  The number of
passes is fixed by ``--seconds`` and the workload's nominal pass time
(``NOMINAL_PASS_S``, measured on a 2-core x86-64 VM), not by the clock,
so one seed always gives the same tasks, the same ``attempted`` count
and the same failures; a run measures about ``--seconds`` seconds on
hardware like that and less once the library gets faster.

``--trace 0`` reports the end-to-end metrics with tracing off; the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}`` with
every metric named in BENCHMARK.json's ``end_to_end`` list.  ``wall_s``
is the mean time of a pass (one task list), ``task_p50_s`` and
``task_p90_s`` are nearest-rank percentiles over every task of the run
that returned, and ``setup_s`` is the median over five fresh processes
of import, task generation and one warm-up task.  The lines
before it list the same metrics plus ``fail_frac`` and, on the Monte
Carlo workloads, ``path_steps_per_s``.  ``failed`` counts every task
that raised or failed its check; ``correct`` is false when an exact
check failed, a traced output differed, or more than 1% of the tasks
failed a 4 SE check (a single one fails by chance about once in 10^4).

``--trace 1`` runs each pass twice, untraced and then traced (spans.py),
requires bit-identical task outputs between the two, and reports the
``per_layer`` metrics as values per pass (counts and seconds summed over
the pass).  The spans are written to ``.bench_out/spans-<workload>.npz``.

Every run writes its full record, provenance included, to
``.bench_out/<workload>-trace<0|1>.json``.

Self-tests: ``python3 -m pytest -q bench/selftest.py``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mc_blocked", "mc_pathwise", "det_cli")
MC_WORKLOADS = ("mc_blocked", "mc_pathwise")
# seconds one untraced pass takes on a 2-core x86-64 VM (median of ten
# seeds); a run makes floor(--seconds / this) passes, at least one
NOMINAL_PASS_S = {"mc_blocked": 8.3, "mc_pathwise": 5.1, "det_cli": 6.2}
# fresh processes timed for setup_s, besides the measuring process itself
SETUP_PROBES = 4
# share of tasks whose 4 SE checks may fail before a run is incorrect
STAT_FAIL_FRAC = 0.01
# kinds whose increments come from the blocked estimators
BLOCKED_KINDS = ("expectation", "covariance", "backward")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s",
                    "task_p90_s": "s", "peak_rss_mb": "MiB"}
EXTRA_UNITS = {"fail_frac": "fraction", "path_steps_per_s": "1/s"}

# per-layer metric -> (unit, source); sources read the span summary
# ("span", name, field), a tracer counter ("counter", name) or the pass
# records ("pass", key)
PER_LAYER = {
    "herglotz.field.calls": ("count", ("span", "herglotz.field", "calls")),
    "herglotz.field.points": ("count", ("span", "herglotz.field", "count")),
    "herglotz.field.busy_s": ("s", ("span", "herglotz.field", "busy_s")),
    "stochastic.derive_path_seed.calls":
        ("count", ("span", "stochastic.derive_path_seed", "calls")),
    "stochastic.derive_path_seed.busy_s":
        ("s", ("span", "stochastic.derive_path_seed", "busy_s")),
    "stochastic.sample_brownian.calls":
        ("count", ("span", "stochastic.sample_brownian", "calls")),
    "stochastic.sample_brownian.busy_s":
        ("s", ("span", "stochastic.sample_brownian", "busy_s")),
    "stochastic.expectation_Tt.self_s":
        ("s", ("span", "stochastic.expectation_Tt", "self_s")),
    "stochastic.covariance_mc.self_s":
        ("s", ("span", "stochastic.covariance_mc", "self_s")),
    "stochastic.backward_equation_residual.self_s":
        ("s", ("span", "stochastic.backward_equation_residual", "self_s")),
    "stochastic.increment_bytes": ("bytes_computed",
                                   ("pass", "increment_bytes")),
    "stochastic.evolve_phi_pathwise.self_s":
        ("s", ("span", "stochastic.evolve_phi_pathwise", "self_s")),
    "stochastic.rk4_steps": ("count", ("counter", "stochastic.rk4_steps")),
    "stochastic.evolve_psi_sde.self_s":
        ("s", ("span", "stochastic.evolve_psi_sde", "self_s")),
    "stochastic.sde_projections":
        ("count", ("counter", "stochastic.sde_projections")),
    "stochastic.paths": ("count", ("pass", "paths")),
    "stochastic.path_steps": ("count", ("pass", "path_steps")),
    "deterministic.evolve_phi.self_s":
        ("s", ("span", "deterministic.evolve_phi", "self_s")),
    "deterministic.evolve_psi.self_s":
        ("s", ("span", "deterministic.evolve_psi", "self_s")),
    "deterministic.boundary_image.self_s":
        ("s", ("span", "deterministic.boundary_image", "self_s")),
    "deterministic.dp_steps": ("count", ("counter", "deterministic.dp_steps")),
    "deterministic.dp_rejections":
        ("count", ("counter", "deterministic.dp_rejections")),
    "deterministic.dp_accept_ratio": ("ratio", ("pass", "dp_accept_ratio")),
    "cli.main.calls": ("count", ("span", "cli.main", "calls")),
    "cli.main.self_s": ("s", ("span", "cli.main", "self_s")),
    "cli.bytes_written": ("bytes", ("pass", "bytes_written")),
    "trace.overhead_s": ("s", ("pass", "overhead_s")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # before the first numpy import, here and in every child process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "loewnerkit", "__init__.py")):
        print("error: no library source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    workroot = os.path.join(OUT, "work-%d" % os.getpid())
    try:
        setup_s, first_tasks = setup(args.workload, args.seed, workroot)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [setup_s] + [probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_PROBES)]
        record = measure(args.workload, args.seed, args.seconds, args.trace,
                         first_tasks, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    record["setup_samples_s"] = samples
    return report(args, record, statistics.median(samples))


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def setup(workload, seed, workroot):
    """Import, generate the first task list and run one warm-up task.

    Returns the seconds since this process started its script, and the
    first pass's tasks.
    """
    import workloads
    tasks = workloads.make_tasks(workload, seed, 0)
    warm = workloads.run_task(workloads.warmup_task(workload),
                              os.path.join(workroot, "warmup"))
    if warm.status != "ok":
        raise SystemExit("warm-up task failed: %s" % warm.detail)
    return time.perf_counter() - _STARTED, tasks


def probe_setup(workload, seed):
    """setup_s of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise SystemExit("set-up probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# measuring
# --------------------------------------------------------------------------

def run_pass(tasks, workroot, tracer=None, task_base=0):
    import workloads
    outcomes = []
    started = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = task_base + i
        outcomes.append(workloads.run_task(task,
                                           os.path.join(workroot, "t%d" % i)))
    return {"wall_s": time.perf_counter() - started, "outcomes": outcomes}


def pass_count(workload, seconds):
    """Passes in a run: a function of the arguments, never of the clock."""
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def measure(workload, seed, seconds, trace, first_tasks, workroot):
    """Run ``pass_count`` passes, each over a new task list."""
    import loewnerkit
    import workloads
    from spans import Tracer

    tracer = Tracer() if trace else None
    passes = []
    traced = []
    begun = time.perf_counter()
    tasks = first_tasks
    for index in range(pass_count(workload, seconds)):
        if index:
            tasks = workloads.make_tasks(workload, seed, index)
        record = run_pass(tasks, workroot)
        record["tasks"] = tasks
        passes.append(record)
        if tracer is not None:
            tracer.install(loewnerkit)
            try:
                t_record = run_pass(tasks, workroot, tracer,
                                    task_base=100_000 * len(traced))
            finally:
                tracer.uninstall()
            t_record["tasks"] = tasks
            traced.append(t_record)
    return {"workload": workload, "seed": seed, "trace": trace,
            "passes": passes, "traced": traced, "tracer": tracer,
            "measured_s": time.perf_counter() - begun}


def _percentile_stats(latencies):
    """Nearest-rank p50 and p90, with how many samples lie above each."""
    ordered = sorted(latencies)
    n = len(ordered)
    p50 = ordered[max(0, math.ceil(0.5 * n) - 1)]
    p90 = ordered[max(0, math.ceil(0.9 * n) - 1)]
    return p50, p90, {"n": n,
                      "above_p50": sum(1 for x in ordered if x > p50),
                      "above_p90": sum(1 for x in ordered if x > p90)}


def _completed(record):
    """Tasks of a pass that returned, failed check or not."""
    return [t for t, o in zip(record["tasks"], record["outcomes"])
            if o.status != "error"]


def end_to_end(record):
    passes = record["passes"]
    outcomes = [o for p in passes for o in p["outcomes"]]
    timed = [o.latency_s for o in outcomes if o.status != "error"]
    p50, p90, counts = _percentile_stats(timed)
    failed = sum(1 for o in outcomes if o.status != "ok")
    metrics = {
        # the mean pass, which spreads less than the median on a shared
        # host whose speed drifts during a run
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "task_p50_s": p50,
        "task_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / len(outcomes),
    }
    if record["workload"] in MC_WORKLOADS:
        metrics["path_steps_per_s"] = (
            sum(t.path_steps for p in passes for t in _completed(p))
            / sum(p["wall_s"] for p in passes))
    return metrics, counts


def per_layer(record):
    """Per-pass averages over the traced passes."""
    traced = record["traced"]
    tracer = record["tracer"]
    n = len(traced)
    spans = tracer.summary()
    tasks = [t for p in traced for t in _completed(p)]
    steps = tracer.counters.get("deterministic.dp_steps", 0)
    attempts = steps + tracer.counters.get("deterministic.dp_rejections", 0)
    untraced_wall = statistics.fmean(p["wall_s"] for p in record["passes"])
    pass_values = {
        "increment_bytes": 8 * sum(t.path_steps for t in tasks
                                   if t.kind in BLOCKED_KINDS) / n,
        "paths": sum(t.paths for t in tasks) / n,
        "path_steps": sum(t.path_steps for t in tasks) / n,
        # 0 when no Dormand-Prince step was attempted
        "dp_accept_ratio": steps / attempts if attempts else 0.0,
        "bytes_written": sum(o.bytes_written for p in traced
                             for o in p["outcomes"]) / n,
        "overhead_s": statistics.fmean(p["wall_s"] for p in traced)
        - untraced_wall,
    }
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        if source[0] == "span":
            value = spans.get(source[1], {}).get(source[2], 0) / n
        elif source[0] == "counter":
            value = tracer.counters.get(source[1], 0) / n
        else:
            value = pass_values[source[1]]
        out[name] = (value, unit)
    return out


def trace_mismatches(record):
    """Tasks whose traced output differs from the untraced one."""
    bad = []
    for p, t in zip(record["passes"], record["traced"]):
        for i, (a, b) in enumerate(zip(p["outcomes"], t["outcomes"])):
            if (a.status, a.digest) != (b.status, b.digest):
                bad.append("%s #%d: %s/%s" % (p["tasks"][i].kind, i,
                                              a.status, b.status))
    return bad


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def provenance(record, counts):
    import loewnerkit
    import numpy
    import scipy
    from loewnerkit import stochastic
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loewnerkit": loewnerkit.__version__,
        "brownian_algorithm_id": getattr(stochastic, "BROWNIAN_ALGORITHM_ID",
                                         None),
        "git_commit": git_commit(ROOT),
        "workload": record["workload"],
        "seed": record["seed"],
        "trace": record["trace"],
        "passes": len(record["passes"]),
        "tasks": sum(len(p["tasks"]) for p in record["passes"]),
        "latency_samples": counts,
        "setup_samples": len(record["setup_samples_s"]),
        "measured_s": record["measured_s"],
    }


def git_commit(root):
    """Commit of a git checkout, read from its files; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def failure_summary(record):
    """Failed tasks grouped by kind and the first words of their detail."""
    groups = {}
    for p in record["passes"]:
        for task, o in zip(p["tasks"], p["outcomes"]):
            if o.status != "ok":
                key = "%s %s: %s" % (task.kind, o.status, (o.detail or "")[:60])
                groups[key] = groups.get(key, 0) + 1
    return groups


def report(args, record, setup_s):
    e2e, counts = end_to_end(record)
    e2e["setup_s"] = setup_s
    units = dict(END_TO_END_UNITS, **EXTRA_UNITS)
    listed = {name: {"value": value, "unit": units[name]}
              for name, value in e2e.items()}
    shown = {name: listed[name] for name in END_TO_END_UNITS}
    if args.trace:
        listed = shown = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in per_layer(record).items()}
        os.makedirs(OUT, exist_ok=True)
        record["tracer"].write(os.path.join(OUT, "spans-%s.npz" % args.workload))
    outcomes = [o for p in record["passes"] + record["traced"]
                for o in p["outcomes"]]
    wrong = sum(1 for o in outcomes if o.status == "wrong")
    by_chance = sum(1 for o in outcomes if o.status == "stat")
    mismatches = trace_mismatches(record)
    prov = provenance(record, counts)
    full = {"provenance": prov, "metrics": listed,
            "pass_wall_s": [p["wall_s"] for p in record["passes"]],
            "setup_samples_s": record["setup_samples_s"],
            "failures": failure_summary(record),
            "trace_mismatches": mismatches}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-trace%d.json" % (args.workload, args.trace)),
              "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    print("# %s seed=%d trace=%d passes=%d tasks=%d" % (
        args.workload, args.seed, args.trace, prov["passes"], prov["tasks"]))
    for name, m in listed.items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    print("# latency samples: %(n)d, above p50: %(above_p50)d, "
          "above p90: %(above_p90)d" % counts)
    for key, count in sorted(full["failures"].items()):
        print("# failed x%d: %s" % (count, key))
    for line in mismatches:
        print("# traced output differs: %s" % line)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    # a 4 SE check fails by chance about once in 10^4; more than one
    # task in a hundred failing one means the estimates are off
    correct = (wrong == 0 and by_chance <= STAT_FAIL_FRAC * len(outcomes)
               and not mismatches)
    print(json.dumps({"correct": correct,
                      "attempted": len(outcomes),
                      "failed": sum(1 for o in outcomes if o.status != "ok"),
                      "metrics": shown}))
    return 0


def run_all(args):
    """Every workload in its own process; one table at the end."""
    rows = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        with open(os.path.join(OUT, "%s-trace%d.json" % (workload, args.trace))) as fh:
            listed = json.load(fh)["metrics"]
        for name, m in listed.items():
            rows.append((workload, name, m["value"], m["unit"]))
            combined["metrics"]["%s.%s" % (workload, name)] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print("# summary")
    for workload, name, value, unit in rows:
        print("%-12s %-44s %16.6g %s" % (workload, name, value, unit))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
