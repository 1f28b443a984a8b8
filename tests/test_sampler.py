"""Block sampler: vectorized seed/key derivation against the per-path
recipe, path blocks (increments, whose row cumsums are the paths)
against sample_brownian bit for bit, the spare path buffer shared by
ensembles, and the sampler's memory footprint."""

import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import conftest
from loewnerkit import herglotz as hg
from loewnerkit import stochastic as st

NAMED_ROOTS = [0, 2**32 - 1, 2**32, 2**62 - 1, 2**64 - 1]
roots = hs.sampled_from(NAMED_ROOTS) | hs.integers(0, 2**64 - 1)
# first indices from 0 up, and blocks at or across the 2**32 boundary
firsts = hs.integers(0, 2**20) | hs.integers(2**32 - 40, 2**32 + 8)


def per_path_values(root, first, n_rows, dt, n_steps):
    return [st.sample_brownian(st.derive_path_seed(root, first + i), dt,
                               n_steps).values
            for i in range(n_rows)]


@settings(max_examples=60, deadline=None)
@given(entropy=hs.lists(hs.integers(0, 2**32 - 1), min_size=1, max_size=4),
       n_words=hs.integers(1, 8))
def test_seed_sequence_words_match_numpy(entropy, n_words):
    words = st._seed_sequence_words(
        [np.array([w], dtype=np.uint32) for w in entropy], n_words)
    ref = np.random.SeedSequence(entropy).generate_state(n_words, np.uint32)
    assert [int(w[0]) for w in words] == [int(w) for w in ref]


@settings(max_examples=60, deadline=None)
@given(root=roots, first=firsts, n_rows=hs.integers(1, 48))
def test_path_seeds_and_keys_match_per_path_recipe(root, first, n_rows):
    seeds = st._path_seeds(root, first, n_rows)
    keys = st._philox_keys(seeds)
    assert seeds.dtype == np.uint64 and keys.shape == (n_rows, 2)
    for i in range(n_rows):
        seed = st.derive_path_seed(root, first + i)
        assert int(seeds[i]) == seed
        ref = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert keys[i].tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(root=roots, first=firsts, n_rows=hs.integers(1, 6),
       n_steps=hs.integers(1, 64),
       dt=hs.sampled_from([1e-3, 0.01, 0.37, 2.0]))
def test_path_rows_equal_sample_brownian_bitwise(root, first, n_rows,
                                                  n_steps, dt):
    rows = st._path_rows(root, first, n_rows, dt, n_steps)
    assert rows.shape == (n_rows, n_steps + 1)
    assert np.all(rows[:, 0] == 0.0)
    for row, ref in zip(np.cumsum(rows, axis=1),
                        per_path_values(root, first, n_rows, dt, n_steps)):
        assert row.tobytes() == ref.tobytes()


def test_path_rows_deep_inside_one_block():
    # 500 rows across index 2**32, scaled and summed in one pass
    rows = st._path_rows(11, 2**32 - 250, 500, 1e-3, 300)
    assert rows.shape == (500, 301)
    assert np.all(rows[:, 0] == 0.0)
    rows = np.cumsum(rows, axis=1)
    for i in (0, 217, 218, 249, 250, 436, 499):
        ref = st.sample_brownian(st.derive_path_seed(11, 2**32 - 250 + i),
                                 1e-3, 300).values
        assert rows[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("root, first, fallback", [
    (2**64 - 1, 0, False),
    (5, 2**32 - 3, False),          # straddles 2**32: still 4 words
    (2**64 - 1, 2**64 - 4, False),  # last index 2**64 - 1
    (2**64, 0, True),               # root of three words
    (7, 2**64 - 2, True),           # last index 2**64 + 1
])
def test_entropy_beyond_64_bits_takes_the_per_path_seeds(monkeypatch, root,
                                                         first, fallback):
    calls = []

    def counting(root_seed, index):
        calls.append(index)
        return derive(root_seed, index)

    derive = st.derive_path_seed
    monkeypatch.setattr(st, "derive_path_seed", counting)
    rows = st._path_rows(root, first, 4, 0.01, 9)
    monkeypatch.undo()
    assert len(calls) == (4 if fallback else 0)
    for row, ref in zip(np.cumsum(rows, axis=1),
                        per_path_values(root, first, 4, 0.01, 9)):
        assert row.tobytes() == ref.tobytes()


def test_path_rows_empty_shapes():
    assert st._path_rows(1, 0, 0, 0.01, 5).shape == (0, 6)
    rows = st._path_rows(1, 0, 3, 0.01, 0)
    assert rows.shape == (3, 1)
    assert rows.tobytes() == np.zeros((3, 1)).tobytes()
    assert rows[1].tobytes() == st.sample_brownian(
        st.derive_path_seed(1, 1), 0.01, 0).values.tobytes()


def recipe_values(seed, dt, n_steps):
    """The per-path recipe through NumPy's own seeding: a new Philox
    seeded by SeedSequence(seed), N(0, dt) increments, cumsum."""
    gen = np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(seed)))
    values = np.zeros(n_steps + 1)
    np.cumsum(gen.standard_normal(n_steps) * math.sqrt(dt), out=values[1:])
    return values


@settings(max_examples=60, deadline=None)
@given(seed=hs.sampled_from([0, 2**64 - 1, 2**64, 2**128 + 3])
       | hs.integers(0, 2**70),
       n_steps=hs.sampled_from([0, 1]) | hs.integers(2, 3000),
       dt=hs.sampled_from([1e-3, 0.01, 0.37, 2.0]))
def test_sample_brownian_equals_the_numpy_recipe(seed, n_steps, dt):
    got = st.sample_brownian(seed, dt, n_steps).values
    assert got.tobytes() == recipe_values(seed, dt, n_steps).tobytes()


def test_threads_interleaving_paths_and_blocks_draw_the_recipe(no_spare):
    # each thread alternates single paths and 3-block ensembles; every
    # thread re-keys its own generator, so no draw reads another's state
    jobs = [[("path", 10 * i + j, 40 + 7 * j) if j % 2 else
             ("block", 10 * i + j, 9, 20 + j) for j in range(6)]
            for i in range(4)]
    want = {}
    for job in itertools.chain(*jobs):
        if job[0] == "path":
            want[job] = recipe_values(job[1], 0.01, job[2]).tobytes()
        else:
            want[job] = np.stack([
                recipe_values(st.derive_path_seed(job[1], j), 0.01, job[3])
                for j in range(job[2])]).tobytes()
    got = {}
    errors = []

    def copy_later(rows):
        time.sleep(0)
        return rows.copy()

    def run(mine):
        try:
            for job in mine * 3:
                if job[0] == "path":
                    values = st.sample_brownian(job[1], 0.01, job[2]).values
                else:
                    values = np.cumsum(np.concatenate(list(st._path_blocks(
                        copy_later, job[1], job[2], 0.01, job[3],
                        width=st._BLOCK_PATHS // 4))), axis=1)
                assert got.setdefault(job, values.tobytes()) == want[job]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(mine,))
                   for mine in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == want


def test_one_philox_per_thread(monkeypatch):
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(threading.get_ident())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)

    def draw():
        # 500 single paths and 500 block rows
        for seed in range(500):
            st.sample_brownian(seed, 0.01, 20)
        for _ in st._path_blocks(np.copy, 3, 500, 0.01, 20,
                                 width=st._BLOCK_PATHS // 100):
            pass

    threads = [threading.Thread(target=draw) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    draw()
    # one for each new thread, and at most one for this one
    assert sorted(made.count(t.ident) for t in threads) == [1, 1]
    assert made.count(threading.get_ident()) <= 1


def test_path_rows_peak_memory_is_one_matrix():
    tracemalloc.start()
    try:
        rows = st._path_rows(3, 0, 2000, 1e-3, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 2000 * 1001 * 8
    assert peak < 1.25 * rows.nbytes


@pytest.mark.parametrize("n_rows", [7, 3, 0])
def test_path_rows_into_a_buffer_equal_a_new_matrix(n_rows):
    # the full 7-row buffer, a partial-row view and an empty one
    buf = np.full((7, 41), np.nan)
    rows = st._path_rows(5, 100, n_rows, 0.01, 40, out=buf[:n_rows])
    assert rows.base is buf
    assert rows.tobytes() == st._path_rows(5, 100, n_rows, 0.01,
                                           40).tobytes()
    assert np.isnan(buf[n_rows:]).all()


def test_path_blocks_reuse_one_buffer():
    seen = []

    def keep(rows):
        seen.append(rows)
        return rows.copy()

    # 4 paths per block
    blocks = st._path_blocks(keep, 3, 9, 0.01, 20, width=st._BLOCK_PATHS // 4)
    got = np.concatenate(list(blocks))
    assert [len(rows) for rows in seen] == [4, 4, 1]
    assert all(np.shares_memory(rows, seen[0]) for rows in seen)
    assert got.tobytes() == st._path_rows(3, 0, 9, 0.01, 20).tobytes()


@pytest.fixture
def no_spare(monkeypatch):
    """Start with no spare path buffer, so the first ensemble makes one
    (and a traced one counts it)."""
    monkeypatch.setattr(st, "_spare", None)


def keep_blocks(seen):
    """An fn for _path_blocks that records each block and returns a copy."""
    def keep(rows):
        seen.append(rows)
        return rows.copy()
    return keep


def test_interleaved_ensembles_never_share_a_buffer(no_spare):
    # 4 paths per block: 3 blocks of a and 2 of b, advanced in turn
    width = st._BLOCK_PATHS // 4
    seen_a, seen_b = [], []
    a = st._path_blocks(keep_blocks(seen_a), 3, 9, 0.01, 20, width=width)
    b = st._path_blocks(keep_blocks(seen_b), 4, 7, 0.01, 30, width=width)
    pairs = list(itertools.zip_longest(a, b))
    got_a = [x for x, _ in pairs]
    got_b = [y for _, y in pairs if y is not None]
    assert not any(np.shares_memory(x, y) for x in seen_a for y in seen_b)
    # one spare kept, the larger of the two buffers
    assert len(st._spare) == 4 * 31
    once_a = np.concatenate(list(st._path_blocks(np.copy, 3, 9, 0.01, 20,
                                                 width=width)))
    once_b = np.concatenate(list(st._path_blocks(np.copy, 4, 7, 0.01, 30,
                                                 width=width)))
    assert np.concatenate(got_a).tobytes() == once_a.tobytes()
    assert np.concatenate(got_b).tobytes() == once_b.tobytes()


def test_a_block_above_the_cap_gets_its_own_buffer(no_spare, monkeypatch):
    monkeypatch.setattr(st, "_BLOCK_FLOATS", 100)
    monkeypatch.setattr(st, "_BLOCK_PATHS", 8)
    # the cap is 108 values: blocks of 8 rows x 11 values fit
    list(st._path_blocks(np.copy, 1, 16, 0.01, 10))
    spare = st._spare
    assert len(spare) == 88
    # one row of 201 values is above it
    seen = []
    got = list(st._path_blocks(keep_blocks(seen), 1, 3, 0.01, 200))
    assert [len(rows) for rows in seen] == [1, 1, 1]
    assert not any(np.shares_memory(rows, spare) for rows in seen)
    assert np.concatenate(got).tobytes() == st._path_rows(
        1, 0, 3, 0.01, 200).tobytes()
    assert st._spare is spare


def test_a_failed_ensemble_gives_the_spare_back(no_spare):
    def fail(rows):
        raise ZeroDivisionError
    with pytest.raises(ZeroDivisionError):
        list(st._path_blocks(fail, 1, 9, 0.01, 20))
    spare = st._spare
    assert spare is not None
    # a generator closed after its first block gives it back too
    blocks = st._path_blocks(np.copy, 2, 9, 0.01, 20,
                             width=st._BLOCK_PATHS // 4)
    next(blocks)
    assert st._spare is None
    blocks.close()
    assert st._spare is spare
    # and the next ensemble draws into it
    seen = []
    list(st._path_blocks(keep_blocks(seen), 3, 9, 0.01, 20))
    assert np.shares_memory(seen[0], spare)


def test_ensembles_in_threads_draw_the_right_rows(no_spare):
    # more threads than cores and a short switch interval: an ensemble
    # drawing into a buffer another one holds reads rows it did not draw
    jobs = [(seed, 5 + seed % 7, 10 + 3 * seed) for seed in range(12)]
    want = {job: st._path_rows(job[0], 0, job[1], 0.01, job[2]).tobytes()
            for job in jobs}
    got = {}
    errors = []

    def copy_later(rows):
        time.sleep(0)
        return rows.copy()

    def run(mine):
        try:
            for job in mine:
                blocks = st._path_blocks(copy_later, job[0], job[1], 0.01,
                                         job[2], width=st._BLOCK_PATHS // 2)
                got[job] = np.concatenate(list(blocks)).tobytes()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(jobs[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == want
    assert len(st._spare) <= st._BLOCK_FLOATS + st._BLOCK_PATHS


def test_default_cap_holds_one_path_buffer(no_spare):
    # 2,000 steps: four blocks of 524 rows at the default cap, the last
    # one partial
    n_steps = 2000
    cap = st._BLOCK_FLOATS // n_steps
    n_samples = 2 * cap + 800
    block_bytes = cap * (n_steps + 1) * 8
    assert cap < st._BLOCK_PATHS
    tracemalloc.start()
    try:
        st.expectation_Tt(hg.Cayley(), 1.5, 2.0, 0.3, lambda w: w,
                          n_samples, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one path buffer; the rest is the SDE loop's per-chunk arrays, sized
    # by _CHUNK_VALUES and not by the block (about 1.7 MB here)
    assert block_bytes <= peak < block_bytes + 2 * 2**20


# whole ensembles of 4.2M and 4.1M path steps, at the default caps: each
# holds at most 8 MiB of path values at a time (a 2^21 cap held 16 MiB
# and peaked at about 18 MiB, a 2^22 cap at about 34 MiB)
WHOLE_ENSEMBLES = {
    "expectation": lambda: st.expectation_Tt(
        hg.CayleyLinear(), 1.0, 2.0, 0.3, lambda w: w, 2100, 5),
    "covariance": lambda: st.covariance_mc(1.0, 1.0, 4096, 3, dt=1e-3),
}


@pytest.mark.parametrize("name", sorted(WHOLE_ENSEMBLES))
def test_ensemble_peak_memory_is_at_most_12_mib(name, no_spare):
    tracemalloc.start()
    try:
        WHOLE_ENSEMBLES[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the path buffer, of almost 8 MiB (8,388,192 B), is counted
    assert 7.9 * 2**20 <= peak <= 12 * 2**20


_MODULES_AFTER = """
import sys
import loewnerkit, loewnerkit.cli
from loewnerkit import herglotz as hg, stochastic as st
%s
print(*(m for m in sys.modules if (m + ".").startswith(%r + ".")))
"""


def _fresh_python(code):
    """The last stdout line of ``code`` run in a fresh interpreter that
    imports this package (the code may print before it)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(st.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def _modules_after(code, package):
    """The modules of ``package`` loaded by ``code``, run in a fresh
    interpreter after importing loewnerkit and its CLI."""
    return _fresh_python(_MODULES_AFTER % (code, package)).split()


def test_deterministic_runs_never_import_numpy_random(tmp_path):
    # the per-thread Philox is made on a thread's first draw, not at
    # import: numpy.random adds about 6 MiB to a process
    assert _modules_after("""
out = %r
for args in (
        ['evolve', '--mode', 'det', '--spec', 'cayley', '--k', '2.5',
         '--z0', '0', '--t-end', '12.566370614', '--out', out + '/orbit.csv'],
        ['moments', '--spec', 'cayley-linear', '--k', '1', '--z0', '0.3',
         '--t-end', '1', '--m', '2', '--truncation', '6',
         '--out', out + '/moments.csv'],
        ['figures', '--which', 'fig1', '--out-dir', out + '/figs'],
        ['boundary', '--what', 'image', '--spec', 'cayley', '--k', '1',
         '--t', '0.8', '--out', out + '/image.csv'],
        ['classify', '--spec', 'cayley', '--k', '2.5']):
    assert loewnerkit.cli.main(args) == 0, args
""" % str(tmp_path), "numpy.random") == []


def test_no_library_call_imports_scipy(tmp_path):
    # the README commands first, with scipy unimportable as on a
    # numpy-only install: each must exit 0
    assert _modules_after("""
import os, shlex
os.chdir(%r)
sys.modules["scipy"] = None
for line in %r:
    assert loewnerkit.cli.main(shlex.split(line)[1:]) == 0, line
del sys.modules["scipy"]
st.expectation_Tt(hg.Cayley(), 1.0, 0.05, 0.3, lambda w: w, 20, 1)
st.solve_moment_hierarchy(hg.Cayley(), 1.0, 0.2, 1.0, 1, 6)
st.generator_annihilator(1.0, 0.5, 1.0, 0.3, 0.0, 1.0)
loewnerkit.cli.main(['moments', '--spec', 'cayley', '--k', '1',
                     '--out', '/dev/null', '--manifest', '/dev/null'])
""" % (str(tmp_path), conftest.readme_commands()), "scipy") == []


# the peak RSS of the running interpreter's own address space, in KiB.
# Not ru_maxrss: Linux carries a parent's RSS into its child's
# ru_maxrss across exec, so under a test runner larger than the child
# any growth read from it is 0
_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
"""
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads VmHWM from /proc/self/status")


@linux_only
def test_multi_block_ensemble_peak_memory_is_bounded():
    # 8,164 paths x 2,503 steps run in 20 path blocks of at most 2^20
    # steps (8 MiB of increments): the process grows by about 15.5 MiB
    # over its size after the imports, where 2^21 blocks grew 23.5 MiB
    # and one 2^22 block 39 MiB
    grown = float(_fresh_python(_PEAK_KIB + """
from loewnerkit import herglotz as hg, stochastic as st
before = peak_kib()
st.expectation_Tt(hg.CayleyLinear(), 1.0, 1.0, 0.3, lambda w: w, 8164, 7,
                  dt=1 / 2503)
print((peak_kib() - before) / 1024)
"""))
    assert grown <= 20, "peak RSS grew %.1f MiB" % grown


@linux_only
@pytest.mark.parametrize("seed", [0, 11])
def test_task_order_peak_memory_is_bounded(seed, tmp_path):
    # the mc_blocked benchmark's first pass after its warm-up task: every
    # ensemble draws into the one spare path buffer of at most 8 MiB, so
    # the process grows by about 10.7 MiB at either seed (18.7 MiB with
    # 16 MiB blocks), where a new buffer per ensemble left freed ones in
    # the heap and grew 25.2 and 27.3 MiB
    grown = float(_fresh_python(_PEAK_KIB + """
import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.dont_write_bytecode = True
sys.path.insert(0, %r)
import workloads

work = %r
warm = workloads.run_task(workloads.warmup_task("mc_blocked"),
                          os.path.join(work, "warmup"))
assert warm.status == "ok", warm.detail
before = peak_kib()
for i, task in enumerate(workloads.make_tasks("mc_blocked", %d, 0)):
    outcome = workloads.run_task(task, os.path.join(work, "t%%d" %% i))
    assert outcome.status == "ok", (i, outcome.detail)
print((peak_kib() - before) / 1024)
""" % (str(conftest.ROOT / "bench"), str(tmp_path), seed)))
    assert grown <= 12.5, "peak RSS grew %.1f MiB" % grown


# each estimator over three blocks of 2,000 steps: (call, paths per block)
BLOCKED = {
    "expectation": (lambda: st.expectation_Tt(hg.Cayley(), 1.5, 2.0, 0.3,
                                              lambda w: w, 3000, 5), 1000),
    "covariance": (lambda: st.covariance_mc(2.0, 1.5, 3000, 5), 1000),
    # 17 states per path: _BLOCK_PATHS // 17 paths per block
    "backward": (lambda: st.backward_equation_residual(
        hg.Cayley(), 1.5, lambda w: w, 1.95, 0.3, 1200, 5, h=0.05),
        st._BLOCK_PATHS // 17),
}


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_estimators_hold_one_path_block_at_a_time(name, no_spare,
                                                          monkeypatch):
    call, block_paths = BLOCKED[name]
    monkeypatch.setattr(st, "_BLOCK_FLOATS", 2_000_000)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block and the small per-block arrays; two blocks would be 2x
    assert block_paths * 2001 * 8 <= peak < 1.5 * block_paths * 2001 * 8
