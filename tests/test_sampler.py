"""Block sampler: vectorized seed/key derivation against the per-path
recipe, path blocks against sample_brownian bit for bit, and the
sampler's memory footprint."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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
    for row, ref in zip(rows, per_path_values(root, first, n_rows, dt,
                                              n_steps)):
        assert row.tobytes() == ref.tobytes()


def test_path_rows_deep_inside_one_block():
    # 500 rows across index 2**32, scaled and summed in one pass
    rows = st._path_rows(11, 2**32 - 250, 500, 1e-3, 300)
    assert rows.shape == (500, 301)
    assert np.all(rows[:, 0] == 0.0)
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
    for row, ref in zip(rows, per_path_values(root, first, 4, 0.01, 9)):
        assert row.tobytes() == ref.tobytes()


def test_path_rows_empty_shapes():
    assert st._path_rows(1, 0, 0, 0.01, 5).shape == (0, 6)
    rows = st._path_rows(1, 0, 3, 0.01, 0)
    assert rows.shape == (3, 1)
    assert rows.tobytes() == np.zeros((3, 1)).tobytes()
    assert rows[1].tobytes() == st.sample_brownian(
        st.derive_path_seed(1, 1), 0.01, 0).values.tobytes()


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


def test_default_cap_holds_one_path_buffer():
    # 2,000 steps: three blocks at the default cap, the last one partial
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
    assert peak < 1.2 * block_bytes


# whole ensembles of 4.2M and 4.1M path steps, at the default caps: each
# holds at most 16 MiB of path values at a time (a 2^22 cap held 32 MiB
# and peaked at about 34 MiB)
WHOLE_ENSEMBLES = {
    "expectation": lambda: st.expectation_Tt(
        hg.CayleyLinear(), 1.0, 2.0, 0.3, lambda w: w, 2100, 5),
    "covariance": lambda: st.covariance_mc(1.0, 1.0, 4096, 3, dt=1e-3),
}


@pytest.mark.parametrize("name", sorted(WHOLE_ENSEMBLES))
def test_ensemble_peak_memory_is_at_most_20_mib(name):
    tracemalloc.start()
    try:
        WHOLE_ENSEMBLES[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


_SCIPY_AFTER = """
import sys
import loewnerkit, loewnerkit.cli
from loewnerkit import herglotz as hg, stochastic as st
%s
print(*(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _scipy_modules_after(code):
    """The scipy modules loaded by ``code``, run in a fresh interpreter
    after importing the package and its CLI."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(st.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _SCIPY_AFTER % code],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return run.stdout.split()


def test_scipy_is_imported_on_first_use():
    assert _scipy_modules_after("") == []
    assert _scipy_modules_after(
        "st.expectation_Tt(hg.Cayley(), 1.0, 0.05, 0.3, lambda w: w, 20, 1)"
    ) == []
    # the moment hierarchy's matrix exponential is in the package
    assert _scipy_modules_after(
        "st.solve_moment_hierarchy(hg.Cayley(), 1.0, 0.2, 1.0, 1, 6)") == []
    assert _scipy_modules_after(
        "loewnerkit.cli.main(['moments', '--spec', 'cayley', '--k', '1',"
        " '--out', '/dev/null', '--manifest', '/dev/null'])") == []
    # quad is the one use left (scipy.integrate itself imports
    # scipy.linalg, so that is no property of this package)
    assert "scipy.integrate" in _scipy_modules_after(
        "st.generator_annihilator(1.0, 0.5, 1.0, 0.3, 0.0, 1.0)")


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
def test_blocked_estimators_hold_one_path_block_at_a_time(name,
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
    assert peak < 1.5 * block_paths * 2001 * 8
