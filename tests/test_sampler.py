"""Block sampler: vectorized seed/key derivation against the per-path
recipe, bit for bit, and the sampler's memory footprint."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from loewnerkit import stochastic as st

NAMED_ROOTS = [0, 2**32 - 1, 2**32, 2**62 - 1, 2**64 - 1]
roots = hs.sampled_from(NAMED_ROOTS) | hs.integers(0, 2**64 - 1)
# first indices from 0 up, and blocks at or across the 2**32 boundary
firsts = hs.integers(0, 2**20) | hs.integers(2**32 - 40, 2**32 + 8)


def per_path_increments(root, first, n_rows, dt, n_steps):
    return [st.sample_brownian(st.derive_path_seed(root, first + i), dt,
                               n_steps).increments()
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
def test_increment_rows_equal_sample_brownian_bitwise(root, first, n_rows,
                                                      n_steps, dt):
    rows = st._increment_rows(root, first, n_rows, dt, n_steps)
    assert rows.shape == (n_rows, n_steps)
    for row, ref in zip(rows, per_path_increments(root, first, n_rows, dt,
                                                  n_steps)):
        assert row.tobytes() == ref.tobytes()


def test_increment_rows_span_several_scratch_chunks():
    # 300 steps give 218-row chunks; 500 rows cover three of them
    rows = st._increment_rows(11, 2**32 - 250, 500, 1e-3, 300)
    for i in (0, 217, 218, 249, 250, 436, 499):
        ref = st.sample_brownian(st.derive_path_seed(11, 2**32 - 250 + i),
                                 1e-3, 300).increments()
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
    rows = st._increment_rows(root, first, 4, 0.01, 9)
    monkeypatch.undo()
    assert len(calls) == (4 if fallback else 0)
    for row, ref in zip(rows, per_path_increments(root, first, 4, 0.01, 9)):
        assert row.tobytes() == ref.tobytes()


def test_increment_rows_empty_shapes():
    assert st._increment_rows(1, 0, 0, 0.01, 5).shape == (0, 5)
    assert st._increment_rows(1, 0, 3, 0.01, 0).shape == (3, 0)


def test_increment_rows_peak_memory_is_one_matrix():
    tracemalloc.start()
    try:
        rows = st._increment_rows(3, 0, 2000, 1e-3, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 2000 * 1000 * 8
    assert peak < 1.25 * rows.nbytes
