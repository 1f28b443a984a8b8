import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from loewnerkit import stochastic as st


def norm1(a):
    return np.max(np.abs(a).sum(axis=0))


def random_matrix(rng, n, dtype, target_norm):
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    return a * (target_norm / norm1(a))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 4, 17])
def test_expm_of_zero_is_identity(n, dtype):
    assert np.array_equal(st.expm(np.zeros((n, n), dtype=dtype)), np.eye(n))


@pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
def test_expm_of_diagonal_is_exp_of_diagonal(scale):
    rng = np.random.default_rng(3)
    d = scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    got = st.expm(np.diag(d))
    assert np.allclose(got, np.diag(np.exp(d)), rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0])
def test_expm_of_nilpotent_is_finite_taylor_sum(scale):
    rng = np.random.default_rng(4)
    n = 7
    a = np.triu(scale * rng.standard_normal((n, n)), k=1)
    term, want = np.eye(n), np.eye(n)
    for j in range(1, n):
        term = term @ a / j
        want = want + term
    assert norm1(st.expm(a) - want) <= 1e-13 * norm1(want)


@settings(max_examples=60, deadline=None)
@given(hs.integers(1, 6).flatmap(lambda n: hs.lists(
    hs.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
def test_expm_times_expm_of_negative_is_identity(entries):
    n = math.isqrt(len(entries))
    a = np.reshape(entries, (n, n))
    ea, eb = st.expm(a), st.expm(-a)
    assert norm1(ea @ eb - np.eye(n)) <= 1e-12 * norm1(ea) * norm1(eb)


# 1-norms from far below theta_13 to just under it, and two past
# theta_13, where the scaled matrix is squared
BAND_NORMS = [0.01, 0.1, 0.6, 1.5, 4.0, 30.0, 300.0]


@pytest.mark.parametrize("target", BAND_NORMS)
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 7, 17, 65])
def test_expm_matches_scipy(n, dtype, target):
    from scipy.linalg import expm as scipy_expm

    a = random_matrix(np.random.default_rng(n), n, dtype, target)
    want = scipy_expm(a)
    got = st.expm(a)
    assert got.dtype == want.dtype
    assert norm1(got - want) <= 1e-12 * norm1(want)


def test_expm_of_a_stack_is_the_expm_of_each_matrix():
    # the scaling follows the stack's largest 1-norm, so a matrix of
    # the same norm gives the same bits as on its own, and a smaller one
    # the same value to rounding
    g = random_matrix(np.random.default_rng(5), 6, complex, 1.0)
    stack = np.array([g, 0.01 * g, -g, 3.0 * g, g.T])
    got = st.expm(stack)
    assert np.array_equal(got[3], st.expm(3.0 * g))
    for one, want in zip(got, map(st.expm, stack)):
        assert norm1(one - want) <= 1e-13 * norm1(want)
    assert st.expm(np.zeros((0, 6, 6))).shape == (0, 6, 6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_of_non_finite_is_nan_quietly(bad, dtype):
    a = np.ones((5, 5), dtype=dtype)
    a[2, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = st.expm(a)
    assert got.shape == (5, 5) and np.all(np.isnan(got))
