"""Brownian-frame disk evolution and its Monte Carlo machinery.

The driving point becomes tau(t) = exp(ikB_t) for a standard Brownian
motion B.  Two complementary discretizations live here:

* the random ODE for phi_t (pathwise classical, C^1 in t), with the
  Brownian path linearly interpolated inside steps, integrated by
  closed-form Moebius cells when the field is quadratic and by RK4
  otherwise;
* the Ito SDE for the rotating-frame process Psi_t = phi_t e^{-ikB_t},
  discretized by Euler-Maruyama or Milstein.

On top of those sit the statistical layers: semigroup expectations
(T_t f)(z) = E f(Psi_t(z)) with standard errors, the moment hierarchy,
closed-form means and covariances of the solvable reference case,
generator algebra (ladder-operator coefficients, Dynkin checks), radial
growth bounds, the induced circle diffusion, and its annihilating
functions.

Reproducibility contract: every ensemble draws path j from the seed
derived as ``derive_path_seed(root_seed, j)``, block sizes are a fixed
function of the call arguments, and reductions combine block partials
with a fixed-order pairwise sum, so repeated calls with the same
arguments give bit-identical estimates.  A block is a matrix of path
increments, one row per path with column 0 == 0, whose cumsum along a
row is bit-identical to ``sample_brownian(...).values`` of that path.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .deterministic import (
    DiskEscapeError,
    Trajectory,
    _MOBIUS,
    _driven_field,
    _escape_error,
    _first_escape,
    _interior_zero,
    _koebe_inverse,
    _mobius_walk,
    _normalize_sample_times,
)
from .herglotz import (Cayley, CayleyLinear, DomainError, Error, Taylor,
                       _count, _disk_point, _finite, _finite_array,
                       _finite_complex, _generator_value, _nonzero, _positive,
                       _time, taylor_coefficients)

__all__ = [
    "ZeroNotFoundError",
    "DiskEscapeError",
    "BROWNIAN_ALGORITHM_ID",
    "BrownianPath",
    "MomentTable",
    "McEstimate",
    "CovarianceReference",
    "derive_path_seed",
    "sample_brownian",
    "evolve_phi_pathwise",
    "example1_pathwise",
    "mean_phi_example1",
    "evolve_psi_sde",
    "expectation_Tt",
    "covariance_mc",
    "apply_generator",
    "virasoro_coefficients",
    "solve_moment_hierarchy",
    "covariance_reference",
    "radial_solution",
    "growth_bounds",
    "simulate_boundary_diffusion",
    "generator_annihilator",
    "find_stochastic_zero",
    "backward_equation_residual",
]

BROWNIAN_ALGORITHM_ID = "philox-gauss-cumsum-v1"

# moduli up to 1 + _MOMENT_TOL count as inside the disk
_MOMENT_TOL = 1e-8

# ensembles are processed in path blocks of at most _BLOCK_PATHS paths
# and _BLOCK_FLOATS steps (8 MiB of path values).  On the mc_blocked
# benchmark (2-core x86-64 VM) a 2^22 cap peaked at 93 MiB of RSS, 2^21
# at 58 MiB and 2^20 at 50 MiB, lower in 6 of 6 pairs against 2^21.
# The more, shorter blocks run the per-step SDE loop more often: in an
# interleaved same-process A/B, 2^20 cost 1.8-5.4% more summed task
# time than 2^21 (p50 -0.3% to +2.8%, p90 -5.6% to +3.7%, against an
# A/A spread of about 3%).  A block then holds at most
# _BLOCK_FLOATS + _BLOCK_PATHS values (n_steps + 1 per row), and so does
# the one spare buffer _path_blocks keeps between ensembles
_BLOCK_PATHS = 8192
_BLOCK_FLOATS = 1 << 20
# _exp_trapezoid integrates a block this many path values at a time, and
# _psi_sde_block makes about this many step multipliers at a time
_CHUNK_VALUES = 1 << 16
# exp overflows above _LOG_MAX, and _EXP_SPAN below it underflows to 0:
# the whole double range of exp's argument
_LOG_MAX = math.log(sys.float_info.max)
_EXP_SPAN = _LOG_MAX - math.log(math.ulp(0.0))


# Padé numerator coefficients b_0..b_13 of degree 13 and the bound
# theta_13 on ||A||_1 below which the [13/13] approximant of exp is exact
# to double precision (Higham 2005, eq. 2.11 and Table 2.3)
_PADE_B = (64764752532480000., 32382376266240000., 7771770303897600.,
           1187353796428800., 129060195264000., 10559470521600.,
           670442572800., 33522128640., 1323241920., 40840800., 960960.,
           16380., 182., 1.)
_PADE_THETA = 5.371920351148152e0
# rows of b / b_0 on the even powers I, A^2, A^4, A^6 for the parts of
# U = A (A^6 U1 + U0) and V = A^6 V1 + V0; over b_0, V is I + O(A^2), so
# exp(0) is I exactly
_PADE_ROWS = np.array([_PADE_B[1:9:2], (0.,) + _PADE_B[9::2],
                       _PADE_B[0:8:2], (0.,) + _PADE_B[8::2]]) / _PADE_B[0]


def expm(a):
    """exp of a square matrix, or of each matrix of a stack a[..., :, :],
    by scaling and squaring (Higham 2005, Algorithm 2.3, degree 13 only):
    the [13/13] Padé approximant of a / 2^s, with s the least that brings
    the stack's largest 1-norm under theta_13, squared s times.  A stack
    whose 1-norm is not finite gives all NaN, without a warning; squares
    past the double range give inf or NaN entries."""
    a = np.asarray(a, dtype=np.result_type(a, 1.0))
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=a.dtype)
    s = (math.ceil(math.log2(norm / _PADE_THETA)) if norm > _PADE_THETA
         else 0)
    a = a * 2.0 ** -s
    powers = np.empty((4,) + a.shape, dtype=a.dtype)
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    w = (_PADE_ROWS @ powers.reshape(4, -1)).reshape(powers.shape)
    u = a @ (powers[3] @ w[1] + w[0])
    v = powers[3] @ w[3] + w[2]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 20-node Gauss-Legendre rule on [-1, 1],
    made on first use: numpy.polynomial and the eigensolver behind
    leggauss add about 0.5 MiB to a process that never needs them."""
    return np.polynomial.legendre.leggauss(20)


def _exponent(scale, B, amp, s):
    """The annihilator's exponent scale (s B - amp cos s), at s a float
    or an array."""
    return scale * (s * B - amp * np.cos(s))


def _monotone_pieces(B, amp, lo, hi):
    """[lo, hi] cut where the exponent turns (B + amp sin s = 0), as
    (left, right) pairs on which it is monotone."""
    cuts = set()
    if amp > 0.0:
        first = math.asin(-B / amp)
        for base in (first, math.pi - first):
            m = math.ceil((lo - base) / (2.0 * math.pi))
            while base + 2.0 * math.pi * m < hi:
                cuts.add(base + 2.0 * math.pi * m)
                m += 1
    edges = [lo, *sorted(c for c in cuts if c > lo), hi]
    return zip(edges[:-1], edges[1:])


def _exp_integral(scale, B, amp, a, b):
    """integral_a^b exp(scale (s B - amp cos s)) ds by composite 20-node
    Gauss-Legendre.

    The exponent's slope is at most scale (|B| + amp), so panels of
    width 2 / (scale (|B| + amp)) see it move by at most 2.  Of those
    panels, evenly spread over [a, b], only the ones that meet a span
    where the exponent is within _EXP_SPAN of its top on its monotone
    piece are summed: elsewhere exp underflows to 0 (the top is at most
    _LOG_MAX, or the integrand overflows).  So a small k lays no panels
    where they would sum to 0, and a segment whose exponent underflows
    everywhere costs two exponents per piece.  Panels are summed a chunk
    at a time, so memory stays bounded.  An integrand past the double
    range raises OverflowError.
    """
    overflow = ("exp(4 (s Im p0 - |p0| cos s) / k^2) overflows on [%r, %r]"
                % (a, b))
    spans = []
    for x0, x1 in _monotone_pieces(B, amp, min(a, b), max(a, b)):
        g0 = float(_exponent(scale, B, amp, x0))
        g1 = float(_exponent(scale, B, amp, x1))
        top_end, far_end = (x0, x1) if g0 >= g1 else (x1, x0)
        top = max(g0, g1)
        if not top <= _LOG_MAX:
            raise OverflowError(overflow)
        if math.exp(top) == 0.0:
            continue
        floor = top - _EXP_SPAN
        if min(g0, g1) < floor:
            # bisect for where the exponent falls to floor
            inside = top_end
            while True:
                mid = 0.5 * (inside + far_end)
                if mid in (inside, far_end):
                    break
                if _exponent(scale, B, amp, mid) >= floor:
                    inside = mid
                else:
                    far_end = mid
        spans.append((top_end, far_end))
    if not spans:
        return 0.0
    nodes, weights = _gauss_legendre()
    n = max(1, math.ceil(abs(b - a) * scale * (abs(B) + amp) / 2.0))
    width = (b - a) / n
    # panel i covers a + width [i, i + 1]: the panels that meet a span,
    # with one to spare at each end, as merged index ranges
    ranges = []
    for lo, hi in sorted(sorted((s - a) / width for s in span)
                         for span in spans):
        first, stop = max(0, math.floor(lo) - 1), min(n, math.ceil(hi) + 1)
        if ranges and first <= ranges[-1][1]:
            ranges[-1][1] = max(ranges[-1][1], stop)
        else:
            ranges.append([first, stop])
    per_chunk = max(1, _CHUNK_VALUES // len(nodes))
    offsets = 0.5 * width * (nodes + 1.0)
    parts = []
    with np.errstate(over="ignore"):
        for first, stop in ranges:
            for start in range(first, stop, per_chunk):
                left = a + width * np.arange(start,
                                             min(stop, start + per_chunk))
                values = np.exp(_exponent(scale, B, amp,
                                          left[:, None] + offsets))
                parts.append(float(values.sum(axis=0) @ weights))
    total = 0.5 * width * math.fsum(parts)
    if not math.isfinite(total):
        raise OverflowError(overflow)
    return total


class ZeroNotFoundError(Error):
    """The drift zero search exhausted all starts without converging."""


class MomentTruncationError(Error):
    """A truncated moment hierarchy produced a moment outside the disk."""


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianPath:
    """One sampled Brownian path B_0..B_N on a uniform grid.

    Attributes:
        dt: grid spacing, positive.
        values: array of N+1 floats with values[0] == 0.
        seed: integer seed the path was drawn from.
        algorithm_id: identifies the generation recipe, so stored paths
            stay interpretable if the recipe ever changes.
    """

    dt: float
    values: np.ndarray
    seed: int
    algorithm_id: str = BROWNIAN_ALGORITHM_ID

    def __post_init__(self):
        _positive("dt", self.dt)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("values must be a nonempty 1-d array")
        if values[0] != 0.0:
            raise ValueError("a Brownian path starts at 0, got %r" % values[0])
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self):
        return len(self.values) - 1

    @property
    def duration(self):
        return self.n_steps * self.dt

    def time_grid(self):
        return np.arange(self.n_steps + 1) * self.dt

    def increments(self):
        return np.diff(self.values)


@dataclass(frozen=True)
class MomentTable:
    """Moments mu_m(t) = E Psi_t(z)^m of the rotating-frame process.

    values[i, j] is mu_{orders[j]}(times[i]).  ``truncation`` is the
    order at which the hierarchy was cut, ``closure`` how the cut tail
    was treated.
    """

    orders: tuple
    times: np.ndarray
    values: np.ndarray
    truncation: int
    closure: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(times), len(self.orders)):
            raise ValueError("values must have shape (len(times), len(orders))")
        _check_closure(self.closure)
        if values.size and not np.max(np.abs(values)) <= 1.0 + _MOMENT_TOL:
            raise ValueError("moments of a disk-valued process are "
                             "finite and at most 1 in modulus")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def moment(self, m):
        """Column of mu_m over all times."""
        if m not in self.orders:
            raise ValueError("order %r is not in the table, whose orders "
                             "are %s" % (m, list(self.orders)))
        return self.values[:, self.orders.index(m)]


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error."""

    mean: complex
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")
        _count("n_samples", self.n_samples, 2)


CovarianceReference = namedtuple("CovarianceReference",
                                 ["e1", "e2", "e3", "cov"])


# --------------------------------------------------------------------------
# path sampling
# --------------------------------------------------------------------------

def derive_path_seed(root_seed, index):
    """Stable per-path seed: path ``index`` of ensemble ``root_seed``."""
    ss = np.random.SeedSequence((_count("root_seed", root_seed, 0),
                                 _count("index", index, 0)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_brownian(seed, dt, n_steps):
    """Draw a Brownian path, bit-reproducible from its arguments.

    Args:
        seed: integer fed to a counter-based generator.
        dt: grid spacing, positive.
        n_steps: number of increments; the path has n_steps+1 values.

    Returns:
        A BrownianPath with independent N(0, dt) increments.
    """
    dt = _positive("dt", dt)
    n_steps = _count("n_steps", n_steps, 0)
    seed = _count("seed", seed, 0)
    values = np.empty(n_steps + 1)
    values[0] = 0.0
    increments = values[1:]
    # the key Philox(seed=SeedSequence(seed)) runs with
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    _normal_rows([key.tolist()], [increments])
    np.multiply(increments, math.sqrt(dt), out=increments)
    np.cumsum(increments, out=increments)
    return BrownianPath(dt=dt, values=values, seed=seed)


# each thread's one Philox, its Generator and its fresh state as lists,
# made on the thread's first draw: numpy.random is not loaded at import
_philox = threading.local()


def _normal_rows(keys, rows):
    """Fill each float array in ``rows`` with the first len(row) standard
    normals of Philox(key=key), key the matching item of ``keys``, a list
    of two uint64 ints.

    The calling thread's one Philox is looked up once per call and
    re-keyed to counter 0 and an empty buffer for each row, which draws
    what a new Philox with that key would, without constructing a
    generator per path or per block.
    """
    try:
        bitgen, gen, state = _philox.drawer
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        # the fresh stream's state (counter 0, empty buffer) in Python
        # ints and lists, which the state setter takes faster than
        # uint64 arrays
        state = _as_lists(bitgen.state)
        _philox.drawer = bitgen, gen, state
    stream = state["state"]
    draw = gen.standard_normal
    for key, row in zip(keys, rows):
        stream["key"] = key
        bitgen.state = state
        draw(out=row)


# numpy.random.SeedSequence hash constants (pool of 4 uint32 words)
_SS_INIT_A = 0x43b0d7e5
_SS_MULT_A = 0x931e8875
_SS_INIT_B = 0x8b51f9dd
_SS_MULT_B = 0x58f38ded
_SS_MIX_L = np.uint32(0xca01f9dd)
_SS_MIX_R = np.uint32(0x4973f715)
_SS_POOL = 4
_MASK32 = 0xFFFFFFFF


def _seed_sequence_words(entropy, n_words):
    """SeedSequence(entropy).generate_state(n_words, np.uint32), per row.

    ``entropy`` is a list of at most 4 equal-length uint32 arrays, word j
    of every row's entropy; a missing trailing word hashes as 0, exactly
    as NumPy pads a short entropy to its pool.  Returns n_words uint32
    arrays.
    """
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hash_const = _SS_INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> np.uint32(16)))
    return words


def _join64(lo, hi):
    return lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))


def _split32(values):
    return [(values & np.uint64(_MASK32)).astype(np.uint32),
            (values >> np.uint64(32)).astype(np.uint32)]


def _path_seeds(root_seed, first_index, n_rows):
    """derive_path_seed(root_seed, first_index + i) for every row, as uint64.

    The entropy (root, index) is hashed for the whole block at once.  A
    root or index of 2**64 or more may not fit the 4-word pool and takes
    derive_path_seed row by row.
    """
    root_seed = int(root_seed)
    first_index = int(first_index)
    if not (0 <= root_seed < 1 << 64 and 0 <= first_index
            and first_index + n_rows <= 1 << 64):
        return np.array([derive_path_seed(root_seed, first_index + i)
                         for i in range(n_rows)], dtype=np.uint64)
    # entropy words: the root's one or two, then the index's; an index
    # below 2**32 is one word, and a missing last word hashes as 0
    root_words = [root_seed & _MASK32]
    if root_seed >> 32:
        root_words.append(root_seed >> 32)
    entropy = [np.full(n_rows, w, dtype=np.uint32) for w in root_words]
    index = np.arange(n_rows, dtype=np.uint64) + np.uint64(first_index)
    return _join64(*_seed_sequence_words(entropy + _split32(index), 2))


def _philox_keys(seeds):
    """SeedSequence(seed).generate_state(2, np.uint64) for each seed.

    That is the key Philox(seed=SeedSequence(seed)) runs with; shape
    (n, 2), dtype uint64.
    """
    key = _seed_sequence_words(_split32(seeds), 4)
    return np.stack([_join64(key[0], key[1]), _join64(key[2], key[3])], axis=1)


def _path_rows(root_seed, first_index, n_rows, dt, n_steps, out=None):
    """Increment matrix for paths first_index..first_index+n_rows-1.

    Shape (n_rows, n_steps + 1): column 0 is 0 and column j the
    increment B_j - B_{j-1}, N(0, dt), so the cumsum of row i
    (``_positions``) reproduces sample_brownian(derive_path_seed(
    root_seed, first_index+i), dt, n_steps).values bit for bit.  The
    rows are drawn into ``out`` if it is given, a C-contiguous float
    array of that shape, and a new matrix otherwise.

    The block's path seeds and Philox keys come from ``_path_seeds`` and
    ``_philox_keys``, which re-implement numpy.random.SeedSequence's hash
    (pool of 4 words, its hashmix/mix constants and generate_state) on
    uint32 arrays; ``_normal_rows`` then re-keys the thread's one Philox
    for each row.  This relies on NumPy keeping its
    SeedSequence hash and Philox seeding as they are; the tests compare
    against the per-path recipe.  The scale runs in place, so the peak
    memory stays at the returned matrix.
    """
    if out is None:
        out = np.empty((n_rows, n_steps + 1))
    out[:, 0] = 0.0
    if n_rows == 0 or n_steps == 0:
        return out
    keys = _philox_keys(_path_seeds(root_seed, first_index, n_rows))
    increments = out[:, 1:]
    # a key at a time: keys.tolist() would hold ~140 B of Python objects
    # per row at once
    _normal_rows((key.tolist() for key in keys), increments)
    np.multiply(increments, math.sqrt(dt), out=increments)
    return out


def _positions(rows):
    """The path values B of a ``_path_rows`` block, made in place by the
    cumsum ``sample_brownian`` takes; returns ``rows``."""
    values = rows[:, 1:]
    np.cumsum(values, axis=1, out=values)
    return rows


def _as_lists(state):
    """A bit generator's state dict with its arrays as lists."""
    return {name: _as_lists(value) if isinstance(value, dict)
            else value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in state.items()}


# the spare path buffer, None while an ensemble holds it: _path_blocks
# reuses one buffer across ensembles, where a new buffer per ensemble
# left glibc's heap holding freed ones and made the process's peak RSS
# depend on the order of its ensembles
_spare = None
_spare_lock = threading.Lock()


def _take_buffer(n_values):
    """A flat float buffer of at least n_values: the spare if it is free
    and large enough, else a new one.  A smaller spare is dropped, unless
    n_values is above the cap, which leaves the spare as it is."""
    global _spare
    if n_values > _BLOCK_FLOATS + _BLOCK_PATHS:
        return np.empty(n_values)
    with _spare_lock:
        buf, _spare = _spare, None
    if buf is not None and len(buf) >= n_values:
        return buf
    del buf  # free a smaller spare before the larger buffer is made
    return np.empty(n_values)


def _give_back(buf):
    """Keep buf as the spare, unless it is above the block cap or a
    spare at least as large is kept already."""
    global _spare
    if len(buf) > _BLOCK_FLOATS + _BLOCK_PATHS:
        return
    with _spare_lock:
        if _spare is None or len(_spare) < len(buf):
            _spare = buf


def _path_blocks(fn, root_seed, n_samples, dt, n_steps, width=1):
    """fn of the ``_path_rows`` increment matrix of paths 0..n_samples-1,
    block after block.  fn may overwrite its block: an fn that reads path
    values turns it into them in place with ``_positions``.

    Block sizes are a fixed function of (n_samples, n_steps, width): at
    most _BLOCK_PATHS states, ``width`` of them per path, and
    _BLOCK_FLOATS = 2^20 steps per block (the cap counts n_steps per
    path, not the n_steps + 1 values a row holds).  Every block is drawn
    into the leading rows of one buffer: the process's spare, taken when
    the ensemble starts and given back when it ends, also by an
    exception or by closing the generator.  The spare is replaced by a
    larger one only when a block needs more room, and is never kept
    above _BLOCK_FLOATS + _BLOCK_PATHS values (about 8 MiB); a block of
    one row longer than that gets its own buffer, and so does an
    ensemble that starts while another holds the spare (in another
    thread, or as an interleaved generator).  So fn must not keep a
    reference to its block: the next block, or the next ensemble,
    overwrites it.  A path's row is the same in
    any blocking, but an estimate summed block by block moves at the ulp
    level when the blocking changes.
    """
    cap = max(1, min(_BLOCK_PATHS // width, _BLOCK_FLOATS // max(1, n_steps)))
    shape = (min(cap, n_samples), n_steps + 1)
    size = shape[0] * shape[1]
    flat = _take_buffer(size)
    try:
        buf = flat[:size].reshape(shape)
        for first in range(0, n_samples, cap):
            rows = min(cap, n_samples - first)
            yield fn(_path_rows(root_seed, first, rows, dt, n_steps,
                                out=buf[:rows]))
    finally:
        _give_back(flat)


def _step_grid(t, dt):
    """(n_steps, dt_used) of the uniform grid that lands exactly on t.

    t == 0 takes no step and keeps dt.  A negative or non-finite t and a
    non-finite or non-positive dt raise ValueError.
    """
    dt = _positive("dt", dt)
    t = _time("t", t)
    if t == 0.0:
        return 0, dt
    n_steps = max(1, round(t / dt))
    return n_steps, t / n_steps


def _pairwise_sum(xs):
    """Sum a list in a fixed balanced order, independent of blocking."""
    n = len(xs)
    if n == 0:
        return 0.0
    if n == 1:
        return xs[0]
    mid = n // 2
    return _pairwise_sum(xs[:mid]) + _pairwise_sum(xs[mid:])


def _mc_estimate(parts):
    """McEstimate of the iid samples in ``parts``, one array per block."""
    sums = []
    sq_sums = []
    n = 0
    for samples in parts:
        sums.append(complex(np.sum(samples)))
        sq_sums.append(float(np.sum(np.abs(samples) ** 2)))
        n += len(samples)
    mean = _pairwise_sum(sums) / n
    var = max(0.0, (_pairwise_sum(sq_sums) - n * abs(mean) ** 2) / (n - 1))
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), n_samples=n)


# --------------------------------------------------------------------------
# pathwise random ODE
# --------------------------------------------------------------------------

def evolve_phi_pathwise(spec, k, z0, path, sample_times):
    """Integrate the random ODE for phi_t along one Brownian path.

    The driving point is tau(t) = exp(ik B_t) with B linearly
    interpolated inside grid steps, making the field classical and the
    solution C^1 in t.  The walk takes one cell per path interval (plus
    partial cells to land exactly on requested sample times).  A spec
    whose field is quadratic (``spec._quadratic()``) walks the rotating
    frame psi = e^{-ikB} phi through the exact Moebius map of each cell
    (``_mobius_walk``, method "mobius-exact"), which keeps psi only at
    the sample times, where it is turned into phi; any other spec takes
    one RK4 step per cell (method "rk4").  ``stats`` records the cells
    stepped and the method.

    Args:
        spec: Herglotz spec of the field.
        k: noise amplitude in the driving exponent.
        z0: initial point, |z0| <= 1.
        path: BrownianPath supplying B.
        sample_times: times in [0, path.duration] to record at.

    Returns:
        Trajectory in the phi frame.

    Raises:
        DiskEscapeError: a recorded value lies outside the closed disk
            (fixed-step RK4 on a coarse grid at high k can leave it, and
            the Moebius cells turn NaN once (k dB)^2 overflows).
    """
    z0 = _disk_point("z0", z0, closed=True)
    k = _finite("k", k)
    B = path.values
    dt = path.dt
    n = path.n_steps
    ts = np.asarray(_normalize_sample_times(sample_times, n * dt))

    # step over the union of path grid points and sample times, so each
    # cell stays inside one (smooth) interpolation interval
    # (np.union1d's sorted unique values, without its wrappers)
    knots = np.concatenate((np.arange(n + 1) * dt, ts))
    knots.sort()
    knots = knots[np.concatenate(([True], knots[1:] != knots[:-1]))]
    # the knot each sample is read at: the first one past the start
    # within 1e-12 of it; the walk ends at the last sample's knot
    at = np.concatenate(([0], np.searchsorted(knots[1:], ts[1:] - 1e-12) + 1))
    knots = knots[:at[-1] + 1]
    h_steps = knots[1:] - knots[:-1]
    # cells narrower than 1e-15 are not stepped
    stepped = h_steps > 1e-15
    g = spec._quadratic()
    if g is not None:
        method = _MOBIUS
        b = _interpolate(B, dt, knots)
        # psi = e^{-ikB} phi starts at z0, since B_0 = 0
        out = (_mobius_walk(g, k, z0, b, h_steps * stepped, at)
               * np.exp(1j * k * b[at]))
    else:
        method = "rk4"
        out = np.asarray(_rk4_walk(spec, k, z0, B, dt, knots, h_steps))[at]
    j = _first_escape(out)
    if j is not None:
        raise _escape_error("pathwise " + method, ts[j])
    return Trajectory(times=ts, values=out, frame="phi", config=None,
                      stats={"steps": int(np.count_nonzero(stepped)),
                             "method": method})


def _interpolate(B, dt, t):
    """Path values on grid dt, linearly interpolated at times t (with no
    steps, i = -1 and both ends read B[0])."""
    q = t / dt
    i = np.minimum(q.astype(np.intp), len(B) - 2)
    return B[i] + (B[i + 1] - B[i]) * (q - i)


def _rk4_walk(spec, k, z0, B, dt, knots, h_steps):
    """phi at each knot: one RK4 step per cell of width h_steps."""
    # the driving point at every RK4 stage time, in stage order: knot m
    # is entry 2m and the midpoint of step m entry 2m + 1
    stage_t = np.empty(2 * len(knots) - 1)
    stage_t[0::2] = knots
    stage_t[1::2] = knots[:-1] + 0.5 * h_steps
    # the field takes a stage index in place of a time
    field = _driven_field(spec, np.exp(1j * k * _interpolate(B, dt, stage_t))
                          .tolist().__getitem__)
    y = z0
    at_knot = [y]
    for m, h in enumerate(h_steps.tolist()):
        if h > 1e-15:
            s = 2 * m
            k1 = field(s, y)
            k2 = field(s + 1, y + 0.5 * h * k1)
            k3 = field(s + 1, y + 0.5 * h * k2)
            k4 = field(s + 2, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        at_knot.append(y)
    return at_knot


def _phi_pathwise_rows(spec, k, z0, rows, dt):
    """phi at the last column of each path row.

    ``rows`` holds path values on the grid dt, one path per row, and
    each row takes the cells ``evolve_phi_pathwise`` takes on its grid.
    The field must be quadratic: ``_mobius_walk`` applies its Moebius
    cells to psi across all rows, and psi is turned into phi at the last
    column.  No containment check: ``_phi_pathwise_blocks`` names the
    escaping row.
    """
    # psi = e^{-ikB} phi, which starts at z0 on every row; the width is
    # the number dt, as an array would round some cells' products apart
    psi = _mobius_walk(spec._quadratic(), k, np.full(len(rows), complex(z0)),
                       rows, dt, [rows.shape[1] - 1])
    return psi[-1] * np.exp(1j * k * rows[:, -1])


def _phi_pathwise_blocks(spec, k, z0, root_seed, n_paths, t, dt):
    """phi_t of paths 0..n_paths-1, one complex array per block of paths.

    Path j is ``sample_brownian(derive_path_seed(root_seed, j), ...)`` on
    the grid ``_step_grid(t, dt)``, drawn block by block by
    ``_path_blocks``, summed into path values by ``_positions`` and
    solved a block at a time by ``_phi_pathwise_rows``, so the spec's
    field must be quadratic, as the fields of ``_BOUND_SPECS`` are.

    Raises:
        DiskEscapeError: phi_t of some path lies outside the closed disk;
            the message names the first such path j and its seed.
    """
    n_steps, dt = _step_grid(t, dt)
    first = 0
    for phi in _path_blocks(
            lambda rows: _phi_pathwise_rows(spec, k, z0, _positions(rows),
                                            dt),
            root_seed, n_paths, dt, n_steps):
        j = _first_escape(phi)
        if j is not None:
            j += first
            raise _escape_error("path %d (seed %d): pathwise %s" % (
                j, derive_path_seed(root_seed, j), _MOBIUS), t)
        first += len(phi)
        yield phi


def _exp_trapezoid(B, k, dt):
    """Trapezoid integral of e^s e^{ikB_s} ds along each row of B (grid dt).

    A few rows at a time, so the complex temporaries stay small; cos +
    i sin of kB has the bits of np.exp(1j * k * B).
    """
    exp_grid = np.exp(np.arange(B.shape[1]) * dt)
    integral = np.empty(len(B), dtype=complex)
    rows = max(1, _CHUNK_VALUES // B.shape[1])
    for first in range(0, len(B), rows):
        part = B[first:first + rows]
        g = np.empty(part.shape, dtype=complex)
        np.multiply(part, k, out=g.real)
        np.sin(g.real, out=g.imag)
        np.cos(g.real, out=g.real)
        np.multiply(g, exp_grid, out=g)
        integral[first:first + rows] = (g[:, :-1] + g[:, 1:]).sum(axis=1)
    integral *= 0.5 * dt
    return integral


def example1_pathwise(z, k, path, t):
    """Exact pathwise solution of the solvable reference case.

    phi_t(z) = e^{-t} (z + integral_0^t e^s e^{ikB_s} ds), with the
    integral taken by trapezoid rule on the path grid (plus an
    interpolated partial cell when t falls inside one).
    """
    z = _disk_point("z", z, closed=True)
    t = _time("t", t)
    k = _finite("k", k)
    dt = path.dt
    B = path.values
    if t > path.duration + 1e-12:
        raise ValueError("t must lie within the path duration")
    n_full = min(int(t / dt + 1e-9), path.n_steps)
    integral = complex(_exp_trapezoid(B[None, :n_full + 1], k, dt)[0])
    t_rem = t - n_full * dt
    # a t in the 1e-12 slack past the last knot takes no partial cell
    if t_rem > 1e-15 and n_full < path.n_steps:
        frac = t_rem / dt
        b_t = B[n_full] + (B[n_full + 1] - B[n_full]) * frac
        g_n = cmath.exp(n_full * dt + 1j * k * B[n_full])
        g_t = cmath.exp(t + 1j * k * b_t)
        integral += 0.5 * t_rem * (g_n + g_t)
    return cmath.exp(-t) * (z + integral)


def mean_phi_example1(z, t, k):
    """Closed-form mean E phi_t(z) of the solvable reference case."""
    z = _disk_point("z", z, closed=True)
    t = _time("t", t)
    k2 = _finite("k", k) ** 2
    if abs(k2 - 2.0) <= 1e-12:
        return cmath.exp(-t) * (z + t)
    half = 0.5 * k2
    return cmath.exp(-t) * z + (math.exp(-t * half) - math.exp(-t)) / (1.0 - half)


# --------------------------------------------------------------------------
# Ito SDE for the rotating-frame process
# --------------------------------------------------------------------------

def _sde_stepper(spec, k, dt, scheme):
    """The scheme's step of the rotating-frame SDE, as (multipliers, step).

    The noise is linear in psi, so a step is psi times a function of the
    increment db plus the drift field b:

        step(psi, c) = psi c + b(psi) dt,
        c = 1 - k^2/2 db^2 - ik db          (milstein),
        c = (1 - k^2/2 dt) - ik db          (euler).

    This is the Euler/Milstein step psi + (-k^2/2 psi + b(psi)) dt
    - ik psi db [- k^2/2 psi (db^2 - dt)] with its terms regrouped: in
    the milstein step the -k^2/2 psi dt drift cancels the correction's
    +k^2/2 psi dt.  The regrouping moves results at the ulp level.

    ``multipliers(db, out)`` writes the multipliers of the float array
    db to the complex array out, one ufunc per operation (real part
    1 - (db db) k^2/2, imaginary part db (-k)), and overwrites db.
    ``step(psi, c)`` takes a Python complex or an array (c broadcasts
    against it); its augmented assignments rebind a scalar and update
    the step's own array in place, with the rounding of the plain
    expression either way.

    Raises:
        ValueError: ``scheme`` is neither "euler" nor "milstein", or
            ``k`` is not finite.
    """
    if scheme not in ("euler", "milstein"):
        raise ValueError("scheme must be 'euler' or 'milstein', got %r" % scheme)
    k = _finite("k", k)
    k2h = 0.5 * k * k
    field = spec._bp_field

    def multipliers(db, out):
        np.multiply(db, -k, out=out.imag)
        if scheme == "milstein":
            np.multiply(db, db, out=db)
            np.multiply(db, k2h, out=db)
            np.subtract(1.0, db, out=out.real)
        else:
            out.real = 1.0 - k2h * dt

    def step(psi, c):
        f = field(psi)
        f *= dt
        psi *= c
        psi += f
        return psi

    return multipliers, step


def evolve_psi_sde(spec, k, z0, path, scheme="milstein"):
    """Discretize the rotating-frame Ito SDE along one Brownian path.

    dPsi = -ik Psi dB + (-k^2/2 Psi + (Psi-1)^2 p(Psi)) dt.  The
    milstein scheme adds -k^2/2 Psi (dB^2 - dt), which is the exact
    second-order term for the linear multiplicative noise.  Each step is
    taken in the multiplicative form of ``_sde_stepper``, Psi c + b(Psi)
    dt with c from the increment, which rounds differently from the
    additive form at the ulp level.  Steps that exit the closed disk are
    radially projected back to |Psi| = 1 - 1e-12; the projection count
    lands in Trajectory.stats.

    Args:
        spec: Herglotz spec of the drift field.
        k: noise amplitude.
        z0: initial point, |z0| < 1.
        path: BrownianPath to discretize along.
        scheme: "euler" or "milstein".

    Returns:
        Trajectory in the psi frame sampled on the full path grid.
    """
    psi = _disk_point("z0", z0)
    dt = path.dt
    multipliers, step = _sde_stepper(spec, k, dt, scheme)
    c = np.empty(path.n_steps, dtype=complex)
    multipliers(path.increments(), c)
    values = [psi]
    projections = 0
    # scalar on purpose: one path through _psi_sde_block costs 9-16x
    # more per step (5.8-10 us against 0.4-0.8 us, six catalogue specs,
    # 2-core x86-64 VM)
    for c_j in c.tolist():
        psi = step(psi, c_j)
        r = abs(psi)
        if not r < 1.0:
            if not math.isfinite(r):
                _raise_non_finite(scheme, len(values) * dt)
            psi *= (1.0 - 1e-12) / r
            projections += 1
        values.append(psi)
    return Trajectory(times=path.time_grid(), values=np.asarray(values),
                      frame="psi", config=None,
                      stats={"steps": path.n_steps,
                             "projections": projections,
                             "scheme": scheme})


def _raise_non_finite(scheme, t):
    raise DiskEscapeError("the %s step escapes the unit disk to a "
                          "non-finite state by t=%.6g" % (scheme, t),
                          t_reached=t)


def _psi_sde_block(spec, k, psi0, increments, dt, scheme, record_cols=None):
    """Vectorized SDE stepping for a block of paths.

    The step multipliers of ``_sde_stepper`` are made for a chunk of
    steps at a time, _CHUNK_VALUES // n_paths of them (at least one):
    the chunk's increments are copied time-major into one reused buffer,
    1024 rows at a time so that a tall block is read a few pages at a
    time, and their multipliers go into one reused complex buffer, one
    row per step.  One copy is the cheapest gather of the transposed
    increments: each ufunc reading the strided view straight took 2 ns
    more per path-step than the copy (417 paths x 2,510 steps, 2-core
    x86-64 VM).  A step is then the field and four ufuncs, and the chunk
    width changes no bit of the result.

    Args:
        psi0: initial state, a scalar or an array with one row per path
            (a 2-d array steps each row's columns along that path).
        increments: (n_paths, n_steps) Brownian increments, only read;
            step j uses increments[:, j].  A ``_path_rows`` block passes
            its columns 1..n_steps.
        record_cols: optional collection of step counts at which to
            snapshot the state (j: the state after j steps, which is
            path column j of the block; 0 is the start state).

    Returns:
        (final_state, snapshots dict col->state, projections)

    Raises:
        DiskEscapeError: the final state is not finite; a NaN state
            stays NaN to the end, as projection skips it.
    """
    multipliers, step = _sde_stepper(spec, k, dt, scheme)
    n_paths, n_steps = increments.shape
    psi = np.array(np.broadcast_to(psi0, (n_paths,) + np.shape(psi0)[1:]),
                   dtype=complex)
    width = max(1, min(n_steps, _CHUNK_VALUES // max(1, n_paths)))
    tile = 1024
    db = np.empty((width, min(tile, n_paths)))
    chunk = np.empty((width, n_paths), dtype=complex)
    # one multiplier per row, a column of them for a 2-d state
    rows_c = chunk if psi.ndim == 1 else chunk[:, :, None]
    r = np.empty(psi.shape)
    # r.max() read as r's element at its argmax, which stops at the first
    # NaN: the same value in a third of the time at a few hundred rows
    flat = r.reshape(-1)
    snapshots = {}
    if record_cols is not None and 0 in record_cols:
        snapshots[0] = psi.copy()
    projections = 0
    for first in range(0, n_steps, width):
        w = min(width, n_steps - first)
        for top in range(0, n_paths, tile):
            part = increments[top:top + tile, first:first + w].T
            inc = db[:w, :part.shape[1]]
            np.copyto(inc, part)
            multipliers(inc, chunk[:w, top:top + tile])
        for j in range(w):
            psi = step(psi, rows_c[j])
            np.abs(psi, out=r)
            # a NaN maximum builds the mask too, which leaves a NaN state
            # unprojected and NaN to the end
            if not flat[flat.argmax()] < 1.0:
                mask = r >= 1.0
                projections += int(np.count_nonzero(mask))
                psi[mask] *= (1.0 - 1e-12) / r[mask]
            if record_cols is not None and first + j + 1 in record_cols:
                snapshots[first + j + 1] = psi.copy()
    if not np.isfinite(psi).all():
        _raise_non_finite(scheme, n_steps * dt)
    return psi, snapshots, projections


def _apply_f(f, arr):
    try:
        vals = np.asarray(f(arr), dtype=complex)
        if vals.shape == arr.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([f(v) for v in arr.ravel()],
                    dtype=complex).reshape(arr.shape)


def expectation_Tt(spec, k, t, z, f, n_samples, seed,
                   dt=1e-3, scheme="milstein"):
    """Monte Carlo estimate of (T_t f)(z) = E f(Psi_t(z)).

    Args:
        spec, k: field and noise amplitude.
        t: evolution time, >= 0.
        z: starting point in the open disk (DomainError otherwise).
        f: complex function applied to the final state (vectorized or
            scalar; both are accepted).
        n_samples: number of independent paths, >= 2.
        seed: root seed; path j derives from derive_path_seed(seed, j).
        dt: target SDE step (adjusted so the grid lands exactly on t).
        scheme: SDE scheme, see evolve_psi_sde.

    Returns:
        McEstimate with the combined real+imaginary standard error.
    """
    z = _disk_point("z", z)
    n_samples = _count("n_samples", n_samples, 2)
    n_steps, dt_used = _step_grid(t, dt)
    # rejects an unknown scheme or a non-finite k before any path is drawn
    _sde_stepper(spec, k, dt_used, scheme)
    if n_steps == 0:
        return McEstimate(mean=complex(f(z)), std_error=0.0,
                          n_samples=n_samples)

    def values(rows):
        return _apply_f(f, _psi_sde_block(spec, k, z, rows[:, 1:], dt_used,
                                          scheme)[0])

    return _mc_estimate(_path_blocks(values, seed, n_samples, dt_used,
                                     n_steps))


def covariance_mc(t, k, n_samples, seed, dt=1e-3):
    """Monte Carlo estimates of the covariance components of the
    solvable reference case at the origin.

    Estimates e1 = E e^{-ikB_t}, e2 = E phi_t(0), e3 = E[phi_t(0)
    e^{-ikB_t}] and cov = e3 - e2*e1 from exact pathwise solutions on
    simulated paths (trapezoid at the path resolution).

    Returns:
        dict with keys "e1", "e2", "e3", "cov", each a McEstimate;
        the cov standard error combines the component errors linearly.
    """
    n_samples = _count("n_samples", n_samples, 2)
    t = float(t)
    k = _finite("k", k)
    n_steps, dt_used = _step_grid(t, dt)

    def components(rows):
        B = _positions(rows)
        phi = math.exp(-t) * _exp_trapezoid(B, k, dt_used)
        zeta = np.exp(-1j * k * B[:, -1])
        return zeta, phi, phi * zeta

    blocks = _path_blocks(components, seed, n_samples, dt_used, n_steps)
    est = {key: _mc_estimate(parts)
           for key, parts in zip(("e1", "e2", "e3"), zip(*blocks))}
    cov = est["e3"].mean - est["e2"].mean * est["e1"].mean
    se = (est["e3"].std_error
          + abs(est["e1"].mean) * est["e2"].std_error
          + abs(est["e2"].mean) * est["e1"].std_error)
    est["cov"] = McEstimate(mean=cov, std_error=se, n_samples=n_samples)
    return est


# --------------------------------------------------------------------------
# generator algebra
# --------------------------------------------------------------------------

def apply_generator(spec, k, z, f, fprime=None, fsecond=None):
    """Apply the infinitesimal generator of T_t to f at z.

    A f(z) = (-k^2/2 z + (z-1)^2 p(z)) f'(z) - (k^2/2) z^2 f''(z).
    Derivatives default to central differences with h = 1e-5 (valid in
    any direction for analytic f); pass exact callables when the 1e-6
    scale FD noise matters.
    """
    z = _disk_point("z", z)
    k = _finite("k", k)
    if fprime is not None:
        d1 = complex(fprime(z))
    else:
        h = 1e-5
        d1 = (complex(f(z + h)) - complex(f(z - h))) / (2.0 * h)
    if fsecond is not None:
        d2 = complex(fsecond(z))
    else:
        h = 1e-5
        d2 = (complex(f(z + h)) - 2.0 * complex(f(z))
              + complex(f(z - h))) / (h * h)
    drift = _generator_value(spec, 0.5 * k * k, z)
    return drift * d1 - 0.5 * k * k * z * z * d2


def virasoro_coefficients(spec, k, N):
    """Ladder-operator expansion coefficients of the generator.

    With p(z) = sum a_n z^n, the generator acts as
    A = sum_{n=-1}^{N} c_n L_n - (k^2/2) L_0^2 where
    c_n = -(a_{n+1} - 2 a_n + a_{n-1}) and a_{-1} = a_{-2} = 0.

    Returns:
        (c, l0_squared) where c is a dict keyed by n in -1..N.
    """
    N = _count("N", N, -1)
    k = _finite("k", k)
    # a[n + 2] is a_n, with the two zeros a_{-2}, a_{-1} in front
    a = [0.0, 0.0] + taylor_coefficients(spec, N + 1)
    c = {n: -(a[n + 3] - 2.0 * a[n + 2] + a[n + 1]) for n in range(-1, N + 1)}
    return c, 0.5 * k * k


def find_stochastic_zero(spec, k):
    """Zero of the SDE drift (z-1)^2 p(z) - c z, c = k^2/2, in the disk.

    find_fixed_point's search with c = k^2/2 in place of ik: iterate
    z -> _koebe_inverse(c, p(z)) from the origin, then Newton from a 5x8
    polar grid.  Unlike the deterministic case the zero always exists,
    so failure raises.
    """
    k = _nonzero("k", k)
    c = 0.5 * k * k
    z = _interior_zero(lambda z: _generator_value(spec, c, z),
                       lambda z: _koebe_inverse(c, spec._value(z)), 1e-9)
    if z is not None:
        return z
    raise ZeroNotFoundError("no interior drift zero found for %s at k=%r"
                            % (spec.text_form(), k))


# --------------------------------------------------------------------------
# moment hierarchy and covariance
# --------------------------------------------------------------------------

def solve_moment_hierarchy(spec, k, z, t_end, M, truncation, closure="zero",
                           sample_times=None):
    """Solve the coupled moment system for mu_m(t) = E Psi_t(z)^m.

    d mu_m/dt = E A Psi^m with A z^m = -m sum_n c_n z^(m+n) - (k^2/2)
    m^2 z^m, the ladder coefficients c_n of ``virasoro_coefficients``
    (n >= -1), mu_0 = 1, cut at order ``truncation``.  closure="zero"
    drops moments above the cut; "frozen" holds them at their initial
    values z^j (tail coefficients through order truncation+1).

    The cut system d mu/dt = L mu + c is linear and is solved exactly:
    exp(gap [[L, c], [0, 0]]) (Van Loan) carries the state between sample
    times, one in-package degree-13 Padé ``expm`` (scaling and squaring,
    no SciPy) over the stack of distinct gaps, no step control.  Gaps
    within a relative 1e-12 of each other count as one, so a uniform
    grid such as np.linspace takes one exponential.  Once k^2/2
    overflows the generator is not finite and the moments are NaN.

    Returns:
        MomentTable with orders 1..M.

    Raises:
        MomentTruncationError: a reported moment is not finite or exceeds
            1 in modulus, which the moments of a disk-valued process cannot.
    """
    M = _count("M", M, 1)
    truncation = _count("truncation", truncation, M)
    _check_closure(closure)
    z = _disk_point("z", z, closed=True)
    t_end = _time("t_end", t_end)
    k = _finite("k", k)
    T = truncation
    c, l0_squared = virasoro_coefficients(spec, k, T)

    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 65)
    ts = _normalize_sample_times(sample_times, t_end)
    state = np.array([z ** m for m in range(1, T + 1)] + [1.0], dtype=complex)
    rows = [state]
    # one propagator per distinct gap: sorted gaps within a relative
    # 1e-12 of the one before share one, taken at their mean, so the
    # last-bit spread of a np.linspace grid's gaps costs one exponential
    steps = np.diff(ts)
    order = np.argsort(steps)
    ordered = steps[order]
    group = np.cumsum(np.diff(ordered, prepend=ordered[:1]) > 1e-12 * ordered)
    which = group[np.argsort(order)]
    gaps = np.bincount(group, ordered) / np.bincount(group)
    # once k^2/2 overflows (|k| > ~1.3e154) G has infinite entries and
    # every state is NaN, and a huge finite G (automorphism:1e200,0) can
    # overflow expm's squares; the check below reports both
    with np.errstate(over="ignore", invalid="ignore"):
        # state (mu_1, ..., mu_T, mu_0 = 1): column j - 1 holds mu_j, so
        # mu_0 sits at column -1 == T, which also takes the frozen tail
        G = np.zeros((T + 1, T + 1), dtype=complex)
        for m in range(1, T + 1):
            i = m - 1
            for n in range(-1, T - m + 1):
                G[i, i + n] = -m * c[n]
            G[i, i] -= l0_squared * m * m
            if closure == "frozen":
                for n in range(T - m + 1, T + 1):
                    G[i, T] -= m * c[n] * z ** (m + n)
        propagators = expm(gaps[:, None, None] * G)
        for i in which:
            state = propagators[i] @ state
            rows.append(state)
    values = np.array(rows)[:, :M]
    worst = float(np.max(np.abs(values)))
    if not worst <= 1.0 + _MOMENT_TOL:
        what = ("|mu| = %.6g > 1; raise the truncation" % worst
                if math.isfinite(worst) else "a non-finite moment")
        raise MomentTruncationError("hierarchy truncated at order %d gives %s"
                                    % (truncation, what))
    return MomentTable(orders=tuple(range(1, M + 1)),
                       times=np.asarray(ts), values=values,
                       truncation=truncation, closure=closure)


def _check_closure(closure):
    if closure not in ("zero", "frozen"):
        raise ValueError("closure must be 'zero' or 'frozen', got %r" % closure)


def covariance_reference(t, k):
    """Closed-form covariance components of the solvable reference case.

    e1 = E e^{-ikB_t}, e2 = E phi_t(0), e3 = E[phi_t(0) e^{-ikB_t}],
    cov = Cov(phi_t(0), e^{-ikB_t}) = e3 - e2 e1, with the k^2 = 2
    degeneracy handled as the continuous limit of the general branch.
    """
    t = _time("t", t)
    k2 = _finite("k", k) ** 2
    e1 = math.exp(-0.5 * k2 * t)
    e2 = complex(mean_phi_example1(0.0, t, k)).real
    half = 0.5 * k2
    e3 = (1.0 - math.exp(-(1.0 + half) * t)) / (1.0 + half)
    if abs(k2 - 2.0) <= 1e-12:
        cov = 0.5 * (1.0 - math.exp(-2.0 * t) * (2.0 * t + 1.0))
    else:
        cov = e3 - e1 * e2
    return CovarianceReference(e1=e1, e2=e2, e3=complex(e3), cov=complex(cov))


# --------------------------------------------------------------------------
# polar decomposition: radial bounds and the circle diffusion
# --------------------------------------------------------------------------

def radial_solution(A, B, k, r0, path, theta_traj):
    """Radial part of the automorphism-driven polar system.

    Given the angular trajectory theta_s (from the coupled polar
    system) on the same grid as the path, the radius solves

        r(t) = tanh(|p0| I(t) + artanh r0),
        I(t) = integral_0^t cos(theta_s - k B_s - arg p0) ds,

    with p0 = A + iB, by trapezoid on the shared grid; r0 = 1 stays 1.
    """
    r0 = _radius(r0)
    theta = _finite_array("theta_traj", theta_traj)
    if theta.shape != path.values.shape:
        raise ValueError("theta_traj must share the path grid")
    p0 = complex(_time("A", A), _finite("B", B))
    k = _finite("k", k)
    if r0 == 1.0:
        return np.ones_like(theta)
    amp = abs(p0)
    alpha = cmath.phase(p0)
    integrand = np.cos(theta - k * path.values - alpha)
    cum = np.empty_like(integrand)
    cum[0] = 0.0
    np.cumsum(0.5 * path.dt * (integrand[:-1] + integrand[1:]), out=cum[1:])
    return np.tanh(amp * cum + math.atanh(r0))


def _radius(r0):
    """float(r0) in [0, 1]: a radius is a nonnegative point of the
    closed disk."""
    return _disk_point("r0", _time("r0", r0), closed=True).real


# spec ids with explicit radial envelopes, and their spec factories
_BOUND_SPECS = {"cayley": Cayley, "cayley-linear": CayleyLinear,
                "one": lambda: Taylor([1.0])}


def growth_bounds(spec_id, r0, t):
    """Deterministic radial envelope for |phi_t| along any path.

    The three covered specs admit explicit bounds; the upper bound is
    the k=0 radial solution, the lower bound its time reversal, clamped
    at 0.
    """
    if spec_id not in _BOUND_SPECS:
        raise ValueError("spec_id must be one of %r, got %r"
                         % (tuple(_BOUND_SPECS), spec_id))
    r0 = _radius(r0)
    t = _time("t", t)
    if t == 0.0:
        return r0, r0
    if spec_id == "cayley":
        if r0 == 1.0:
            return 1.0, 1.0
        base = math.atanh(r0)
        return max(0.0, math.tanh(base - t)), math.tanh(base + t)
    if spec_id == "cayley-linear":
        decay = math.exp(-t)
        spread = 1.0 - decay
        return max(0.0, r0 * decay - spread), r0 * decay + spread
    upper = (r0 * (1.0 - t) + t) / (1.0 + t * (1.0 - r0))
    lower = (r0 * (1.0 - t) - t) / (1.0 + t * (1.0 + r0))
    return max(0.0, lower), upper


def simulate_boundary_diffusion(A, B, k, theta0, path):
    """Euler-Maruyama for the circle diffusion induced on the boundary.

    d Theta = -2 (Im p0 + |p0| sin Theta) dt - k dB with p0 = A + iB;
    A=1, B=0 is the noisy North-South flow d Theta = -2 sin Theta dt
    - k dB.  Values are reduced mod 2 pi for reporting.
    """
    A = _time("A", A)
    B = _finite("B", B)
    k = _finite("k", k)
    if A == 0.0 and B == 0.0:
        raise ValueError("need (A, B) != (0, 0)")
    amp = math.hypot(A, B)
    theta = _finite("theta0", theta0)
    dt = path.dt
    out = np.empty(path.n_steps + 1)
    out[0] = theta % (2.0 * math.pi)
    for j, db in enumerate(path.increments().tolist()):
        theta = theta - 2.0 * (B + amp * math.sin(theta)) * dt - k * db
        out[j + 1] = theta % (2.0 * math.pi)
    return out


def generator_annihilator(A, B, k, theta, c1, c2):
    """Annihilating function of the circle diffusion's generator.

    f(theta) = c1 + c2 * integral_0^theta exp(4 (s Im p0 - |p0| cos s)
    / k^2) ds, by composite Gauss-Legendre quadrature.  Array input is
    evaluated by cumulative per-segment quadrature in sorted order with
    compensated summation, so finite differences of neighboring outputs see
    quadrature noise near machine precision rather than independent
    1e-10 relative errors.  A scalar theta takes the same path as a
    0-d array and returns a complex.
    """
    k = _nonzero("k", k)
    A = _time("A", A)
    B = _finite("B", B)
    amp = math.hypot(A, B)
    # A = B = 0 makes the exponent 0 for every k, also past 4 / k^2 = inf
    scale = 4.0 / (k * k) if amp else 0.0
    c1 = _finite_complex("c1", c1)
    c2 = _finite_complex("c2", c2)
    thetas = _finite_array("theta", theta)
    flat = thetas.ravel()
    out = np.full(len(flat), c1, dtype=complex)
    acc = c1
    comp = 0.0 + 0.0j
    prev = 0.0
    order = np.argsort(flat, kind="stable") if c2 != 0.0 else []
    for idx in order:
        th = float(flat[idx])
        if th != prev:
            term = c2 * _exp_integral(scale, B, amp, prev, th)
            y = term - comp
            t_new = acc + y
            comp = (t_new - acc) - y
            acc = t_new
            prev = th
        out[idx] = acc
    out = out.reshape(thetas.shape)
    return complex(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# backward equation
# --------------------------------------------------------------------------

def backward_equation_residual(spec, k, f, t, z, n_samples, seed=0,
                               dt=1e-3, h=1e-2, fit_points=16,
                               fit_radius=None):
    """Monte Carlo residual of d/dt u = A u for u(t,z) = E f(Psi_t(z)).

    The time derivative is a central difference (u(t+h) - u(t-h))/2h
    with both values read off the same paths (common random numbers);
    A u comes from Cauchy-integral derivatives of u(t, .) sampled on a
    small circle around z, again on shared paths; the circle, of radius
    ``fit_radius`` (default 0.15 (1 - |z|)), must lie in the open disk
    (DomainError otherwise).  Both are linear in the per-path values of
    f, so each path gives one residual sample and the error bar is the
    standard error of those iid samples; any n_samples >= 2 is accepted.

    Returns:
        (residual, std_error): |d_t u - A u| and the combined
        real+imaginary standard error of the per-path samples.
    """
    z = _disk_point("z", z)
    t = _time("t", t)
    h = _positive("h", h)
    if t < h:
        raise ValueError("need t >= h for the central difference "
                         "(got t=%r, h=%r)" % (t, h))
    n_samples = _count("n_samples", n_samples, 2)
    k = _finite("k", k)

    n_plus, dt_used = _step_grid(t + h, dt)
    col_minus = round((t - h) / dt_used)
    col_mid = round(t / dt_used)
    if not (0 <= col_minus < col_mid < n_plus):
        raise ValueError("t and h must be resolvable on the dt grid")

    if fit_radius is None:
        fit_radius = 0.15 * (1.0 - abs(z))
    fit_radius = _positive("fit_radius", fit_radius)
    if not abs(z) + fit_radius < 1.0:
        raise DomainError("the fit circle must lie in the open disk: need "
                          "|z| + fit_radius < 1, got %r"
                          % (abs(z) + fit_radius))
    P = _count("fit_points", fit_points, 3)
    angles = 2.0 * math.pi * np.arange(P) / P
    # column 0 of a block's state is the point z, columns 1..P the circle
    start = np.concatenate(([z], z + fit_radius * np.exp(1j * angles)))
    # A u = drift(z) c1 - k^2 z^2 c2 with the Cauchy coefficients
    # c_m = mean(u_circle e^{-im angle}) / r^m, as one weight per point
    drift_z = _generator_value(spec, 0.5 * k * k, z)
    weights = (drift_z / (P * fit_radius) * np.exp(-1j * angles)
               - k * k * z * z / (P * fit_radius ** 2) * np.exp(-2j * angles))

    def samples(rows):
        psi, snaps, _ = _psi_sde_block(
            spec, k, np.broadcast_to(start, (len(rows), P + 1)), rows[:, 1:],
            dt_used, "milstein", record_cols={col_minus, col_mid})
        du = (_apply_f(f, psi[:, 0])
              - _apply_f(f, snaps[col_minus][:, 0])) / (2.0 * h)
        return du - _apply_f(f, snaps[col_mid][:, 1:]) @ weights

    est = _mc_estimate(_path_blocks(samples, seed, n_samples, dt_used, n_plus,
                                    width=P + 1))
    return abs(est.mean), est.std_error
