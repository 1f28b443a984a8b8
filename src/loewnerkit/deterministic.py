"""Deterministic disk evolution driven by a rotating boundary point.

The central object is the initial value problem

    dphi/dt = (tau(t) - phi)^2 / tau(t) * p(phi / tau(t)),    phi_0 = z,

with tau(t) = exp(ikt) and p a Herglotz spec.  Substituting
psi = phi / tau turns this into the autonomous field

    dpsi/dt = (psi - 1)^2 p(psi) - i k psi,

which is what most of the analysis targets: classification of the flow
(elliptic / hyperbolic / parabolic) for the two-parameter automorphism
family, closed-orbit detection via commensurability of the two rotation
rates, and interior fixed-point location via the inverse Koebe map.

Two solvers share the evolution, chosen by the spec alone.  When the
field is a quadratic polynomial (``spec._quadratic()``: cayley-linear,
cayley, const-i, every automorphism and constant Taylor specs), the
psi equation is a Riccati equation with constant coefficients, and its
flow over a cell is the Moebius map of one 2x2 exponential
(``_mobius_cells``); the sample gaps are cut into equal cells no wider
than ``dt`` and walked exactly (method "mobius-exact") by
``_mobius_walk``, which the Brownian drive shares with B_t = t replaced
by the path.

Every other spec runs a hand-rolled adaptive Dormand-Prince 8(5,3)
pair, the DOP853 of Hairer, Norsett and Wanner (method "dop853").  It
is kept local (rather than delegating to a library solver) because the
step-acceptance rule enforces disk containment on top of the local
error test, and failure must report the exact time reached.  A single
point walks the nonzero weights of the tableau on Python complexes,
each sum left to right; an array of points sums each stage as one
matrix product in a stage buffer allocated once per solve.  The first
stage of a step is evaluated once per state ("first same as last"), so
an accepted step costs twelve field evaluations and a rejected attempt
eleven.  Where the error test sets the step, the eighth-order step is
about three times as long as a 5(4) pair's at the default tolerances;
where the sample grid or ``dt`` sets every step (a deterministic CLI
evolve at dt = 0.01, say), the steps are no longer and each costs twice
the field evaluations.  Dense output, which would let such runs step
past the sample times, is not implemented.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .herglotz import (
    Automorphism,
    DomainError,
    Error,
    SingularPointError,
    _count,
    _disk_point,
    _finite,
    _finite_complex,
    _generator_value,
    _nonzero,
    _positive,
    _time,
)

__all__ = [
    "StiffnessError",
    "DiskEscapeError",
    "EvolutionConfig",
    "Trajectory",
    "ClassificationResult",
    "Example1Reference",
    "evolve_phi",
    "evolve_psi",
    "example1_reference",
    "classify_semigroup",
    "is_closed_trajectory",
    "koebe_map",
    "koebe_inverse",
    "find_fixed_point",
    "boundary_fixed_points",
    "implicit_solution_residual",
    "boundary_image",
]

CONTAINMENT_TOL = 1e-9
MIN_STEP = 1e-14
# the widest step of a boundary image and of the CLI's deterministic
# evolve: exact cells no wider, or Dormand-Prince's first trial and bound.
# Without it fig1 (exponential, 256 points) takes 41 steps instead of 54,
# but its first trial step of 2.4 evaluates the field so far outside the
# disk that exp overflows, with a NumPy warning, before it is rejected
_DT_CAP = 0.05


class StiffnessError(Error):
    """Adaptive step size underflowed; carries the time reached."""

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached


class DiskEscapeError(Error):
    """A solution left the closed unit disk or is not finite.

    ``t_reached`` is the first recorded time at which the solution lies
    outside the disk by more than the containment tolerance.
    """

    def __init__(self, message, t_reached):
        super().__init__(message)
        self.t_reached = t_reached


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    """Integration parameters for a single evolution run.

    Parameters
    ----------
    k : float
        Rotation rate of the driving point tau(t) = exp(ikt).
    t_end : float
        Final time, nonnegative.
    dt : float
        Base step.  On a quadratic spec it caps the width of the exact
        Moebius cells; otherwise it is the initial trial step and upper
        bound of the adaptive Dormand-Prince 8(5,3) integrator.
    rtol, atol : float
        Local error control of that integrator: it scales each point's
        fifth- and third-order error sums e5, e3 by atol + rtol*|phi|
        and accepts a step of length h when h e5^2 / sqrt(e5^2 +
        0.01 e3^2) <= 1 at every point; the exact cells of a quadratic
        spec leave them unused.

    Every field must be finite; a NaN or infinite value is a
    ValueError, never a numerical failure of the integrator.
    """

    k: float
    t_end: float
    dt: float = 0.01
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        _finite("k", self.k)
        _time("t_end", self.t_end)
        _positive("dt", self.dt)
        if self.t_end > 0.0 and self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end (got dt=%r, t_end=%r)"
                             % (self.dt, self.t_end))
        for name in ("rtol", "atol"):
            v = getattr(self, name)
            if not 0.0 < v <= 1e-2:
                raise ValueError("%s must lie in (0, 1e-2], got %r" % (name, v))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one evolution run.

    ``values[j]`` is the solution at ``times[j]``; ``frame`` records
    whether the values are phi_t or the rotating-frame psi_t.  The
    arrays are marked read-only; trajectories never mutate.
    """

    times: np.ndarray
    values: np.ndarray
    frame: str
    config: EvolutionConfig | None = None
    stats: dict | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d of equal length")
        if self.frame not in ("phi", "psi"):
            raise ValueError("frame must be 'phi' or 'psi', got %r" % self.frame)
        # counted, not np.all: a NaN fails both checks either way, and a
        # pathwise walk builds one of these per Brownian path
        if len(times) > 1 and \
                np.count_nonzero(times[1:] > times[:-1]) != len(times) - 1:
            raise ValueError("times must be strictly increasing")
        if np.count_nonzero(np.abs(values) <= 1.0 + CONTAINMENT_TOL) \
                != len(values):
            raise ValueError("trajectory escapes the unit disk")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def to_csv(self):
        """Render as CSV text with header ``t,re,im,frame``."""
        lines = ["t,re,im,frame"]
        for t, v in zip(self.times, self.values):
            lines.append("%.17g,%.17g,%.17g,%s" % (t, v.real, v.imag, self.frame))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ClassificationResult:
    """Phase-portrait class of the rotating-frame automorphism flow."""

    kind: str
    discriminant: float
    fixed_point: complex | None = None


Example1Reference = namedtuple("Example1Reference", ["phi", "psi", "dw"])


# --------------------------------------------------------------------------
# adaptive Dormand-Prince 8(5,3)
# --------------------------------------------------------------------------

# Dormand & Prince's eighth-order pair with Hairer's fifth- and
# third-order error estimates (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10), the float64 coefficients of SciPy's dop853_coefficients.
# _C[s] is the node of stage s; row s < 12 of _A holds the weights of
# stage s's sum, written out to stage s - 1, and row 12 the weights b of
# the eighth-order solution y8.
# The first stage of a step is f(t, y), which after an accepted step is
# f(t + h, y8) ("first same as last"), so it is evaluated once per state.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0)
_A = np.array([row + [0.0] * (12 - len(row)) for row in [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
     -0.590290826836843, 21.230051448181193, 15.279233632882423,
     -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
]])
# the fifth- and third-order error weights E5 and E3
_E = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
     -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
     0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, -0.4226823213237919,
     -0.1521609496625161, 0.20136540080403034, 0.02265179219836082],
])
# the smallest normal float
_TINY = 2.2250738585072014e-308


# the walk of _dop853_scalar, built once: each row's nonzero (stage,
# weight) pairs, with its node for each later stage
_TERMS = [tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)
          for row in (*_A, *_E)]
_STAGE_TERMS = tuple(zip(_C[1:12], _TERMS[1:12]))
_B_TERMS, *_E_TERMS = _TERMS[12:]


def _dop853_scalar(field, t, y, h, k0):
    """One Dormand-Prince 8(5,3) attempt from the complex y at t with
    k0 = field(t, y): a walk over the nonzero weights of _A and _E.
    Each stage sum runs left to right from y, ``acc + (h a) k_j``, and
    each error sum from its first term, ``acc + a k_j``; that order fixes
    the bits, and tests/test_dp_reference.py holds the step to those of
    its loop over the table.

    Returns (y8, e5, e3): the eighth-order solution and the unscaled
    fifth- and third-order error sums of _E.
    """
    ks = [k0]
    for c, terms in _STAGE_TERMS:
        acc = y
        for j, a in terms:
            acc = acc + (h * a) * ks[j]
        ks.append(field(t + c * h, acc))
    y8 = y
    for j, a in _B_TERMS:
        y8 = y8 + (h * a) * ks[j]
    errors = []
    for (j0, a0), *terms in _E_TERMS:
        acc = a0 * ks[j0]
        for j, a in terms:
            acc = acc + a * ks[j]
        errors.append(acc)
    return (y8, *errors)


def _dop853_array(field, t, y, h, stages):
    """One Dormand-Prince 8(5,3) attempt for a 1-d array of points.

    ``stages`` is a (12, len(y)) complex buffer whose row 0 holds
    field(t, y); row s takes stage s.  Each sum is one product of a row
    of h _A (or of _E) with the stages as real rows, so it costs one
    call whatever the number of its terms.  Returns (y8, e5, e3).
    """
    rows = stages.view(float)
    ha = h * _A
    for s in range(1, 12):
        stages[s] = field(t + _C[s] * h,
                          y + (ha[s, :s] @ rows[:s]).view(complex))
    e5, e3 = (_E @ rows).view(complex)
    return y + (ha[12] @ rows).view(complex), e5, e3


def _array_max(a):
    """The largest element of a non-empty array, NaN if it holds one.

    a's element at its argmax, which stops at the first NaN: the value
    of np.max(a) without np.max's Python wrapper, in about a quarter of
    its time at a few hundred points.
    """
    flat = a.reshape(-1)
    return flat[flat.argmax()]


@np.errstate(over="ignore", invalid="ignore")
def _integrate(field, y0, sample_times, cfg):
    """Drive the DOP853 pair through ``sample_times``.

    ``y0`` is a complex, whose run takes ``_dop853_scalar`` on Python
    complexes, or a 1-d array, whose run sums each stage as one product
    of a row of h _A with the stages before it, in one stage buffer per
    solve.  The error test and the containment test (always enforced)
    reduce elementwise by max.  An array attempt takes the modulus |y8|
    once and uses it three times: as the finiteness pre-test (a finite
    max|y8| means every point is finite, so ``np.isfinite`` runs only
    when it is not), for the containment test and for the error scale
    atol + rtol |y8|.  A non-finite y8 shrinks the step by 0.25, one
    outside the disk (an overflowing modulus of finite points among
    them) by 0.5.  Otherwise the error of each element is Hairer's
    h e5^2 / sqrt(e5^2 + 0.01 e3^2), with e5 and e3 the scaled error
    sums, and the step scales by 0.9 (max error)^(-1/8).  The first
    stage is evaluated once per state: a rejected attempt keeps it, as
    t and y are unchanged, so an accepted step costs 12 field calls and
    a rejected one 11.  Attempts run with NumPy's overflow and invalid
    warnings off: a large trial step can carry the stages far outside
    the disk, where the field overflows, and the non-finite y8 is
    rejected like any other.  Returns (values_at_sample_times, stats).
    """
    atol, rtol = cfg.atol, cfg.rtol
    # assess(y8, e5, e3) -> (shrink of a rejected attempt or None,
    # max e5^2 / sqrt(e5^2 + 0.01 e3^2), the error ratio over h)
    if np.ndim(y0):
        y = np.asarray(y0, dtype=complex)
        stages = np.empty((12, y.size), dtype=complex)

        def step(t, y, h, k0):
            stages[0] = k0
            return _dop853_array(field, t, y, h, stages)

        def assess(v, e5, e3):
            r = np.abs(v)
            m = float(_array_max(r))
            if not math.isfinite(m) and not np.isfinite(v).all():
                return 0.25, None
            if m > 1.0 + CONTAINMENT_TOL:
                return 0.5, None
            scale = atol + rtol * r
            e5 = np.abs(e5) / scale
            e3 = np.abs(e3) / scale
            # e5 / hypot <= 1, so the product never overflows; a hypot
            # below the smallest normal only meets an e5 whose square is 0
            return None, float(_array_max(
                e5 * (e5 / np.maximum(np.hypot(e5, 0.1 * e3), _TINY))))
    else:
        y = complex(y0)

        def step(t, y, h, k0):
            return _dop853_scalar(field, t, y, h, k0)

        def assess(v, e5, e3):
            if not cmath.isfinite(v):
                return 0.25, None
            r = abs(v)
            if r > 1.0 + CONTAINMENT_TOL:
                return 0.5, None
            scale = atol + rtol * r
            e5 = abs(e5) / scale
            e3 = abs(e3) / scale
            return None, e5 * (e5 / max(math.hypot(e5, 0.1 * e3), _TINY))
    t = float(sample_times[0])
    out = [y]
    steps = 0
    rejections = 0
    h = cfg.dt
    k0 = None
    for target in sample_times[1:]:
        target = float(target)
        while t < target - 1e-15 * max(1.0, abs(target)):
            gap = target - t
            if gap <= MIN_STEP * max(1.0, abs(target)):
                # Accumulated rounding can leave a sliver no step can
                # resolve; the state is already at the target to within
                # every tolerance in play, so record it as arrived.
                t = target
                k0 = None
                break
            h_use = min(h, gap)
            if h_use < MIN_STEP:
                raise StiffnessError(
                    "step size underflow (h=%.3e) at t=%.12g" % (h_use, t),
                    t_reached=t)
            if k0 is None:
                k0 = field(t, y)
            y_new, e5, e3 = step(t, y, h_use, k0)
            shrink, ratio = assess(y_new, e5, e3)
            if shrink is not None:
                rejections += 1
                h = h_use * shrink
                continue
            ratio *= h_use
            if ratio <= 1.0:
                t += h_use
                y = y_new
                k0 = None
                steps += 1
                grow = (5.0 if ratio == 0.0
                        else min(5.0, max(0.2, 0.9 * ratio ** -0.125)))
                h = min(cfg.dt, h_use * grow)
            else:
                rejections += 1
                h = h_use * min(0.9, max(0.1, 0.9 * ratio ** -0.125))
            if steps + rejections > 2_000_000:
                raise StiffnessError(
                    "step budget exhausted at t=%.12g" % t, t_reached=t)
        out.append(y)
    stats = {"steps": steps, "rejections": rejections}
    return out, stats


def _normalize_sample_times(sample_times, t_end):
    ts = sorted(_time("sample time", t) for t in sample_times)
    if ts and ts[-1] > t_end + 1e-12:
        raise ValueError("sample times must lie in [0, t_end]")
    if not ts or ts[0] > 0.0:
        ts.insert(0, 0.0)
    dedup = [ts[0]]
    for t in ts[1:]:
        if t > dedup[-1]:
            dedup.append(t)
    return dedup


# --------------------------------------------------------------------------
# exact Moebius cells for the quadratic fields
# --------------------------------------------------------------------------

def _mobius_cells(g, k, b, h):
    """Entries (e00, e01, e10, e11) of each cell's Moebius matrix.

    For a quadratic field g2 w^2 + g1 w + g0 the rotating-frame state
    psi = phi / tau, tau = e^{ikB}, solves the Riccati equation
    psi' = g2 psi^2 + (g1 - ik B') psi + g0, whose flow is
    psi -> (e00 psi + e01) / (e10 psi + e11) with E solving
    E' = [[(g1 - ik B')/2, g0], [-g2, -(g1 - ik B')/2]] E (Schiff and
    Shnider, SIAM J. Numer. Anal. 36(5), 1999).  On a cell of width h
    where B is linear, B' = dB/h is constant, so E is the exponential of
    one traceless matrix [[a, p], [q, -a]] with a = (g1 h - ik dB)/2,
    p = g0 h and q = -g2 h:

        E = cosh(d) I + sinh(d)/d [[a, p], [q, -a]],  d^2 = a^2 + pq,

    the cell's exact flow, with no truncation error.

    Args:
        g: (g2, g1, g0), from ``spec._quadratic()``.
        k: noise amplitude.
        b: B at the knots, knots along the last axis, any leading axes.
        h: the cell widths, broadcast against the cells ``b[..., 1:]``;
            a cell of width 0 only turns psi by e^{-ik dB}.

    Returns:
        Four complex arrays of the cells' shape.
    """
    g2, g1, g0 = g
    a = 0.5 * g1 * h - 0.5j * k * (b[..., 1:] - b[..., :-1])
    p = g0 * h
    q = -g2 * h
    d = np.sqrt(a * a + p * q)
    cosh = np.cosh(d)
    # sinh(d)/d is even in d, so either root serves; it is 1 at d = 0
    # (a cell of width 0 at k = 0, for one)
    if np.count_nonzero(d) == d.size:
        sinhc = np.sinh(d) / d
    else:
        sinhc = np.divide(np.sinh(d), d, out=np.ones_like(d), where=d != 0.0)
    s00 = sinhc * a
    return cosh + s00, sinhc * p, sinhc * q, cosh - s00


# the method a walk through the Moebius cells reports
_MOBIUS = "mobius-exact"
# _mobius_walk builds about this many Moebius cells at a time: each takes
# about ten complex temporaries, and in the mc_pathwise benchmark chunks
# of 4096 cells and more raised the peak RSS by 0.6 MiB and up
_CELL_VALUES = 1 << 10


def _escape_error(solution, t):
    """DiskEscapeError of the ``solution`` first outside at time t."""
    return DiskEscapeError("%s solution escapes the unit disk at t=%.6g"
                           % (solution, t), t_reached=float(t))


def _first_escape(values):
    """Index of the first value outside the closed disk, or None; of a
    2-d array, the first row with a value outside."""
    # written so that a NaN modulus counts as outside
    outside = ~(np.abs(values) <= 1.0 + CONTAINMENT_TOL)
    if outside.ndim > 1:
        outside = outside.any(axis=1)
    return int(np.argmax(outside)) if np.count_nonzero(outside) else None


def _cell_knots(ts, dt):
    """(knots, at): the knots that cut each gap of the sample times
    ``ts`` into equal cells no wider than ``dt``, and the knot index of
    each sample time.  A sample time is a knot bit for bit.  A gap
    within a relative 1e-9 of a multiple of dt takes that many cells, so
    a sample grid of spacing dt, whose gaps round to dt give or take an
    ulp, takes one cell per gap.  Cells no wider than dt keep cosh(d)
    bounded on long runs."""
    ts = np.asarray(ts, dtype=float)
    gaps = ts[1:] - ts[:-1]
    cells = np.maximum(1, np.ceil(gaps / dt - 1e-9)).astype(np.intp)
    at = np.concatenate(([0], np.cumsum(cells)))
    gap = np.repeat(np.arange(len(gaps)), cells)
    knots = np.empty(at[-1] + 1)
    knots[:-1] = ts[gap] + gaps[gap] * ((np.arange(at[-1]) - at[gap])
                                        / cells[gap])
    knots[-1] = ts[-1]
    return knots, at


# the decorator costs less per call than a with statement
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _mobius_walk(g, k, z0, b, h, at):
    """psi at the sorted knot indices ``at``, one row per entry, through
    the Moebius cells of the quadratic field g = (g2, g1, g0).

    The one loop that applies ``_mobius_cells``, for both drives.  ``b``
    is B at the knots, one path (1-d) or one path per row (2-d); ``h``
    the cell widths, an array or a number.  psi starts at ``z0`` (knot
    0), a complex or an array of points that walk together.  The cells
    are built _CELL_VALUES at a time (at least one column of a 2-d b),
    so a long walk never holds them all.  An overflowing cell turns psi
    into NaN for good, which the caller's containment check reports,
    without a warning.
    """
    rowwise = b.ndim > 1
    width = max(1, _CELL_VALUES // len(b)) if rowwise else _CELL_VALUES
    # how many times each knot is kept
    counts = np.bincount(at, minlength=b.shape[-1]).tolist()
    y = z0
    psi = [y] * counts[0]
    for first in range(0, b.shape[-1] - 1, width):
        cells = _mobius_cells(g, k, b[..., first:first + width + 1],
                              h[first:first + width] if np.ndim(h) else h)
        # one path's entries as Python complexes; the rows of a 2-d b a
        # column of cells at a time
        for n, e00, e01, e10, e11 in zip(
                counts[first + 1:first + width + 1],
                *(c.T if rowwise else c.tolist() for c in cells)):
            y = (e00 * y + e01) / (e10 * y + e11)
            if n:
                psi.append(y)
                if n > 1:
                    psi += [y] * (n - 1)
    return np.asarray(psi)


# --------------------------------------------------------------------------
# evolution
# --------------------------------------------------------------------------

def _driven_field(spec, tau_of):
    """Phi-frame field tau * g(y / tau) with tau = tau_of(t)."""

    def field(t, y):
        tau = tau_of(t)
        return tau * spec._bp_field(y / tau)

    return field


def _solve(spec, cfg, z0, ts, frame):
    """(values at the sample times ``ts``, stats) of the drive e^{ikt}
    from z0, a complex or a 1-d array of points, in ``frame``.

    A quadratic spec walks the exact Moebius cells and turns psi into
    phi = e^{ikt} psi at the sample times; any other spec runs the
    Dormand-Prince 8(5,3) pair on the phi-frame field tau g(phi / tau)
    or the psi-frame generator, a complex z0 on Python complexes and an
    array with one stage buffer.  stats: steps (DOP853 steps or cells),
    rejections (0 for the cells) and the method, "mobius-exact" or
    "dop853".
    """
    k = cfg.k
    g = spec._quadratic()
    if g is not None:
        knots, at = _cell_knots(ts, cfg.dt)
        psi = _mobius_walk(g, k, z0, knots, knots[1:] - knots[:-1], at)
        j = _first_escape(psi)
        if j is not None:
            raise _escape_error(_MOBIUS, ts[j])
        if frame == "phi":
            # transposed, so the factor of sample j meets row j also
            # when each row holds many points
            psi = (psi.T * np.exp(1j * k * np.asarray(ts))).T
        return psi, {"steps": len(knots) - 1, "rejections": 0,
                     "method": _MOBIUS}
    if frame == "phi":
        field = _driven_field(spec, lambda t: cmath.exp(1j * k * t))
    else:
        c = 1j * k

        def field(t, y):
            return _generator_value(spec, c, y)
    values, stats = _integrate(field, z0, ts, cfg)
    stats["method"] = "dop853"
    return values, stats


def _evolve(spec, cfg, z0, sample_times, frame):
    z0 = _disk_point("z0", z0, closed=True)
    ts = _normalize_sample_times(sample_times, cfg.t_end)
    values, stats = _solve(spec, cfg, z0, ts, frame)
    return Trajectory(times=np.array(ts), values=np.array(values),
                      frame=frame, config=cfg, stats=stats)


def evolve_phi(spec, cfg, z0, sample_times):
    """Solve the driven evolution phi_t from z0, sampled at the given
    times.

    A quadratic spec (``spec._quadratic()``) is solved exactly: its
    rotating-frame flow is walked through Moebius cells no wider than
    ``cfg.dt`` and phi = e^{ikt} psi is formed at the sample times
    (stats method "mobius-exact", rejections 0).  Any other spec is
    integrated by the adaptive Dormand-Prince 8(5,3) pair (method
    "dop853", twelve field evaluations per accepted step) on the field
    tau(t) * g(phi / tau(t)), where g(w) = (w - 1)^2 p(w) is the spec's
    cancelled form, so trajectories may graze the driving point without
    a division blow-up.  When the sample times or ``cfg.dt`` set every
    step, the pair takes the steps a 5(4) pair would, at twice the field
    evaluations each; it has no dense output to step past them.

    Raises:
        DiskEscapeError: the exact solution is not finite or leaves the
            closed disk (its cells overflow).
        StiffnessError: the adaptive step underflowed or its budget ran
            out.
    """
    return _evolve(spec, cfg, z0, sample_times, "phi")


def evolve_psi(spec, cfg, z0, sample_times):
    """Solve the autonomous rotating-frame evolution psi_t from z0.

    The solver and the errors are those of ``evolve_phi``: exact Moebius
    cells on a quadratic spec, adaptive Dormand-Prince on the generator
    (z - 1)^2 p(z) - ikz otherwise.
    """
    return _evolve(spec, cfg, z0, sample_times, "psi")


# --------------------------------------------------------------------------
# closed forms for the solvable reference case p(z) = 1/(1-z)
# --------------------------------------------------------------------------

def example1_reference(z, t, k):
    """Closed-form phi_t(z), psi_t(z) and the moving attracting point
    of the solvable reference case.

    phi_t(z) = e^{-t} z + (e^{ikt} - e^{-t}) / (1 + ik), psi = phi/tau,
    and dw solves phi_t(w) = w (needs t > 0).
    """
    z = _disk_point("z", z, closed=True)
    t = _time("t", t)
    if t == 0.0:
        raise DomainError("the moving fixed point needs t > 0, got %r" % t)
    k = _finite("k", k)
    ik1 = 1.0 + 1j * k
    phi = cmath.exp(-t) * z + (cmath.exp(1j * k * t) - cmath.exp(-t)) / ik1
    psi = phi * cmath.exp(-1j * k * t)
    dw = (-1.0 + cmath.exp(t + 1j * k * t)) / (ik1 * math.expm1(t))
    return Example1Reference(phi=phi, psi=psi, dw=dw)


# --------------------------------------------------------------------------
# classification of the automorphism family
# --------------------------------------------------------------------------

def _tol_D(A, B, k):
    return 1e-10 * max(1.0, k * k, A * A, B * B)


def classify_semigroup(A, B, k):
    """Classify the rotating-frame flow of p(z) = A(1+z)/(1-z) + Bi.

    The generator is the spec's quadratic field less ikw, (-A+iB)w^2 -
    (2B+k)iw + (A+iB); its discriminant D = 4A^2 - 4Bk - k^2 decides the
    class, with a floating-point tolerance band tol_D around D = 0 for
    the parabolic case.  Elliptic results carry the interior fixed point.
    """
    spec = Automorphism(A, B)
    A, B = spec.A, spec.B
    k = _finite("k", k)
    if A == 0.0 and B == 0.0:
        raise ValueError("need (A, B) != (0, 0)")
    D = 4.0 * A * A - 4.0 * B * k - k * k
    tol = _tol_D(A, B, k)
    if D > tol:
        return ClassificationResult(kind="Hyperbolic", discriminant=D)
    if D < -tol:
        g2, g1, g0 = spec._quadratic()
        roots = np.roots([g2, g1 - 1j * k, g0])
        fp = complex(roots[np.argmin(np.abs(roots))])
        return ClassificationResult(kind="Elliptic", discriminant=D,
                                    fixed_point=fp)
    return ClassificationResult(kind="Parabolic", discriminant=D)


def is_closed_trajectory(A, B, k, max_denominator):
    """Decide whether the driven orbits of the automorphism flow close.

    Orbits close exactly when the frame rotation rate k and the
    rotating-frame angular rate sqrt(-D) are commensurable.  Returns
    (closed, ratio, period): ratio = k/sqrt(-D); closed when a rational
    p/q with q <= max_denominator sits within 1e-9 of ratio (convergent
    search via Fraction.limit_denominator); period is then the least
    common return time 2*pi*q/sqrt(-D).
    """
    k = _nonzero("k", k)
    max_denominator = _count("max_denominator", max_denominator, 1)
    result = classify_semigroup(A, B, k)
    if result.kind != "Elliptic":
        raise ValueError("closed-orbit test needs an elliptic flow, got %s"
                         % result.kind)
    s = math.sqrt(-result.discriminant)
    ratio = k / s
    approx = Fraction(ratio).limit_denominator(max_denominator)
    closed = abs(ratio - float(approx)) <= 1e-9 and approx != 0
    period = 2.0 * math.pi * approx.denominator / s if closed else None
    return closed, ratio, period


# --------------------------------------------------------------------------
# Koebe machinery and fixed points
# --------------------------------------------------------------------------

def koebe_map(k, z):
    """K_k(z) = ikz/(1-z)^2, the rotated and rescaled Koebe function."""
    z = complex(z)
    if z == 1.0:
        raise SingularPointError("Koebe map has a pole at z = 1")
    return 1j * _finite("k", k) * z / (1.0 - z) ** 2


def koebe_inverse(k, w):
    """Principal-branch inverse of K_k, ``_koebe_inverse(ik, w)``."""
    return _koebe_inverse(1j * _nonzero("k", k), _finite_complex("w", w))


def _koebe_inverse(c, w):
    # the z with c z/(1-z)^2 = w (principal branch), c = ik or k^2/2;
    # unchecked: the zero searches' transfer maps stop on a non-finite w
    s = cmath.sqrt(4.0 * complex(w) / c + 1.0)
    return (s - 1.0) / (s + 1.0)


def _interior_zero(field, transfer, margin):
    """Zero of ``field`` with |z| < 1 - margin, or None.

    Phase 1 iterates ``transfer`` from the origin; if that stalls,
    phase 2 runs Newton's method on ``field`` from a 5x8 polar grid of
    starts.  A zero counts only when |field| <= 1e-11.
    """

    def accept(z):
        return abs(z) < 1.0 - margin and abs(field(z)) <= 1e-11

    # phase 1: fixed-point iteration of the transfer map
    z = 0.0 + 0.0j
    try:
        for _ in range(300):
            z_next = transfer(z)
            if not cmath.isfinite(z_next):
                break
            if abs(z_next - z) < 1e-15:
                z = z_next
                break
            z = z_next
        if accept(z):
            return complex(z)
    except (ZeroDivisionError, OverflowError):
        pass

    # phase 2: Newton on the field, multi-start
    h = 1e-7
    for r in (0.15, 0.35, 0.55, 0.75, 0.9):
        for j in range(8):
            z = r * cmath.exp(2j * math.pi * (j + 0.5) / 8.0)
            try:
                for _ in range(60):
                    g = field(z)
                    if abs(g) <= 1e-13:
                        break
                    dg = (field(z + h) - field(z - h)) / (2.0 * h)
                    if dg == 0.0:
                        break
                    z_next = z - g / dg
                    if not cmath.isfinite(z_next) or abs(z_next) > 2.0:
                        break
                    if abs(z_next - z) < 1e-15:
                        z = z_next
                        break
                    z = z_next
            except (ZeroDivisionError, OverflowError):
                continue
            if accept(z):
                return complex(z)
    return None


def find_fixed_point(spec, k):
    """Locate the interior zero of the rotating-frame generator, if any.

    The generator is (z-1)^2 p(z) - c z, c = ik.  Strategy: iterate
    F(z) = _koebe_inverse(c, p(z)) = K_k^{-1}(p(z)) from the origin (a
    strict contraction for large |k|); if that stalls, run Newton's
    method on the generator from a 5x8 polar grid of starts.  A zero
    counts only when |generator| <= 1e-11 and the point is strictly
    interior.  Returns None when no interior zero is found, which is how
    the non-elliptic cases answer.
    """
    c = 1j * _nonzero("k", k)
    return _interior_zero(lambda z: _generator_value(spec, c, z),
                          lambda z: _koebe_inverse(c, spec._value(z)), 1e-6)


def boundary_fixed_points(k):
    """Boundary fixed-point angles of the transfer map for
    p(z) = (1-z)/(1+z), the roots of tan(theta/2) = k / (2 (cos theta - 1)).

    With v = cot(theta/2) the equation reads v^3 + v + 4/k = 0.  Its left
    side increases with v, so every k != 0 has exactly one root, given by
    the hyperbolic form of Cardano's solution (Nickalls, Math. Gazette 77,
    1993).  Returns [theta], theta = 2 atan2(1, v) in (0, 2pi); it rounds
    to 2pi for 0 < k < about 4e-47 and to 0 for -5.8e-308 < k < 0.
    """
    k = _nonzero("k", k)
    v = -2.0 / math.sqrt(3.0) * math.sinh(
        math.asinh(6.0 * math.sqrt(3.0) / k) / 3.0)
    return [2.0 * math.atan2(1.0, v)]


def implicit_solution_residual(A, B, k, z, t, psi_t):
    """Residual of the exact Moebius-factor relation satisfied by the
    elliptic automorphism flow.

    With s = sqrt(-D) and f(w) = (s + 2iAw + 2B(1-w) - k) /
    (s - 2iAw - 2B(1-w) + k), the flow obeys
    f(psi_t) / f(z) = exp(-i s t); returns the modulus of the defect.
    """
    result = classify_semigroup(A, B, k)
    if result.kind != "Elliptic":
        raise ValueError("implicit solution needs an elliptic flow, got %s"
                         % result.kind)
    s = math.sqrt(-result.discriminant)
    A = float(A)
    B = float(B)
    k = float(k)
    z = _finite_complex("z", z)
    t = _finite("t", t)
    psi_t = _finite_complex("psi_t", psi_t)

    def factor(w):
        num = s + 2j * A * w + 2.0 * B * (1.0 - w) - k
        den = s - 2j * A * w - 2.0 * B * (1.0 - w) + k
        if abs(den) < 1e-13:
            raise SingularPointError("Moebius factor degenerates at w = %r" % w)
        return num / den

    lhs = factor(psi_t) / factor(z)
    return abs(lhs - cmath.exp(-1j * s * t))


# --------------------------------------------------------------------------
# boundary image
# --------------------------------------------------------------------------

def _boundary_images(spec, k, ts, n_points):
    """(images, stats): the image of the near-boundary circle under
    phi_t at each time of ``ts``, in their order, from one solve.

    The n_points equispaced points of radius 1 - 1e-6 (the flow lives on
    the open disk) walk together through one ``_solve`` over the sorted
    grid of 0 and the times, with the solver of ``evolve_phi`` and
    dt = min(0.05, max(ts)): on a quadratic spec, exact Moebius cells no
    wider than dt, which ``_mobius_walk`` applies to every point at once;
    the adaptive Dormand-Prince 8(5,3) pair otherwise, every point a
    column of one stage buffer and each stage sum one matrix product,
    its step carried from one sample time to the next, so the images
    after the first are sample times of the same run rather than solves
    of their own.  images[j] is a list
    of n_points complexes; stats are the solve's steps, rejections and
    method.  A failure raises that solver's error.
    """
    n_points = _count("n_points", n_points, 16)
    ts = [_time("t", t) for t in ts]
    k = _finite("k", k)
    angles = 2.0 * math.pi * np.arange(n_points) / n_points
    z0 = (1.0 - 1e-6) * np.exp(1j * angles)
    grid = _normalize_sample_times(ts, max(ts, default=0.0))
    t_end = grid[-1]
    # a grid of 0 alone solves nothing; its dt only has to be valid
    cfg = EvolutionConfig(k=k, t_end=t_end,
                          dt=min(_DT_CAP, t_end) or _DT_CAP)
    values, stats = _solve(spec, cfg, z0, grid, "phi")
    return [[complex(v) for v in values[grid.index(t)]] for t in ts], stats


def boundary_image(spec, k, t, n_points):
    """Image of the near-boundary circle under phi_t, for plotting.

    ``_boundary_images`` at the one time t: n_points equispaced points
    of radius 1 - 1e-6 solved together over [0, t] with the solver of
    ``evolve_phi``, exact Moebius cells no wider than min(0.05, t) on a
    quadratic spec and adaptive Dormand-Prince 8(5,3) otherwise.
    Returns a list of n_points complexes; a failure raises that solver's
    error.
    """
    (points,), _ = _boundary_images(spec, k, [t], n_points)
    return points
