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

Every other spec runs a hand-rolled adaptive Dormand-Prince 5(4) pair
(method "dp45").  It is kept local (rather than delegating to a
library solver) because the step-acceptance rule enforces disk
containment on top of the local error test, and failure must report
the exact time reached.  The step is written out stage by stage and
reuses its last stage as the next step's first (six field evaluations
per attempt).  Its sums keep the order of the tableau loop it replaced,
so outputs and step counts are bit-identical to that loop; the error
norm keeps ``np.abs`` because CPython's complex ``abs`` rounds
differently and would move results.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, asdict
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
# evolve: exact cells no wider, or Dormand-Prince's first trial and bound
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
        bound of the adaptive integrator.
    rtol, atol : float
        Local error control of the adaptive integrator, accepted when
        err <= rtol*|phi| + atol; the exact cells of a quadratic spec
        leave them unused.

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

    def to_json_record(self):
        """Render as a plain dict ready for json.dump."""
        rec = {
            "frame": self.frame,
            "times": [float(t) for t in self.times],
            "values": [[float(v.real), float(v.imag)] for v in self.values],
            "config": asdict(self.config) if self.config is not None else None,
            "stats": dict(self.stats) if self.stats is not None else None,
        }
        return rec


@dataclass(frozen=True)
class ClassificationResult:
    """Phase-portrait class of the rotating-frame automorphism flow."""

    kind: str
    discriminant: float
    fixed_point: complex | None = None


Example1Reference = namedtuple("Example1Reference", ["phi", "psi", "dw"])


# --------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4)
# --------------------------------------------------------------------------

# Dormand & Prince (1980) tableau.  The seventh stage is f(t + h, y5),
# which is the next step's first stage ("first same as last").
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
# fifth-order weights (b2 = b7 = 0); they are also the seventh stage's row
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
# error weights e = b5 - b4 against the fourth-order weights (e2 = 0)
_E1 = _B1 - 5179.0 / 57600.0
_E3 = _B3 - 7571.0 / 16695.0
_E4 = _B4 - 393.0 / 640.0
_E5 = _B5 + 92097.0 / 339200.0
_E6 = _B6 - 187.0 / 2100.0
_E7 = -1.0 / 40.0


def _dp_step(field, t, y, h, k1):
    """One Dormand-Prince step from (t, y) with k1 = field(t, y).

    Returns (y5, error_estimate, k7) where k7 = field(t + h, y5) is the
    first stage of the next step from there.  Each sum runs left to
    right with zero coefficients left out.
    """
    k2 = field(t + _C2 * h, y + (h * _A21) * k1)
    k3 = field(t + _C3 * h, y + (h * _A31) * k1 + (h * _A32) * k2)
    k4 = field(t + _C4 * h,
               y + (h * _A41) * k1 + (h * _A42) * k2 + (h * _A43) * k3)
    k5 = field(t + _C5 * h,
               y + (h * _A51) * k1 + (h * _A52) * k2 + (h * _A53) * k3
               + (h * _A54) * k4)
    k6 = field(t + h,
               y + (h * _A61) * k1 + (h * _A62) * k2 + (h * _A63) * k3
               + (h * _A64) * k4 + (h * _A65) * k5)
    y5 = (y + (h * _B1) * k1 + (h * _B3) * k3 + (h * _B4) * k4
          + (h * _B5) * k5 + (h * _B6) * k6)
    k7 = field(t + h, y5)
    err = ((h * _E1) * k1 + (h * _E3) * k3 + (h * _E4) * k4
           + (h * _E5) * k5 + (h * _E6) * k6 + (h * _E7) * k7)
    return y5, err, k7


def _array_max(a):
    """The largest element of a non-empty array, NaN if it holds one.

    a's element at its argmax, which stops at the first NaN: the value
    of np.max(a) without np.max's Python wrapper, in about a quarter of
    its time at a few hundred points.
    """
    flat = a.reshape(-1)
    return flat[flat.argmax()]


def _integrate(field, y0, sample_times, cfg):
    """Drive the DP 5(4) pair through ``sample_times``.

    ``y0`` is a complex scalar or ndarray; the error test and the
    containment test (always enforced) reduce elementwise by max.  An
    array attempt takes the modulus |y5| once and uses it three times:
    as the finiteness pre-test (a finite max|y5| means every point is
    finite, so ``np.isfinite`` runs only when it is not), for the
    containment test and for the error scale atol + rtol |y5|.  A
    non-finite y5 shrinks the step by 0.25, one outside the disk (an
    overflowing modulus of finite points among them) by 0.5.  An
    accepted step hands its last stage on as the next first stage; a
    rejected one keeps its first stage, since t and y are unchanged.
    Returns (values_at_sample_times, stats).
    """
    atol, rtol = cfg.atol, cfg.rtol
    # assess(y5, err) -> (shrink of a rejected attempt or None, error ratio)
    if np.ndim(y0):
        y = np.asarray(y0, dtype=complex)

        def assess(v, e):
            r = np.abs(v)
            m = float(_array_max(r))
            if not math.isfinite(m) and not np.isfinite(v).all():
                return 0.25, None
            if m > 1.0 + CONTAINMENT_TOL:
                return 0.5, None
            return None, float(_array_max(np.abs(e) / (atol + rtol * r)))
    else:
        y = complex(y0)

        def assess(v, e):
            if not cmath.isfinite(v):
                return 0.25, None
            if abs(v) > 1.0 + CONTAINMENT_TOL:
                return 0.5, None
            # np.abs, not abs: CPython's complex abs rounds differently,
            # and this ratio feeds the step size of every later step
            return None, float(np.abs(e) / (atol + rtol * np.abs(v)))
    t = float(sample_times[0])
    out = [y]
    steps = 0
    rejections = 0
    h = cfg.dt
    k1 = None
    for target in sample_times[1:]:
        target = float(target)
        while t < target - 1e-15 * max(1.0, abs(target)):
            gap = target - t
            if gap <= MIN_STEP * max(1.0, abs(target)):
                # Accumulated rounding can leave a sliver no step can
                # resolve; the state is already at the target to within
                # every tolerance in play, so record it as arrived.
                t = target
                k1 = None
                break
            h_use = min(h, gap)
            if h_use < MIN_STEP:
                raise StiffnessError(
                    "step size underflow (h=%.3e) at t=%.12g" % (h_use, t),
                    t_reached=t)
            if k1 is None:
                k1 = field(t, y)
            y_new, err, k7 = _dp_step(field, t, y, h_use, k1)
            shrink, ratio = assess(y_new, err)
            if shrink is not None:
                rejections += 1
                h = h_use * shrink
                continue
            if ratio <= 1.0:
                t += h_use
                y = y_new
                k1 = k7
                steps += 1
                grow = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                h = min(cfg.dt, h_use * grow)
            else:
                rejections += 1
                h = h_use * min(0.9, max(0.1, 0.9 * ratio ** -0.2))
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
    phi = e^{ikt} psi at the sample times; any other spec runs the DP
    pair on the phi-frame field tau g(phi / tau) or the psi-frame
    generator.  stats: steps (DP steps or cells), rejections (0 for the
    cells) and the method, "mobius-exact" or "dp45".
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
    stats["method"] = "dp45"
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
    integrated by adaptive Dormand-Prince (method "dp45") on the field
    tau(t) * g(phi / tau(t)), where g(w) = (w - 1)^2 p(w) is the spec's
    cancelled form, so trajectories may graze the driving point without
    a division blow-up.

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
    adaptive Dormand-Prince otherwise, its step carried from one sample
    time to the next, so the images after the first are sample times of
    the same run rather than solves of their own.  images[j] is a list
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
    quadratic spec and adaptive Dormand-Prince otherwise.  Returns a
    list of n_points complexes; a failure raises that solver's error.
    """
    (points,), _ = _boundary_images(spec, k, [t], n_points)
    return points
