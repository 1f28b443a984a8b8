"""The written-out Dormand-Prince step against the tableau-loop form.

``_ref_dp_step`` and ``_ref_integrate`` are the loop form of the
integrator: seven field evaluations per attempt, the tableau walked by
``zip`` with zero coefficients skipped, and the controller reducing by
``np.max`` for scalars and arrays alike.  The library's unrolled step
reuses its last stage and reduces scalars on Python complex numbers;
it must give the same bits and the same step statistics.  The oracles
call ``det._integrate`` on the phi- and psi-frame fields of every
catalogue spec: ``evolve_phi``, ``evolve_psi`` and ``boundary_image``
take exact Moebius cells for the quadratic ones, but the integrator
takes any field.
"""

import cmath

import numpy as np
import pytest

import conftest
from loewnerkit import deterministic as det
from loewnerkit import herglotz as hg

SPECS = [
    hg.CayleyLinear(),
    hg.Cayley(),
    hg.ConstantImaginary(),
    hg.Automorphism(1.0, 0.5),
    hg.Exponential(),
    hg.Taylor([1.0, 0.5 + 0.25j]),
]

# (k, z0, sample times, base step); the last set snaps over a 5e-15
# sliver at t = 0.5 and then steps on to t = 1
CASES = [
    (0.0, 0.0, [0.5, 1.0, 2.0], 0.05),
    (1.0, 0.3 + 0.1j, [0.25, 0.5, 1.0], 0.01),
    (-2.5, complex(-0.0, -0.95), [0.5, 1.0, 2.0], 0.05),
    (7.0, 0.999, [2.0], 0.05),
    (1.5, 1.0, [0.1, 0.7], 0.1),
    (1.0, 0.4, [0.5, 0.5 + 5e-15, 1.0], 0.05),
]

# ---------------------------------------------------------------- reference

_REF_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_REF_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_REF_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
           -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_REF_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
           -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def _ref_absmax(x):
    return float(np.max(np.abs(x)))


def _ref_dp_step(field, t, y, h):
    ks = []
    for i in range(7):
        yi = y
        for a, kj in zip(_REF_A[i], ks):
            if a != 0.0:
                yi = yi + (h * a) * kj
        ks.append(field(t + _REF_C[i] * h, yi))
    y5 = y
    err = 0.0 * y
    for b5, b4, kj in zip(_REF_B5, _REF_B4, ks):
        if b5 != 0.0:
            y5 = y5 + (h * b5) * kj
        d = b5 - b4
        if d != 0.0:
            err = err + (h * d) * kj
    return y5, err


def _ref_integrate(field, y0, sample_times, cfg):
    y = np.asarray(y0, dtype=complex) if np.ndim(y0) else complex(y0)
    t = float(sample_times[0])
    out = [y]
    steps = 0
    rejections = 0
    h = cfg.dt
    for target in sample_times[1:]:
        target = float(target)
        while t < target - 1e-15 * max(1.0, abs(target)):
            gap = target - t
            if gap <= det.MIN_STEP * max(1.0, abs(target)):
                t = target
                break
            h_use = min(h, gap)
            if h_use < det.MIN_STEP:
                raise det.StiffnessError(
                    "step size underflow (h=%.3e) at t=%.12g" % (h_use, t),
                    t_reached=t)
            y_new, err = _ref_dp_step(field, t, y, h_use)
            bad = not np.all(np.isfinite(np.atleast_1d(np.asarray(y_new))))
            if not bad:
                scale = cfg.atol + cfg.rtol * np.abs(y_new)
                ratio = float(np.max(np.abs(err) / scale))
            if bad:
                rejections += 1
                h = h_use * 0.25
                continue
            if _ref_absmax(y_new) > 1.0 + det.CONTAINMENT_TOL:
                rejections += 1
                h = h_use * 0.5
                continue
            if ratio <= 1.0:
                t += h_use
                y = y_new
                steps += 1
                grow = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                h = min(cfg.dt, h_use * grow)
            else:
                rejections += 1
                h = h_use * min(0.9, max(0.1, 0.9 * ratio ** -0.2))
            if steps + rejections > 2_000_000:
                raise det.StiffnessError(
                    "step budget exhausted at t=%.12g" % t, t_reached=t)
        out.append(y)
    return out, {"steps": steps, "rejections": rejections}


@pytest.fixture
def reference(monkeypatch):
    """Call ``fn(*args)`` with the library's integrator swapped for the
    loop form."""

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(det, "_integrate", _ref_integrate)
            return fn(*args)

    return call


def _assert_same_run(field, y0, times, cfg, label):
    got, got_stats = det._integrate(field, y0, times, cfg)
    want, want_stats = _ref_integrate(field, y0, times, cfg)
    assert np.array_equal(np.array(got), np.array(want)), label
    assert got_stats == want_stats, label
    return got_stats


# ---------------------------------------------------------------- oracle

@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_evolve_bit_identical_to_loop_form(spec):
    rejected = 0
    for k, z0, times, dt in CASES:
        cfg = det.EvolutionConfig(k=k, t_end=times[-1], dt=dt)
        ts = det._normalize_sample_times(times, cfg.t_end)
        for frame, field in conftest.dp_fields(spec, k).items():
            stats = _assert_same_run(field, z0, ts, cfg, (frame, k, z0, times))
            rejected += stats["rejections"]
    assert rejected > 0


@pytest.mark.parametrize("n_points", [16, 257])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_boundary_image_bit_identical_to_loop_form(spec, n_points):
    # the vectorized run of boundary_image's near-boundary circle
    z0 = (1.0 - 1e-6) * np.exp(2j * np.pi * np.arange(n_points) / n_points)
    cfg = det.EvolutionConfig(k=1.5, t_end=0.7, dt=0.05)
    _assert_same_run(conftest.dp_fields(spec, 1.5)["phi"], z0, [0.0, 0.7],
                     cfg, n_points)


def test_failure_time_matches_loop_form(reference):
    class Outward(hg.HerglotzSpec):
        # not a Herglotz field: points radially out of the disk; not a
        # quadratic spec, so evolve_phi runs the integrator
        def _bp_field(self, w):
            return w * 10.0

    cfg = det.EvolutionConfig(k=0.0, t_end=1.0)
    with pytest.raises(det.StiffnessError) as got:
        det.evolve_phi(Outward(), cfg, 0.999, [1.0])
    with pytest.raises(det.StiffnessError) as want:
        reference(det.evolve_phi, Outward(), cfg, 0.999, [1.0])
    assert str(got.value) == str(want.value)
    assert got.value.t_reached == want.value.t_reached


# ---------------------------------------------------------------- edge attempts

def _tripwire(field, t0, points, value):
    """``field`` with ``points`` of its value set to ``value`` on its
    first call past t0, and the list that records that call's time.
    The call is a later stage of the attempt that first reaches past
    t0, the same stage in the library and in the loop form: only their
    first stages, at the current time, differ in number.  The value is
    assigned, so no arithmetic warning is raised."""
    fired = []

    def tripped(t, y):
        out = field(t, y)
        if t > t0 and not fired:
            fired.append(t)
            out = np.array(out)
            out[points] = value
        return out

    return tripped, fired


def _assert_same_tripped_run(field, t0, points, value, y0, times, cfg):
    got_field, fired = _tripwire(field, t0, points, value)
    got, got_stats = det._integrate(got_field, y0, times, cfg)
    want, want_stats = _ref_integrate(_tripwire(field, t0, points, value)[0],
                                      y0, times, cfg)
    assert fired
    assert np.array_equal(np.array(got), np.array(want))
    assert got_stats == want_stats
    assert got_stats["rejections"] > 0


# t0 just short of the first attempt's last stage (h = dt = 0.05), and
# one in the middle of the run
@pytest.mark.parametrize("t0, points, value", [
    (0.045, [3], complex("nan+nanj")),
    (0.61, [0, 5, 11], complex(float("nan"), 0.0)),
], ids=["first-attempt", "mid-run"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_points_turning_nan_mid_step_match_loop_form(spec, t0, points, value):
    # a non-finite y5 takes the 0.25 shrink, whatever its modulus reads
    y0 = 0.9 * np.exp(0.5j * np.arange(16))
    cfg = det.EvolutionConfig(k=1.5, t_end=1.0, dt=0.05)
    for field in conftest.dp_fields(spec, 1.5).values():
        _assert_same_tripped_run(field, t0, points, value, y0,
                                 [0.0, 0.5, 1.0], cfg)


def test_overflowing_modulus_of_finite_points_matches_loop_form():
    # the first attempt (h = dt = 8) gets C at its sixth stage alone, so
    # one point of y5 has components near 1.3e308: finite, with a modulus
    # that overflows to inf, which takes the 0.5 shrink of an escape; the
    # linear field stays finite at that point
    def field(t, y):
        return (-0.1 + 0.5j) * y

    cfg = det.EvolutionConfig(k=0.0, t_end=16.0, dt=8.0)
    _assert_same_tripped_run(field, 7.5, [2], complex(1.25e308, 1.25e308),
                             0.9 * np.exp(0.5j * np.arange(8)),
                             [0.0, 8.0, 16.0], cfg)


# ---------------------------------------------------------------- stage reuse

def _counting_field(spec, k):
    field = det._driven_field(spec, lambda t: cmath.exp(1j * k * t))
    calls = []

    def counted(t, y):
        calls.append(t)
        return field(t, y)

    return counted, calls


@pytest.mark.parametrize("y0", [0.4 + 0j, 0.9 * np.exp(0.5j * np.arange(16))],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("times, restarts", [
    ([0.0, 0.5, 1.0], 1),
    # the snap over the sliver leaves the state at a new time, so the
    # first stage there is evaluated afresh
    ([0.0, 0.5, 0.5 + 5e-15, 1.0], 2),
])
def test_six_field_calls_per_attempt(y0, times, restarts):
    field, calls = _counting_field(hg.Cayley(), 3.0)
    cfg = det.EvolutionConfig(k=3.0, t_end=1.0, dt=0.05)
    _, stats = det._integrate(field, y0, times, cfg)
    attempts = stats["steps"] + stats["rejections"]
    assert stats["rejections"] > 0
    assert len(calls) == 6 * attempts + restarts
    assert calls[0] == 0.0
    if restarts == 2:
        assert times[2] in calls
