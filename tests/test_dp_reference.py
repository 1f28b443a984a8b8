"""The Dormand-Prince 8(5,3) integrator against the tableau-loop form.

``_ref_dp_step`` and ``_ref_integrate`` are the loop form of the
integrator: twelve field evaluations per attempt, the first one afresh
every time, the module's table walked row by row, and the controller
reducing by ``np.max`` for scalars and arrays alike.  A scalar's stage
sums run by ``zip`` with zero coefficients skipped; an array's are one
product of the row with the stages, as the library sums them.  The
library evaluates each state's first stage once and walks only the
nonzero weights of a scalar's sums, each in the same order; it must
give the same bits and the same step statistics.  The oracles call
``det._integrate`` on the phi- and psi-frame fields of every catalogue
spec: ``evolve_phi``, ``evolve_psi`` and ``boundary_image`` take exact
Moebius cells for the quadratic ones, but the integrator takes any
field.  The last sections check the table
itself: its order conditions, SciPy's coefficients, the eighth order of
a fixed-step run and agreement with SciPy's DOP853.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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

_REF_C = det._C
_REF_A = det._A.tolist()
_REF_E = det._E.tolist()


def _ref_sum(y, h, row, ks):
    """y + h sum(row[j] ks[j]) over the stages ks."""
    if np.ndim(y):
        weights = h * np.array(row[:len(ks)])
        return y + (weights @ np.array(ks).view(float)).view(complex)
    for a, kj in zip(row, ks):
        if a != 0.0:
            y = y + (h * a) * kj
    return y


def _ref_errors(ks):
    """The unscaled fifth- and third-order error sums."""
    if np.ndim(ks[0]):
        return (det._E @ np.array(ks).view(float)).view(complex)
    sums = []
    for row in _REF_E:
        e = None
        for a, kj in zip(row, ks):
            if a != 0.0:
                e = a * kj if e is None else e + a * kj
        sums.append(e)
    return sums


def _ref_abs(x):
    # a Python complex's abs, as the library's scalar run takes it
    return np.abs(x) if np.ndim(x) else abs(x)


def _ref_dp_step(field, t, y, h):
    ks = [field(t, y)]
    for i in range(1, 12):
        ks.append(field(t + _REF_C[i] * h, _ref_sum(y, h, _REF_A[i], ks)))
    return _ref_sum(y, h, _REF_A[12], ks), _ref_errors(ks)


def _ref_ratio(y8, errors, h):
    """h max(e5^2 / sqrt(e5^2 + 0.01 e3^2)) of the scaled error sums."""
    scale = det.ATOL + det.RTOL * _ref_abs(y8)
    e5, e3 = (_ref_abs(e) / scale for e in errors)
    hypot = np.hypot if np.ndim(e5) else math.hypot
    denominator = np.maximum(hypot(e5, 0.1 * e3), np.finfo(float).tiny)
    return h * float(np.max(e5 * (e5 / denominator)))


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
            y_new, errors = _ref_dp_step(field, t, y, h_use)
            if not np.all(np.isfinite(np.atleast_1d(np.asarray(y_new)))):
                rejections += 1
                h = h_use * 0.25
                continue
            if float(np.max(np.abs(y_new))) > 1.0 + det.CONTAINMENT_TOL:
                rejections += 1
                h = h_use * 0.5
                continue
            ratio = _ref_ratio(y_new, errors, h_use)
            if ratio <= 1.0:
                t += h_use
                y = y_new
                steps += 1
                grow = (5.0 if ratio == 0.0
                        else min(5.0, max(0.2, 0.9 * ratio ** -0.125)))
                h = min(cfg.dt, h_use * grow)
            else:
                rejections += 1
                h = h_use * min(0.9, max(0.1, 0.9 * ratio ** -0.125))
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=hs.sampled_from(SPECS), frame=hs.sampled_from(["phi", "psi"]),
       y=hs.complex_numbers(max_magnitude=1.0), k=hs.floats(-10.0, 10.0),
       t=hs.floats(0.0, 10.0), h=hs.floats(1e-6, 4.0))
def test_scalar_attempt_bit_identical_to_loop_form(spec, frame, y, k, t, h):
    # one attempt, y8 and both error sums, by repr, so that signed zeros
    # and NaN count; at the largest steps exponential's stages overflow,
    # so the attempt runs with the warnings _integrate turns off
    field = conftest.dp_fields(spec, k)[frame]
    with np.errstate(over="ignore", invalid="ignore"):
        got = det._dop853_scalar(field, t, y, h, field(t, y))
        y8, (e5, e3) = _ref_dp_step(field, t, y, h)
    assert list(map(repr, got)) == list(map(repr, (y8, e5, e3)))


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


# t0 just short of the first attempt's last stage, the twelfth, at t = h =
# dt = 0.05, and one in the middle of the run
@pytest.mark.parametrize("t0, points, value", [
    (0.045, [3], complex("nan+nanj")),
    (0.61, [0, 5, 11], complex(float("nan"), 0.0)),
], ids=["first-attempt", "mid-run"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_points_turning_nan_mid_step_match_loop_form(spec, t0, points, value):
    # a non-finite y8 takes the 0.25 shrink, whatever its modulus reads
    y0 = 0.9 * np.exp(0.5j * np.arange(16))
    cfg = det.EvolutionConfig(k=1.5, t_end=1.0, dt=0.05)
    for field in conftest.dp_fields(spec, 1.5).values():
        _assert_same_tripped_run(field, t0, points, value, y0,
                                 [0.0, 0.5, 1.0], cfg)


def test_overflowing_modulus_of_finite_points_matches_loop_form():
    # the first attempt (h = dt = 16) gets C at its twelfth stage alone,
    # the one only y8 sums, with weight b11 h = 0.715: one point of y8
    # has components near 1.28e308, finite, with a modulus that
    # overflows to inf, which takes the 0.5 shrink of an escape; the
    # linear field stays finite at that point
    def field(t, y):
        return (-0.1 + 0.5j) * y

    cfg = det.EvolutionConfig(k=0.0, t_end=32.0, dt=16.0)
    _assert_same_tripped_run(field, 15.0, [2], complex(1.79e308, 1.79e308),
                             0.9 * np.exp(0.5j * np.arange(8)),
                             [0.0, 16.0, 32.0], cfg)


def test_rejected_overflowing_trial_steps_warn_of_nothing():
    # the first trial steps (h = 4) carry the stages far outside the disk,
    # where exp overflows; the non-finite y8 is rejected with the 0.25
    # shrink, silently, and the run returns what it returned before
    # those attempts ran with the warnings off (scalar: to 1e-14, as
    # exp of a Python complex rounds apart from NumPy's at the ulp level)
    cfg = det.EvolutionConfig(k=1.0, t_end=8.0, dt=4.0)
    spec = hg.Exponential()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = det.evolve_phi(spec, cfg, 0.999j, [8.0])
        points, stats = det._integrate(
            conftest.dp_fields(spec, 1.0)["phi"],
            0.999 * np.exp(1j * np.linspace(0.0, 6.0, 16)), [0.0, 8.0], cfg)
    assert abs(traj.values[-1] - (0.28271829347223276 + 0.6915091740308767j)
               ) <= 1e-14
    assert (traj.stats["steps"], traj.stats["rejections"]) == (69, 7)
    assert np.isfinite(points[-1]).all()
    assert np.abs(points[-1]).max() < 1.0
    assert (stats["steps"], stats["rejections"]) == (78, 3)
    # a scalar stage whose exponent overflows, or whose imaginary part
    # does (cmath.exp raises ValueError there), gives NumPy's
    # non-finite value, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, want in [(1e308 + 0j, complex(math.inf, 0.0)),
                        (complex(1.0, 1.5e308), complex(math.nan, math.nan))]:
            got = spec._value(z)
            assert type(got) is complex
            assert repr(got) == repr(want)


# ---------------------------------------------------------------- reduction

moduli = hs.floats(0.0) | hs.just(float("nan"))


@settings(max_examples=200, deadline=None)
@given(values=hs.lists(moduli, min_size=1, max_size=64),
       rows=hs.integers(1, 4))
def test_array_max_reads_np_max(values, rows):
    # the controller's reduction: np.max's value, NaN included, of
    # moduli and error ratios (never negative), 1-d and 2-d
    for a in (np.array(values), np.array(values * rows).reshape(rows, -1)):
        got, want = det._array_max(a), np.max(a)
        assert got == want or (np.isnan(got) and np.isnan(want))


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
    # the snap over the sliver leaves the state at a new time, whose
    # first stage is evaluated there
    ([0.0, 0.5, 0.5 + 5e-15, 1.0], 2),
])
def test_twelve_field_calls_per_step_eleven_per_rejection(y0, times,
                                                         restarts):
    # each attempt of the 8(5,3) pair calls the field at its eleven later
    # stages, and each state it starts from once more at its first, kept
    # through its rejections; every state an attempt starts from is the
    # start, the end of an accepted step or a snap, and every accepted
    # step but the last is followed by an attempt or a snap, so that is
    # 12 calls per accepted step and 11 per rejected attempt
    field, calls = _counting_field(hg.Cayley(), 3.0)
    # dt 0.25, not 0.05: the pair takes steps of 0.05 with no rejection
    cfg = det.EvolutionConfig(k=3.0, t_end=1.0, dt=0.25)
    _, stats = det._integrate(field, y0, times, cfg)
    assert stats["rejections"] > 0
    assert len(calls) == 12 * stats["steps"] + 11 * stats["rejections"]
    assert calls[0] == 0.0 and calls.count(0.0) == 1
    if restarts == 2:
        assert calls.count(times[2]) == 1


# ---------------------------------------------------------------- the pair

def test_table_rows_sum_to_their_nodes():
    # each coefficient is its exact value rounded to a double, so a row
    # sums to its node to within a rounding of its largest terms
    for c, row in zip(det._C, det._A):
        assert abs(math.fsum(row) - c) <= 1e-15 * max(1.0, math.fsum(abs(row)))
    assert abs(math.fsum(det._A[12]) - 1.0) <= 1e-15
    # b and both lower-order weights sum to 1, so each error row to 0
    for row in det._E:
        assert abs(math.fsum(row)) <= 1e-15
    # the last two stages sit at t + h: the twelfth, and the next step's
    # first, f(t + h, y8), which the library evaluates once
    assert det._C[11] == det._C[12] == 1.0
    assert det._A.shape == (13, 12) and det._E.shape == (2, 12)
    assert not np.triu(det._A[:12]).any()


def test_table_is_scipys_bit_for_bit():
    coefficients = pytest.importorskip(
        "scipy.integrate._ivp.dop853_coefficients")
    stages = coefficients.N_STAGES
    assert stages == 12
    for got, want in [(np.array(det._C), coefficients.C[:stages + 1]),
                      (det._A, coefficients.A[:stages + 1, :stages]),
                      (det._A[12], coefficients.B),
                      (det._E, np.array([coefficients.E5[:stages],
                                         coefficients.E3[:stages]]))]:
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want, float).tobytes()
    # neither error estimate weighs the stage at y8
    assert coefficients.E5[stages] == coefficients.E3[stages] == 0.0


def _fixed_steps(kernel, field, y, t_end, n):
    h = t_end / n
    for j in range(n):
        y = kernel(field, j * h, y, h)[0]
    return y


def _scalar_kernel(field, t, y, h):
    return det._dop853_scalar(field, t, y, h, field(t, y))


def _array_kernel(field, t, y, h):
    stages = np.empty((12, len(y)), dtype=complex)
    stages[0] = field(t, y)
    return det._dop853_array(field, t, y, h, stages)


@pytest.mark.parametrize("kernel", [_scalar_kernel, _array_kernel],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("spec, k, counts", [
    (hg.CayleyLinear(), 1.5, (4, 8, 16)),
    (hg.Automorphism(1.0, 0.5), 2.0, (10, 20, 40)),
], ids=["cayley-linear", "automorphism"])
def test_fixed_steps_converge_at_eighth_order(kernel, spec, k, counts):
    # N steps of h = 2/N against the exact Moebius cell of [0, 2]; the
    # error falls by about 2^8 per halving of h while it stays far above
    # the rounding
    z0 = 0.9 * np.exp(0.5j * np.arange(8))
    cells = det._mobius_cells(spec._quadratic(), k, np.array([0.0, 2.0]),
                              2.0)
    e00, e01, e10, e11 = (c[0] for c in cells)
    exact = (e00 * z0 + e01) / (e10 * z0 + e11)
    field = conftest.dp_fields(spec, k)["psi"]
    if kernel is _scalar_kernel:
        def run(n):
            return np.array([_fixed_steps(kernel, field, complex(z), 2.0, n)
                             for z in z0])
    else:
        def run(n):
            return _fixed_steps(kernel, field, z0, 2.0, n)
    errors = [np.max(np.abs(run(n) - exact)) for n in counts]
    assert errors[-1] > 1e-13
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((7.5 < orders) & (orders < 9.5)), orders


@pytest.mark.parametrize("text", ["exponential", "taylor:1,0.5",
                                  "taylor:1,0.5+0.25i,-0.25"])
@pytest.mark.parametrize("k, t", [(1.0, 0.8), (-2.5, 3.0)])
def test_boundary_image_agrees_with_scipy_dop853(text, k, t):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    spec = hg.parse_spec(text)
    n = 32
    z0 = (1.0 - 1e-6) * np.exp(2j * np.pi * np.arange(n) / n)
    field = conftest.dp_fields(spec, k)["phi"]

    def real_field(s, u):
        w = field(s, u[:n] + 1j * u[n:])
        return np.concatenate([w.real, w.imag])

    sol = solve_ivp(real_field, (0.0, t), np.concatenate([z0.real, z0.imag]),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    want = sol.y[:n, -1] + 1j * sol.y[n:, -1]
    got = np.array(det.boundary_image(spec, k, t, n))
    assert np.max(np.abs(got - want)) <= 1e-12


def _taylor_specs():
    # Re a0 >= |a1| + |a2| keeps Re p >= 0 on the disk; |a1| >= 0.05 keeps
    # the field cubic or quartic, off the Moebius cells
    def build(re0, im0, r1, phase1, share, phase2):
        r2 = share * (re0 - r1)
        return hg.Taylor([complex(re0, im0), cmath.rect(r1, phase1),
                          cmath.rect(r2, phase2)])

    return hs.builds(build, hs.floats(0.1, 2.0), hs.floats(-2.0, 2.0),
                     hs.floats(0.05, 0.1), hs.floats(0.0, 2.0 * math.pi),
                     hs.floats(0.0, 1.0), hs.floats(0.0, 2.0 * math.pi))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=hs.just(hg.Exponential()) | _taylor_specs(),
       k=hs.floats(-5.0, 5.0), t=hs.floats(0.05, 2.0))
def test_array_run_stays_in_disk_and_matches_scalar_runs(spec, k, t):
    # the one integrator twice: every point of a 16-point boundary image,
    # solved together, against that point solved alone by evolve_phi
    assert spec._quadratic() is None
    (points,), stats = det._boundary_images(spec, k, [t], 16)
    assert stats["method"] == "dop853"
    points = np.array(points)
    assert np.all(np.abs(points) <= 1.0 + det.CONTAINMENT_TOL)
    cfg = det.EvolutionConfig(k=k, t_end=t, dt=min(det._DT_CAP, t))
    z0 = (1.0 - 1e-6) * np.exp(2j * np.pi * np.arange(16) / 16)
    alone = [det.evolve_phi(spec, cfg, z, [t]).values[-1] for z in z0]
    assert np.max(np.abs(points - alone)) <= 1e-9
