import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import conftest
from loewnerkit import deterministic as dm
from loewnerkit import herglotz as hg
from loewnerkit import stochastic as st


def brownian_ensemble(root_seed, n_paths, dt, n_steps):
    return [st.sample_brownian(st.derive_path_seed(root_seed, j), dt, n_steps)
            for j in range(n_paths)]


# --------------------------------------------------------------------------
# path sampling
# --------------------------------------------------------------------------

def test_sample_brownian_reproducible():
    a = st.sample_brownian(42, 0.01, 100)
    b = st.sample_brownian(42, 0.01, 100)
    assert np.array_equal(a.values, b.values)
    # regression anchor for the generation recipe
    assert a.values[-1] == pytest.approx(1.1796989000507576, abs=0)
    c = st.sample_brownian(43, 0.01, 100)
    assert not np.array_equal(a.values, c.values)


def test_sample_brownian_shape_and_start():
    p = st.sample_brownian(7, 0.5, 12)
    assert p.values[0] == 0.0
    assert len(p.values) == 13
    assert p.n_steps == 12
    assert p.duration == pytest.approx(6.0)
    assert np.array_equal(p.time_grid(), 0.5 * np.arange(13))
    assert len(p.increments()) == 12


def test_sample_brownian_validates():
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            st.sample_brownian(1, dt, 10)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            st.BrownianPath(dt=dt, values=np.array([0.0, 0.1]), seed=0)
    with pytest.raises(ValueError):
        st.sample_brownian(1, 0.01, -1)
    with pytest.raises(ValueError):
        st.BrownianPath(dt=0.01, values=np.array([0.5, 0.7]), seed=0)


def test_derive_path_seed_stable():
    # pinned so stored ensembles stay addressable across releases
    assert st.derive_path_seed(0, 0) == 15793235383387715774
    assert st.derive_path_seed(1, 3) == 17579876663566485232
    seen = {st.derive_path_seed(5, j) for j in range(100)}
    assert len(seen) == 100


# --------------------------------------------------------------------------
# pathwise random ODE
# --------------------------------------------------------------------------

def test_pathwise_matches_exact_solution():
    spec = hg.CayleyLinear()
    path = st.sample_brownian(1, 1e-3, 1000)
    traj = st.evolve_phi_pathwise(spec, 1.0, 0.2 + 0.1j, path,
                                  [0.25, 0.5, 1.0])
    for t, val in zip(traj.times[1:], traj.values[1:]):
        ref = st.example1_pathwise(0.2 + 0.1j, 1.0, path, t)
        assert abs(val - ref) <= 2.0 * path.dt


def test_pathwise_k0_matches_deterministic():
    # at k = 0 the psi and phi frames agree, and const-i's cells have
    # d = 0
    path = st.sample_brownian(2, 1e-3, 500)
    cfg = dm.EvolutionConfig(k=0.0, t_end=0.5)
    for spec in (hg.Cayley(), hg.ConstantImaginary(), hg.Exponential()):
        traj = st.evolve_phi_pathwise(spec, 0.0, 0.3 - 0.2j, path,
                                      [0.25, 0.5])
        ref = dm.evolve_phi(spec, cfg, 0.3 - 0.2j, [0.25, 0.5])
        assert abs(traj.values[1] - ref.values[1]) <= 1e-9
        assert abs(traj.values[2] - ref.values[2]) <= 1e-9


def test_pathwise_containment_high_noise():
    spec = hg.CayleyLinear()
    for j in range(100):
        path = st.sample_brownian(st.derive_path_seed(55, j), 1e-3, 500)
        traj = st.evolve_phi_pathwise(spec, 5.0, 0.4 + 0.3j, path, [0.5])
        assert abs(traj.values[-1]) <= 1.0 + 1e-9


def test_pathwise_disk_escape_is_a_typed_numerical_failure():
    # coarse grid at high k: fixed-step RK4 leaves the disk on a field
    # that is not quadratic
    path = st.sample_brownian(9, 0.5, 4)
    with pytest.raises(st.DiskEscapeError) as info:
        st.evolve_phi_pathwise(hg.Taylor([2.0, 0.5j, 0.3]), 10.0, 0.99, path,
                               path.time_grid())
    err = info.value
    assert isinstance(err, hg.Error) and not isinstance(err, ValueError)
    assert err.t_reached == pytest.approx(1.0)
    assert "escapes the unit disk" in str(err) and "rk4" in str(err)


@pytest.mark.filterwarnings("error")
def test_non_finite_sde_state_is_a_disk_escape():
    # k^2 overflows: the drift turns the state into NaN at the first step,
    # and each stepper reports its own DiskEscapeError, no NumPy warning
    path = st.sample_brownian(0, 0.01, 10)
    for scheme in ("euler", "milstein"):
        with pytest.raises(st.DiskEscapeError) as info:
            st.evolve_psi_sde(hg.Cayley(), 1e200, 0.2, path, scheme=scheme)
        assert info.value.t_reached == pytest.approx(0.01)
    for spec in (hg.Cayley(), hg.Exponential()):
        with pytest.raises(st.DiskEscapeError) as info:
            st.expectation_Tt(spec, 1e200, 0.1, 0.2, lambda w: w, 10, 0,
                              dt=0.01)
        assert info.value.t_reached == pytest.approx(0.1)
        # the residual fails in the leg to t - h, or to t when t == h
        # makes that leg empty
        for t, failed_by in ((0.5, 0.4), (0.1, 0.1)):
            with pytest.raises(st.DiskEscapeError) as info:
                st.backward_equation_residual(spec, 1e200, lambda w: w, t,
                                              0.2, 8, dt=0.1, h=0.1)
            assert info.value.t_reached == pytest.approx(failed_by)


CATALOGUE = [hg.CayleyLinear(), hg.Cayley(), hg.ConstantImaginary(),
             hg.Automorphism(1.0, 0.3), hg.Exponential(),
             hg.Taylor([1.0, 0.3 - 0.2j, 0.1j])]


def reference_pathwise(spec, k, z0, path, sample_times):
    """RK4 on the path grid plus the sample times, tau recomputed at every
    stage from the interpolated path with cmath.exp.  Returns the values
    at 0 and the sample times, and the number of steps taken."""
    B, dt, n = path.values, path.dt, path.n_steps

    def field(t, y):
        i = min(int(t / dt), n - 1) if n else 0
        b = B[i] + (B[i + 1] - B[i]) * (t / dt - i) if n else 0.0
        tau = cmath.exp(1j * k * float(b))
        return tau * spec._bp_field(y / tau)

    ts = sorted({0.0, *sample_times})
    knots = sorted(set((np.arange(n + 1) * dt).tolist()) | set(ts))
    y = complex(z0)
    values = {0.0: y}
    steps = 0
    for t0, t1 in zip(knots, knots[1:]):
        h = t1 - t0
        if h > 1e-15:
            k1 = field(t0, y)
            k2 = field(t0 + 0.5 * h, y + 0.5 * h * k1)
            k3 = field(t0 + 0.5 * h, y + 0.5 * h * k2)
            k4 = field(t1, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            steps += 1
        values[t1] = y
    return [values[t] for t in ts], steps


def refine(path, m):
    """The path's piecewise-linear B on a grid m times finer."""
    t = np.arange(path.n_steps * m + 1) * (path.dt / m)
    values = np.interp(t, path.time_grid(), path.values)
    return st.BrownianPath(dt=path.dt / m, values=values, seed=path.seed)


@pytest.mark.parametrize("spec", CATALOGUE, ids=lambda s: s.text_form())
def test_pathwise_matches_reference_rk4(spec):
    k, z0 = 2.5, 0.5 + 0.2j
    path = st.sample_brownian(31, 0.01, 100)
    # off-grid sample times, the path end among them
    times = [0.123456, 0.5005, 0.77777, 1.0]
    traj = st.evolve_phi_pathwise(spec, k, z0, path, times)
    want, steps = reference_pathwise(spec, k, z0, path, times)
    assert traj.stats["steps"] == steps == 103
    if spec._quadratic() is None:
        # the RK4 loop, to rounding
        assert traj.stats["method"] == "rk4"
        assert np.max(np.abs(traj.values - np.asarray(want))) <= 1e-14
    else:
        # the exact Moebius cells, against RK4 on the same path 64x
        # refined; RK4 on the path's own grid is off by 1.5e-6 to 3.8e-6
        # here
        assert traj.stats["method"] == "mobius-exact"
        fine, _ = reference_pathwise(spec, k, z0, refine(path, 64), times)
        assert np.max(np.abs(traj.values - np.asarray(fine))) <= 1e-11
    # a path of zero steps returns its start
    empty = st.sample_brownian(31, 0.01, 0)
    traj = st.evolve_phi_pathwise(spec, k, z0, empty, [0.0])
    assert traj.values.tolist() == [z0] and traj.stats["steps"] == 0


def test_pathwise_start_only_takes_no_step():
    path = st.sample_brownian(5, 0.01, 300)
    traj = st.evolve_phi_pathwise(hg.Cayley(), 1.3, 0.4j, path, [0.0])
    assert traj.values.tolist() == [0.4j] and traj.stats["steps"] == 0


def quadratic_specs(least):
    """The catalogue's quadratic specs, automorphisms and constant Taylor
    specs, with A and Re a0 at least ``least``."""
    return hs.one_of(
        hs.sampled_from([spec for spec in CATALOGUE
                         if spec._quadratic() is not None]),
        hs.builds(hg.Automorphism, hs.floats(least, 3.0),
                  hs.floats(-3.0, 3.0)),
        hs.builds(lambda re, im: hg.Taylor([complex(re, im)]),
                  hs.floats(least, 3.0), hs.floats(-3.0, 3.0)))


@settings(max_examples=60, deadline=None)
@given(spec=quadratic_specs(0.0), seed=hs.integers(0, 2**32 - 1),
       k=hs.floats(0.0, 6.0), radius=hs.floats(0.0, 0.95),
       angle=hs.floats(0.0, 2.0 * math.pi), t=hs.floats(0.05, 2.0))
# automorphism:1,0.3 is hyperbolic for k between -2.69 and 1.49 and
# elliptic outside
@example(spec=hg.Automorphism(1.0, 0.3), seed=0, k=1.0, radius=0.9,
         angle=1.0, t=2.0)
@example(spec=hg.Automorphism(1.0, 0.3), seed=0, k=4.0, radius=0.9,
         angle=1.0, t=2.0)
def test_mobius_cells_are_exact(spec, seed, k, radius, angle, t):
    z0 = radius * cmath.exp(1j * angle)
    # the same piecewise-linear path, cut into 2 and 4 cells per step,
    # takes the same flow
    path = st.sample_brownian(seed, 0.05, 40)
    want = st.evolve_phi_pathwise(spec, k, z0, path, [t]).values[-1]
    for m in (2, 4):
        got = st.evolve_phi_pathwise(spec, k, z0, refine(path, m),
                                     [t]).values[-1]
        assert abs(got - want) <= 1e-12, m
    # on B_t = t the psi frame is autonomous: psi_t = Moebius(exp(tH))(z0)
    # for the Riccati field g2 w^2 + (g1 - ik) w + g0, and
    # phi_t = e^{ikt} psi_t
    g2, g1, g0 = spec._quadratic()
    H = ((0.5 * (g1 - 1j * k), g0), (-g2, -0.5 * (g1 - 1j * k)))
    want = cmath.exp(1j * k * t) * conftest.moebius_exp(H, t, z0)
    for dt in (0.5, 0.1):
        n_steps = math.ceil(t / dt)
        drive = st.BrownianPath(dt=dt, values=np.arange(n_steps + 1) * dt,
                                seed=0)
        got = st.evolve_phi_pathwise(spec, k, z0, drive, [t]).values[-1]
        assert abs(got - want) <= 1e-12, dt


@settings(max_examples=60, deadline=None)
@given(spec=quadratic_specs(0.0), seed=hs.integers(0, 2**32 - 1),
       k=hs.floats(0.0, 100.0), dt=hs.floats(1e-3, 0.5),
       n_steps=hs.integers(1, 40), angle=hs.floats(0.0, 2.0 * math.pi))
@example(spec=hg.Cayley(), seed=0, k=30.0, dt=0.2, n_steps=10, angle=0.0)
def test_mobius_cells_keep_boundary_starts_in_the_disk(spec, seed, k, dt,
                                                       n_steps, angle):
    # RK4 left the disk at the @example (a coarse grid at high k)
    path = st.sample_brownian(seed, dt, n_steps)
    traj = st.evolve_phi_pathwise(spec, k, cmath.exp(1j * angle), path,
                                  path.time_grid())
    assert np.max(np.abs(traj.values)) <= 1.0 + dm.CONTAINMENT_TOL


def test_bound_specs_are_quadratic():
    # the block solver behind `bounds --paths` takes only Moebius cells
    for factory in st._BOUND_SPECS.values():
        assert factory()._quadratic() is not None


def test_block_rows_match_the_path_solver():
    # the block solver gives each row the cells evolve_phi_pathwise takes
    # on that row's path
    n_steps, dt = 37, 0.04
    rows = st._positions(st._path_rows(5, 0, 9, dt, n_steps))
    for spec in (hg.CayleyLinear(), hg.Cayley(), hg.ConstantImaginary(),
                 hg.Automorphism(1.0, 0.5), hg.Taylor([1.0])):
        phi = st._phi_pathwise_rows(spec, 6.0, 0.7, rows, dt)
        for j, row in enumerate(rows):
            path = st.sample_brownian(st.derive_path_seed(5, j), dt, n_steps)
            assert np.array_equal(path.values, row)
            want = st.evolve_phi_pathwise(spec, 6.0, 0.7, path,
                                          [n_steps * dt]).values[-1]
            assert abs(phi[j] - want) <= 1e-13


def test_block_escape_names_the_path(monkeypatch):
    # at k = 2e154 a cell whose |k dB| passes about 2.7e154 overflows to
    # NaN; on root seed 1 that happens first on path 2, which blocks of 2
    # paths put in the second block
    spec, k = hg.Cayley(), 2e154
    escaped = []
    for j in range(8):
        path = st.sample_brownian(st.derive_path_seed(1, j), 0.5, 4)
        try:
            st.evolve_phi_pathwise(spec, k, 0.99, path, [2.0])
        except st.DiskEscapeError:
            escaped.append(j)
    assert escaped[0] == 2
    monkeypatch.setattr(st, "_BLOCK_PATHS", 2)
    blocks = st._phi_pathwise_blocks(spec, k, 0.99, 1, 8, 2.0, 0.5)
    assert len(next(blocks)) == 2
    with pytest.raises(st.DiskEscapeError,
                       match=r"^path 2 \(seed %d\): pathwise mobius-exact "
                             r"solution escapes the unit disk at t=2$"
                             % st.derive_path_seed(1, 2)) as info:
        next(blocks)
    assert info.value.t_reached == 2.0


@pytest.mark.parametrize("cell_values", [1, 5])
def test_chunk_width_moves_no_bit(monkeypatch, cell_values):
    # the walk builds its cells a chunk at a time; every chunk width gives
    # the values and stats of the default one
    spec, k = hg.Automorphism(1.0, 0.3), 2.5
    cfg = dm.EvolutionConfig(k=k, t_end=3.0, dt=1e-3)
    path = st.sample_brownian(4, 0.01, 300)
    off_grid = [0.123456, 1.5 + 1e-7, 2.9999]

    def outputs():
        runs = [evolve(spec, cfg, 0.6 - 0.2j, [1.0, 2.5, 3.0])
                for evolve in (dm.evolve_phi, dm.evolve_psi)]
        runs += [st.evolve_phi_pathwise(spec, k, 0.9j, path, times)
                 for times in (path.time_grid(), off_grid)]
        values = ([tr.values for tr in runs]
                  + [np.array(dm.boundary_image(spec, k, 1.3, 16))]
                  + list(st._phi_pathwise_blocks(spec, 30.0, 0.99, 1, 40,
                                                 2.0, 0.2)))
        return values, [tr.stats for tr in runs]

    want, want_stats = outputs()
    assert want_stats[0]["steps"] == 3000
    monkeypatch.setattr(dm, "_CELL_VALUES", cell_values)
    got, got_stats = outputs()
    assert got_stats == want_stats and len(got) == len(want)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_pathwise_samples_within_1e_12_read_one_knot():
    # both sample times read the knot at 0.5, so the walk keeps it twice
    path = st.sample_brownian(2, 0.1, 10)
    tr = st.evolve_phi_pathwise(hg.Cayley(), 3.0, 0.4j, path,
                                [0.5, 0.5 + 1e-13, 1.0])
    want = st.evolve_phi_pathwise(hg.Cayley(), 3.0, 0.4j, path, [0.5, 1.0])
    assert tr.values[1] == tr.values[2] == want.values[1]


@pytest.mark.parametrize("long_walk", ["rotating", "pathwise"])
def test_long_walk_memory_is_bounded(long_walk):
    # the cells are built a chunk at a time and only the sampled states
    # are kept, so a walk of 2e5 cells holds a few arrays of its knots
    spec = hg.Cayley()
    if long_walk == "rotating":
        cfg = dm.EvolutionConfig(k=1.3, t_end=200.0, dt=1e-3)

        def walk():
            return dm.evolve_phi(spec, cfg, 0.3j, [200.0])
    else:
        path = st.sample_brownian(1, 1e-5, 200_000)

        def walk():
            return st.evolve_phi_pathwise(spec, 2.0, 0.5, path, [2.0])
    tracemalloc.start()
    try:
        tr = walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.stats["steps"] == 200_000
    assert peak < 20 * 2 ** 20


@hs.composite
def admissible_taylor(draw, max_degree=4):
    # a real a0 at least sum |a_n| keeps Re p >= 0 on the disk
    tail = draw(hs.lists(hs.complex_numbers(max_magnitude=1.0),
                         max_size=max_degree))
    a0 = sum(abs(c) for c in tail) + draw(hs.floats(0.0, 1.0))
    return hg.Taylor([a0 + draw(hs.floats(-1.0, 1.0)) * 1j] + tail)


@settings(max_examples=200, deadline=None)
@given(spec=hs.one_of(hs.just(hg.Exponential()), admissible_taylor()),
       z=hs.complex_numbers(max_magnitude=1.0))
# (w - 1) ** 2 on a Python complex turned the -0.0 real part into +0.0
@example(spec=hg.Exponential(), z=1 - 1.1125369292536007e-308j)
@example(spec=hg.Taylor([1.0, 0.5]), z=1 - 1.1125369292536007e-308j)
def test_scalar_spec_evaluation_matches_array_path(spec, z):
    # a Python complex rounds bit for bit like a NumPy scalar; NumPy's
    # complex-multiply loop may fuse a multiply-add, so the 1-element array
    # path can round differently by an ulp per product
    if isinstance(spec, hg.Exponential):
        bound = math.exp(math.pi / 2.0)
    else:
        bound = sum(abs(c) for c in spec.coefficients)
    for method, scale in ((spec._value, bound), (spec._bp_field, 4.0 * bound)):
        scalar = method(z)
        assert isinstance(scalar, complex)
        want = method(np.complex128(z))
        assert np.array([scalar]).tobytes() == np.array([want]).tobytes()
        array = method(np.array([z]))
        assert array.shape == (1,)
        assert abs(scalar - array[0]) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(sid=hs.sampled_from(sorted(st._BOUND_SPECS)),
       seed=hs.integers(0, 2**32 - 1), dt=hs.floats(0.002, 0.02),
       k=hs.floats(0.0, 2.0), r0=hs.floats(0.0, 0.99),
       angle=hs.floats(0.0, 2.0 * math.pi), t=hs.floats(0.05, 1.5))
def test_fine_grid_pathwise_stays_in_growth_bounds(sid, seed, dt, k, r0,
                                                    angle, t):
    n_steps, dt_used = st._step_grid(t, dt)
    path = st.sample_brownian(seed, dt_used, n_steps)
    traj = st.evolve_phi_pathwise(st._BOUND_SPECS[sid](), k,
                                  r0 * cmath.exp(1j * angle), path,
                                  [0.5 * t, t])
    for time, value in zip(traj.times[1:], traj.values[1:]):
        lo, hi = st.growth_bounds(sid, r0, time)
        assert lo - 1e-6 <= abs(value) <= hi + 1e-6, time


def test_pathwise_restart_invariance():
    # the flow restarted at time s from the rotated state continues the
    # original trajectory on the shifted path
    spec = hg.CayleyLinear()
    k = 1.0
    path = st.sample_brownian(17, 1e-3, 1000)
    full = st.evolve_phi_pathwise(spec, k, 0.2 + 0.1j, path, [0.5, 1.0])
    phi_s, phi_st = full.values[1], full.values[2]
    tau_s = cmath.exp(1j * k * path.values[500])
    shifted = st.BrownianPath(dt=1e-3,
                              values=path.values[500:] - path.values[500],
                              seed=path.seed, algorithm_id="shifted:500")
    restart = st.evolve_phi_pathwise(spec, k, phi_s / tau_s, shifted, [0.5])
    assert abs(tau_s * restart.values[-1] - phi_st) <= 1e-12


def test_modulus_identity_between_frames():
    spec = hg.CayleyLinear()
    k = 1.5
    path = st.sample_brownian(11, 1e-3, 500)
    traj = st.evolve_phi_pathwise(spec, k, 0.3, path, path.time_grid())
    psi = traj.values * np.exp(-1j * k * path.values)
    assert np.max(np.abs(np.abs(psi) - np.abs(traj.values))) <= 1e-9


def test_pathwise_hit_time_matches_sde():
    spec = hg.CayleyLinear()
    path = st.sample_brownian(23, 1e-3, 2000)
    tr_phi = st.evolve_phi_pathwise(spec, 1.0, 0.3, path, path.time_grid())
    tr_psi = st.evolve_psi_sde(spec, 1.0, 0.3, path)
    hit_phi = int(np.nonzero(np.abs(tr_phi.values) >= 0.5)[0][0])
    hit_psi = int(np.nonzero(np.abs(tr_psi.values) >= 0.5)[0][0])
    assert abs(hit_phi - hit_psi) <= 1


def test_pathwise_rejects_outside_start():
    path = st.sample_brownian(1, 0.01, 10)
    with pytest.raises(hg.DomainError):
        st.evolve_phi_pathwise(hg.CayleyLinear(), 1.0, 1.5, path, [0.1])


_NAN, _INF, _ZNAN = math.nan, math.inf, complex(math.nan, 0.0)
_PATH = st.sample_brownian(1, 0.01, 20)


def _identity(w):
    return w


# a non-finite k, z or time is a usage error, never a disk escape, a
# truncation failure or a NaN estimate
NON_FINITE_INPUTS = {
    "covariance_mc-k-nan": lambda: st.covariance_mc(0.5, _NAN, 10, 0),
    "covariance_mc-k-inf": lambda: st.covariance_mc(0.5, _INF, 10, 0),
    "expectation_Tt-k-nan": lambda: st.expectation_Tt(
        hg.Cayley(), _NAN, 0.1, 0.2, _identity, 10, 0),
    "expectation_Tt-k-inf": lambda: st.expectation_Tt(
        hg.Cayley(), _INF, 0.1, 0.2, _identity, 10, 0),
    "expectation_Tt-z-nan": lambda: st.expectation_Tt(
        hg.Cayley(), 1.0, 0.1, _ZNAN, _identity, 10, 0),
    "evolve_psi_sde-k-nan": lambda: st.evolve_psi_sde(
        hg.Cayley(), _NAN, 0.2, _PATH),
    "evolve_psi_sde-k-inf": lambda: st.evolve_psi_sde(
        hg.Cayley(), _INF, 0.2, _PATH),
    "evolve_psi_sde-z-nan": lambda: st.evolve_psi_sde(
        hg.Cayley(), 1.0, _ZNAN, _PATH),
    "evolve_phi_pathwise-k-nan": lambda: st.evolve_phi_pathwise(
        hg.Cayley(), _NAN, 0.2, _PATH, [0.2]),
    "evolve_phi_pathwise-k-inf": lambda: st.evolve_phi_pathwise(
        hg.Cayley(), _INF, 0.2, _PATH, [0.2]),
    "evolve_phi_pathwise-z-nan": lambda: st.evolve_phi_pathwise(
        hg.Cayley(), 1.0, _ZNAN, _PATH, [0.2]),
    "backward_residual-k-nan": lambda: st.backward_equation_residual(
        hg.Cayley(), _NAN, _identity, 0.1, 0.2, 10, dt=0.01),
    "backward_residual-k-inf": lambda: st.backward_equation_residual(
        hg.Cayley(), _INF, _identity, 0.1, 0.2, 10, dt=0.01),
    "backward_residual-z-nan": lambda: st.backward_equation_residual(
        hg.Cayley(), 1.0, _identity, 0.1, _ZNAN, 10, dt=0.01),
    "moments-t_end-inf": lambda: st.solve_moment_hierarchy(
        hg.Cayley(), 1.0, 0.2, _INF, 1, 6),
    "moments-k-nan": lambda: st.solve_moment_hierarchy(
        hg.Cayley(), _NAN, 0.2, 1.0, 1, 6),
    "moments-z-nan": lambda: st.solve_moment_hierarchy(
        hg.Cayley(), 1.0, _ZNAN, 1.0, 1, 6),
    "moments-closure-bogus": lambda: st.solve_moment_hierarchy(
        hg.Cayley(), 1.0, 0.2, 1.0, 1, 6, closure="bogus"),
    "growth_bounds-t-nan": lambda: st.growth_bounds("cayley", 0.5, _NAN),
    "growth_bounds-t-inf": lambda: st.growth_bounds("one", 0.5, _INF),
    "growth_bounds-r0-nan": lambda: st.growth_bounds("cayley", _NAN, 1.0),
    "evolve_phi_pathwise-sample-nan": lambda: st.evolve_phi_pathwise(
        hg.Cayley(), 1.0, 0.2, _PATH, [_NAN]),
    "moments-sample-nan": lambda: st.solve_moment_hierarchy(
        hg.Cayley(), 1.0, 0.2, 1.0, 1, 6, sample_times=[_NAN]),
    "apply_generator-z-nan": lambda: st.apply_generator(
        hg.Cayley(), 1.0, _ZNAN, _identity),
    "mean_phi_example1-t-nan": lambda: st.mean_phi_example1(0.3, _NAN, 0.5),
    "covariance_reference-t-nan": lambda: st.covariance_reference(_NAN, 0.5),
    "simulate_boundary_diffusion-theta0-nan": lambda: (
        st.simulate_boundary_diffusion(1.0, 0.5, 1.0, _NAN, _PATH)),
    "generator_annihilator-A-nan": lambda: st.generator_annihilator(
        _NAN, 0.0, 1.0, 0.5, 0.0, 1.0),
    "generator_annihilator-B-nan": lambda: st.generator_annihilator(
        1.0, _NAN, 1.0, 0.5, 0.0, 1.0),
    # the deterministic and herglotz entry points follow the same rules
    "evolve_phi-z-nan": lambda: dm.evolve_phi(
        hg.Cayley(), dm.EvolutionConfig(k=1.0, t_end=1.0), _ZNAN, [0.5]),
    "evolve_psi-z-nan": lambda: dm.evolve_psi(
        hg.Cayley(), dm.EvolutionConfig(k=1.0, t_end=1.0), _ZNAN, [0.5]),
    "evolve_phi-sample-nan": lambda: dm.evolve_phi(
        hg.Cayley(), dm.EvolutionConfig(k=1.0, t_end=1.0), 0.2, [_NAN]),
    "evolve_phi-sample-0.5-nan": lambda: dm.evolve_phi(
        hg.Cayley(), dm.EvolutionConfig(k=1.0, t_end=1.0), 0.2, [0.5, _NAN]),
    "eval-z-nan": lambda: hg.eval(hg.Cayley(), _ZNAN),
    "berkson_porta_p0-z-nan": lambda: hg.berkson_porta_p0(
        hg.CayleyLinear(), 1.0, 0.5 - 0.5j, _ZNAN),
    # complex arguments that need not lie in the disk must still be finite
    "koebe_inverse-w-nan": lambda: dm.koebe_inverse(1.0, _NAN),
    "berkson_porta_p0-tau0-nan": lambda: hg.berkson_porta_p0(
        hg.CayleyLinear(), 1.0, _NAN, 0.2),
    "generator_annihilator-c1-nan": lambda: st.generator_annihilator(
        1.0, 0.0, 1.0, 0.5, _NAN, 1.0),
    "generator_annihilator-c2-nan": lambda: st.generator_annihilator(
        1.0, 0.0, 1.0, 0.5, 0.0, _NAN),
    "implicit_solution_residual-z-nan": lambda: dm.implicit_solution_residual(
        1.0, 0.0, 2.5, _ZNAN, 0.1, 0.3j),
    "implicit_solution_residual-psi_t-nan": lambda: (
        dm.implicit_solution_residual(1.0, 0.0, 2.5, 0.3j, 0.1, _NAN)),
    "automorphism_generator-z-nan": lambda: hg.automorphism_generator(
        1.0, 0.0, 1.0, _NAN),
    # angles are real numbers too
    "generator_annihilator-theta-nan": lambda: st.generator_annihilator(
        1.0, 0.0, 1.0, _NAN, 0.0, 1.0),
    "generator_annihilator-theta-nan-c2-0": lambda: st.generator_annihilator(
        1.0, 0.0, 1.0, _NAN, 0.0, 0.0),
    "generator_annihilator-theta-0.5-nan": lambda: st.generator_annihilator(
        1.0, 0.0, 1.0, [0.5, _NAN], 0.0, 1.0),
    "generator_annihilator-theta-inf": lambda: st.generator_annihilator(
        1.0, 0.0, 1.0, _INF, 0.0, 1.0),
    "radial_solution-theta_traj-nan": lambda: st.radial_solution(
        1.0, 0.0, 1.0, 0.5, _PATH, np.full(_PATH.n_steps + 1, _NAN)),
}


@pytest.mark.parametrize("call", NON_FINITE_INPUTS.values(),
                         ids=NON_FINITE_INPUTS.keys())
def test_non_finite_inputs_are_usage_errors(call, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")

    # rejected before any path is drawn, any propagator is formed, any
    # quadrature is run or any orbit is integrated
    monkeypatch.setattr(st, "_path_rows", refuse)
    monkeypatch.setattr(st, "expm", refuse)
    monkeypatch.setattr(st, "_exp_integral", refuse)
    monkeypatch.setattr(dm, "_integrate", refuse)
    with pytest.raises(ValueError):  # DomainError is a ValueError
        call()


# the closed forms, the generator helpers and the circle diffusion take k
# as a plain number: a NaN or infinite one is the same usage error
K_CALLS = {
    "classify_semigroup": lambda k: dm.classify_semigroup(1.0, 0.5, k),
    "covariance_reference": lambda k: st.covariance_reference(0.5, k),
    "mean_phi_example1": lambda k: st.mean_phi_example1(0.3, 0.5, k),
    "example1_pathwise": lambda k: st.example1_pathwise(0.3, k, _PATH, 0.1),
    "apply_generator": lambda k: st.apply_generator(
        hg.Cayley(), k, 0.2, _identity),
    "simulate_boundary_diffusion": lambda k: st.simulate_boundary_diffusion(
        1.0, 0.5, k, 1.0, _PATH),
    "virasoro_coefficients": lambda k: st.virasoro_coefficients(
        hg.Cayley(), k, 3),
    "generator_annihilator": lambda k: st.generator_annihilator(
        1.0, 0.0, k, 0.5, 0.0, 1.0),
    "find_stochastic_zero": lambda k: st.find_stochastic_zero(hg.Cayley(), k),
    "radial_solution": lambda k: st.radial_solution(
        1.0, 0.0, k, 0.5, _PATH, np.zeros(_PATH.n_steps + 1)),
    "example1_reference": lambda k: dm.example1_reference(0.3, 0.5, k),
    "koebe_map": lambda k: dm.koebe_map(k, 0.3),
    "koebe_inverse": lambda k: dm.koebe_inverse(k, 0.5),
    "find_fixed_point": lambda k: dm.find_fixed_point(hg.Cayley(), k),
    "boundary_fixed_points": lambda k: dm.boundary_fixed_points(k),
}


@pytest.mark.parametrize("k", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", K_CALLS.values(), ids=K_CALLS.keys())
def test_non_finite_k_is_a_usage_error(call, k):
    with pytest.raises(ValueError, match="k must be finite"):
        call(k)


def test_non_finite_automorphism_parameters_are_usage_errors():
    for A, B in ((_NAN, 0.5), (1.0, _NAN), (_INF, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            dm.classify_semigroup(A, B, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            st.simulate_boundary_diffusion(A, B, 1.0, 1.0, _PATH)


def test_example1_pathwise_k0_closed_form():
    path = st.sample_brownian(1, 1e-3, 1000)
    got = st.example1_pathwise(0.3, 0.0, path, 1.0)
    want = math.exp(-1.0) * 0.3 + 1.0 - math.exp(-1.0)
    assert abs(got - want) <= 1e-6


def test_example1_pathwise_validates_time():
    path = st.sample_brownian(1, 0.01, 10)
    with pytest.raises(ValueError):
        st.example1_pathwise(0.0, 1.0, path, 0.2)
    # t may pass the path's end by 1e-12; there is no cell left to enter
    path = st.sample_brownian(1, 0.1, 10)
    got = st.example1_pathwise(0.3, 1.0, path, path.duration + 5e-13)
    at_end = st.example1_pathwise(0.3, 1.0, path, path.duration)
    assert abs(got - at_end) <= 1e-12


def test_example1_pathwise_partial_cell_is_continuous():
    # inside a cell the trapezoid takes the partial piece up to t: the
    # value meets the grid values at both ends of the cell
    path = st.sample_brownian(3, 0.05, 20)
    for n in (0, 7, 19):
        lo, hi = n * path.dt, (n + 1) * path.dt
        for t, end in ((lo + 1e-9, lo), (hi - 1e-9, hi)):
            gap = (st.example1_pathwise(0.3, 2.0, path, t)
                   - st.example1_pathwise(0.3, 2.0, path, end))
            assert abs(gap) <= 1e-8, (n, t)


def test_example1_pathwise_off_grid_mean():
    # t = 0.55 is mid-cell on a grid of 0.1: a dropped partial cell moves
    # the mean by about 0.04, over seven standard errors here
    t, k, z = 0.55, 1.0, 0.3 + 0.2j
    values = np.array([st.example1_pathwise(z, k, path, t)
                       for path in brownian_ensemble(8, 1000, 0.1, 6)])
    want = st.mean_phi_example1(z, t, k)
    for part in (np.real, np.imag):
        se = part(values).std(ddof=1) / math.sqrt(len(values))
        assert abs(part(values).mean() - part(want)) <= 4.0 * se


def test_mean_phi_example1_branches():
    # generic branch, k = 1
    want = (math.exp(-0.5) - math.exp(-1.0)) / 0.5
    assert st.mean_phi_example1(0.0, 1.0, 1.0) == pytest.approx(want)
    # degenerate branch k^2 = 2 and continuity across it
    assert st.mean_phi_example1(0.0, 1.0, math.sqrt(2.0)) == (
        pytest.approx(math.exp(-1.0)))
    lo = st.mean_phi_example1(0.3j, 0.7, math.sqrt(2.0) - 1e-9)
    hi = st.mean_phi_example1(0.3j, 0.7, math.sqrt(2.0) + 1e-9)
    mid = st.mean_phi_example1(0.3j, 0.7, math.sqrt(2.0))
    assert abs(lo - mid) <= 1e-7 and abs(hi - mid) <= 1e-7
    with pytest.raises(ValueError):
        st.mean_phi_example1(0.0, -0.5, 1.0)


def test_mc_mean_rotation_factor():
    # E exp(-ik B_t) = exp(-k^2 t / 2), four standard errors
    for k in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0):
            n = 4000
            finals = np.array([p.values[-1] for p in
                               brownian_ensemble(1000 + int(10 * k), n,
                                                 t / 100.0, 100)])
            samples = np.exp(-1j * k * finals)
            mean = samples.mean()
            se = math.sqrt((samples.real.var(ddof=1)
                            + samples.imag.var(ddof=1)) / n)
            assert abs(mean - math.exp(-0.5 * k * k * t)) <= 4.0 * se


def test_ito_defect_vanishes_with_step():
    # D = sum dZ dW, the term the formal product rule drops, shrinks
    # like dt (well under sqrt(dt)) in RMS
    k = 1.0
    rms = {}
    for dt in (1e-2, 1e-3, 1e-4):
        n = round(1.0 / dt)
        sq = []
        for j in range(64):
            p = st.sample_brownian(st.derive_path_seed(88, j), dt, n)
            z_vals = np.exp(-1j * k * p.values)
            grid = p.time_grid()
            dw = np.exp(grid[:-1]) * np.exp(1j * k * p.values[:-1]) * dt
            sq.append(abs(np.sum(np.diff(z_vals) * dw)) ** 2)
        rms[dt] = math.sqrt(np.mean(sq))
        assert rms[dt] <= math.sqrt(dt)
    assert rms[1e-2] > rms[1e-3] > rms[1e-4]


# --------------------------------------------------------------------------
# Ito SDE
# --------------------------------------------------------------------------

def test_sde_k0_matches_deterministic():
    spec = hg.CayleyLinear()
    path = st.sample_brownian(3, 5e-6, 60000)
    traj = st.evolve_psi_sde(spec, 0.0, 0.2 + 0.1j, path, scheme="euler")
    cfg = dm.EvolutionConfig(k=0.0, t_end=0.3)
    ref = dm.evolve_psi(spec, cfg, 0.2 + 0.1j, [0.3])
    assert abs(traj.values[-1] - ref.values[-1]) <= 1e-6


def test_sde_validates_inputs():
    path = st.sample_brownian(1, 0.01, 10)
    with pytest.raises(ValueError):
        st.evolve_psi_sde(hg.CayleyLinear(), 1.0, 0.2, path, scheme="heun")
    with pytest.raises(hg.DomainError):
        st.evolve_psi_sde(hg.CayleyLinear(), 1.0, 1.0 + 0j, path)


def test_sde_projection_keeps_disk_and_counts():
    spec = hg.Automorphism(1.0, 0.0)
    path = st.sample_brownian(21, 1e-4, 5000)
    z0 = (1.0 - 1e-9) * cmath.exp(1j * 2.0)
    traj = st.evolve_psi_sde(spec, 1.0, z0, path)
    assert np.max(np.abs(traj.values)) <= 1.0
    assert traj.stats["projections"] > 0


def test_sde_strong_order_comparison():
    # both schemes against the exact rotating-frame endpoint computed
    # from the solvable case on a shared fine path; coarse grids are
    # subsampled so increments aggregate exactly
    spec = hg.CayleyLinear()
    k, z0, t_end = 1.0, 0.2 + 0.1j, 0.5
    fine_dt = 1e-4
    n_fine = round(t_end / fine_dt)
    errs = {dt: {"euler": [], "milstein": []} for dt in (1e-2, 1e-3)}
    for j in range(128):
        seed = st.derive_path_seed(712, j)
        fine = st.sample_brownian(seed, fine_dt, n_fine)
        phi_end = st.example1_pathwise(z0, k, fine, t_end)
        psi_exact = phi_end * cmath.exp(-1j * k * fine.values[-1])
        for dt in errs:
            factor = round(dt / fine_dt)
            coarse = st.BrownianPath(dt=dt, values=fine.values[::factor],
                                     seed=seed,
                                     algorithm_id="coarsened:%d" % factor)
            for scheme in ("euler", "milstein"):
                tr = st.evolve_psi_sde(spec, k, z0, coarse, scheme=scheme)
                errs[dt][scheme].append(abs(tr.values[-1] - psi_exact))

    def rms(xs):
        return math.sqrt(np.mean(np.asarray(xs) ** 2))

    euler_rate = math.log(rms(errs[1e-2]["euler"])
                          / rms(errs[1e-3]["euler"])) / math.log(10.0)
    assert euler_rate >= 0.4
    for dt in errs:
        assert rms(errs[dt]["milstein"]) <= rms(errs[dt]["euler"])


@pytest.mark.parametrize("scheme", ["euler", "milstein"])
@pytest.mark.parametrize("text", ["cayley-linear", "cayley",
                                  "automorphism:1,0.5", "taylor:1,0.2+0.3i"])
def test_block_kernel_steps_along_the_scalar_paths(text, scheme):
    # a one-column shift of the increments keeps them i.i.d. and passes
    # every statistical gate; only a pathwise comparison sees it.  The
    # start near the circle makes both steppers project.
    spec = hg.parse_spec(text)
    k, z0, dt, n_steps, col = 1.3, 0.97 * cmath.exp(2j), 0.01, 60, 23
    paths = brownian_ensemble(5, 6, dt, n_steps)
    # the kernel takes increments: those of the path values the scalar
    # loop walks
    increments = np.diff([path.values for path in paths], axis=1)
    psi, projections = st._psi_sde_block(spec, k, z0, increments, dt, scheme)
    at_col, _ = st._psi_sde_block(spec, k, z0, increments[:, :col], dt,
                                  scheme)
    want = 0
    finals = []
    for i, path in enumerate(paths):
        traj = st.evolve_psi_sde(spec, k, z0, path, scheme=scheme)
        assert abs(psi[i] - traj.values[-1]) <= 1e-13
        assert abs(at_col[i] - traj.values[col]) <= 1e-13
        want += traj.stats["projections"]
        finals.append(traj.values[-1])
    assert projections == want
    # the estimator steps the increments its blocks are drawn as
    est = st.expectation_Tt(spec, k, n_steps * dt, z0, _identity, 6, 5,
                            dt=dt, scheme=scheme)
    assert abs(est.mean - np.mean(finals)) <= 1e-13


# --------------------------------------------------------------------------
# Monte Carlo semigroup
# --------------------------------------------------------------------------

def test_expectation_t0_is_exact():
    est = st.expectation_Tt(hg.CayleyLinear(), 1.0, 0.0, 0.2,
                            lambda z: z * z, 100, 5)
    assert est.mean == 0.2 * 0.2
    assert est.std_error == 0.0
    assert est.n_samples == 100


def test_expectation_matches_first_moment():
    spec = hg.CayleyLinear()
    z, k, t = 0.2 + 0.1j, 1.0, 0.5
    est = st.expectation_Tt(spec, k, t, z, lambda w: w, 20000, 12)
    lam = 1.0 + 0.5 * k * k
    mu1 = (1.0 - math.exp(-lam * t)) / lam + z * math.exp(-lam * t)
    assert abs(est.mean - mu1) <= 3.0 * est.std_error


def test_expectation_reproducible():
    spec = hg.Cayley()
    a = st.expectation_Tt(spec, 1.0, 0.2, 0.1, lambda z: z, 3000, 77)
    b = st.expectation_Tt(spec, 1.0, 0.2, 0.1, lambda z: z, 3000, 77)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_expectation_operator_norm():
    # |T_t f| <= sup |f| for the identity on the disk
    spec = hg.Cayley()
    for t in (0.1, 0.6):
        est = st.expectation_Tt(spec, 1.5, t, 0.4j, lambda z: z, 4000, 9)
        assert abs(est.mean) <= 1.0 + 3.0 * est.std_error


def test_expectation_accepts_scalar_only_f():
    est = st.expectation_Tt(hg.CayleyLinear(), 1.0, 0.1, 0.2,
                            lambda z: complex(z) ** 2, 64, 3)
    assert est.n_samples == 64


def test_expectation_validates():
    spec = hg.CayleyLinear()
    with pytest.raises(ValueError):
        st.expectation_Tt(spec, 1.0, 0.5, 0.2, lambda z: z, 1, 0)
    with pytest.raises(ValueError):
        st.expectation_Tt(spec, 1.0, -0.5, 0.2, lambda z: z, 100, 0)
    for t in (0.5, 0.0):
        with pytest.raises(hg.DomainError):
            st.expectation_Tt(spec, 1.0, t, 1.5, lambda z: z, 100, 0)
        # an unknown scheme is rejected, not run as euler
        with pytest.raises(ValueError, match="scheme must be"):
            st.expectation_Tt(spec, 1.0, t, 0.2, lambda z: z, 100, 0,
                              scheme="Milstein")
    for dt in (-1e-3, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            st.expectation_Tt(spec, 1.0, 0.5, 0.2, lambda z: z, 100, 0,
                              dt=dt)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="need t >= 0"):
            st.expectation_Tt(spec, 1.0, t, 0.2, lambda z: z, 100, 0)
    with pytest.raises(ValueError):
        st.McEstimate(mean=0j, std_error=-1.0, n_samples=10)


# --------------------------------------------------------------------------
# covariance of the solvable case
# --------------------------------------------------------------------------

def test_covariance_reference_t0():
    ref = st.covariance_reference(0.0, 1.0)
    assert ref == (1.0, 0.0, 0.0, 0.0)


def test_covariance_reference_degenerate_branch():
    ref = st.covariance_reference(0.5, math.sqrt(2.0))
    assert ref.cov == pytest.approx(0.13212055882855767, abs=1e-15)
    # continuity across the k^2 = 2 seam
    lo = st.covariance_reference(1.0, math.sqrt(2.0) - 1e-8).cov
    hi = st.covariance_reference(1.0, math.sqrt(2.0) + 1e-8).cov
    mid = st.covariance_reference(1.0, math.sqrt(2.0)).cov
    assert abs(lo - mid) <= 1e-7 and abs(hi - mid) <= 1e-7


def test_covariance_reference_general_branch():
    t, k = 0.5, 1.0
    ref = st.covariance_reference(t, k)
    assert ref.e1 == pytest.approx(math.exp(-0.25))
    assert ref.e2 == pytest.approx((math.exp(-0.25) - math.exp(-0.5)) / 0.5)
    assert ref.e3 == pytest.approx((1.0 - math.exp(-0.75)) / 1.5)
    assert ref.cov == pytest.approx(ref.e3 - ref.e1 * ref.e2)


def test_covariance_mc_agrees_with_reference():
    ref = st.covariance_reference(0.5, 1.0)
    mc = st.covariance_mc(0.5, 1.0, 20000, 42)
    for key, want in (("e1", ref.e1), ("e2", ref.e2),
                      ("e3", ref.e3), ("cov", ref.cov)):
        est = mc[key]
        assert abs(est.mean - want) <= 4.0 * est.std_error, key


def test_covariance_mc_e2_is_the_mean_of_example1_pathwise(monkeypatch):
    t, k, n, seed, dt = 0.5, 1.3, 40, 9, 0.01
    n_steps, dt_used = st._step_grid(t, dt)
    want = np.mean([st.example1_pathwise(0.0, k, path, t) for path in
                    brownian_ensemble(seed, n, dt_used, n_steps)])
    for block_paths in (st._BLOCK_PATHS, 16):
        monkeypatch.setattr(st, "_BLOCK_PATHS", block_paths)
        est = st.covariance_mc(t, k, n, seed, dt=dt)["e2"]
        assert abs(est.mean - want) <= 1e-14, block_paths


@pytest.mark.parametrize("block_paths", [st._BLOCK_PATHS, 16])
def test_position_readers_equal_a_positions_reference(block_paths,
                                                      monkeypatch):
    # covariance_mc and `bounds --paths` sum their blocks of increments
    # into path values: bit for bit sample_brownian's, block by block
    t, k, n, seed, dt = 0.5, 1.3, 40, 9, 0.01
    n_steps, dt_used = st._step_grid(t, dt)
    B = np.stack([path.values for path in
                  brownian_ensemble(seed, n, dt_used, n_steps)])
    blocks = [B[i:i + block_paths] for i in range(0, n, block_paths)]
    monkeypatch.setattr(st, "_BLOCK_PATHS", block_paths)
    phi = [math.exp(-t) * st._exp_trapezoid(b, k, dt_used) for b in blocks]
    zeta = [np.exp(-1j * k * b[:, -1]) for b in blocks]
    want = {"e1": st._mc_estimate(zeta), "e2": st._mc_estimate(phi),
            "e3": st._mc_estimate([p * z for p, z in zip(phi, zeta)])}
    got = st.covariance_mc(t, k, n, seed, dt=dt)
    for key, est in want.items():
        assert (got[key].mean, got[key].std_error) == (est.mean,
                                                       est.std_error), key
    for spec in (factory() for factory in st._BOUND_SPECS.values()):
        got = st._phi_pathwise_blocks(spec, 3.0, 0.99, seed, n, t, dt)
        want = [st._phi_pathwise_rows(spec, 3.0, 0.99, b, dt_used)
                for b in blocks]
        assert (np.concatenate(list(got)).tobytes()
                == np.concatenate(want).tobytes())


def test_covariance_mc_validates():
    with pytest.raises(ValueError):
        st.covariance_mc(0.5, 1.0, 1, 0)
    with pytest.raises(ValueError, match="need t >= 0"):
        st.covariance_mc(-0.5, 1.0, 100, 0)
    for dt in (-1e-3, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            st.covariance_mc(0.5, 1.0, 100, 0, dt=dt)
    at_zero = st.covariance_mc(0.0, 1.0, 8, 0)
    assert at_zero["e1"].mean == 1.0 and at_zero["e2"].mean == 0.0
    assert all(est.std_error == 0.0 for est in at_zero.values())


# --------------------------------------------------------------------------
# generator algebra
# --------------------------------------------------------------------------

def test_apply_generator_closed_form():
    spec = hg.Cayley()
    z, k = 0.2 + 0.1j, 1.0
    want = ((-0.5 * z + 1.0 - z * z) * (2.0 * z)) - 0.5 * z * z * 2.0
    got = st.apply_generator(spec, k, z, lambda w: w * w,
                             lambda w: 2.0 * w, lambda w: 2.0)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.336 + 0.098j, abs=1e-12)
    fd = st.apply_generator(spec, k, z, lambda w: w * w)
    assert abs(fd - want) <= 1e-7


def test_apply_generator_rejects_boundary():
    with pytest.raises(hg.DomainError):
        st.apply_generator(hg.Cayley(), 1.0, 1.0 + 0j, lambda w: w)


def test_generator_vanishes_at_drift_zero():
    spec = hg.CayleyLinear()
    z0 = st.find_stochastic_zero(spec, 2.0)
    got = st.apply_generator(spec, 2.0, z0, lambda w: w,
                             lambda w: 1.0, lambda w: 0.0)
    assert abs(got) <= 1e-11


def test_dynkin_limit():
    # (E f(Psi_t) - f(z)) / t converges to A f(z); the allowance adds
    # the second-order Taylor remainder scale |A^2 f| t to the MC error
    spec = hg.Cayley()
    z, k = 0.2 + 0.1j, 1.0

    def f(w):
        return w * w

    af = st.apply_generator(spec, k, z, f, lambda w: 2.0 * w, lambda w: 2.0)
    a2f_scale = 1.04  # |A^2 f(z)|, computed from the closed form
    for t, n in ((1e-1, 30000), (1e-2, 30000), (1e-3, 100000)):
        est = st.expectation_Tt(spec, k, t, z, f, n, 31)
        ratio = (est.mean - f(z)) / t
        allowance = 3.0 * est.std_error / t + a2f_scale * t
        assert abs(ratio - af) <= allowance, t


def test_virasoro_tables():
    c, l0sq = st.virasoro_coefficients(hg.CayleyLinear(), 1.0, 4)
    assert l0sq == 0.5
    assert c[-1] == -1.0 and c[0] == 1.0
    assert all(c[n] == 0.0 for n in range(1, 5))

    c, l0sq = st.virasoro_coefficients(hg.Cayley(), 2.0, 4)
    assert l0sq == 2.0
    assert c[-1] == -1.0 and c[0] == 0.0 and c[1] == 1.0
    assert all(c[n] == 0.0 for n in range(2, 5))

    c, _ = st.virasoro_coefficients(hg.ConstantImaginary(), 1.0, 2)
    assert c[-1] == -1j and c[0] == 2j and c[1] == -1j and c[2] == 0.0

    A, B = 1.5, -0.5
    c, _ = st.virasoro_coefficients(hg.Automorphism(A, B), 1.0, 3)
    assert c[-1] == -(A + 1j * B)
    assert c[0] == 2j * B
    assert c[1] == A - 1j * B
    assert c[2] == 0.0 and c[3] == 0.0


def test_virasoro_l0_squared_overflows_to_inf():
    # past |k| ~ 1.34e154, k^2/2 is not a double: inf, not OverflowError
    for k in (1e154, 1e160, -1e300):
        _, l0sq = st.virasoro_coefficients(hg.Cayley(), k, 2)
        assert l0sq == k * k / 2.0
    assert st.virasoro_coefficients(hg.Cayley(), 1e160, 2)[1] == math.inf


class _Drawn:
    """Stands in for ``hs.data()`` in an explicit example: every draw
    gives ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


@settings(max_examples=150, deadline=None)
@given(spec=admissible_taylor(max_degree=3), k=hs.floats(-2.0, 2.0),
       z=hs.complex_numbers(max_magnitude=0.8), data=hs.data())
# the generator and the ladder differ by one subnormal ulp, 5e-324i,
# where 1e-12 times the terms' summed moduli underflows to 0
@example(spec=hg.Taylor([5e-324j]), k=0.0, z=-0.25, data=_Drawn(2))
def test_ladder_expansion_is_the_generator_and_the_moment_slope(spec, k, z,
                                                                data):
    # A z^m = -m sum_{n=-1}^{N+1} c_n z^(m+n) - (k^2/2) m^2 z^m for p of
    # degree N, checked against apply_generator with exact derivatives
    # and against the t = 0 slope of the moment table, whose hierarchy
    # is built from the same c_n; orders m + N + 1 <= T see no cut
    N = len(spec.coefficients) - 1
    T = data.draw(hs.integers(N + 2, 10), label="truncation")
    c, l0_squared = st.virasoro_coefficients(spec, k, N + 1)
    eps = 1e-7
    table = st.solve_moment_hierarchy(spec, k, z, 2.0 * eps, T, T,
                                      sample_times=[0.0, eps, 2.0 * eps])
    for m in range(1, T - N):
        terms = [-m * c[n] * z ** (m + n) for n in range(-1, N + 2)]
        terms.append(-l0_squared * m * m * z ** m)
        ladder = sum(terms)
        # relative to the terms' own size, as the sum may cancel to 0,
        # with a floor of a few subnormal ulps where that size underflows
        scale = sum(abs(t) for t in terms)
        direct = st.apply_generator(
            spec, k, z, lambda w: w ** m, fprime=lambda w: m * w ** (m - 1),
            fsecond=lambda w: m * (m - 1) * w ** max(m - 2, 0))
        assert abs(ladder - direct) <= 1e-12 * scale + 4 * math.ulp(0.0), m
        mu = table.moment(m)
        slope = (-3.0 * mu[0] + 4.0 * mu[1] - mu[2]) / (2.0 * eps)
        assert abs(slope - ladder) <= 1e-7, m


def test_find_stochastic_zero_closed_form():
    spec = hg.CayleyLinear()
    for k in (0.5, 1.0, 2.0):
        z0 = st.find_stochastic_zero(spec, k)
        assert abs(z0 - 2.0 / (2.0 + k * k)) <= 1e-10
    z0 = st.find_stochastic_zero(hg.Exponential(), 1.0)
    drift = -0.5 * z0 + (z0 - 1.0) ** 2 * cmath.exp(0.5 * math.pi * z0)
    assert abs(z0) < 1.0 and abs(drift) <= 1e-11


def test_find_stochastic_zero_failure():
    class Outward:
        # constant field: drift zero sits at 2/k^2, outside for k <= 1
        def _value(self, z):
            return 1.0 + 0.0 * z

        def _bp_field(self, w):
            return 1.0 + 0.0 * w

        def text_form(self):
            return "unit-field"

    with pytest.raises(st.ZeroNotFoundError):
        st.find_stochastic_zero(Outward(), 1.0)
    with pytest.raises(ValueError):
        st.find_stochastic_zero(hg.CayleyLinear(), 0.0)


def test_backward_equation_residual_zero():
    res, se = st.backward_equation_residual(
        hg.CayleyLinear(), 1.0, lambda w: w, 0.5, 0.2 + 0.1j, 16000, seed=3)
    assert res <= 3.0 * se
    res2, se2 = st.backward_equation_residual(
        hg.Cayley(), 1.0, lambda w: w * w, 0.5, 0.2 + 0.1j, 16000, seed=4)
    assert res2 <= 3.0 * se2


def test_backward_residual_at_t_equal_to_h():
    # t - h = 0 reads the start state, column 0 of the step grid
    for seed in range(3):
        res, se = st.backward_equation_residual(
            hg.CayleyLinear(), 1.0, _identity, 0.01, 0.2, 4000, seed=seed,
            dt=1e-3, h=0.01)
        assert res <= 4.0 * se, seed
    spec, k, f, z = hg.Cayley(), 1.0, lambda w: w * w, 0.2 + 0.1j
    got = st.backward_equation_residual(spec, k, f, 0.01, z, 20, seed=5,
                                        dt=0.005, h=0.01)
    want = reference_residual(spec, k, f, 0.01, z, 20, 5, 0.005)
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)


def reference_residual(spec, k, f, t, z, n_samples, seed, dt, h=1e-2):
    """One residual sample per path from scalar SDE runs: the point to
    t - h and t + h, each circle point to t; then |mean| and its SE."""
    n_plus = max(2, round((t + h) / dt))
    dt_used = (t + h) / n_plus
    col_minus = round((t - h) / dt_used)
    col_mid = round(t / dt_used)
    radius = 0.15 * (1.0 - abs(z))
    angles = 2.0 * math.pi * np.arange(16) / 16
    drift_z = -0.5 * k * k * z + spec._bp_field(z)
    samples = []
    for path in brownian_ensemble(seed, n_samples, dt_used, n_plus):
        point = st.evolve_psi_sde(spec, k, z, path).values
        to_mid = st.BrownianPath(dt_used, path.values[:col_mid + 1], 0)
        u = np.array([f(st.evolve_psi_sde(spec, k, w, to_mid).values[-1])
                      for w in z + radius * np.exp(1j * angles)])
        c1 = np.mean(u * np.exp(-1j * angles)) / radius
        c2 = np.mean(u * np.exp(-2j * angles)) / radius ** 2
        au = drift_z * c1 - k * k * z * z * c2
        samples.append((f(point[-1]) - f(point[col_minus])) / (2.0 * h) - au)
    samples = np.array(samples)
    mean = np.mean(samples)
    var = np.sum(np.abs(samples - mean) ** 2) / (n_samples - 1)
    return abs(mean), math.sqrt(var / n_samples)


def test_backward_residual_is_a_mean_of_per_path_samples(monkeypatch):
    spec, k, f, t, z = hg.Cayley(), 1.0, lambda w: w * w, 0.1, 0.2 + 0.1j
    res, se = st.backward_equation_residual(spec, k, f, t, z, 200, seed=5,
                                            dt=0.005)
    # blocks of 64 states hold 3 paths of 17 states: 67 blocks
    monkeypatch.setattr(st, "_BLOCK_PATHS", 64)
    res64, se64 = st.backward_equation_residual(spec, k, f, t, z, 200,
                                                seed=5, dt=0.005)
    assert abs(res64 - res) <= 1e-12 and abs(se64 - se) <= 1e-12
    # any n_samples >= 2 counts every path
    got = st.backward_equation_residual(spec, k, f, t, z, 20, seed=5,
                                        dt=0.005)
    want = reference_residual(spec, k, f, t, z, 20, 5, 0.005)
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)


def test_backward_equation_validates():
    with pytest.raises(ValueError):
        st.backward_equation_residual(hg.Cayley(), 1.0, lambda w: w,
                                      0.005, 0.2, 1000)
    with pytest.raises(ValueError, match="n_samples >= 2"):
        st.backward_equation_residual(hg.Cayley(), 1.0, lambda w: w,
                                      0.5, 0.2, 1)
    with pytest.raises(hg.DomainError):
        st.backward_equation_residual(hg.Cayley(), 1.0, lambda w: w,
                                      0.5, 1.0 + 0j, 1000)
    for dt in (-1e-3, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            st.backward_equation_residual(hg.Cayley(), 1.0, lambda w: w,
                                          0.5, 0.2, 100, dt=dt)


def test_backward_residual_default_fit_circle_near_the_boundary():
    # 0.15 (1 - |z|) keeps the circle inside however close z is to it
    res, se = st.backward_equation_residual(hg.Cayley(), 1.0, _identity,
                                            0.05, 0.999, 4, dt=0.01, h=0.02)
    assert math.isfinite(res) and math.isfinite(se)


# --------------------------------------------------------------------------
# moment hierarchy
# --------------------------------------------------------------------------

def test_moment_hierarchy_first_moment():
    spec = hg.CayleyLinear()
    z, k = 0.2 + 0.1j, 1.0
    table = st.solve_moment_hierarchy(spec, k, z, 1.0, 3, 8)
    lam = 1.0 + 0.5 * k * k
    for t, mu1 in zip(table.times, table.moment(1)):
        want = (1.0 - math.exp(-lam * t)) / lam + z * math.exp(-lam * t)
        assert abs(mu1 - want) <= 1e-8


def test_moment_hierarchy_initial_row():
    z = 0.3 - 0.2j
    table = st.solve_moment_hierarchy(hg.Cayley(), 1.0, z, 0.5, 4, 12)
    for j, m in enumerate(table.orders):
        assert table.values[0, j] == pytest.approx(z ** m, abs=1e-15)


def test_moment_hierarchy_recovers_cayley_relation():
    # central differences of the table satisfy
    # d mu_m / dt = m (mu_{m-1} - mu_{m+1}) - m^2 k^2/2 mu_m
    spec = hg.Cayley()
    z, k = 0.3, 1.0
    times = np.linspace(0.0, 0.8, 201)
    table = st.solve_moment_hierarchy(spec, k, z, 0.8, 3, 24,
                                      sample_times=times)
    dt = times[1] - times[0]
    mu0 = np.ones(len(times), dtype=complex)
    cols = {0: mu0, 1: table.moment(1), 2: table.moment(2),
            3: table.moment(3)}
    for m in (1, 2):
        lhs = (cols[m][2:] - cols[m][:-2]) / (2.0 * dt)
        rhs = (m * (cols[m - 1] - cols[m + 1])
               - 0.5 * m * m * k * k * cols[m])[1:-1]
        assert np.max(np.abs(lhs - rhs)) <= 5e-4


def test_moment_hierarchy_frozen_closure():
    table = st.solve_moment_hierarchy(hg.Exponential(), 1.0, 0.2, 0.5,
                                      2, 12, closure="frozen")
    assert table.closure == "frozen"
    assert np.max(np.abs(table.values)) <= 1.0 + 1e-8


def test_moment_hierarchy_validates():
    spec = hg.Cayley()
    with pytest.raises(ValueError):
        st.solve_moment_hierarchy(spec, 1.0, 0.2, 1.0, 5, 3)
    with pytest.raises(ValueError):
        st.solve_moment_hierarchy(spec, 1.0, 0.2, 1.0, 2, 8, closure="drop")
    with pytest.raises(hg.DomainError):
        st.solve_moment_hierarchy(spec, 1.0, 1.5, 1.0, 2, 8)


def test_moment_hierarchy_truncation_is_numerical_failure():
    args = (hg.Cayley(), 0.5184927882198025,
            0.5370282164963841 - 0.1621848754225168j, 1.9382732551314645, 1)
    with pytest.raises(st.MomentTruncationError, match="order 5") as info:
        st.solve_moment_hierarchy(*args, 5, closure="frozen")
    assert not isinstance(info.value, ValueError)
    table = st.solve_moment_hierarchy(*args, 8, closure="frozen")
    assert np.max(np.abs(table.values)) <= 1.0
    # a table built directly still rejects such values, and NaN, as bad
    # input
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError, match="finite and at most 1"):
            st.MomentTable(orders=(1,), times=[0.0], values=[[bad]],
                           truncation=5, closure="zero")


def test_moment_hierarchy_non_finite_is_numerical_failure():
    # at k = 1e160, k^2/2 overflows, the generator has infinite entries
    # and expm returns NaN
    with pytest.raises(st.MomentTruncationError, match="non-finite") as info:
        st.solve_moment_hierarchy(hg.Cayley(), 1e160, 0.3, 1.0, 2, 6)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("closure", ["zero", "frozen"])
def test_moment_hierarchy_decays_at_huge_k(closure):
    # at k = 1e20 the generator's entries reach 1e41 but are finite: the
    # exact flow sends every moment to 0 once t > 0
    table = st.solve_moment_hierarchy(hg.Cayley(), 1e20, 0.3, 1.0, 2, 6,
                                      closure=closure)
    assert np.all(np.isfinite(table.values))
    assert np.allclose(table.values[0], [0.3, 0.09], rtol=0, atol=1e-15)
    assert np.max(np.abs(table.values[1:])) <= 1e-12


@hs.composite
def moment_sample_times(draw, t_end):
    # None (the default grid), a lone time, a uniform grid (repeated gaps)
    # or sorted draws (non-uniform gaps)
    kind = draw(hs.sampled_from(["default", "lone", "uniform", "random"]))
    if kind == "default":
        return None
    if kind == "lone":
        return [draw(hs.floats(0.0, t_end))]
    if kind == "uniform":
        return np.linspace(0.0, t_end, draw(hs.integers(1, 130)))
    return sorted(draw(hs.lists(hs.floats(0.0, t_end), min_size=1,
                                max_size=12)))


@hs.composite
def moment_case(draw):
    t_end = draw(hs.floats(0.0, 3.0))
    truncation = draw(hs.integers(1, 16))
    return dict(k=draw(hs.floats(0.0, 2.5)),
                z=draw(hs.complex_numbers(max_magnitude=0.95)),
                t_end=t_end, M=draw(hs.integers(1, min(4, truncation))),
                truncation=truncation,
                closure=draw(hs.sampled_from(["zero", "frozen"])),
                sample_times=draw(moment_sample_times(t_end)))


@settings(max_examples=200, deadline=None)
@given(case=moment_case())
def test_cayley_linear_first_moment_matches_closed_form(case):
    # the cayley-linear hierarchy is triangular: mu_1 solves its own
    # linear ODE whatever the truncation and closure
    table = st.solve_moment_hierarchy(hg.CayleyLinear(), **case)
    lam = 1.0 + 0.5 * case["k"] ** 2
    for t, mu1 in zip(table.times, table.moment(1)):
        want = 1.0 / lam + (case["z"] - 1.0 / lam) * math.exp(-lam * t)
        assert abs(mu1 - want) <= 1e-10, t


@settings(max_examples=200, deadline=None)
@given(spec=hs.one_of(
           hs.sampled_from([hg.CayleyLinear(), hg.Cayley(),
                            hg.ConstantImaginary(), hg.Exponential()]),
           hs.builds(hg.Automorphism, hs.floats(0.0, 2.0),
                     hs.floats(-2.0, 2.0)),
           admissible_taylor()),
       case=moment_case())
def test_moment_tables_stay_in_the_disk(spec, case):
    try:
        table = st.solve_moment_hierarchy(spec, **case)
    except st.MomentTruncationError:
        return
    assert table.values.shape == (len(table.times), case["M"])
    assert np.max(np.abs(table.values)) <= 1.0 + 1e-8


def test_moment_table_vs_expectation():
    spec = hg.CayleyLinear()
    z, k, t = 0.2 + 0.1j, 1.0, 0.5
    table = st.solve_moment_hierarchy(spec, k, z, t, 3, 10,
                                      sample_times=[t])
    for m in (1, 2, 3):
        est = st.expectation_Tt(spec, k, t, z, lambda w, m=m: w ** m,
                                20000, 100 + m)
        assert abs(est.mean - table.moment(m)[-1]) <= 3.0 * est.std_error, m


def test_moment_of_a_missing_order_names_it():
    table = st.solve_moment_hierarchy(hg.Cayley(), 1.0, 0.3, 1.0, 2, 6)
    with pytest.raises(ValueError, match=r"order 3 .* orders are \[1, 2\]"):
        table.moment(3)


def counting_expm(monkeypatch):
    """Wrap st.expm; the returned list grows by each matrix passed."""
    seen, real = [], st.expm

    def expm(a):
        seen.extend(np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return real(a)

    monkeypatch.setattr(st, "expm", expm)
    return seen


@pytest.mark.parametrize("spec", CATALOGUE, ids=lambda s: s.text_form())
@pytest.mark.parametrize("closure", ["zero", "frozen"])
@pytest.mark.parametrize("T", [4, 12, 32, 64])
def test_expm_of_moment_generators_matches_scipy(spec, closure, T,
                                                 monkeypatch):
    # the solver's own gap * G, for one gap at a time; T = 64 is the
    # largest truncation the hierarchy is meant to reach
    from scipy.linalg import expm as scipy_expm

    seen = counting_expm(monkeypatch)
    for k in (0.5, 1.5, 3.0):
        for gap in (1 / 64, 1 / 8, 1.0):
            seen.clear()
            try:
                st.solve_moment_hierarchy(spec, k, 0.3 + 0.2j, gap, 1, T,
                                          closure=closure,
                                          sample_times=[0.0, gap])
            except st.MomentTruncationError:
                pass
            (a,) = seen
            want = scipy_expm(a)
            err = np.abs(st.expm(a) - want).sum(axis=0).max()
            assert err <= 1e-12 * np.abs(want).sum(axis=0).max(), (k, gap)


@pytest.mark.parametrize("times, matrices", [
    (np.linspace(0.0, 1.7, 65), 1),
    (np.linspace(0.0, 2.9, 4097), 1),
    ([0.0, 0.1, 0.2, 0.5, 0.6, 0.9], 2),
    ([0.0], 0),
])
def test_moment_hierarchy_takes_one_exponential_per_gap(times, matrices,
                                                        monkeypatch):
    # a np.linspace grid's gaps differ in their last bits, but within a
    # relative 1e-12 they are one gap
    seen = counting_expm(monkeypatch)
    table = st.solve_moment_hierarchy(hg.Cayley(), 1.0, 0.3, 2.9, 2, 8,
                                      sample_times=times)
    assert len(seen) == matrices
    assert len(table.times) == len(times)


def test_moment_hierarchy_at_t_end_zero_is_the_initial_row(monkeypatch):
    seen = counting_expm(monkeypatch)
    table = st.solve_moment_hierarchy(hg.Cayley(), 1.0, 0.3, 0.0, 2, 8)
    assert not seen
    assert np.array_equal(table.times, [0.0])
    assert np.array_equal(table.values, [[0.3, 0.3 ** 2]])


@pytest.mark.parametrize("closure", ["zero", "frozen"])
def test_moment_hierarchy_matches_one_expm_per_step(closure, monkeypatch):
    spec, k, z, T = hg.Exponential(), 1.5, 0.3 + 0.2j, 12
    times = [0.0, 0.1, 0.25, 0.3, 1.0]
    real = st.expm
    seen = counting_expm(monkeypatch)
    # one gap of 1 passes the solver's own generator G
    st.solve_moment_hierarchy(spec, k, z, 1.0, 3, T, closure=closure,
                              sample_times=[0.0, 1.0])
    (G,) = seen
    table = st.solve_moment_hierarchy(spec, k, z, 1.0, 3, T, closure=closure,
                                      sample_times=times)
    state = np.array([z ** m for m in range(1, T + 1)] + [1.0])
    rows = [state]
    for gap in np.diff(times):
        state = real(gap * G) @ state
        rows.append(state)
    assert np.max(np.abs(table.values - np.array(rows)[:, :3])) <= 1e-13


# --------------------------------------------------------------------------
# radial system, growth bounds, circle diffusion
# --------------------------------------------------------------------------

def test_radial_solution_crosscheck():
    spec = hg.Automorphism(1.0, 0.0)
    k = 1.0
    path = st.sample_brownian(9, 1e-4, 10000)
    traj = st.evolve_phi_pathwise(spec, k, 0.3, path, path.time_grid())
    theta = np.angle(traj.values)
    r = st.radial_solution(1.0, 0.0, k, 0.3, path, theta)
    assert np.max(np.abs(r - np.abs(traj.values))) <= 1e-4


def test_radial_solution_boundary_and_validation():
    path = st.sample_brownian(1, 0.01, 100)
    theta = np.zeros(101)
    assert np.all(st.radial_solution(1.0, 0.0, 1.0, 1.0, path, theta) == 1.0)
    with pytest.raises(hg.DomainError):
        st.radial_solution(1.0, 0.0, 1.0, 1.5, path, theta)
    with pytest.raises(ValueError):
        st.radial_solution(1.0, 0.0, 1.0, 0.5, path, np.zeros(7))


def test_growth_bounds_closed_forms():
    assert st.growth_bounds("one", 0.0, 2.0) == (0.0, pytest.approx(2.0 / 3.0))
    assert st.growth_bounds("cayley", 0.5, 0.0) == (0.5, 0.5)
    lo, hi = st.growth_bounds("cayley-linear", 0.3, 1.0)
    decay = math.exp(-1.0)
    assert hi == pytest.approx(0.3 * decay + 1.0 - decay)
    assert lo == 0.0
    assert st.growth_bounds("cayley", 1.0, 3.0) == (1.0, 1.0)
    with pytest.raises(ValueError):
        st.growth_bounds("exponential", 0.5, 1.0)
    with pytest.raises(hg.DomainError):
        st.growth_bounds("cayley", 1.2, 1.0)


def test_growth_bounds_sharp_at_k0():
    specs = {"cayley": hg.Cayley(), "cayley-linear": hg.CayleyLinear(),
             "one": hg.Taylor([1.0])}
    for sid, spec in specs.items():
        cfg = dm.EvolutionConfig(k=0.0, t_end=0.7)
        traj = dm.evolve_phi(spec, cfg, 0.4, [0.7])
        upper = st.growth_bounds(sid, 0.4, 0.7)[1]
        assert abs(abs(traj.values[-1]) - upper) <= 1e-8, sid


def test_growth_bounds_envelope_mc():
    spec = hg.Cayley()
    checks = [0.25, 0.5]
    for j in range(50):
        path = st.sample_brownian(st.derive_path_seed(404, j), 1e-3, 500)
        traj = st.evolve_phi_pathwise(spec, 3.0, 0.4, path, checks)
        for t, val in zip(traj.times[1:], traj.values[1:]):
            lo, hi = st.growth_bounds("cayley", 0.4, t)
            assert lo - 1e-6 <= abs(val) <= hi + 1e-6


def test_boundary_diffusion_attractor():
    path = st.sample_brownian(1, 1e-3, 8000)
    for theta0 in (math.pi - 0.1, math.pi + 0.1):
        theta = st.simulate_boundary_diffusion(1.0, 0.0, 0.0, theta0, path)
        dist = min(theta[-1], 2.0 * math.pi - theta[-1])
        assert dist <= 1e-4
    # reported values stay reduced
    assert np.all((theta >= 0.0) & (theta < 2.0 * math.pi))


def test_boundary_diffusion_drift_at_equator():
    path = st.sample_brownian(2, 1e-6, 1)
    theta = st.simulate_boundary_diffusion(1.0, 0.0, 0.0, math.pi / 2, path)
    assert (theta[1] - theta[0]) / 1e-6 == pytest.approx(-2.0, abs=1e-9)


def test_boundary_diffusion_consistent_with_sde():
    spec = hg.Automorphism(1.0, 0.0)
    k = 1.0
    path = st.sample_brownian(21, 1e-4, 5000)
    z0 = (1.0 - 1e-9) * cmath.exp(2.0j)
    traj = st.evolve_psi_sde(spec, k, z0, path)
    theta = st.simulate_boundary_diffusion(1.0, 0.0, k, 2.0, path)
    args = np.mod(np.angle(traj.values), 2.0 * math.pi)
    diff = np.abs(args - theta)
    diff = np.minimum(diff, 2.0 * math.pi - diff)
    assert np.max(diff) <= 1e-2


@pytest.mark.filterwarnings("error")
def test_boundary_diffusion_non_finite_angle_is_a_disk_escape():
    # k dB overflows, and the angle turns infinite: a numerical failure,
    # not the ValueError of math.sin
    path = st.sample_brownian(0, 0.01, 100)
    with pytest.raises(st.DiskEscapeError) as info:
        st.simulate_boundary_diffusion(1.0, 0.5, 1.7e308, 0.5, path)
    assert 0.0 < info.value.t_reached <= 1.0


def test_boundary_diffusion_validates():
    path = st.sample_brownian(1, 0.01, 10)
    with pytest.raises(ValueError):
        st.simulate_boundary_diffusion(0.0, 0.0, 1.0, 0.5, path)
    with pytest.raises(ValueError):
        st.simulate_boundary_diffusion(-1.0, 0.0, 1.0, 0.5, path)


def test_annihilator_quadrature_value():
    got = st.generator_annihilator(1.0, 0.0, 1.0, 2.0 * math.pi, 0.0, 1.0)
    assert got == pytest.approx(71.01206995255343, rel=1e-10)
    # c2 = 0 collapses to the constant
    vals = st.generator_annihilator(1.0, 0.0, 1.0, np.array([0.5, 1.5]),
                                    3.0 + 1.0j, 0.0)
    assert np.all(vals == 3.0 + 1.0j)
    with pytest.raises(ValueError):
        st.generator_annihilator(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_annihilator_takes_the_limit_where_k_squared_underflows():
    # k^2 is 0 at |k| = 1e-300 and subnormal at 1e-160, where 4 / k^2 is
    # already inf: both give c1 where the exponent falls, and the
    # documented OverflowError where it rises
    def call(A, B, k, theta):
        try:
            return st.generator_annihilator(A, B, k, theta, 0.5, 1.0)
        except OverflowError as exc:
            return str(exc)

    thetas = (1.0, -1.0, 3.0, np.array([0.5, 1.0]),
              np.array([0.5, 1.0, 2.0, -0.3]))
    for A, B in ((1.0, 0.0), (1.0, 0.5)):
        for theta in thetas:
            want = call(A, B, 1e-160, theta)
            for k in (1e-300, -1e-300):
                assert repr(call(A, B, k, theta)) == repr(want), (A, B, k)
        assert call(A, B, 1e-300, 1.0) == 0.5
        assert "overflows" in call(A, B, 1e-300, 3.0)


def test_annihilator_quadrature_matches_adaptive_quadrature():
    integrate = pytest.importorskip("scipy.integrate")
    cases = ((1.0, 0.0, 1.0), (0.5, 0.3, 1.2), (1.0, 0.5, 1.0),
             (2.0, -1.0, 1.5), (0.3, 0.0, 0.7), (1.0, 2.0, 2.0),
             (0.1, 0.1, 0.5))
    for A, B, k in cases:
        amp = math.hypot(A, B)
        for theta in (0.3, 1.0, 2.5, math.pi, 2.0 * math.pi):
            want, _ = integrate.quad(
                lambda s: math.exp(4.0 * (s * B - amp * math.cos(s)) / k**2),
                0.0, theta, epsabs=1e-13, epsrel=1e-11, limit=500)
            got = st.generator_annihilator(A, B, k, theta, 0.0, 1.0)
            assert got == pytest.approx(want, rel=1e-12), (A, B, k, theta)


def test_annihilator_overflow_raises():
    # exp(1600 (-cos s)) passes the double range before s = 3
    with pytest.raises(OverflowError):
        st.generator_annihilator(1.0, 0.0, 0.05, 3.0, 0.0, 1.0)


def test_annihilator_at_tiny_k_returns_c1():
    # exp(-4 cos s / k^2) underflows on all of [0, 1.5]; at k = 1e-160,
    # 4 / k^2 is past the double range too
    for k in (1e-100, 1e-160):
        got = st.generator_annihilator(1.0, 0.0, k, 1.5, 0.25 - 1.0j, 1.0)
        assert got == 0.25 - 1.0j


def test_annihilator_at_small_k_sums_only_panels_near_the_top(
        monkeypatch):
    sizes = []
    exponent = st._exponent

    def counting(scale, B, amp, s):
        sizes.append(np.size(s))
        return exponent(scale, B, amp, s)

    monkeypatch.setattr(st, "_exponent", counting)
    assert st.generator_annihilator(1.0, 0.0, 1e-3, 1.5, 0.0, 1.0) == 0j
    got = st.generator_annihilator(1.0, 0.0, 1e-3, 1.5708, 0.0, 1.0)
    assert got == pytest.approx(0.601105688200584, rel=1e-12)
    # panels spread over all of [0, 1.5708] would take 3,141,600 of 20
    # nodes each; those within the double range of the top take 728
    assert sum(sizes) < 16_000


def test_annihilator_scalar_array_consistency():
    pts = np.array([0.4, 0.0, 1.1, 2.9])
    for c2 in (0.5j, 0.0):
        vals = st.generator_annihilator(0.5, 0.3, 1.2, pts, 1.0 - 2.0j, c2)
        for p, v in zip(pts, vals):
            scalar = st.generator_annihilator(0.5, 0.3, 1.2, float(p),
                                              1.0 - 2.0j, c2)
            assert type(scalar) is complex
            assert abs(scalar - v) <= 1e-9


def test_annihilator_killed_by_generator():
    # -2 (B + |p0| sin x) f' + k^2/2 f'' = 0 checked by second-order
    # stencils; c1 recenters each stencil so the cumulative quadrature
    # noise stays coherent
    h = 1e-4
    cases = ((1.0, 0.0, 1.0), (0.5, 0.3, 1.2))
    for A, B, k in cases:
        amp = math.hypot(A, B)
        worst = 0.0
        for theta0 in np.linspace(0.3, 2.0 * math.pi - 0.3, 15):
            c1 = -st.generator_annihilator(A, B, k, float(theta0), 0.0, 1.0)
            pts = np.array([theta0 - h, theta0, theta0 + h])
            vals = st.generator_annihilator(A, B, k, pts, c1, 1.0)
            fp = (vals[2] - vals[0]) / (2.0 * h)
            fpp = (vals[2] - 2.0 * vals[1] + vals[0]) / (h * h)
            resid = (-2.0 * (B + amp * math.sin(theta0)) * fp
                     + 0.5 * k * k * fpp)
            worst = max(worst, abs(resid))
        assert worst <= 1e-6, (A, B, k)


def test_stochastic_automorphism_preserves_boundary():
    spec = hg.Automorphism(1.0, 0.0)
    z0 = (1.0 - 1e-9) * cmath.exp(0.8j)
    for j in range(50):
        path = st.sample_brownian(st.derive_path_seed(99, j), 1e-3, 500)
        traj = st.evolve_phi_pathwise(spec, 1.0, z0, path, [0.5])
        assert abs(traj.values[-1]) >= 1.0 - 1e-6
