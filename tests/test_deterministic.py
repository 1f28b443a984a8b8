import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

import conftest
from loewnerkit import herglotz as hg
from loewnerkit import deterministic as det
from loewnerkit import stochastic as stoch


def cfg(k, t_end, dt=0.01):
    return det.EvolutionConfig(k=k, t_end=t_end, dt=dt)


SPECS = [
    hg.CayleyLinear(),
    hg.Cayley(),
    hg.ConstantImaginary(),
    hg.Automorphism(1.0, 0.5),
    hg.Exponential(),
    hg.Taylor([1.0, 0.5 + 0.25j]),
]


# ---------------------------------------------------------------- config

def test_config_validation():
    # the integrator's tolerances are module constants, not settings
    assert [f.name for f in dataclasses.fields(det.EvolutionConfig)] == [
        "k", "t_end", "dt"]
    cfg(1.0, 1.0)
    with pytest.raises(ValueError):
        cfg(1.0, -1.0)
    with pytest.raises(ValueError):
        cfg(1.0, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        cfg(1.0, 0.5, dt=0.6)


@pytest.mark.parametrize("field", ["k", "t_end", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    args = {"k": 1.0, "t_end": 1.0, "dt": 0.01}
    args[field] = value
    with pytest.raises(ValueError, match="%s must be finite" % field):
        det.EvolutionConfig(**args)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        det.Trajectory(times=[0.0, 1.0], values=[0.0, 2.0], frame="phi")
    with pytest.raises(ValueError):
        det.Trajectory(times=[0.0, 0.0], values=[0.0, 0.1], frame="phi")
    with pytest.raises(ValueError):
        det.Trajectory(times=[0.0], values=[0.0], frame="bogus")
    with pytest.raises(ValueError):
        det.Trajectory(times=[0.0, 1.0], values=[0.0, complex("nan")],
                       frame="phi")
    tr = det.Trajectory(times=[0.0, 1.0], values=[0.0, 0.5j], frame="psi")
    with pytest.raises(ValueError):
        tr.values[0] = 1.0


# ---------------------------------------------------------------- evolve

def test_evolve_phi_solvable_case():
    c = cfg(1.0, 1.0)
    tr = det.evolve_phi(hg.CayleyLinear(), c, 0.0, [1.0])
    want = (cmath.exp(1j) - math.exp(-1.0)) / (1.0 + 1j)
    assert abs(tr.values[-1] - want) < 1e-8
    assert tr.frame == "phi"
    assert tr.values[0] == 0.0


def test_evolve_phi_initial_condition():
    for spec in SPECS:
        tr = det.evolve_phi(spec, cfg(0.7, 1.0), 0.3 + 0.1j, [0.0])
        assert tr.values[0] == 0.3 + 0.1j


def test_evolve_phi_rejects_sample_time_past_end():
    with pytest.raises(ValueError, match=r"must lie in \[0, t_end\]"):
        det.evolve_phi(hg.Cayley(), cfg(0.7, 1.0), 0.3, [2.0])


def test_evolve_phi_closed_orbit_returns():
    # elliptic automorphism flow at k=2.5 closes after t = 4*pi
    t_end = 4.0 * math.pi
    tr = det.evolve_phi(hg.Cayley(), cfg(2.5, t_end, dt=0.05), 0.0, [t_end])
    assert abs(tr.values[-1] - 0.0) < 1e-6


def test_evolve_psi_solvable_case():
    tr = det.evolve_psi(hg.CayleyLinear(), cfg(1.0, 1.0), 0.0, [1.0])
    want = (1.0 - cmath.exp(-(1.0 + 1j))) / (1.0 + 1j)
    assert abs(tr.values[-1] - want) < 1e-8


def test_evolve_matches_closed_form_along_path():
    ts = [0.25, 0.5, 0.75, 1.0]
    z0 = 0.2 - 0.3j
    k = 1.7
    tr_phi = det.evolve_phi(hg.CayleyLinear(), cfg(k, 1.0), z0, ts)
    tr_psi = det.evolve_psi(hg.CayleyLinear(), cfg(k, 1.0), z0, ts)
    for t, vphi, vpsi in zip(tr_phi.times, tr_phi.values, tr_psi.values):
        if t == 0.0:
            continue
        ref = det.example1_reference(z0, t, k)
        assert abs(vphi - ref.phi) < 1e-8
        assert abs(vpsi - ref.psi) < 1e-8


def test_frame_consistency_all_specs():
    ts = [0.25, 0.5, 1.0]
    z0 = 0.3 + 0.1j
    for spec in SPECS:
        for k in (0.0, 0.5, -0.5, 2.5, -2.5):
            tr_phi = det.evolve_phi(spec, cfg(k, 1.0), z0, ts)
            tr_psi = det.evolve_psi(spec, cfg(k, 1.0), z0, ts)
            for t, vphi, vpsi in zip(tr_phi.times, tr_phi.values,
                                     tr_psi.values):
                assert abs(vphi * cmath.exp(-1j * k * t) - vpsi) < 1e-7


def test_containment_everywhere():
    ts = list(np.linspace(0.0, 2.0, 41))
    for spec in SPECS:
        tr = det.evolve_phi(spec, cfg(1.0, 2.0), 0.95, ts)
        assert np.max(np.abs(tr.values)) <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(spec=hs.sampled_from(SPECS), k=hs.floats(-10.0, 10.0),
       radius=hs.floats(0.0, 1.0) | hs.just(1.0),
       angle=hs.floats(0.0, 2.0 * math.pi), t_end=hs.floats(0.05, 2.0))
def test_evolve_phi_stays_in_closed_disk(spec, k, radius, angle, t_end):
    z0 = radius * cmath.exp(1j * angle)
    assume(abs(z0) <= 1.0)
    ts = np.linspace(0.0, t_end, 9)
    tr = det.evolve_phi(spec, det.EvolutionConfig(k=k, t_end=t_end,
                                                  dt=min(0.01, t_end)),
                        z0, ts)
    assert np.all(np.abs(tr.values) <= 1.0 + det.CONTAINMENT_TOL)


@settings(max_examples=60, deadline=None)
@given(A=hs.floats(0.1, 2.0), B=hs.floats(-2.0, 2.0),
       kind=hs.sampled_from(["Elliptic", "Hyperbolic"]),
       u=hs.floats(0.05, 0.95),
       radius=hs.floats(0.0, 0.95), angle=hs.floats(0.0, 2.0 * math.pi),
       t=hs.floats(0.05, 3.0))
def test_automorphism_flow_is_the_moebius_map_of_exp_tH(A, B, kind, u, radius,
                                                        angle, t):
    # D = 4A^2 - 4Bk - k^2 is -(k - k1)(k - k2): the flow is hyperbolic
    # for k between the roots k1,2 = -2B -+ 2|A + iB|, elliptic outside
    root = 2.0 * math.hypot(A, B)
    if kind == "Hyperbolic":
        k = -2.0 * B - root + 2.0 * root * u
    else:
        k = -2.0 * B + root + 5.0 * u
    result = det.classify_semigroup(A, B, k)
    assert result.kind == kind
    g2, g1, g0 = hg.Automorphism(A, B)._quadratic()
    # the psi-frame field g2 w^2 + (g1 - ik) w + g0 is the Riccati flow of
    # X' = H X; its eigenvalue gap squared is the discriminant
    H = ((0.5 * (g1 - 1j * k), g0), (-g2, -0.5 * (g1 - 1j * k)))
    gap2 = 4.0 * (H[0][0] ** 2 + H[0][1] * H[1][0])
    assert abs(gap2 - result.discriminant) \
        <= 1e-12 * (1.0 + k * k + A * A + B * B)
    z = radius * cmath.exp(1j * angle)
    psi = conftest.moebius_exp(H, t, z)
    spec = hg.Automorphism(A, B)
    got_psi = det.evolve_psi(spec, cfg(k, t, dt=min(0.01, t)), z, [t])
    got_phi = det.evolve_phi(spec, cfg(k, t, dt=min(0.01, t)), z, [t])
    # exact cells of width 0.01 against one exponential
    assert abs(got_psi.values[-1] - psi) <= 1e-8
    assert abs(got_phi.values[-1] - cmath.exp(1j * k * t) * psi) <= 1e-8


def test_semigroup_property_autonomous():
    # at k=0 the psi flow is a semigroup: psi_{s+t} = psi_t o psi_s
    spec = hg.Exponential()
    z0 = 0.4 - 0.2j
    for s in (0.3, 0.7):
        for t in (0.3, 0.7):
            one = det.evolve_psi(spec, cfg(0.0, s + t), z0, [s + t]).values[-1]
            mid = det.evolve_psi(spec, cfg(0.0, s), z0, [s]).values[-1]
            two = det.evolve_psi(spec, cfg(0.0, t), mid, [t]).values[-1]
            assert abs(one - two) < 1e-7


def test_evolve_reports_stats():
    tr = det.evolve_phi(hg.Cayley(), cfg(1.0, 1.0), 0.0, [1.0])
    assert tr.stats["steps"] > 0
    assert tr.stats["rejections"] >= 0


@pytest.mark.parametrize("spec, method", [
    (hg.CayleyLinear(), "mobius-exact"), (hg.Cayley(), "mobius-exact"),
    (hg.ConstantImaginary(), "mobius-exact"),
    (hg.Automorphism(1.0, 0.5), "mobius-exact"),
    (hg.Taylor([0.5 + 2j]), "mobius-exact"),
    (hg.Exponential(), "dop853"), (hg.Taylor([1.0, 0.5 + 0.25j]), "dop853"),
])
def test_evolve_method_follows_the_spec(spec, method):
    # gaps 0.25 and 0.75 at dt 0.1: 3 + 8 equal cells
    for evolve in (det.evolve_phi, det.evolve_psi):
        tr = evolve(spec, cfg(1.0, 1.0, dt=0.1), 0.3, [0.25, 1.0])
        assert tr.stats["method"] == method
        if method == "mobius-exact":
            assert tr.stats == {"steps": 11, "rejections": 0,
                                "method": method}


@settings(max_examples=200, deadline=None)
@given(times=hs.lists(hs.floats(0.0, 5.0), min_size=1, max_size=8),
       dt=hs.floats(1e-3, 1.0))
def test_cell_knots_hold_the_sample_times(times, dt):
    ts = det._normalize_sample_times(times, 5.0)
    knots, at = det._cell_knots(ts, dt)
    assert np.array_equal(knots[at], ts)
    widths = np.diff(knots)
    # a width is a difference of knots, rounded at the knots' magnitude
    slack = 4.0 * np.finfo(float).eps * max(1.0, ts[-1])
    assert np.all(widths > 0.0)
    assert np.all(widths <= dt * (1.0 + 1e-9) + slack)
    # each gap is cut into equal cells
    for i in range(len(ts) - 1):
        assert np.ptp(widths[at[i]:at[i + 1]]) <= slack


def quadratic_specs():
    return hs.one_of(
        hs.sampled_from([hg.CayleyLinear(), hg.Cayley(),
                         hg.ConstantImaginary()]),
        hs.builds(hg.Automorphism, hs.floats(0.0, 2.0), hs.floats(-2.0, 2.0)),
        hs.builds(lambda re, im: hg.Taylor([complex(re, im)]),
                  hs.floats(0.0, 2.0), hs.floats(-2.0, 2.0)))


@settings(max_examples=60, deadline=None)
@given(spec=quadratic_specs(), k=hs.floats(-5.0, 5.0),
       radius=hs.floats(0.0, 0.99), angle=hs.floats(0.0, 2.0 * math.pi),
       t_end=hs.floats(0.05, 2.0), dt=hs.floats(0.005, 0.1),
       u=hs.floats(0.0, 1.0))
def test_exact_cells_agree_with_dormand_prince(spec, k, radius, angle,
                                               t_end, dt, u):
    # the quadratic specs no longer reach the integrator through evolve_*
    # and boundary_image; it still solves their fields as any other
    z0 = radius * cmath.exp(1j * angle)
    config = cfg(k, t_end, dt=min(dt, t_end))
    ts = det._normalize_sample_times([u * t_end, t_end], t_end)
    fields = conftest.dp_fields(spec, k)
    for frame, evolve in (("phi", det.evolve_phi), ("psi", det.evolve_psi)):
        tr = evolve(spec, config, z0, ts)
        assert tr.stats["method"] == "mobius-exact"
        want, _ = det._integrate(fields[frame], z0, ts, config)
        assert np.max(np.abs(tr.values - np.array(want))) <= 1e-8, frame
        assert np.max(np.abs(tr.values)) <= 1.0, frame
    points = np.array(det.boundary_image(spec, k, t_end, 16))
    z = (1.0 - 1e-6) * np.exp(2j * math.pi * np.arange(16) / 16)
    want, _ = det._integrate(fields["phi"], z, [0.0, t_end],
                             cfg(k, t_end, dt=min(0.05, t_end)))
    assert np.max(np.abs(points - want[-1])) <= 1e-8
    assert np.max(np.abs(points)) <= 1.0


@pytest.mark.parametrize("spec, k", [
    (hg.Taylor([1e308]), 1.0), (hg.Cayley(), 1e200),
    (hg.Automorphism(1e200, 0.0), 1.0),
])
def test_exact_cells_that_overflow_are_a_numerical_failure(spec, k):
    # the cells turn NaN: an Error with the time reached, never the
    # ValueError of a Trajectory outside the disk
    for evolve in (det.evolve_phi, det.evolve_psi):
        with pytest.raises(det.DiskEscapeError) as info:
            evolve(spec, cfg(k, 1.0), 0.0, [1.0])
        assert info.value.t_reached == 1.0
        assert not isinstance(info.value, ValueError)
    with pytest.raises(det.DiskEscapeError):
        det.boundary_image(spec, k, 1.0, 16)


# ---------------------------------------------------------------- closed forms

def test_example1_reference_values():
    ref = det.example1_reference(0.0, 1.0, 0.0)
    assert abs(ref.phi - (1.0 - math.exp(-1.0))) < 1e-15
    assert abs(ref.dw - 1.0) < 1e-15
    ref = det.example1_reference(0.0, 1.0, 1.0)
    want = (-1.0 + cmath.exp(1.0 + 1j)) / ((1.0 + 1j) * (math.e - 1.0))
    assert abs(ref.dw - want) < 1e-15


def test_example1_dw_is_fixed_point():
    # phi_t(dw) = dw on a (t, k) grid
    for t in (0.5, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            ref = det.example1_reference(0.0, t, k)
            phi_at_dw = det.example1_reference(ref.dw, t, k).phi
            assert abs(phi_at_dw - ref.dw) < 1e-10


def test_example1_dw_requires_positive_time():
    with pytest.raises(hg.DomainError):
        det.example1_reference(0.0, 0.0, 1.0)


def test_example1_dw_away_from_tau():
    # the moving fixed point is not glued to the driving point
    ref = det.example1_reference(0.0, 1.0, 1.0)
    assert abs(ref.dw - cmath.exp(1j)) > 0.01


# ---------------------------------------------------------------- classification

def test_classification_table():
    want = {0.0: "Hyperbolic", 1.0: "Hyperbolic", 1.99: "Hyperbolic",
            2.0: "Parabolic", 2.01: "Elliptic", 3.0: "Elliptic"}
    for k, kind in want.items():
        res = det.classify_semigroup(1.0, 0.0, k)
        assert res.kind == kind, k
        if kind == "Elliptic":
            assert res.discriminant < 0.0
            assert abs(res.fixed_point) < 1.0


def test_classification_discriminant_values():
    assert det.classify_semigroup(1.0, 0.0, 1.0).discriminant == 3.0
    assert det.classify_semigroup(1.0, 0.0, 2.0).discriminant == 0.0
    assert det.classify_semigroup(1.0, 0.0, 2.5).discriminant == -2.25


def test_classification_parabolic_boundary():
    # k = 2(-B +- sqrt(A^2+B^2)) sits on the parabolic band
    for A, B in [(1.0, 0.0), (0.5, 1.0), (2.0, -0.7)]:
        r = math.sqrt(A * A + B * B)
        for k in (2.0 * (-B + r), 2.0 * (-B - r)):
            if k == 0.0:
                continue
            assert det.classify_semigroup(A, B, k).kind == "Parabolic"


@pytest.mark.parametrize("k", [1e155, 1e160, 1.7e308, -1e155, -1e160,
                               -1.7e308])
def test_classification_at_huge_k_is_elliptic(k):
    # D is about -k^2, which overflows: the class is decided on A, B and
    # k scaled by their largest magnitude
    res = det.classify_semigroup(1.0, 0.5, k)
    assert res.kind == "Elliptic"
    assert abs(res.fixed_point) < 1.0


def test_classification_rejects_bad_args():
    with pytest.raises(ValueError):
        det.classify_semigroup(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        det.classify_semigroup(0.0, 0.0, 1.0)


def test_elliptic_fixed_point_is_generator_zero():
    res = det.classify_semigroup(1.0, 0.0, 2.5)
    w = res.fixed_point
    val = hg.automorphism_generator(1.0, 0.0, 2.5, w)
    assert abs(val) < 1e-12


# ---------------------------------------------------------------- closed orbits

def test_closed_orbit_cayley():
    closed, ratio, period = det.is_closed_trajectory(1.0, 0.0, 2.5, 100)
    assert closed
    assert abs(ratio - 5.0 / 3.0) < 1e-12
    assert abs(period - 4.0 * math.pi) < 1e-12


def test_closed_orbit_const_i():
    closed, ratio, period = det.is_closed_trajectory(0.0, 1.0, 0.5, 100)
    assert closed
    assert abs(ratio - 1.0 / 3.0) < 1e-12
    assert abs(period - 4.0 * math.pi) < 1e-12


def test_open_orbit_irrational_ratio():
    closed, ratio, period = det.is_closed_trajectory(1.0, 0.0, 3.0, 100)
    assert not closed
    assert abs(ratio - 3.0 / math.sqrt(5.0)) < 1e-12
    assert period is None


def test_closed_orbit_requires_elliptic():
    with pytest.raises(ValueError):
        det.is_closed_trajectory(1.0, 0.0, 1.0, 100)
    with pytest.raises(ValueError):
        det.is_closed_trajectory(1.0, 0.0, 0.0, 100)


def test_closed_orbit_return_by_simulation():
    for z0 in (0.0, 0.4j):
        closed, _, period = det.is_closed_trajectory(1.0, 0.0, 2.5, 100)
        assert closed
        tr = det.evolve_psi(hg.Automorphism(1.0, 0.0), cfg(2.5, period, dt=0.05),
                            z0, [period])
        assert abs(tr.values[-1] - z0) < 1e-5


# ---------------------------------------------------------------- Koebe

def test_koebe_fixes_origin():
    assert det.koebe_map(1.0, 0.0) == 0.0


def test_koebe_boundary_ray():
    # K_k maps the unit circle onto the imaginary ray {-iks : s >= 1/4}
    for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 25):
        w = det.koebe_map(1.0, cmath.exp(1j * theta))
        assert abs(w.real) < 1e-12
        assert w.imag <= -0.25 + 1e-12


def test_koebe_round_trip():
    z = 0.3 - 0.4j
    assert abs(det.koebe_inverse(2.0, det.koebe_map(2.0, z)) - z) < 1e-12
    for z in (0.1, -0.5j, 0.7 + 0.2j):
        for k in (1.0, -3.0):
            assert abs(det.koebe_inverse(k, det.koebe_map(k, z)) - z) < 1e-12


def test_koebe_degeneracies():
    with pytest.raises(hg.SingularPointError):
        det.koebe_map(1.0, 1.0)
    with pytest.raises(ValueError):
        det.koebe_inverse(0.0, 0.5)


# ---------------------------------------------------------------- fixed points

def test_find_fixed_point_solvable_case():
    z0 = det.find_fixed_point(hg.CayleyLinear(), 1.0)
    assert z0 is not None
    assert abs(z0 - (0.5 - 0.5j)) < 1e-9


def test_find_fixed_point_absent_when_hyperbolic():
    assert det.find_fixed_point(hg.Automorphism(1.0, 0.0), 1.0) is None


def test_find_fixed_point_const_i():
    # generator zero solves z^2 - (2+k)z + 1 = 0; inner root at k=3
    z0 = det.find_fixed_point(hg.ConstantImaginary(), 3.0)
    assert z0 is not None
    assert abs(z0 - 0.20871215252208009) < 1e-9
    assert z0.imag <= 1e-9


def test_fixed_point_residual_and_interior():
    for spec in [hg.CayleyLinear(), hg.ConstantImaginary(), hg.Exponential()]:
        z0 = det.find_fixed_point(spec, 4.0)
        assert z0 is not None
        assert abs(z0) < 1.0
        assert abs(spec._bp_field(z0) - 4j * z0) <= 1e-11


def _random_taylor_spec(rng):
    # a0 = 1 plus a small tail keeps Re p >= 0.1 on the disk
    n = int(rng.integers(1, 5))
    tail = 0.9 * rng.dirichlet(np.ones(n))
    coeffs = [1.0 + 0.0j]
    for w in tail:
        coeffs.append(w * cmath.exp(2j * math.pi * rng.random()))
    return hg.Taylor(coeffs)


def test_fixed_point_half_plane():
    # for k > 0 the interior zero sits in the closed lower half plane,
    # mirrored for k < 0
    rng = np.random.default_rng(42)
    for _ in range(100):
        spec = _random_taylor_spec(rng)
        for k in (3.0, 5.0, -3.0, -5.0):
            z0 = det.find_fixed_point(spec, k)
            assert z0 is not None, spec.text_form()
            if k > 0:
                assert z0.imag <= 1e-9
            else:
                assert z0.imag >= -1e-9


@settings(max_examples=100, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1),
       k=hs.floats(-20.0, -0.1) | hs.floats(0.1, 20.0))
def test_interior_zero_searches_keep_their_margins(seed, k):
    spec = _random_taylor_spec(np.random.default_rng(seed))
    z0 = det.find_fixed_point(spec, k)
    if z0 is not None:
        assert abs(z0) < 1.0 - 1e-6
        assert abs(spec._bp_field(z0) - 1j * k * z0) <= 1e-11
    z1 = stoch.find_stochastic_zero(spec, k)
    assert abs(z1) < 1.0 - 1e-9
    assert abs(-0.5 * k * k * z1 + spec._bp_field(z1)) <= 1e-11


def test_fixed_point_approaches_origin_for_large_k():
    for spec in SPECS:
        k = 1.0
        found = False
        while k <= 64.0:
            z0 = det.find_fixed_point(spec, k)
            if z0 is not None and abs(z0) <= 0.25:
                found = True
                break
            k *= 2.0
        assert found, spec.text_form()


# ---------------------------------------------------------------- boundary fixed points

def test_boundary_fixed_points_residual():
    for k in (-5.0, -1.0, 1.0, 5.0):
        roots = det.boundary_fixed_points(k)
        assert roots, k
        for theta in roots:
            resid = math.tan(theta / 2.0) - k / (2.0 * (math.cos(theta) - 1.0))
            assert abs(resid) <= 1e-10
            assert 0.0 < theta < 2.0 * math.pi


def test_boundary_fixed_points_known_roots():
    # frozen bisection oracle values
    (r1,) = det.boundary_fixed_points(1.0)
    assert abs(r1 - 5.028214903247612) < 1e-9
    (r2,) = det.boundary_fixed_points(-1.0)
    assert abs(r2 - 1.2549704039319751) < 1e-9


def test_boundary_fixed_points_limits():
    # the root slides to 2*pi as k -> 0+ and to pi as k -> inf
    (small,) = det.boundary_fixed_points(1e-4)
    assert abs(small - 2.0 * math.pi) < 0.06
    (big,) = det.boundary_fixed_points(1000.0)
    assert abs(big - math.pi) < 0.01


# k log-uniform in +-[1e-6, 1e6]
_K_LOG_UNIFORM = hs.builds(lambda sign, e: sign * 10.0 ** e,
                           hs.sampled_from([-1.0, 1.0]), hs.floats(-6.0, 6.0))


@settings(max_examples=300, deadline=None)
@given(k=_K_LOG_UNIFORM)
# a grid search found no root at these k
@example(k=3000.0)
@example(k=5000.0)
@example(k=5e-7)
def test_boundary_fixed_points_one_root_property(k):
    # with v = cot(theta/2) the fixed-point equation is v^3 + v + 4/k = 0
    (theta,) = det.boundary_fixed_points(k)
    assert 0.0 < theta < 2.0 * math.pi
    v = 1.0 / math.tan(theta / 2.0)
    scale = abs(v) ** 3 + abs(v) + abs(4.0 / k)
    assert abs(v ** 3 + v + 4.0 / k) <= 1e-9 * scale


# ---------------------------------------------------------------- implicit solution

def test_implicit_solution_identity_at_zero():
    assert det.implicit_solution_residual(1.0, 0.0, 2.5, 0.3j, 0.0, 0.3j) < 1e-12


def test_implicit_solution_matches_integrator():
    tr = det.evolve_psi(hg.Automorphism(1.0, 0.0), cfg(2.5, 1.0), 0.0, [1.0])
    resid = det.implicit_solution_residual(1.0, 0.0, 2.5, 0.0, 1.0,
                                           tr.values[-1])
    assert resid <= 1e-6


def test_implicit_solution_rotating_frame_period():
    D = -2.25
    t = 2.0 * math.pi / math.sqrt(-D)
    for z in (0.0, 0.2 - 0.1j):
        assert det.implicit_solution_residual(1.0, 0.0, 2.5, z, t, z) <= 1e-9


def test_implicit_solution_requires_elliptic():
    with pytest.raises(ValueError):
        det.implicit_solution_residual(1.0, 0.0, 1.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------- boundary image

def test_boundary_image_identity_at_zero_time():
    pts = det.boundary_image(hg.Exponential(), 1.0, 0.0, 32)
    assert len(pts) == 32
    for j, p in enumerate(pts):
        want = (1.0 - 1e-6) * cmath.exp(2j * math.pi * j / 32.0)
        assert abs(p - want) < 1e-15


def _polyline_self_intersects(pts):
    # brute-force segment sweep over the closed polyline
    n = len(pts)
    segs = [(pts[i], pts[(i + 1) % n]) for i in range(n)]

    def orient(a, b, c):
        v = (b.real - a.real) * (c.imag - a.imag) \
            - (b.imag - a.imag) * (c.real - a.real)
        return (v > 0) - (v < 0)

    for i in range(n):
        a, b = segs[i]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            c, d = segs[j]
            if (orient(a, b, c) != orient(a, b, d)
                    and orient(c, d, a) != orient(c, d, b)):
                return True
    return False


def test_boundary_image_simple_closed_curve():
    pts = det.boundary_image(hg.Exponential(), 1.0, math.pi / 4.0, 256)
    assert max(abs(p) for p in pts) < 1.0
    assert not _polyline_self_intersects(pts)


def test_boundary_image_automorphism_preserves_circle():
    pts = det.boundary_image(hg.Automorphism(1.0, 0.0), 0.0, 1.0, 64)
    for p in pts:
        assert abs(abs(p) - 1.0) < 2e-5


def test_boundary_image_failure_keeps_time_reached():
    class Outward(hg.HerglotzSpec):
        # constant field: the phi-frame velocity tau(t) carries the
        # near-boundary points out of the disk; not a quadratic spec, so
        # the adaptive integrator runs
        def _bp_field(self, w):
            return 1.0 + 0.0 * w

    with pytest.raises(det.StiffnessError) as info:
        det.boundary_image(Outward(), 1.0, 0.5, 16)
    assert info.value.t_reached is not None


def test_boundary_image_rejects_few_points():
    with pytest.raises(ValueError):
        det.boundary_image(hg.Exponential(), 1.0, 0.5, 8)


# the panel times of the CLI's fig1
FIG1_TIMES = [math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0]


@pytest.mark.parametrize("n_points", [16, 257])
@pytest.mark.parametrize("text", ["exponential", "taylor:1,0.5", "cayley"])
def test_boundary_images_agree_with_separate_solves(text, n_points):
    # one solve with the panels as sample times against one solve per
    # panel: the first panel takes the same steps, the later ones move
    # only as far as the step sequence does
    spec = hg.parse_spec(text)
    images, stats = det._boundary_images(spec, 1.0, FIG1_TIMES, n_points)
    alone = [det.boundary_image(spec, 1.0, t, n_points) for t in FIG1_TIMES]
    assert np.array_equal(images[0], alone[0])
    for got, want in zip(images[1:], alone[1:]):
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-9
    assert stats["method"] == ("mobius-exact" if spec._quadratic()
                               else "dop853")


def test_boundary_images_follow_the_order_of_the_times():
    spec = hg.Exponential()
    ts = [math.pi / 2.0, 0.0, math.pi / 4.0, math.pi / 2.0]
    images, _ = det._boundary_images(spec, 1.0, ts, 16)
    ordered, _ = det._boundary_images(spec, 1.0, sorted(set(ts)), 16)
    assert images == [ordered[2], ordered[0], ordered[1], ordered[2]]


@pytest.mark.parametrize("text", ["exponential", "cayley"])
def test_boundary_images_at_zero_time_solve_nothing(text):
    images, stats = det._boundary_images(hg.parse_spec(text), 1.0, [0.0], 32)
    assert images == [det.boundary_image(hg.parse_spec(text), 1.0, 0.0, 32)]
    assert stats["steps"] == stats["rejections"] == 0


# ---------------------------------------------------------------- serialization

def test_trajectory_csv_round_trip():
    tr = det.evolve_phi(hg.Cayley(), cfg(1.0, 1.0), 0.2j, [0.5, 1.0])
    text = tr.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,re,im,frame"
    assert len(lines) == 1 + len(tr.times)
    t, re, im, frame = lines[-1].split(",")
    assert frame == "phi"
    assert abs(float(t) - 1.0) < 1e-15
    assert abs(complex(float(re), float(im)) - tr.values[-1]) < 1e-15


def test_stiffness_error_reports_time():
    # an inadmissible polynomial field blowing up outside the disk:
    # force it by integrating with an initial point on the boundary and
    # a spec whose field pushes outward there
    class Outward(hg.HerglotzSpec):
        variant = "outward"

        def _value(self, z):
            return 1.0 + 0.0 * z

        def _bp_field(self, w):
            # not a Herglotz field: points radially out of the disk
            return w * 10.0

        def text_form(self):
            return "outward"

    with pytest.raises(det.StiffnessError) as info:
        det.evolve_phi(Outward(), cfg(0.0, 1.0), 0.999, [1.0])
    assert info.value.t_reached is not None
