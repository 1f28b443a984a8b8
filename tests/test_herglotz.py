import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from loewnerkit import herglotz as hg


ALL_SPECS = [
    hg.CayleyLinear(),
    hg.Cayley(),
    hg.ConstantImaginary(),
    hg.Automorphism(1.0, 0.5),
    hg.Automorphism(0.0, 1.0),
    hg.Exponential(),
    hg.Taylor([1.0, 0.5 + 0.25j]),
]


def test_eval_simple_values():
    assert hg.eval(hg.Cayley(), 0.0) == 1.0
    assert hg.eval(hg.ConstantImaginary(), 0.5) == 1j
    assert hg.eval(hg.CayleyLinear(), 0.5) == 2.0


def test_eval_exponential_quarter_pi():
    # exp(pi/4), checked against mpmath to 36 digits
    want = 2.1932800507380154566
    got = hg.eval(hg.Exponential(), 0.5)
    assert got.imag == 0.0
    assert abs(got.real - want) < 1e-14


def test_eval_rejects_outside_disk():
    for spec in ALL_SPECS:
        with pytest.raises(hg.DomainError):
            hg.eval(spec, 1.5)
        with pytest.raises(hg.DomainError):
            hg.eval(spec, 1.0)


def test_eval_rejects_near_pole():
    for spec in [hg.Cayley(), hg.CayleyLinear(), hg.Automorphism(2.0, 0.0)]:
        with pytest.raises(hg.SingularPointError):
            hg.eval(spec, 1.0 - 1e-13)
    # entire specs are fine arbitrarily close to 1
    assert hg.eval(hg.Exponential(), 1.0 - 1e-13) != 0.0
    assert hg.eval(hg.Automorphism(0.0, 1.0), 1.0 - 1e-13) == 1j


def test_real_part_nonnegative_on_grid():
    rng = np.random.default_rng(7)
    pts = 0.97 * np.sqrt(rng.random(500)) * np.exp(2j * math.pi * rng.random(500))
    for spec in ALL_SPECS:
        vals = np.asarray(spec._value(pts))
        assert vals.real.min() >= -1e-12, spec.text_form()


def test_taylor_cayley():
    assert hg.taylor_coefficients(hg.Cayley(), 3) == [1, 2, 2, 2]
    assert hg.taylor_coefficients(hg.CayleyLinear(), 4) == [1, 1, 1, 1, 1]


def test_taylor_exponential():
    coeffs = hg.taylor_coefficients(hg.Exponential(), 6)
    for m, c in enumerate(coeffs):
        assert c.imag == 0.0
        assert abs(c.real - (math.pi / 2.0) ** m / math.factorial(m)) < 1e-15


def test_taylor_automorphism_and_const():
    assert hg.taylor_coefficients(hg.Automorphism(1.5, -0.5), 3) == \
        [1.5 - 0.5j, 3.0, 3.0, 3.0]
    assert hg.taylor_coefficients(hg.ConstantImaginary(), 2) == [1j, 0, 0]


def test_taylor_spec_pads_and_truncates():
    spec = hg.Taylor([1.0, 0.5])
    assert hg.taylor_coefficients(spec, 4) == [1.0, 0.5, 0.0, 0.0, 0.0]
    assert hg.taylor_coefficients(spec, 0) == [1.0]


def test_taylor_matches_series_numerically():
    # partial sums of the exact coefficients must converge to _value
    z = 0.3 - 0.2j
    for spec in ALL_SPECS:
        coeffs = hg.taylor_coefficients(spec, 60)
        acc = 0.0 + 0.0j
        for c in reversed(coeffs):
            acc = acc * z + c
        assert abs(acc - hg.eval(spec, z)) < 1e-12, spec.text_form()


def test_bp_field_matches_definition():
    # the cancelled forms must agree with (w-1)^2 p(w) away from the pole
    pts = [0.3 + 0.4j, -0.7j, 0.0, 0.9, -0.95 + 0.01j]
    for spec in ALL_SPECS:
        for w in pts:
            direct = (w - 1.0) ** 2 * spec._value(w)
            assert abs(spec._bp_field(w) - direct) < 1e-13


def test_bp_field_finite_at_one():
    # cancelled forms evaluate cleanly at the former pole
    assert hg.CayleyLinear()._bp_field(1.0) == 0.0
    assert hg.Cayley()._bp_field(1.0) == 0.0
    assert hg.Automorphism(1.0, 0.5)._bp_field(1.0) == 0.0
    assert hg.ConstantImaginary()._bp_field(1.0) == 0.0


# subnormal parameters lose the relative precision the bound assumes
_PARAMETER = hs.floats(-10.0, 10.0, allow_subnormal=False)
_QUADRATIC_SPECS = hs.one_of(
    hs.sampled_from([hg.CayleyLinear(), hg.Cayley(), hg.ConstantImaginary()]),
    hs.builds(hg.Automorphism, _PARAMETER.map(abs), _PARAMETER),
    hs.builds(lambda re, im: hg.Taylor([complex(re, im)]),
              _PARAMETER.map(abs), _PARAMETER))


@settings(max_examples=300, deadline=None)
@given(spec=_QUADRATIC_SPECS, radius=hs.floats(0.0, 1.0),
       angle=hs.floats(0.0, 2.0 * math.pi))
def test_quadratic_coefficients_reproduce_the_field(spec, radius, angle):
    g2, g1, g0 = spec._quadratic()
    w = radius * complex(math.cos(angle), math.sin(angle))
    scale = abs(g2) + abs(g1) + abs(g0)
    assert abs((g2 * w + g1) * w + g0 - spec._bp_field(w)) <= 1e-14 * scale


def test_other_fields_are_not_quadratic():
    for spec in (hg.Exponential(), hg.Taylor([1.0, 0.5 + 0.25j]),
                 hg.Taylor([1.0, 0.0, 0.1j])):
        assert spec._quadratic() is None
    # trailing zero coefficients leave a constant p
    assert hg.Taylor([2.0, 0.0])._quadratic() == (2.0, -4.0, 2.0)


def test_automorphism_parameters_of_the_catalogue():
    for spec, params in ((hg.Cayley(), (1.0, 0.0)),
                         (hg.ConstantImaginary(), (0.0, 1.0)),
                         (hg.Taylor([0.5j]), (0.0, 0.5)),
                         (hg.CayleyLinear(), None), (hg.Exponential(), None),
                         (hg.Taylor([1.0]), None),
                         (hg.Taylor([1.0, 0.5]), None)):
        assert hg._automorphism_parameters(spec) == params, spec


@settings(max_examples=200, deadline=None)
@given(A=_PARAMETER.map(abs), B=_PARAMETER)
def test_automorphism_parameters_round_trip(A, B):
    assert hg._automorphism_parameters(hg.Automorphism(A, B)) == (A, B)


def test_automorphism_generator_value():
    # polynomial route and field route agree; value checked offline
    got = hg.automorphism_generator(0.0, 1.0, 0.5, 1j)
    assert abs(got - 2.5) < 1e-15
    spec = hg.Automorphism(1.0, 0.5)
    for z in [0.2 + 0.1j, -0.5j, 0.0]:
        via_field = spec._bp_field(z) - 1j * 2.0 * z
        assert abs(hg.automorphism_generator(1.0, 0.5, 2.0, z) - via_field) < 1e-14


def test_automorphism_rejects_negative_A():
    with pytest.raises(ValueError):
        hg.Automorphism(-0.5, 0.0)
    with pytest.raises(ValueError):
        hg.automorphism_generator(-1.0, 0.0, 1.0, 0.0)


def test_berkson_porta_factor():
    # solvable reference case: k=1, tau0 = (1-i)/2, factor at 0 is 1+i
    got = hg.berkson_porta_p0(hg.CayleyLinear(), 1.0, 0.5 - 0.5j, 0.0)
    assert abs(got - (1.0 + 1.0j)) < 1e-14


def test_berkson_porta_factor_is_herglotz_on_grid():
    # the factored quotient should itself have nonnegative real part
    tau0 = 0.5 - 0.5j
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        z = complex(z)
        if abs(z - tau0) < 0.05:
            continue
        val = hg.berkson_porta_p0(hg.CayleyLinear(), 1.0, tau0, z)
        assert val.real >= -1e-10


def test_berkson_porta_errors():
    with pytest.raises(hg.SingularPointError):
        hg.berkson_porta_p0(hg.CayleyLinear(), 1.0, 0.5 - 0.5j, 0.5 - 0.5j)
    with pytest.raises(hg.DomainError):
        hg.berkson_porta_p0(hg.CayleyLinear(), 1.0, 0.5 - 0.5j, 2.0)


def test_berkson_porta_data_validates_tau():
    data = hg.BerksonPortaData(tau=0.5 - 0.5j, herglotz=hg.CayleyLinear())
    assert data.tau == 0.5 - 0.5j
    with pytest.raises(ValueError):
        hg.BerksonPortaData(tau=1.5, herglotz=hg.CayleyLinear())


def test_text_form_round_trip():
    for spec in ALL_SPECS:
        again = hg.parse_spec(spec.text_form())
        assert again == spec
        assert hash(again) == hash(spec)


finite = hs.floats(allow_nan=False, allow_infinity=False)


@hs.composite
def admissible_taylor(draw):
    # Re a0 >= sum |a_n| keeps Re p >= 0 on the disk; Im a0 is any finite
    # float, since only the text form is under test
    tail = draw(hs.lists(hs.complex_numbers(max_magnitude=1.0), max_size=5))
    a0 = sum(abs(c) for c in tail) + draw(hs.floats(0.0, 10.0))
    return hg.Taylor([complex(a0, draw(finite))] + tail)


@settings(max_examples=300, deadline=None)
@given(spec=hs.one_of(hs.builds(hg.Automorphism, hs.floats(0.0, 1e300),
                                finite),
                      admissible_taylor()))
def test_text_form_round_trip_property(spec):
    again = hg.parse_spec(spec.text_form())
    assert again == spec and hash(again) == hash(spec)
    assert type(again) is type(spec)
    if isinstance(spec, hg.Automorphism):
        assert (again.A, again.B) == (spec.A, spec.B)
    else:
        assert again.coefficients == spec.coefficients


@settings(max_examples=100, deadline=None)
@given(bad=hs.sampled_from([math.nan, math.inf, -math.inf]),
       good=hs.floats(0.0, 10.0), slot=hs.integers(0, 1))
def test_non_finite_spec_parameters_are_rejected(bad, good, slot):
    params = [good, good]
    params[slot] = bad
    with pytest.raises(ValueError):
        hg.Automorphism(*params)
    with pytest.raises(ValueError):
        hg.parse_spec("automorphism:%r,%r" % tuple(params))
    coefficients = [1.0 + good, 0.5]
    coefficients[slot] = complex(bad, 0.0) if slot else complex(1.0, bad)
    with pytest.raises(ValueError):
        hg.Taylor(coefficients)
    with pytest.raises(ValueError):
        hg.parse_spec("taylor:" + ",".join(map(hg.format_complex,
                                               coefficients)))


def test_parse_spec_accepts_plain_forms():
    assert hg.parse_spec("cayley") == hg.Cayley()
    assert hg.parse_spec(" const-i ") == hg.ConstantImaginary()
    s = hg.parse_spec("automorphism:1,0.5")
    assert s.A == 1.0 and s.B == 0.5
    t = hg.parse_spec("taylor:1,0.5+0.25i")
    assert t.coefficients == (1.0, 0.5 + 0.25j)


def test_parse_spec_rejects_garbage():
    for bad in ["", "cayley2", "automorphism:1", "automorphism:1,2,3",
                "taylor:", "taylor:1,zap"]:
        with pytest.raises(ValueError):
            hg.parse_spec(bad)


def test_parse_complex_literals():
    assert hg.parse_complex("1") == 1.0
    assert hg.parse_complex("-2.5i") == -2.5j
    assert hg.parse_complex("1-2i") == 1.0 - 2.0j
    assert hg.parse_complex(hg.format_complex(0.125 - 3.5j)) == 0.125 - 3.5j
    inf = math.inf
    for z in (complex(inf, 0.0), complex(-inf, 0.0), complex(0.0, inf),
              complex(1.5, -inf), complex(-inf, 2.0), complex(inf, inf)):
        assert hg.parse_complex(hg.format_complex(z)) == z
    with pytest.raises(ValueError):
        hg.parse_complex("one")


def test_taylor_admissibility_check():
    # p(z) = z goes negative on the left half of the disk
    with pytest.raises(ValueError):
        hg.Taylor([0.0, 1.0])
    # p(z) = 1 + z stays nonnegative
    hg.Taylor([1.0, 1.0])
    with pytest.raises(ValueError):
        hg.Taylor([])
    # Re p is least on the unit circle: -0.005 at z = -1 and -0.01 at
    # z = +-i, but only -0.004 and -0.008 at radius 0.999
    for coefficients in ([1.0, 1.005], [1.0, 0.0, 1.01]):
        with pytest.raises(ValueError, match="unit circle"):
            hg.Taylor(coefficients)
        with pytest.raises(ValueError, match="unit circle"):
            hg.parse_spec("taylor:" + ",".join(map(repr, coefficients)))
    # inf - inf makes Re p NaN at some sampled angles, and a finite
    # sample reads -1.3e308: a NaN minimum is no pass, and the overflow
    # warns of nothing
    with pytest.raises(ValueError, match="unit circle"):
        hg.Taylor([0.0, 1e308, 1e308, 1e308])


@pytest.mark.parametrize("degree", [128, 256, 1000])
def test_taylor_admissibility_sees_high_degree_dips(degree):
    # Re(1 + c z^N) = 1 + c cos(N theta) dips to 1 - c between N-th roots
    # of unity, which a fixed 256-angle grid can step over
    with pytest.raises(ValueError, match="unit circle"):
        hg.Taylor([1.0] + [0.0] * (degree - 1) + [1.5])
    hg.Taylor([1.0] + [0.0] * (degree - 1) + [1.0])
