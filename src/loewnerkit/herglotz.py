"""Herglotz function specs for disk evolution fields.

A Herglotz function here is an analytic map ``p`` on the open unit disk
with nonnegative real part.  Each spec class below is a small immutable
description of one admissible choice of ``p``.  Specs know four things:

* how to evaluate ``p(z)`` (unchecked fast path ``_value``, checked
  public path :func:`eval`),
* how to evaluate the boundary-point vector field ``(w - 1)^2 p(w)``
  through the algebraic cancellation at ``w = 1`` where one exists
  (``_bp_field``), which is what integrators actually consume,
* their exact Taylor coefficients at the origin where a closed form
  exists,
* the coefficients (g2, g1, g0) of that field when it is the quadratic
  g2 w^2 + g1 w + g0 (``_quadratic``, None otherwise), which makes the
  driven flow a Moebius map.

Specs round-trip through a plain text form (``cayley``,
``automorphism:1,0.5``, ``taylor:1,0.5+0.25i``, ...) so they can live in
config files and run manifests.  Complex literals in text forms use an
``i`` suffix, e.g. ``0.5-0.25i``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Error",
    "DomainError",
    "SingularPointError",
    "HerglotzSpec",
    "CayleyLinear",
    "Cayley",
    "ConstantImaginary",
    "Automorphism",
    "Exponential",
    "Taylor",
    "BerksonPortaData",
    "eval",
    "taylor_coefficients",
    "automorphism_generator",
    "berkson_porta_p0",
    "parse_spec",
    "parse_complex",
    "format_complex",
]


# --------------------------------------------------------------------------
# errors
# --------------------------------------------------------------------------

class Error(Exception):
    """Base class for all errors raised by this package."""


class DomainError(Error, ValueError):
    """Evaluation requested outside the open unit disk."""


class SingularPointError(Error, ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole."""


# --------------------------------------------------------------------------
# argument rules, each written once; every comparison is false for NaN, so
# a NaN argument fails the rule it is checked against
# --------------------------------------------------------------------------

def _finite(name, x):
    """float(x); ValueError if it is NaN or infinite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("%s must be finite, got %r" % (name, x))
    return x


def _finite_complex(name, z):
    """complex(z); ValueError if either part is NaN or infinite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("%s must be finite, got %r" % (name, z))
    return z


def _finite_array(name, x, dtype=float):
    """np.asarray(x, dtype); ValueError unless every entry is finite."""
    x = np.asarray(x, dtype=dtype)
    if not np.isfinite(x).all():
        raise ValueError("%s must be finite, got %r" % (name, x))
    return x


def _positive(name, x):
    """float(x); ValueError unless finite and > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError("%s must be finite and > 0, got %r" % (name, x))
    return x


def _nonzero(name, x):
    """float(x); ValueError unless finite and != 0."""
    x = float(x)
    if not (math.isfinite(x) and x != 0.0):
        raise ValueError("%s must be finite and != 0, got %r" % (name, x))
    return x


def _time(name, t):
    """float(t); ValueError unless finite and >= 0 (a time, or any other
    nonnegative parameter)."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError("need %s >= 0 and %s must be finite, got %r"
                         % (name, name, t))
    return t


def _disk_point(name, z, closed=False):
    """complex(z); DomainError unless |z| < 1, or |z| <= 1 if closed."""
    z = complex(z)
    r = abs(z)
    if not (r <= 1.0 if closed else r < 1.0):
        raise DomainError("need |%s| %s 1, got |%s| = %r"
                          % (name, "<=" if closed else "<", name, r))
    return z


def _count(name, n, least):
    """int(n); ValueError if it is below ``least``."""
    n = int(n)
    if n < least:
        raise ValueError("need %s >= %d, got %r" % (name, least, n))
    return n


# --------------------------------------------------------------------------
# complex literals for text forms
# --------------------------------------------------------------------------

def parse_complex(text):
    """Parse a complex literal like ``1``, ``-0.5i`` or ``1+2i``."""
    s = str(text).strip()
    # only the imaginary suffix: the i of inf stays
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError("bad complex literal: %r" % text) from None


def _fmt_float(x):
    return repr(float(x))


def format_complex(z):
    """Format ``z`` as a round-trippable literal with an ``i`` suffix."""
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    if z.real == 0.0:
        return _fmt_float(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return _fmt_float(z.real) + sign + _fmt_float(abs(z.imag)) + "i"


# --------------------------------------------------------------------------
# spec classes
# --------------------------------------------------------------------------

class HerglotzSpec:
    """Abstract base for Herglotz function specs.

    Subclasses set ``variant`` to their text-form token (the whole text
    form unless ``text_form`` adds parameters), implement
    ``_value`` and ``_taylor``, and override ``_bp_field`` whenever the
    product ``(w - 1)^2 p(w)`` simplifies to something polynomial (the
    Cayley-type specs have a simple pole at ``w = 1`` that cancels), and
    ``_quadratic`` whenever that polynomial has degree at most two.
    ``_value`` and ``_bp_field`` accept scalars or numpy arrays and do
    no domain checking; use :func:`eval` for validated scalar calls.
    """

    variant = "abstract"
    # whether _value has a pole at z = 1 that eval() must guard
    _pole_at_one = False

    def _value(self, z):
        raise NotImplementedError

    def _bp_field(self, w):
        # generic fallback, fine away from w = 1; d * d, not d ** 2: on a
        # Python complex, ** also multiplies by 1 + 0j, which can turn a
        # -0.0 part into +0.0 where NumPy keeps it
        d = w - 1.0
        return d * d * self._value(w)

    def _taylor(self, n):
        raise NotImplementedError

    def _quadratic(self):
        """(g2, g1, g0) with (w - 1)^2 p(w) = g2 w^2 + g1 w + g0, or None
        when the field is not a polynomial of degree at most two."""
        return None

    def text_form(self):
        return self.variant

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.text_form())

    def __eq__(self, other):
        if not isinstance(other, HerglotzSpec):
            return NotImplemented
        return self.text_form() == other.text_form()

    def __hash__(self):
        return hash(self.text_form())


class CayleyLinear(HerglotzSpec):
    """p(z) = 1 / (1 - z).

    The induced field ``(z - 1)^2 p(z) = 1 - z`` is linear, which makes
    this the fully solvable reference case used throughout the tests.
    """

    variant = "cayley-linear"
    _pole_at_one = True

    def _value(self, z):
        return 1.0 / (1.0 - z)

    def _bp_field(self, w):
        return 1.0 - w

    def _quadratic(self):
        return 0j, -1 + 0j, 1 + 0j

    def _taylor(self, n):
        return [1.0 + 0.0j] * (n + 1)


class Cayley(HerglotzSpec):
    """p(z) = (1 + z) / (1 - z), the Cayley map of the disk onto the
    right half plane."""

    variant = "cayley"
    _pole_at_one = True

    def _value(self, z):
        return (1.0 + z) / (1.0 - z)

    def _bp_field(self, w):
        return 1.0 - w * w

    def _quadratic(self):
        return -1 + 0j, 0j, 1 + 0j

    def _taylor(self, n):
        out = [2.0 + 0.0j] * (n + 1)
        out[0] = 1.0 + 0.0j
        return out


class ConstantImaginary(HerglotzSpec):
    """p(z) = i, the degenerate purely imaginary constant."""

    variant = "const-i"

    def _value(self, z):
        return 1j + 0.0 * z

    def _bp_field(self, w):
        return 1j * (w - 1.0) ** 2

    def _quadratic(self):
        return 1j, -2j, 1j

    def _taylor(self, n):
        out = [0.0 + 0.0j] * (n + 1)
        out[0] = 1j
        return out


class Automorphism(HerglotzSpec):
    """p(z) = A (1 + z) / (1 - z) + B i with A >= 0, B real.

    This two-parameter family is exactly the set of specs whose induced
    field is a degree-two polynomial, so the rotating-frame flow is a
    disk automorphism flow and admits a full phase-portrait
    classification.

    Parameters
    ----------
    A : float
        Weight of the Cayley part, must be nonnegative.
    B : float
        Imaginary constant offset.
    """

    variant = "automorphism"

    def __init__(self, A, B):
        self.A = _time("A", A)
        self.B = _finite("B", B)
        self._pole_at_one = self.A != 0.0

    def _value(self, z):
        return self.A * (1.0 + z) / (1.0 - z) + 1j * self.B

    def _bp_field(self, w):
        A, B = self.A, self.B
        return ((-A + 1j * B) * w + (-2j * B)) * w + (A + 1j * B)

    def _quadratic(self):
        A, B = self.A, self.B
        return complex(-A, B), -2j * B, complex(A, B)

    def _taylor(self, n):
        out = [2.0 * self.A + 0.0j] * (n + 1)
        out[0] = self.A + 1j * self.B
        return out

    def text_form(self):
        return "automorphism:%s,%s" % (_fmt_float(self.A), _fmt_float(self.B))


class Exponential(HerglotzSpec):
    """p(z) = exp(pi z / 2), an entire spec with no pole at 1.

    Maps the closed disk into the closed right half plane with
    |Im p| <= |Re p| saturated only at z = +-i.
    """

    variant = "exponential"

    def _value(self, z):
        w = (math.pi / 2.0) * z
        if isinstance(w, np.ndarray):
            return np.exp(w)
        # a scalar stays a Python complex, which keeps a scalar run's
        # arithmetic off NumPy scalars; past the double range, or at an
        # infinite argument, cmath raises where NumPy gives a non-finite
        # value, so give NumPy's
        try:
            return cmath.exp(w)
        except (OverflowError, ValueError):
            with np.errstate(over="ignore", invalid="ignore"):
                return complex(np.exp(complex(w)))

    def _taylor(self, n):
        half_pi = math.pi / 2.0
        return [complex(half_pi ** m / math.factorial(m)) for m in range(n + 1)]


class Taylor(HerglotzSpec):
    """Polynomial spec p(z) = a0 + a1 z + ... + aN z^N.

    Admissibility (nonnegative real part on the disk) cannot be decided
    from the coefficients alone.  ``Re p`` is harmonic, so by the minimum
    principle its minimum over the closed disk lies on the unit circle;
    the constructor samples ``Re p`` at max(256, 8 N) equally spaced
    angles there, for degree N, and rejects anything dipping below -1e-9
    or not a number.

    Parameters
    ----------
    coefficients : sequence of complex
        Taylor coefficients a0..aN, at least one.
    """

    variant = "taylor"

    def __init__(self, coefficients):
        coeffs = tuple(complex(c) for c in coefficients)
        if not coeffs:
            raise ValueError("taylor spec needs at least one coefficient")
        _finite_array("taylor coefficients", coeffs, complex)
        self.coefficients = coeffs
        self._check_admissible()

    def _check_admissible(self):
        n = max(256, 8 * (len(self.coefficients) - 1))
        angles = 2.0 * math.pi * np.arange(n) / n
        # huge coefficients overflow to inf or NaN samples; a NaN minimum
        # is rejected, not read as admissible
        with np.errstate(over="ignore", invalid="ignore"):
            worst = float(np.min(self._value(np.exp(1j * angles)).real))
        if not worst >= -1e-9:
            raise ValueError(
                "taylor coefficients do not give a Herglotz function: "
                "min Re p on the unit circle is %.3e" % worst)

    def _value(self, z):
        # Horner from a Python 0j: a scalar argument takes scalar arithmetic
        # and allocates nothing, an array one the complex array loop
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc if isinstance(acc, np.ndarray) else complex(acc)

    def _quadratic(self):
        # a constant a0 gives a0 (w - 1)^2
        a0 = self.coefficients[0]
        if any(self.coefficients[1:]):
            return None
        return a0, -2.0 * a0, a0

    def _taylor(self, n):
        out = list(self.coefficients[:n + 1])
        out.extend([0.0 + 0.0j] * (n + 1 - len(out)))
        return out

    def text_form(self):
        return "taylor:" + ",".join(format_complex(c) for c in self.coefficients)


# --------------------------------------------------------------------------
# canonical decomposition data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BerksonPortaData:
    """A (tau, p) pair: attracting point in the closed disk plus the
    Herglotz spec of the factored field."""

    tau: complex
    herglotz: HerglotzSpec

    def __post_init__(self):
        if not abs(self.tau) <= 1.0 + 1e-12:
            raise ValueError("tau must lie in the closed unit disk, "
                             "got |tau| = %r" % abs(self.tau))


# --------------------------------------------------------------------------
# module-level ops
# --------------------------------------------------------------------------

def eval(spec, z):
    """Validated evaluation of ``p(z)`` for ``z`` in the open unit disk.

    Raises DomainError for ``|z| >= 1`` and SingularPointError when
    ``z`` sits within 1e-12 of a pole of the spec.
    """
    z = _disk_point("z", z)
    if spec._pole_at_one and abs(1.0 - z) < 1e-12:
        raise SingularPointError("z = %r is too close to the pole at 1" % z)
    return complex(spec._value(z))


def taylor_coefficients(spec, n):
    """Exact Taylor coefficients a0..an of the spec at the origin."""
    return spec._taylor(_count("n", n, 0))


def _generator_value(spec, c, z):
    """(z - 1)^2 p(z) - c z, unchecked: the rotating-frame field of the
    drive e^{ikt} for c = ik, the Ito drift of e^{ikB_t} for c = k^2/2."""
    return spec._bp_field(z) - c * z


def _automorphism_parameters(spec):
    """(A, B) when the field (g2, g1, g0) = ``spec._quadratic()`` is that
    of Automorphism(A, B), i.e. g2 = -conj(g0) and g1 = -2i Im g0 with
    A + Bi = g0 (cayley, const-i and ``taylor:<b>i`` among them); else
    None."""
    g = spec._quadratic()
    if g is None or g[0] != -g[2].conjugate() or g[1] != -2j * g[2].imag:
        return None
    return g[2].real, g[2].imag


def automorphism_generator(A, B, k, z):
    """Rotating-frame generator of the automorphism spec, evaluated at z.

    This is the degree-two polynomial
    ``(-A + Bi) z^2 - (2B + k) i z + (A + Bi)``, i.e. the field
    ``(z - 1)^2 p(z) - i k z`` with the pole of p cancelled exactly.
    """
    A = _time("A", A)
    B = _finite("B", B)
    k = _finite("k", k)
    z = _finite_complex("z", z)
    return ((-A + 1j * B) * z - 1j * (2.0 * B + k)) * z + (A + 1j * B)


def berkson_porta_p0(spec, k, tau0, z):
    """Herglotz factor of the rotating-frame field against a fixed
    point ``tau0``.

    Computes ``((z - 1)^2 p(z) - i k z) / ((z - tau0)(conj(tau0) z - 1))``.
    When ``tau0`` really is a zero of the numerator the quotient extends
    analytically; this helper just evaluates it pointwise away from the
    denominator's zeros.
    """
    z = _disk_point("z", z)
    tau0 = _finite_complex("tau0", tau0)
    num = _generator_value(spec, 1j * _finite("k", k), z)
    den = (z - tau0) * (tau0.conjugate() * z - 1.0)
    if abs(den) < 1e-14:
        raise SingularPointError(
            "z = %r collides with the factored zero at tau0 = %r" % (z, tau0))
    return complex(num / den)


# the specs without parameters, by text form
_PLAIN_SPECS = {cls.variant: cls
                for cls in (CayleyLinear, Cayley, ConstantImaginary, Exponential)}


def parse_spec(text):
    """Parse a spec text form; inverse of ``spec.text_form()``."""
    s = str(text).strip()
    if s in _PLAIN_SPECS:
        return _PLAIN_SPECS[s]()
    if s.startswith("automorphism:"):
        body = s.split(":", 1)[1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError("automorphism takes exactly two parameters, "
                             "got %r" % text)
        return Automorphism(float(parts[0]), float(parts[1]))
    if s.startswith("taylor:"):
        body = s.split(":", 1)[1]
        return Taylor([parse_complex(p) for p in body.split(",") if p.strip()])
    raise ValueError("unknown spec text form: %r" % text)
