"""Herglotz function specs for disk evolution fields.

A Herglotz function here is an analytic map ``p`` on the open unit disk
with nonnegative real part.  Each spec class below is a small immutable
description of one admissible choice of ``p``.  Specs know three things:

* how to evaluate ``p(z)`` (unchecked fast path ``_value``, checked
  public path :func:`eval`),
* how to evaluate the boundary-point vector field ``(w - 1)^2 p(w)``
  through the algebraic cancellation at ``w = 1`` where one exists
  (``_bp_field``), which is what integrators actually consume,
* their exact Taylor coefficients at the origin where a closed form
  exists.

Specs round-trip through a plain text form (``cayley``,
``automorphism:1,0.5``, ``taylor:1,0.5+0.25i``, ...) so they can live in
config files and run manifests.  Complex literals in text forms use an
``i`` suffix, e.g. ``0.5-0.25i``.
"""

from __future__ import annotations

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

    Subclasses set ``variant`` to their text-form token, implement
    ``_value`` and ``_taylor``, and override ``_bp_field`` whenever the
    product ``(w - 1)^2 p(w)`` simplifies to something polynomial (the
    Cayley-type specs have a simple pole at ``w = 1`` that cancels).
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

    def text_form(self):
        raise NotImplementedError

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

    def _taylor(self, n):
        return [1.0 + 0.0j] * (n + 1)

    def text_form(self):
        return "cayley-linear"


class Cayley(HerglotzSpec):
    """p(z) = (1 + z) / (1 - z), the Cayley map of the disk onto the
    right half plane."""

    variant = "cayley"
    _pole_at_one = True

    def _value(self, z):
        return (1.0 + z) / (1.0 - z)

    def _bp_field(self, w):
        return 1.0 - w * w

    def _taylor(self, n):
        out = [2.0 + 0.0j] * (n + 1)
        out[0] = 1.0 + 0.0j
        return out

    def text_form(self):
        return "cayley"


class ConstantImaginary(HerglotzSpec):
    """p(z) = i, the degenerate purely imaginary constant."""

    variant = "const-i"

    def _value(self, z):
        return 1j + 0.0 * z

    def _bp_field(self, w):
        return 1j * (w - 1.0) ** 2

    def _taylor(self, n):
        out = [0.0 + 0.0j] * (n + 1)
        out[0] = 1j
        return out

    def text_form(self):
        return "const-i"


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
        A = float(A)
        B = float(B)
        if not (0.0 <= A < math.inf and math.isfinite(B)):
            raise ValueError("automorphism spec needs finite A >= 0 and "
                             "finite B, got A = %r, B = %r" % (A, B))
        self.A = A
        self.B = B
        self._pole_at_one = A != 0.0

    def _value(self, z):
        return self.A * (1.0 + z) / (1.0 - z) + 1j * self.B

    def _bp_field(self, w):
        A, B = self.A, self.B
        return ((-A + 1j * B) * w + (-2j * B)) * w + (A + 1j * B)

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
        return np.exp((math.pi / 2.0) * z)

    def _taylor(self, n):
        half_pi = math.pi / 2.0
        return [complex(half_pi ** m / math.factorial(m)) for m in range(n + 1)]

    def text_form(self):
        return "exponential"


class Taylor(HerglotzSpec):
    """Polynomial spec p(z) = a0 + a1 z + ... + aN z^N.

    Admissibility (nonnegative real part on the disk) cannot be decided
    from the coefficients alone, so the constructor samples ``Re p`` on
    a 256 x 64 polar grid and rejects anything dipping below -1e-9.

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
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("taylor coefficients must be finite, got %r"
                             % (coeffs,))
        self.coefficients = coeffs
        self._check_admissible()

    def _check_admissible(self):
        angles = 2.0 * math.pi * np.arange(256) / 256.0
        radii = (np.arange(64) + 0.5) / 64.0
        grid = radii[:, None] * np.exp(1j * angles)[None, :]
        values = self._value(grid)
        worst = float(np.min(values.real))
        if worst < -1e-9:
            raise ValueError(
                "taylor coefficients do not give a Herglotz function: "
                "min Re p on the sample grid is %.3e" % worst)

    def _value(self, z):
        # Horner from a Python 0j: a scalar argument takes scalar arithmetic
        # and allocates nothing, an array one the complex array loop
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc if isinstance(acc, np.ndarray) else complex(acc)

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
        if abs(self.tau) > 1.0 + 1e-12:
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
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("need |z| < 1, got |z| = %r" % abs(z))
    if spec._pole_at_one and abs(1.0 - z) < 1e-12:
        raise SingularPointError("z = %r is too close to the pole at 1" % z)
    return complex(spec._value(z))


def taylor_coefficients(spec, n):
    """Exact Taylor coefficients a0..an of the spec at the origin."""
    n = int(n)
    if n < 0:
        raise ValueError("need n >= 0, got %r" % n)
    return spec._taylor(n)


def automorphism_generator(A, B, k, z):
    """Rotating-frame generator of the automorphism spec, evaluated at z.

    This is the degree-two polynomial
    ``(-A + Bi) z^2 - (2B + k) i z + (A + Bi)``, i.e. the field
    ``(z - 1)^2 p(z) - i k z`` with the pole of p cancelled exactly.
    """
    A = float(A)
    if A < 0.0:
        raise ValueError("need A >= 0, got A = %r" % A)
    B = float(B)
    k = float(k)
    return ((-A + 1j * B) * z - 1j * (2.0 * B + k)) * z + (A + 1j * B)


def berkson_porta_p0(spec, k, tau0, z):
    """Herglotz factor of the rotating-frame field against a fixed
    point ``tau0``.

    Computes ``((z - 1)^2 p(z) - i k z) / ((z - tau0)(conj(tau0) z - 1))``.
    When ``tau0`` really is a zero of the numerator the quotient extends
    analytically; this helper just evaluates it pointwise away from the
    denominator's zeros.
    """
    z = complex(z)
    tau0 = complex(tau0)
    if abs(z) >= 1.0:
        raise DomainError("need |z| < 1, got |z| = %r" % abs(z))
    num = spec._bp_field(z) - 1j * float(k) * z
    den = (z - tau0) * (tau0.conjugate() * z - 1.0)
    if abs(den) < 1e-14:
        raise SingularPointError(
            "z = %r collides with the factored zero at tau0 = %r" % (z, tau0))
    return complex(num / den)


def parse_spec(text):
    """Parse a spec text form; inverse of ``spec.text_form()``."""
    s = str(text).strip()
    if s == "cayley-linear":
        return CayleyLinear()
    if s == "cayley":
        return Cayley()
    if s == "const-i":
        return ConstantImaginary()
    if s == "exponential":
        return Exponential()
    if s.startswith("automorphism:"):
        body = s.split(":", 1)[1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError("automorphism takes exactly two parameters, "
                             "got %r" % text)
        return Automorphism(float(parts[0]), float(parts[1]))
    if s.startswith("taylor:"):
        body = s.split(":", 1)[1]
        parts = [p for p in body.split(",") if p.strip()]
        if not parts:
            raise ValueError("taylor needs at least one coefficient: %r" % text)
        return Taylor([parse_complex(p) for p in parts])
    raise ValueError("unknown spec text form: %r" % text)
