"""Shared test plumbing: the acceptance-criteria report, the Moebius
map of exp(tH) that the rotating-drive oracles compare against, and the
fields the adaptive integrator solves for the rotating drive.

test_acceptance.py records one line per criterion through
record_criterion; the terminal-summary hook prints the collected lines
after the run so every criterion shows a visible PASS or FAIL verdict
regardless of output capturing.
"""

import cmath

from loewnerkit import deterministic, herglotz

_CRITERIA = {}


def record_criterion(cid, label, passed, detail=""):
    text = "[%s] %s: %s" % (cid, label, "PASS" if passed else "FAIL")
    if detail:
        text += " (%s)" % detail
    _CRITERIA[cid] = text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
        for cid in sorted(_CRITERIA):
            terminalreporter.write_line(_CRITERIA[cid])


def moebius_exp(H, t, z):
    """Moebius map of exp(tH) at z, for a traceless 2x2 H: exp(tH) =
    cosh(t d) I + sinh(t d)/d tH with d^2 = H00^2 + H01 H10."""
    (h00, h01), (h10, _) = H
    d = cmath.sqrt(h00 * h00 + h01 * h10)
    c = cmath.cosh(t * d)
    s = t if d == 0 else cmath.sinh(t * d) / d
    return ((c + s * h00) * z + s * h01) / (s * h10 * z + c - s * h00)


def dp_fields(spec, k):
    """The fields ``deterministic._integrate`` takes for the drive
    e^{ikt}, by frame: tau g(phi / tau) and the generator g(psi) - ik psi."""
    c = 1j * k
    return {"phi": deterministic._driven_field(
                spec, lambda t: cmath.exp(1j * k * t)),
            "psi": lambda t, y: herglotz._generator_value(spec, c, y)}
