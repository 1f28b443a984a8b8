"""Workload generators, task runners and per-task correctness checks.

Three workloads, each a closed loop with one client: one process, one
thread, and the next task starts only when the previous one returned.

* ``mc_blocked``: blocked Monte Carlo estimators (``expectation_Tt``,
  ``covariance_mc``, ``backward_equation_residual``) over the spec
  catalogue, from a partial 8192-path block up to several full blocks,
  with one task per pass at the 20M-float per-block increment cap.
* ``mc_pathwise``: one Brownian path at a time
  (``sample_brownian(derive_path_seed(...))`` then a scalar stepper),
  plus in-process ``loewnerkit bounds --paths N`` runs.  Some cells use
  the coarse grids and high noise amplitudes where the pathwise RK4
  integrator is known to leave the disk; those escapes are counted as
  failures, not filtered out.
* ``det_cli``: no Brownian sampling: Dormand-Prince orbits, boundary
  images, moment hierarchies, fixed points and in-process CLI runs.

A pass is one generated task list.  All task parameters and all library
root seeds come from ``numpy.random.default_rng([seed, workload,
pass])``; continuous parameters are Latin-hypercube stratified, so two
seeds give task lists of the same shape and nearly the same cost.

Every task is checked against a closed form, a reference or an
invariant.  A task that raises (or a CLI run that exits non-zero) is an
``error``; one that returns a result failing its check is ``wrong``, or
``stat`` when the failed check is a Monte Carlo estimate more than 4 SE
from its reference, which happens by chance about once in 10^4 checks.
All three count as failed; none stops the run.  In the coarse-grid cells
a path outside its growth envelope is an ``error`` too: it is the same
numerical failure as an escape, and ``loewnerkit bounds`` reports it
with the numerical-failure exit code.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from loewnerkit import cli
from loewnerkit import deterministic as dm
from loewnerkit import herglotz as hz
from loewnerkit import stochastic as st

WORKLOADS = ("mc_blocked", "mc_pathwise", "det_cli")

# References for the checks, bound at import so that checking a result
# never passes through the wrappers a traced run installs.
_growth_bounds = st.growth_bounds
_mean_phi_example1 = st.mean_phi_example1
_covariance_reference = st.covariance_reference
_example1_reference = dm.example1_reference
_classify_semigroup = dm.classify_semigroup

# spec text of each id accepted by growth_bounds and `loewnerkit bounds`
_BOUND_SPECS = {"cayley": "cayley", "cayley-linear": "cayley-linear",
                "one": "taylor:1.0"}


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.

    ``paths`` and ``path_steps`` count the Brownian paths and increments
    the task draws; they are known from its inputs.
    """

    kind: str
    params: dict
    paths: int = 0
    path_steps: int = 0


@dataclass
class Outcome:
    """What running one task gave: status is ok, error, wrong or stat."""

    status: str
    latency_s: float
    digest: str | None = None
    detail: str | None = None
    bytes_written: int = 0


class StatProblem(str):
    """A failed 4 SE comparison: a problem that chance alone can cause."""


class CliFailed(Exception):
    """An in-process CLI run exited non-zero."""


@dataclass
class CliRun:
    stdout: str
    workdir: str


# --------------------------------------------------------------------------
# stratified parameter draws
# --------------------------------------------------------------------------

class _Draw:
    """Draws n values per call, one from each of n equal strata, shuffled."""

    def __init__(self, rng, n):
        self.rng = rng
        self.n = n

    def u(self):
        return (self.rng.permutation(self.n) + self.rng.random(self.n)) / self.n

    def uniform(self, lo, hi):
        return [float(x) for x in lo + (hi - lo) * self.u()]

    def log(self, lo, hi):
        return [float(x) for x in lo * (hi / lo) ** self.u()]

    def ints(self, lo, hi):
        """Log-uniform integers in [lo, hi]."""
        return [min(hi, int(x)) for x in self.log(lo, hi + 1)]

    def choice(self, items):
        """Each item equally often (up to one), in shuffled order."""
        return [items[i % len(items)] for i in self.rng.permutation(self.n)]

    def disk(self, rmax, rmin=0.0):
        """Points spread evenly over the annulus rmin <= |z| <= rmax."""
        r = np.sqrt(rmin ** 2 + (rmax ** 2 - rmin ** 2) * self.u())
        angle = 2.0 * math.pi * self.u()
        return [complex(z) for z in r * np.exp(1j * angle)]

    def seeds(self):
        return [int(s) for s in self.rng.integers(0, 2 ** 62, self.n)]


def _lit(z):
    """Complex literal in the CLI's i-suffix syntax."""
    z = complex(z)
    return "%r%s%ri" % (z.real, "+" if z.imag >= 0 else "-", abs(z.imag))


def _catalogue_text(rng, variant):
    """Spec text for one catalogue variant, parameters drawn from rng."""
    if variant == "automorphism":
        return "automorphism:%r,%r" % (float(rng.uniform(0.2, 1.5)),
                                       float(rng.uniform(-1.0, 1.0)))
    if variant == "taylor":
        c = 0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        return "taylor:1.0,%s" % _lit(c)
    return variant


_CATALOGUE = ("cayley-linear", "cayley", "automorphism", "exponential",
              "taylor", "const-i")


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def make_tasks(workload, seed, pass_index):
    """The task list of one pass, a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload),
                                 int(pass_index)])
    tasks = _GENERATORS[workload](rng)
    return [tasks[i] for i in rng.permutation(len(tasks))]


def warmup_task(workload):
    """A small fixed task that touches the workload's first-call costs."""
    if workload == "mc_blocked":
        return Task("expectation", dict(spec="cayley-linear", k=1.0, t=0.2,
                                        z=0.3 + 0j, f="id", n=64, seed=1,
                                        steps=20, scheme="milstein"),
                    64, 64 * 20)
    if workload == "mc_pathwise":
        return Task("phi", dict(spec="cayley-linear", bound="cayley-linear",
                                k=1.0, t=0.2,
                                z0=0.3 + 0j, n=2, seed=1, steps=20,
                                coarse=False), 2, 40)
    return Task("cli_evolve", dict(spec="cayley", k=1.0, z0=0.3 + 0j,
                                   t_end=0.2, dt=0.05))


def _expectation_tasks(rng, n, paths, steps, cayley_linear_only=False):
    d = _Draw(rng, n)
    variants = (["cayley-linear"] if cayley_linear_only
                else ["cayley-linear"] * 3 + list(_CATALOGUE[1:]))
    out = []
    for variant, p, s, t, k, z, f, scheme, seed in zip(
            d.choice(variants), paths(d), steps(d), d.uniform(0.5, 2.0),
            d.uniform(0.5, 1.5), d.disk(0.6), d.choice(["id", "sq"]),
            d.choice(["milstein", "euler"]), d.seeds()):
        if variant == "cayley-linear":
            f = "id"
        spec = _catalogue_text(rng, variant)
        out.append(Task("expectation", dict(spec=spec, k=k, t=t, z=z, f=f,
                                            n=p, seed=seed, steps=s,
                                            scheme=scheme), p, p * s))
    return out


def _mc_blocked(rng):
    tasks = _expectation_tasks(rng, 62, lambda d: d.ints(64, 2048),
                               lambda d: d.ints(100, 1000))
    # several full 8192-path blocks plus a partial one
    tasks += _expectation_tasks(rng, 1, lambda d: d.ints(16385, 24575),
                                lambda d: d.ints(300, 500),
                                cayley_linear_only=True)
    # one block at the 20M-float increment cap (7936 to 8000 rows at
    # these step counts) and a small partial block, so the peak working
    # set is nearly the same in every pass
    tasks += _expectation_tasks(rng, 1, lambda d: d.ints(8100, 8200),
                                lambda d: d.ints(2500, 2520),
                                cayley_linear_only=True)
    d = _Draw(rng, 28)
    for p, s, t, k, seed in zip(d.ints(64, 4096), d.ints(100, 500),
                                d.uniform(0.5, 1.5), d.uniform(0.5, 2.0),
                                d.seeds()):
        tasks.append(Task("covariance", dict(t=t, k=k, n=p, seed=seed,
                                             steps=s), p, p * s))
    # at least 100 steps keeps the step below h, so t - h, t and t + h
    # land on distinct grid columns
    d = _Draw(rng, 8)
    for spec, f, p, s, t, k, z, seed in zip(
            d.choice(["cayley-linear", "cayley"]), d.choice(["id", "sq"]),
            d.ints(256, 800), d.ints(100, 200), d.uniform(0.3, 0.8),
            d.uniform(0.5, 1.5), d.disk(0.4), d.seeds()):
        p -= p % 8
        tasks.append(Task("backward", dict(spec=spec, f=f, k=k, t=t, z=z,
                                           n=p, seed=seed, steps=s, h=0.01),
                          p, p * s))
    return tasks


def _mc_pathwise(rng):
    tasks = []
    bound_ids = ["cayley-linear", "cayley-linear", "cayley", "one"]

    def phi_tasks(n, n_paths, k_range, dt_range, t_range, r_range, coarse):
        d = _Draw(rng, n)
        for sid, p, t, dt, k, z0, seed in zip(
                d.choice(bound_ids), n_paths(d), d.uniform(*t_range),
                d.log(*dt_range), d.log(*k_range), d.disk(*r_range),
                d.seeds()):
            s = max(1, round(t / dt))
            tasks.append(Task("phi", dict(spec=_BOUND_SPECS[sid], bound=sid,
                                          k=k, t=t, z0=z0, n=p, seed=seed,
                                          steps=s, coarse=coarse),
                              p, p * s))

    # fine grids: envelopes, plus the solvable-case mean
    phi_tasks(60, lambda d: d.ints(24, 40), (0.5, 2.0),
              (0.005, 0.02), (0.5, 1.5), (0.9, 0.0), False)
    # coarse grids at high noise amplitude from near-boundary starts, the
    # region where fixed-step RK4 is known to leave the disk
    phi_tasks(24, lambda d: d.ints(8, 12), (8.0, 30.0),
              (0.05, 0.2), (1.0, 2.0), (0.995, 0.9), True)

    d = _Draw(rng, 32)
    for p, s, t, k, z, seed in zip(d.ints(24, 48), d.ints(100, 1000),
                                   d.uniform(0.5, 2.0), d.uniform(0.5, 2.5),
                                   d.disk(0.9), d.seeds()):
        tasks.append(Task("example1", dict(k=k, t=t, z=z, n=p, seed=seed,
                                           steps=s), p, p * s))

    d = _Draw(rng, 40)
    for variant, p, s, t, k, z, scheme, seed in zip(
            d.choice(["cayley-linear", "cayley-linear"] + list(_CATALOGUE[1:])),
            d.ints(24, 40), d.ints(100, 500), d.uniform(0.5, 1.5),
            d.uniform(0.5, 2.0), d.disk(0.7), d.choice(["milstein", "euler"]),
            d.seeds()):
        tasks.append(Task("psi_sde", dict(spec=_catalogue_text(rng, variant),
                                          k=k, t=t, z=z, n=p, seed=seed,
                                          steps=s, scheme=scheme), p, p * s))

    d = _Draw(rng, 20)
    for p, s, t, A, B, k, theta0, seed in zip(
            d.ints(4, 10), d.ints(200, 1000), d.uniform(0.5, 2.0),
            d.uniform(0.1, 2.0), d.uniform(-1.0, 1.0), d.uniform(0.5, 2.0),
            d.uniform(0.0, 2.0 * math.pi), d.seeds()):
        tasks.append(Task("circle", dict(A=A, B=B, k=k, theta0=theta0, t=t,
                                         n=p, seed=seed, steps=s), p, p * s))

    # `loewnerkit bounds --paths N` over the r0, k and dt the CLI
    # accepts, coarse high-k grids included
    d = _Draw(rng, 24)
    for sid, p, r0, t, dt, k, seed in zip(
            d.choice(list(_BOUND_SPECS)), d.ints(8, 24), d.uniform(0.0, 0.995),
            d.uniform(0.25, 1.5), d.log(0.002, 0.2), d.log(0.5, 30.0),
            d.seeds()):
        s = max(1, round(t / dt))
        tasks.append(Task("cli_bounds", dict(bound=sid, r0=r0, t=t, k=k,
                                             dt=t / s, n=p, seed=seed),
                          p, p * s))
    return tasks


_CLOSED_RATIOS = ((5, 3), (3, 2), (5, 4), (7, 4), (2, 1), (7, 5), (9, 5))


def _automorphism_params(rng, kind):
    """(A, B, k, extra) for an automorphism flow of the given class."""
    if kind == "elliptic":
        # k/sqrt(-D) = p/q closes the driven orbit: solve c k^2 + 4Bk -
        # 4A^2 = 0 with c = 1 - (q/p)^2 for the positive root
        A = float(rng.uniform(0.3, 1.5))
        B = float(rng.uniform(-0.5, 0.5))
        p, q = _CLOSED_RATIOS[int(rng.integers(len(_CLOSED_RATIOS)))]
        c = 1.0 - (q / p) ** 2
        k = (-4.0 * B + math.sqrt(16.0 * B * B + 16.0 * c * A * A)) / (2.0 * c)
        return A, B, k, {"period": 2.0 * math.pi * p / k,
                         "psi_period": 2.0 * math.pi * p / (k * q)}
    k = float(rng.uniform(0.5, 3.0))
    if kind == "parabolic":
        A = float(rng.uniform(0.2, 1.5))
        return A, (4.0 * A * A - k * k) / (4.0 * k), k, {}
    B = float(rng.uniform(-1.0, 1.0))
    A = math.sqrt(max(0.0, B * k + 0.25 * k * k) + float(rng.uniform(0.1, 1.0)))
    return A, B, k, {}


def _det_cli(rng):
    tasks = []
    d = _Draw(rng, 60)
    for kind, z0, dt, t_end in zip(
            d.choice(["elliptic"] * 3 + ["hyperbolic"] * 2 + ["parabolic"]),
            d.disk(0.8), d.uniform(0.02, 0.1), d.uniform(1.0, 5.0)):
        A, B, k, extra = _automorphism_params(rng, kind)
        t_end = extra.get("period", t_end)
        tasks.append(Task("orbit", dict(A=A, B=B, k=k, z0=z0, cls=kind,
                                        t_end=t_end, dt=min(dt, t_end),
                                        **extra)))

    d = _Draw(rng, 36)
    for k, z0, t_end, dt, m in zip(d.uniform(-3.0, 3.0), d.disk(0.95),
                                   d.uniform(0.5, 4.0), d.uniform(0.01, 0.05),
                                   d.ints(5, 40)):
        tasks.append(Task("solvable", dict(k=k, z0=z0, t_end=t_end, dt=dt,
                                           samples=m)))

    d = _Draw(rng, 42)
    for variant, k, t, n in zip(
            d.choice(["cayley-linear", "cayley-linear"] + list(_CATALOGUE[1:])),
            d.uniform(-2.0, 2.0), d.uniform(0.1, 2.0), d.ints(16, 4096)):
        tasks.append(Task("boundary", dict(spec=_catalogue_text(rng, variant),
                                           k=k, t=t, n=n)))

    d = _Draw(rng, 30)
    for variant, k, z, t_end, m, extra, closure in zip(
            d.choice(["cayley-linear", "cayley-linear"] + list(_CATALOGUE[1:])),
            d.uniform(0.5, 2.0), d.disk(0.7), d.uniform(0.5, 2.0),
            d.ints(1, 4), d.ints(2, 12), d.choice(["zero", "frozen"])):
        tasks.append(Task("moments", dict(spec=_catalogue_text(rng, variant),
                                          k=k, z=z, t_end=t_end, m=m,
                                          truncation=m + extra,
                                          closure=closure)))

    d = _Draw(rng, 30)
    for kind in d.choice(["elliptic", "hyperbolic"]):
        A, B, k, _ = _automorphism_params(rng, kind)
        tasks.append(Task("fixed_point", dict(A=A, B=B, k=k, cls=kind)))

    d = _Draw(rng, 24)
    for variant, k, z0, t_end, dt in zip(
            d.choice(list(_CATALOGUE)), d.uniform(0.5, 3.0), d.disk(0.8),
            d.uniform(0.5, 3.0), d.uniform(0.01, 0.05)):
        tasks.append(Task("cli_evolve", dict(spec=_catalogue_text(rng, variant),
                                             k=k, z0=z0, t_end=t_end, dt=dt)))

    d = _Draw(rng, 24)
    for variant, k, t, n in zip(d.choice(list(_CATALOGUE)),
                                d.uniform(-2.0, 2.0), d.uniform(0.1, 2.0),
                                d.ints(16, 1024)):
        tasks.append(Task("cli_boundary", dict(spec=_catalogue_text(rng, variant),
                                               k=k, t=t, n=n)))

    d = _Draw(rng, 18)
    for variant, k, z, t_end, m, extra, points in zip(
            d.choice(list(_CATALOGUE)), d.uniform(0.5, 2.0), d.disk(0.7),
            d.uniform(0.5, 2.0), d.ints(1, 4), d.ints(2, 12),
            d.ints(5, 129)):
        tasks.append(Task("cli_moments", dict(spec=_catalogue_text(rng, variant),
                                              k=k, z=z, t_end=t_end, m=m,
                                              truncation=m + extra,
                                              points=points)))

    d = _Draw(rng, 12)
    for n in d.ints(64, 512):
        tasks.append(Task("cli_figures", dict(n=n)))

    d = _Draw(rng, 18)
    for kind in d.choice(["elliptic", "hyperbolic", "parabolic"]):
        A, B, k, _ = _automorphism_params(rng, kind)
        tasks.append(Task("cli_classify", dict(A=A, B=B, k=k, cls=kind)))
    return tasks


_GENERATORS = {"mc_blocked": _mc_blocked, "mc_pathwise": _mc_pathwise,
               "det_cli": _det_cli}


# --------------------------------------------------------------------------
# checks shared by several kinds
# --------------------------------------------------------------------------

def _identity(w):
    return w


def _square(w):
    return w * w


_F = {"id": _identity, "sq": _square}


def _within_4se(what, value, ref, se):
    gap = abs(complex(value) - complex(ref))
    if not gap <= 4.0 * se + 1e-12:
        return StatProblem("%s: |estimate - reference| = %.3g > 4 SE = %.3g"
                           % (what, gap, 4.0 * se))
    return None


def _sample_mean_se(samples):
    """Mean and combined (real + imaginary) standard error."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    var = np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1)
    return complex(np.mean(samples)), math.sqrt(var / n)


def _cayley_linear_scheme_mean(z, k, dt, n_steps):
    """Exact mean of the Euler/Milstein chain for p(z) = 1/(1-z).

    The step's conditional mean is psi + (1 - (1 + k^2/2) psi) dt for
    both schemes, so E psi_n = c + (z - c) (1 - dt/c)^n with
    c = 1/(1 + k^2/2), at any step size.
    """
    c = 1.0 / (1.0 + 0.5 * k * k)
    return c + (complex(z) - c) * (1.0 - dt / c) ** n_steps


def _max_modulus_problem(values, tol):
    worst = float(np.max(np.abs(values))) if np.size(values) else 0.0
    if not worst <= 1.0 + tol:
        return "left the closed disk: max modulus %.17g" % worst
    return None


# --------------------------------------------------------------------------
# mc_blocked kinds
# --------------------------------------------------------------------------

def _call_expectation(p, workdir):
    spec = hz.parse_spec(p["spec"])
    return st.expectation_Tt(spec, p["k"], p["t"], p["z"], _F[p["f"]], p["n"],
                             p["seed"], dt=p["t"] / p["steps"],
                             scheme=p["scheme"])


def _check_expectation(p, est):
    if est.n_samples != p["n"] or not math.isfinite(est.std_error):
        return "bad sample count or standard error"
    problem = _max_modulus_problem([est.mean], 1e-12)
    if problem or p["spec"] != "cayley-linear":
        return problem
    ref = _cayley_linear_scheme_mean(p["z"], p["k"], p["t"] / p["steps"],
                                     p["steps"])
    return _within_4se("E Psi_t", est.mean, ref, est.std_error)


def _call_covariance(p, workdir):
    return st.covariance_mc(p["t"], p["k"], p["n"], p["seed"],
                            dt=p["t"] / p["steps"])


def _check_covariance(p, est):
    ref = _covariance_reference(p["t"], p["k"])
    problem = _within_4se("e2", est["e2"].mean,
                          _mean_phi_example1(0.0, p["t"], p["k"]),
                          est["e2"].std_error)
    for key in ("e1", "e3", "cov"):
        problem = problem or _within_4se(key, est[key].mean, getattr(ref, key),
                                         est[key].std_error)
    return problem


def _call_backward(p, workdir):
    spec = hz.parse_spec(p["spec"])
    return st.backward_equation_residual(
        spec, p["k"], _F[p["f"]], p["t"], p["z"], p["n"], seed=p["seed"],
        dt=(p["t"] + p["h"]) / p["steps"], h=p["h"])


def _check_backward(p, result):
    residual, se = result
    if not (math.isfinite(residual) and math.isfinite(se)):
        return "non-finite residual"
    return _within_4se("backward residual", residual, 0.0, se)


# --------------------------------------------------------------------------
# mc_pathwise kinds: one path at a time
# --------------------------------------------------------------------------

def _path(p, j):
    return st.sample_brownian(st.derive_path_seed(p["seed"], j),
                              p["t"] / p["steps"], p["steps"])


def _call_phi(p, workdir):
    spec = hz.parse_spec(p["spec"])
    times = [0.5 * p["t"], p["t"]]
    return np.array([st.evolve_phi_pathwise(spec, p["k"], p["z0"],
                                            _path(p, j), times).values
                     for j in range(p["n"])])


def _check_phi(p, values):
    r0 = abs(p["z0"])
    for col, t in ((1, 0.5 * p["t"]), (2, p["t"])):
        lo, hi = _growth_bounds(p["bound"], r0, t)
        r = np.abs(values[:, col])
        if not (np.all(r >= lo - 1e-6) and np.all(r <= hi + 1e-6)):
            return "|phi_t| outside growth_bounds at t=%r" % t
    if not p["coarse"] and p["spec"] == "cayley-linear":
        mean, se = _sample_mean_se(values[:, 2])
        return _within_4se("E phi_t", mean,
                           _mean_phi_example1(p["z0"], p["t"], p["k"]), se)
    return None


def _call_example1(p, workdir):
    return np.array([st.example1_pathwise(p["z"], p["k"], _path(p, j), p["t"])
                     for j in range(p["n"])])


def _check_example1(p, values):
    mean, se = _sample_mean_se(values)
    return (_max_modulus_problem(values, 1e-9)
            or _within_4se("E phi_t", mean,
                           _mean_phi_example1(p["z"], p["t"], p["k"]), se))


def _call_psi_sde(p, workdir):
    spec = hz.parse_spec(p["spec"])
    return [st.evolve_psi_sde(spec, p["k"], p["z"], _path(p, j),
                              scheme=p["scheme"])
            for j in range(p["n"])]


def _check_psi_sde(p, trajs):
    problem = _max_modulus_problem(np.concatenate([tr.values for tr in trajs]),
                                   0.0)
    if problem or p["spec"] != "cayley-linear":
        return problem
    mean, se = _sample_mean_se([tr.values[-1] for tr in trajs])
    ref = _cayley_linear_scheme_mean(p["z"], p["k"], p["t"] / p["steps"],
                                     p["steps"])
    return _within_4se("E Psi_t", mean, ref, se)


def _call_circle(p, workdir):
    return np.array([st.simulate_boundary_diffusion(p["A"], p["B"], p["k"],
                                                    p["theta0"], _path(p, j))
                     for j in range(p["n"])])


def _check_circle(p, thetas):
    if not np.all(np.isfinite(thetas)):
        return "non-finite angle"
    if np.any(thetas < 0.0) or np.any(thetas >= 2.0 * math.pi):
        return "angle not reduced to [0, 2 pi)"
    if np.any(thetas[:, 0] != p["theta0"] % (2.0 * math.pi)):
        return "first angle is not theta0"
    return None


def _call_cli_bounds(p, workdir):
    return _cli(["bounds", "--spec", p["bound"], "--r0=%r" % p["r0"],
                 "--t=%r" % p["t"], "--paths=%d" % p["n"], "--k=%r" % p["k"],
                 "--dt=%r" % p["dt"], "--seed=%d" % p["seed"]],
                workdir, mkdir=False)


def _check_cli_bounds(p, run):
    out = json.loads(run.stdout)
    lo, hi = _growth_bounds(p["bound"], p["r0"], p["t"])
    mc = out.get("mc") or {}
    if (out["lower"], out["upper"]) != (lo, hi):
        return "reported envelope differs from growth_bounds"
    if mc.get("paths") != p["n"] or mc.get("violations") != 0:
        return "envelope check: %r" % mc
    if not (lo - 1e-6 <= mc["min"] <= mc["max"] <= hi + 1e-6):
        return "reported extremes outside the envelope"
    return None


# --------------------------------------------------------------------------
# det_cli kinds: library
# --------------------------------------------------------------------------

def _automorphism(p):
    return hz.parse_spec("automorphism:%r,%r" % (p["A"], p["B"]))


def _call_orbit(p, workdir):
    spec = _automorphism(p)
    cfg = dm.EvolutionConfig(k=p["k"], t_end=p["t_end"], dt=p["dt"])
    phi = dm.evolve_phi(spec, cfg, p["z0"], [0.5 * p["t_end"], p["t_end"]])
    psi_times = [p.get("psi_period", 0.5 * p["t_end"]), p["t_end"]]
    psi = dm.evolve_psi(spec, cfg, p["z0"], psi_times)
    closed = None
    if p["cls"] == "elliptic":
        closed = dm.is_closed_trajectory(p["A"], p["B"], p["k"], 16)
    return phi, psi, closed


def _check_orbit(p, result):
    phi, psi, closed = result
    problem = _max_modulus_problem(np.concatenate([phi.values, psi.values]),
                                   1e-9)
    if problem or p["cls"] != "elliptic":
        return problem
    if not closed[0] or abs(closed[2] - p["period"]) > 1e-9 * p["period"]:
        return "is_closed_trajectory: %r, expected period %r" % (
            closed, p["period"])
    gap_phi = abs(phi.values[-1] - p["z0"])
    gap_psi = abs(psi.values[1] - p["z0"])
    if max(gap_phi, gap_psi) > 1e-6:
        return "closed orbit return gap phi %.3g, psi %.3g > 1e-6" % (
            gap_phi, gap_psi)
    return None


def _call_solvable(p, workdir):
    spec = hz.parse_spec("cayley-linear")
    cfg = dm.EvolutionConfig(k=p["k"], t_end=p["t_end"], dt=p["dt"])
    times = np.linspace(0.0, p["t_end"], p["samples"])
    return dm.evolve_phi(spec, cfg, p["z0"], times)


def _check_solvable(p, traj):
    for t, v in zip(traj.times[1:], traj.values[1:]):
        ref = _example1_reference(p["z0"], t, p["k"]).phi
        if abs(v - ref) > 1e-7:
            return "phi_t off example1_reference by %.3g at t=%r" % (
                abs(v - ref), t)
    return None


def _call_boundary(p, workdir):
    spec = hz.parse_spec(p["spec"])
    return dm.boundary_image(spec, p["k"], p["t"], p["n"])


def _check_boundary(p, points):
    points = np.asarray(points)
    if len(points) != p["n"]:
        return "expected %d points, got %d" % (p["n"], len(points))
    problem = _max_modulus_problem(points, 1e-9)
    if problem or p["spec"] != "cayley-linear":
        return problem
    # phi_t(z) = e^{-t} z + phi_t(0) in the solvable case
    z0 = (1.0 - 1e-6) * np.exp(2j * math.pi * np.arange(p["n"]) / p["n"])
    ref = math.exp(-p["t"]) * z0 + _example1_reference(0.0, p["t"], p["k"]).phi
    gap = float(np.max(np.abs(points - ref)))
    if gap > 1e-7:
        return "boundary image off example1_reference by %.3g" % gap
    return None


def _moment_problem(p, times, values):
    problem = _max_modulus_problem(values, 1e-8)
    if problem or p["spec"] != "cayley-linear":
        return problem
    lam = 1.0 + 0.5 * p["k"] ** 2
    ref = (1.0 - np.exp(-lam * times)) / lam + p["z"] * np.exp(-lam * times)
    gap = float(np.max(np.abs(values[:, 0] - ref)))
    if gap > 1e-8:
        return "mu_1 off its closed form by %.3g" % gap
    return None


def _call_moments(p, workdir):
    spec = hz.parse_spec(p["spec"])
    return st.solve_moment_hierarchy(spec, p["k"], p["z"], p["t_end"], p["m"],
                                     p["truncation"], closure=p["closure"])


def _check_moments(p, table):
    return _moment_problem(p, table.times, table.values)


def _call_fixed_point(p, workdir):
    return dm.find_fixed_point(_automorphism(p), p["k"])


def _check_fixed_point(p, fp):
    if p["cls"] != "elliptic":
        return None if fp is None else "found %r in a hyperbolic flow" % fp
    ref = _classify_semigroup(p["A"], p["B"], p["k"]).fixed_point
    if fp is None or abs(fp - ref) > 1e-8:
        return "fixed point %r, classification gives %r" % (fp, ref)
    return None


# --------------------------------------------------------------------------
# det_cli kinds: in-process CLI
# --------------------------------------------------------------------------

def _cli(argv, workdir, mkdir=True):
    if mkdir:
        os.makedirs(workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailed("exit %d: %s" % (code, err.getvalue().strip()))
    return CliRun(stdout=out.getvalue(), workdir=workdir)


def _read_csv(path):
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _manifest_problem(manifest_path, outputs):
    """Outputs exist and are non-empty, and the manifest lists them."""
    for path in outputs + [manifest_path]:
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            return "missing or empty output %s" % os.path.basename(path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if sorted(manifest.get("outputs", [])) != sorted(outputs):
        return "manifest outputs %r" % manifest.get("outputs")
    return None


def _call_cli_evolve(p, workdir):
    out, svg = os.path.join(workdir, "orbit.csv"), os.path.join(workdir, "orbit.svg")
    return _cli(["evolve", "--spec", p["spec"], "--k=%r" % p["k"],
                 "--z0=" + _lit(p["z0"]), "--t-end=%r" % p["t_end"],
                 "--dt=%r" % p["dt"], "--mode", "det", "--out", out,
                 "--svg", svg], workdir)


def _check_cli_evolve(p, run):
    out, svg = os.path.join(run.workdir, "orbit.csv"), os.path.join(run.workdir, "orbit.svg")
    problem = _manifest_problem(out + ".manifest.json", [out, svg])
    if problem:
        return problem
    rows = _read_csv(out)
    if rows[0] != ["t", "re", "im", "frame"] or float(rows[-1][0]) != p["t_end"]:
        return "CSV does not run from its header to t_end"
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    return _max_modulus_problem(values, 1e-9)


def _call_cli_boundary(p, workdir):
    out, svg = os.path.join(workdir, "image.csv"), os.path.join(workdir, "image.svg")
    return _cli(["boundary", "--what", "image", "--spec", p["spec"],
                 "--k=%r" % p["k"], "--t=%r" % p["t"], "--points=%d" % p["n"],
                 "--out", out, "--svg", svg], workdir)


def _check_cli_boundary(p, run):
    out, svg = os.path.join(run.workdir, "image.csv"), os.path.join(run.workdir, "image.svg")
    problem = _manifest_problem(out + ".manifest.json", [out, svg])
    if problem:
        return problem
    rows = _read_csv(out)[1:]
    if len(rows) != p["n"]:
        return "expected %d CSV rows, got %d" % (p["n"], len(rows))
    return _max_modulus_problem(
        np.array([complex(float(r[1]), float(r[2])) for r in rows]), 1e-9)


def _call_cli_moments(p, workdir):
    out = os.path.join(workdir, "moments.csv")
    return _cli(["moments", "--spec", p["spec"], "--k=%r" % p["k"],
                 "--z0=" + _lit(p["z"]), "--t-end=%r" % p["t_end"],
                 "--m=%d" % p["m"], "--truncation=%d" % p["truncation"],
                 "--points=%d" % p["points"], "--out", out], workdir)


def _check_cli_moments(p, run):
    out = os.path.join(run.workdir, "moments.csv")
    problem = _manifest_problem(out + ".manifest.json", [out])
    if problem:
        return problem
    rows = np.array([[float(x) for x in r] for r in _read_csv(out)[1:]])
    if rows.shape != (p["points"], 1 + 2 * p["m"]):
        return "moments CSV has shape %r" % (rows.shape,)
    values = rows[:, 1::2] + 1j * rows[:, 2::2]
    return _moment_problem(p, rows[:, 0], values)


def _call_cli_figures(p, workdir):
    return _cli(["figures", "--which", "fig1", "--points=%d" % p["n"],
                 "--out-dir", workdir], workdir)


def _check_cli_figures(p, run):
    outputs = [os.path.join(run.workdir, "fig1_%s.svg" % tag)
               for tag in ("a", "b", "c")]
    return _manifest_problem(os.path.join(run.workdir, "fig1.manifest.json"),
                             outputs)


def _call_cli_classify(p, workdir):
    return _cli(["classify", "--spec", "automorphism:%r,%r" % (p["A"], p["B"]),
                 "--k=%r" % p["k"], "--closed-check"], workdir, mkdir=False)


def _check_cli_classify(p, run):
    if not run.stdout.strip():
        return "empty output"
    out = json.loads(run.stdout)
    if out.get("kind") != p["cls"]:
        return "classified %r, expected %r" % (out.get("kind"), p["cls"])
    if p["cls"] == "elliptic" and out.get("closed") is not True:
        return "elliptic orbit reported as not closed: %r" % out
    return None


KINDS = {
    "expectation": (_call_expectation, _check_expectation),
    "covariance": (_call_covariance, _check_covariance),
    "backward": (_call_backward, _check_backward),
    "phi": (_call_phi, _check_phi),
    "example1": (_call_example1, _check_example1),
    "psi_sde": (_call_psi_sde, _check_psi_sde),
    "circle": (_call_circle, _check_circle),
    "cli_bounds": (_call_cli_bounds, _check_cli_bounds),
    "orbit": (_call_orbit, _check_orbit),
    "solvable": (_call_solvable, _check_solvable),
    "boundary": (_call_boundary, _check_boundary),
    "moments": (_call_moments, _check_moments),
    "fixed_point": (_call_fixed_point, _check_fixed_point),
    "cli_evolve": (_call_cli_evolve, _check_cli_evolve),
    "cli_boundary": (_call_cli_boundary, _check_cli_boundary),
    "cli_moments": (_call_cli_moments, _check_cli_moments),
    "cli_figures": (_call_cli_figures, _check_cli_figures),
    "cli_classify": (_call_cli_classify, _check_cli_classify),
}


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def run_task(task, workdir):
    """Run one task, time its library call and check what it returned.

    ``workdir`` is a path the task may create for CLI outputs; it is
    removed afterwards.  A library failure or a failed check is
    recorded in the outcome and never raised.
    """
    call, check = KINDS[task.kind]
    try:
        started = time.perf_counter()
        try:
            result = call(task.params, workdir)
        except Exception as exc:  # counted as a failed task, run goes on
            return Outcome("error", time.perf_counter() - started,
                           detail="%s: %s" % (type(exc).__name__, exc))
        latency = time.perf_counter() - started
        try:
            problem = check(task.params, result)
        except Exception as exc:  # a malformed result fails its check
            problem = "check raised %s: %s" % (type(exc).__name__, exc)
        status = "ok"
        if problem and task.params.get("coarse"):
            status = "error"
        elif problem:
            status = "stat" if isinstance(problem, StatProblem) else "wrong"
        return Outcome(status, latency,
                       digest=digest(result), detail=problem,
                       bytes_written=_tree_bytes(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _tree_bytes(root):
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def digest(result):
    """Hash of a task result, equal exactly when the results are bitwise
    equal (CLI runs: stdout and output files, manifest wall time left out)."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(("%s%r" % (obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif obj is None or isinstance(obj, (bool, int, float, complex, str)):
        h.update(repr(obj).encode() + b"\0")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, CliRun):
        _feed(h, obj.stdout)
        for dirpath, _, files in sorted(os.walk(obj.workdir)):
            for name in sorted(files):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                if name.endswith(".manifest.json"):
                    record = json.loads(data)
                    record.pop("wall_time_s", None)
                    data = json.dumps(record, sort_keys=True).encode()
                _feed(h, name)
                h.update(data)
    elif dataclasses.is_dataclass(obj):
        _feed(h, type(obj).__name__)
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError("cannot digest %s" % type(obj).__name__)
