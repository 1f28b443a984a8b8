"""Command line front end: simulate, classify, solve, plot.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Every
command is deterministic given its full flag set (seeds included).
File-producing commands (evolve, moments, boundary, figures) return
their outputs as text; ``write_run`` writes them, then a JSON run
manifest to --manifest or to a default path by the outputs; its
``config`` records every option of the subcommand, so re-running
with it reproduces the same bytes.  Each ``key = value`` line of a
``--config`` file is read as the flag ``--key=value`` ahead of the
explicit flags, so those win; an unknown key is a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__, stochastic
from .deterministic import (
    _DT_CAP,
    EvolutionConfig,
    _boundary_images,
    classify_semigroup,
    evolve_phi,
    is_closed_trajectory,
)
from .herglotz import (
    Error,
    Exponential,
    _automorphism_parameters,
    _count,
    _finite,
    _finite_complex,
    _positive,
    format_complex,
    parse_complex,
    parse_spec,
)
from .stochastic import _BOUND_SPECS

MANIFEST_SCHEMA = "loewnerkit/manifest-v1"
# options that steer a run rather than describe it; no manifest records them
_UNRECORDED = ("help", "config", "manifest")


class Written(NamedTuple):
    """What a file-producing command computed, none of it written yet:
    ``files``, the ordered (path, text) pairs of its outputs, the
    default manifest path, what the run reports about itself (evolve,
    boundary image, figures: steps, rejections or projections, and the
    method) and computed config entries (dt_used)."""

    files: list
    manifest: str
    stats: dict | None = None
    extra: dict | None = None


def write_run(args, sub, written, started):
    """Write one run of subcommand ``sub``, the only place the CLI
    writes a file: each of ``written.files`` in order, Error ahead of
    one whose text is empty (the text, not the file's size on disk, so
    /dev/null or a pipe is a valid output), then the manifest to
    --manifest, else to ``written.manifest``.  ``wall_time_s`` runs
    from ``started`` (a time.monotonic reading) to the last output;
    ``config`` is every option of ``sub`` (less _UNRECORDED) plus
    ``written.extra``."""
    for path, text in written.files:
        if not text:
            raise Error("output file missing or empty: %s" % path)
        with open(path, "w") as fh:
            fh.write(text)
    wall_time_s = time.monotonic() - started
    config = {a.dest: _jsonable(getattr(args, a.dest)) for a in sub._actions
              if a.dest not in _UNRECORDED}
    config.update(written.extra or {})
    record = {"schema": MANIFEST_SCHEMA, "command": args.command,
              "config": config, "seed": getattr(args, "seed", None),
              "outputs": [path for path, _ in written.files],
              "version": __version__, "wall_time_s": wall_time_s}
    if written.stats is not None:
        record["stats"] = written.stats
    with open(args.manifest or written.manifest, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

def _flag(rule, *extra):
    """Flag type from a herglotz argument rule: ``rule("value", text,
    *extra)``, its ValueError a usage error."""
    def parse(text):
        try:
            return rule("value", text, *extra)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_finite_float = _flag(_finite)
_positive_float = _flag(_positive)
_count_flag = _flag(_count, 0)
_positive_count = _flag(_count, 1)
# boundary_image takes at least 16 points
_image_points = _flag(_count, 16)
_complex_flag = _flag(lambda name, text: _finite_complex(name,
                                                         parse_complex(text)))


def _jsonable(value):
    if isinstance(value, complex):
        return format_complex(value)
    return value


def _csv(header, columns):
    """CSV text: the header line, then one row per entry of the
    equal-length columns; every number as %.17g, which round-trips a
    double."""
    rows = np.column_stack(columns).tolist()
    return "\n".join([header] + [",".join("%.17g" % x for x in row)
                                 for row in rows]) + "\n"


def _require(args, parser, *dests):
    missing = [d for d in dests if getattr(args, d) is None]
    if missing:
        parser.error("missing required option(s): %s"
                     % ", ".join("--" + d.replace("_", "-") for d in missing))


# --------------------------------------------------------------------------
# SVG rendering (self-contained, no external assets)
# --------------------------------------------------------------------------

def render_disk_svg(points, tau, title):
    """Unit-disk figure: the dashed boundary circle, the blue curve
    through ``points`` (a complex sequence), a red marker at the
    driving point ``tau`` and ``title`` above.  Returns the SVG
    document as a string.
    """
    size, pad = 480, 24.0
    radius = (size - 2.0 * pad) / 2.0
    cx = cy = size / 2.0

    def xy(z):
        return cx + radius * z.real, cy - radius * z.imag

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (size, size, size, size),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (size, size),
        '<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" stroke="#999999" '
        'stroke-width="1" stroke-dasharray="4 3"/>' % (cx, cy, radius),
        '<polyline points="%s" fill="none" stroke="#1f77b4" '
        'stroke-width="1.5"/>'
        % " ".join("%.3f,%.3f" % xy(complex(z)) for z in points),
        '<circle cx="%.3f" cy="%.3f" r="5" fill="#d62728"/>' % xy(tau),
        '<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="14" '
        'fill="#333333">%s</text>' % (pad, pad - 6.0, title),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_evolve(args, parser):
    spec = parse_spec(args.spec)
    t_end = args.t_end
    # every mode samples on the uniform grid that lands exactly on t_end
    n_steps, dt_used = stochastic._step_grid(t_end, args.dt)
    times = np.linspace(0.0, t_end, n_steps + 1)
    if args.mode == "det":
        cfg = EvolutionConfig(k=args.k, t_end=t_end, dt=min(dt_used, _DT_CAP))
        traj = evolve_phi(spec, cfg, args.z0, times)
        tau = cmath.exp(1j * args.k * t_end)
    else:
        path = stochastic.sample_brownian(args.seed, dt_used, n_steps)
        if args.mode == "random":
            traj = stochastic.evolve_phi_pathwise(spec, args.k, args.z0,
                                                  path, times)
            tau = cmath.exp(1j * args.k * path.values[-1])
        else:
            # the path grid n dt_used can overshoot t_end by an ulp
            traj = dataclasses.replace(
                stochastic.evolve_psi_sde(spec, args.k, args.z0, path,
                                          scheme=args.scheme), times=times)
            tau = 1.0 + 0.0j
    files = [(args.out, traj.to_csv())]
    if args.svg:
        files.append((args.svg, render_disk_svg(
            traj.values, tau, "%s  k=%s  %s frame"
            % (spec.text_form(), args.k, traj.frame))))
    return Written(files, args.out + ".manifest.json", stats=traj.stats,
                   extra={"dt_used": dt_used})


def _classify_params(args, parser):
    if args.spec is not None:
        params = _automorphism_parameters(parse_spec(args.spec))
        if params is None:
            parser.error("classification covers the two-parameter boundary "
                         "family; pass --A/--B or an automorphism spec")
        return params
    _require(args, parser, "A", "B")
    return args.A, args.B


def cmd_classify(args, parser):
    A, B = _classify_params(args, parser)
    result = classify_semigroup(A, B, args.k)
    out = {"kind": result.kind.lower(), "D": result.discriminant}
    if result.fixed_point is not None:
        out["fixed_point"] = [result.fixed_point.real,
                              result.fixed_point.imag]
    if args.closed_check:
        if result.kind != "Elliptic":
            out["closed"] = None
            out["closed_reason"] = ("orbit closure is an elliptic-class "
                                    "question; flow is %s"
                                    % result.kind.lower())
        else:
            closed, ratio, period = is_closed_trajectory(A, B, args.k,
                                                         args.max_den)
            out["closed"] = closed
            out["ratio"] = ratio
            if closed:
                frac = Fraction(ratio).limit_denominator(args.max_den)
                out["ratio_fraction"] = "%d/%d" % (frac.numerator,
                                                   frac.denominator)
                out["period"] = period
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_moments(args, parser):
    spec = parse_spec(args.spec)
    times = np.linspace(0.0, args.t_end, args.points)
    table = stochastic.solve_moment_hierarchy(
        spec, args.k, args.z0, args.t_end, args.m, args.truncation,
        closure=args.closure, sample_times=times)
    header = "t" + "".join(",re_mu%d,im_mu%d" % (m, m) for m in table.orders)
    text = _csv(header, [table.times] + [part for mu in table.values.T
                                         for part in (mu.real, mu.imag)])
    return Written([(args.out, text)], args.out + ".manifest.json")


def cmd_bounds(args, parser):
    lower, upper = stochastic.growth_bounds(args.spec, args.r0, args.t)
    out = {"spec": args.spec, "r0": args.r0, "t": args.t,
           "lower": lower, "upper": upper}
    code = 0
    if args.paths:
        lows, highs, violations = [], [], 0
        for phi in stochastic._phi_pathwise_blocks(
                _BOUND_SPECS[args.spec](), args.k, args.r0, args.seed,
                args.paths, args.t, args.dt):
            r = np.abs(phi)
            lows.append(r.min())
            highs.append(r.max())
            violations += int(np.count_nonzero((r < lower - 1e-6)
                                               | (r > upper + 1e-6)))
        out["mc"] = {"paths": args.paths, "k": args.k, "seed": args.seed,
                     "min": float(min(lows)), "max": float(max(highs)),
                     "violations": violations}
        if violations:
            code = 1
    print(json.dumps(out, sort_keys=True))
    return code


def cmd_boundary(args, parser):
    if args.what == "image":
        _require(args, parser, "spec", "t")
        spec = parse_spec(args.spec)
        (points,), stats = _boundary_images(spec, args.k, [args.t],
                                            args.points)
        angles = 2.0 * math.pi * np.arange(len(points)) / len(points)
        files = [(args.out, _csv("angle,re,im", [angles, np.real(points),
                                                 np.imag(points)]))]
        if args.svg:
            # the image is a closed curve: back to its first point
            files.append((args.svg, render_disk_svg(
                points + points[:1], cmath.exp(1j * args.k * args.t),
                "%s  k=%s  t=%.6g" % (spec.text_form(), args.k, args.t))))
        return Written(files, args.out + ".manifest.json", stats=stats)
    _require(args, parser, "A", "B", "t_end")
    n_steps, dt_used = stochastic._step_grid(args.t_end, args.dt)
    path = stochastic.sample_brownian(args.seed, dt_used, n_steps)
    theta = stochastic.simulate_boundary_diffusion(
        args.A, args.B, args.k, args.theta0, path)
    text = _csv("t,theta", [np.linspace(0.0, args.t_end, n_steps + 1), theta])
    return Written([(args.out, text)], args.out + ".manifest.json",
                   extra={"dt_used": dt_used})


_FIG1_TIMES = (("a", math.pi / 4.0, "t = pi/4"),
               ("b", math.pi / 2.0, "t = pi/2"),
               ("c", 3.0 * math.pi / 4.0, "t = 3pi/4"))


def cmd_figures(args, parser):
    """fig1: the boundary image at each of _FIG1_TIMES, one panel each,
    all from one solve that takes the panel times as its sample times;
    the manifest carries that solve's stats."""
    os.makedirs(args.out_dir, exist_ok=True)
    images, stats = _boundary_images(Exponential(), 1.0,
                                     [t for _, t, _ in _FIG1_TIMES],
                                     args.points)
    files = [(os.path.join(args.out_dir, "fig1_%s.svg" % tag),
              render_disk_svg(points + points[:1], cmath.exp(1j * t), title))
             for (tag, t, title), points in zip(_FIG1_TIMES, images)]
    return Written(files, os.path.join(args.out_dir, "fig1.manifest.json"),
                   stats=stats)


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------

def _add_config(sub):
    sub.add_argument("--config", help="key=value file; explicit flags win")


def _add_manifest(sub, default="<out>.manifest.json"):
    sub.add_argument("--manifest", help="manifest path (default: %s)"
                     % default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loewnerkit",
        description="Driven conformal evolution in the unit disk: "
                    "simulation, classification, and figures.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = subs.add_parser(
        "evolve", allow_abbrev=False,
        help="integrate one trajectory",
        epilog="CSV schema: t,re,im,frame (one row per sample time).")
    p.add_argument("--spec", required=True, help="driving spec, e.g. cayley "
                   "or automorphism:1,0.5 or taylor:1,0.2i")
    p.add_argument("--k", type=_finite_float, required=True,
                   help="rotation rate / noise amplitude")
    p.add_argument("--z0", type=_complex_flag, default=0j,
                   help="start point (complex literal, i suffix)")
    p.add_argument("--t-end", type=_finite_float, required=True, dest="t_end")
    p.add_argument("--dt", type=_positive_float, default=0.01,
                   help="sample spacing (and path step), rounded to land "
                        "on --t-end; the manifest records it as dt_used")
    p.add_argument("--mode", choices=("det", "random", "sde"), default="det")
    p.add_argument("--scheme", choices=("euler", "milstein"),
                   default="milstein", help="SDE scheme (mode sde)")
    p.add_argument("--seed", type=_count_flag, default=0)
    p.add_argument("--out", default="evolve.csv")
    p.add_argument("--svg", help="also draw the trajectory to this file")
    _add_config(p)
    _add_manifest(p)
    registry["evolve"] = (p, cmd_evolve)

    p = subs.add_parser(
        "classify", allow_abbrev=False,
        help="phase portrait of the two-parameter boundary family",
        epilog="JSON fields: kind, D, fixed_point?, closed?, ratio?, "
               "ratio_fraction?, period?")
    p.add_argument("--A", type=_finite_float)
    p.add_argument("--B", type=_finite_float)
    p.add_argument("--k", type=_finite_float, required=True)
    p.add_argument("--spec", help="alternative to --A/--B")
    p.add_argument("--closed-check", action="store_true",
                   dest="closed_check")
    p.add_argument("--max-den", type=_positive_count, default=64,
                   dest="max_den")
    _add_config(p)
    registry["classify"] = (p, cmd_classify)

    p = subs.add_parser(
        "moments", allow_abbrev=False,
        help="solve the moment hierarchy",
        epilog="CSV schema: t,re_mu1,im_mu1,...,re_muM,im_muM.")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=_finite_float, required=True)
    p.add_argument("--z0", type=_complex_flag, default=0j)
    p.add_argument("--t-end", type=_finite_float, default=1.0, dest="t_end")
    p.add_argument("--m", type=_positive_count, default=1,
                   help="highest reported order")
    p.add_argument("--truncation", type=_positive_count, default=12,
                   help="order of the cut, at least --m")
    p.add_argument("--closure", choices=("zero", "frozen"), default="zero")
    p.add_argument("--points", type=_positive_count, default=65)
    p.add_argument("--out", default="moments.csv")
    _add_config(p)
    _add_manifest(p)
    registry["moments"] = (p, cmd_moments)

    p = subs.add_parser(
        "bounds", allow_abbrev=False,
        help="radial growth envelope, optionally checked by simulation",
        epilog="JSON fields: spec, r0, t, lower, upper, mc?")
    p.add_argument("--spec", choices=tuple(_BOUND_SPECS), required=True)
    p.add_argument("--r0", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--paths", type=_count_flag, default=0,
                   help="simulate this many paths against the envelope")
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--dt", type=_positive_float, default=1e-3)
    p.add_argument("--seed", type=_count_flag, default=0)
    _add_config(p)
    registry["bounds"] = (p, cmd_bounds)

    p = subs.add_parser(
        "boundary", allow_abbrev=False,
        help="boundary circle image or induced circle diffusion",
        epilog="CSV schema: image -> angle,re,im; diffusion -> t,theta.")
    p.add_argument("--what", choices=("image", "diffusion"), default="image")
    p.add_argument("--spec")
    p.add_argument("--k", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, help="image time")
    p.add_argument("--points", type=_image_points, default=256)
    p.add_argument("--A", type=_finite_float)
    p.add_argument("--B", type=_finite_float)
    p.add_argument("--theta0", type=_finite_float, default=1.0)
    p.add_argument("--t-end", type=_finite_float, dest="t_end")
    p.add_argument("--dt", type=_positive_float, default=1e-3)
    p.add_argument("--seed", type=_count_flag, default=0)
    p.add_argument("--out", default="boundary.csv")
    p.add_argument("--svg", help="draw the image curve (image mode)")
    _add_config(p)
    _add_manifest(p)
    registry["boundary"] = (p, cmd_boundary)

    p = subs.add_parser(
        "figures", allow_abbrev=False,
        help="regenerate the reference figure panels",
        epilog="fig1: three SVG panels of the evolved disk boundary for "
               "the exponential spec, k=1.")
    p.add_argument("--which", choices=("fig1",), default="fig1")
    p.add_argument("--points", type=_image_points, default=256)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    _add_config(p)
    _add_manifest(p, default="<out-dir>/fig1.manifest.json")
    registry["figures"] = (p, cmd_figures)

    return parser, registry


@functools.lru_cache(maxsize=None)
def _parser():
    """build_parser(), built once per process: parsing leaves no state in
    it, and its types and commands are module functions that look up
    the library when they run."""
    return build_parser()


# --------------------------------------------------------------------------
# config files and entry point
# --------------------------------------------------------------------------

def _load_config(path):
    values = {}
    if not os.path.exists(path):
        raise ValueError("config file not found: %s" % path)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            values[key.strip().replace("-", "_")] = val.strip()
    return values


@functools.lru_cache(maxsize=None)
def _config_parser(prog):
    """The parser that finds --config among a subcommand's flags, built
    once per subcommand; it reports errors under the subcommand's
    ``prog``."""
    pre = argparse.ArgumentParser(prog=prog, add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _config_flags(sub, argv):
    """The flags standing for the --config file named in ``argv`` (the
    last one wins): ``--option=value`` per line, a store-true option
    bare when its value is true and left out otherwise."""
    path = _config_parser(sub.prog).parse_known_args(argv)[0].config
    if path is None:
        return []
    actions = {a.dest: a for a in sub._actions}
    flags = []
    for dest, raw in _load_config(path).items():
        if dest in ("config", "help"):
            continue
        if dest not in actions:
            raise ValueError("unknown config key %r" % dest)
        option = actions[dest].option_strings[0]
        if actions[dest].nargs != 0:
            flags.append("%s=%s" % (option, raw))
        elif raw.lower() in ("1", "true", "yes", "on"):
            flags.append(option)
    return flags


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _parser()
    try:
        if argv and argv[0] in registry:
            # config flags go first, so explicit flags win
            argv[1:1] = _config_flags(registry[argv[0]][0], argv[1:])
        args = parser.parse_args(argv)
        sub, run = registry[args.command]
        started = time.monotonic()
        result = run(args, sub)
        if isinstance(result, Written):
            write_run(args, sub, result, started)
            return 0
        return result
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (Error, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
