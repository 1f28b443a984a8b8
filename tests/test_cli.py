import argparse
import csv
import json
import math
import os
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import conftest
from loewnerkit import Error, __version__, cli, deterministic, stochastic
from loewnerkit.deterministic import StiffnessError
from loewnerkit.herglotz import Cayley, DomainError, Exponential


def run(capsys, args):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# one small run of each file-producing command, writing under tmp
def file_command(command, tmp):
    return {
        "evolve": ["evolve", "--spec", "cayley", "--k", "1", "--t-end", "0.1",
                   "--out", str(tmp / "e.csv")],
        "moments": ["moments", "--spec", "cayley", "--k", "1", "--points", "3",
                    "--out", str(tmp / "m.csv")],
        "boundary": ["boundary", "--spec", "cayley", "--k", "1", "--t", "0.1",
                     "--points", "16", "--out", str(tmp / "b.csv")],
        "figures": ["figures", "--points", "16", "--out-dir", str(tmp / "f")],
    }[command]


FILE_COMMANDS = ("evolve", "moments", "boundary", "figures")
# the commands that print JSON and write no file
NO_FILE_COMMANDS = [
    ["classify", "--spec", "automorphism:1,0", "--k", "2"],
    ["bounds", "--spec", "cayley", "--r0", "0.3", "--t", "0.5"],
]


# ---------------------------------------------------------------- usage

def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "evolve" in out and "classify" in out


def test_no_arguments_is_usage_error(capsys):
    rc, _, _ = run(capsys, [])
    assert rc == 2


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["frobnicate"])
    assert rc == 2


def test_unknown_flag_is_usage_error(capsys):
    rc, _, _ = run(capsys, ["evolve", "--spec", "cayley", "--nope", "1"])
    assert rc == 2


def test_bad_spec_text_is_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, [
        "evolve", "--spec", "nonsense", "--k", "1", "--z0", "0",
        "--t-end", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "unknown spec" in err


def test_bad_mode_and_negative_duration(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    rc, _, _ = run(capsys, ["evolve", "--spec", "cayley", "--k", "1",
                            "--z0", "0", "--t-end", "1", "--mode", "warp",
                            "--out", out])
    assert rc == 2
    for mode in ("det", "random", "sde"):
        rc, _, err = run(capsys, ["evolve", "--spec", "cayley", "--k", "1",
                                  "--z0", "0", "--t-end", "-1", "--mode",
                                  mode, "--out", out])
        assert rc == 2, mode
        assert "Traceback" not in err


# ---------------------------------------------------------------- evolve

def test_evolve_det_closed_orbit(capsys, tmp_path):
    out = tmp_path / "orbit.csv"
    svg = tmp_path / "orbit.svg"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley", "--k", "2.5", "--z0", "0",
        "--t-end", repr(4 * math.pi), "--mode", "det",
        "--out", str(out), "--svg", str(svg)])
    assert rc == 0

    rows = read_rows(out)
    assert rows[0] == ["t", "re", "im", "frame"]
    assert rows[1][3] == "phi"
    first = complex(float(rows[1][1]), float(rows[1][2]))
    last = complex(float(rows[-1][1]), float(rows[-1][2]))
    assert abs(first) < 1e-15
    assert abs(last - first) < 1e-8

    text = svg.read_text()
    assert "<svg" in text and "polyline" in text
    assert "stroke-dasharray" in text      # the unit circle is dashed
    assert "#d62728" in text               # attracting-point marker

    manifest = json.loads((tmp_path / "orbit.csv.manifest.json").read_text())
    assert manifest["schema"] == "loewnerkit/manifest-v1"
    assert manifest["command"] == "evolve"
    assert manifest["version"] == __version__
    assert manifest["outputs"] == [str(out), str(svg)]
    assert manifest["config"]["spec"] == "cayley"
    assert manifest["config"]["dt_used"] > 0
    assert manifest["wall_time_s"] >= 0
    assert manifest["stats"]["steps"] > 0
    assert manifest["stats"]["rejections"] >= 0


def test_evolve_det_samples_on_the_step_grid(capsys, tmp_path):
    # dt 0.3 does not divide 1: the grid rounds it to 1/3 and ends on 1.0
    out = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, ["evolve", "--spec", "cayley", "--k", "1",
                            "--t-end", "1", "--dt", "0.3", "--mode", "det",
                            "--out", str(out)])
    assert rc == 0
    times = [float(row[0]) for row in read_rows(out)[1:]]
    assert times == pytest.approx([0.0, 1.0 / 3, 2.0 / 3, 1.0], abs=1e-16)
    assert times[-1] == 1.0
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["config"]["dt_used"] == 1.0 / 3


def test_evolve_zero_duration(capsys, tmp_path):
    out = tmp_path / "zero.csv"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley-linear", "--k", "1",
        "--z0", "0.3+0.1i", "--t-end", "0", "--mode", "det",
        "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[1][0]) == 0.0
    assert abs(complex(float(rows[1][1]), float(rows[1][2]))
               - (0.3 + 0.1j)) < 1e-15


def test_evolve_random_seed_reproducibility(capsys, tmp_path):
    def once(name, seed):
        out = tmp_path / name
        rc, _, _ = run(capsys, [
            "evolve", "--spec", "cayley-linear", "--k", "1.5", "--z0", "0",
            "--t-end", "1", "--mode", "random", "--seed", seed,
            "--out", str(out)])
        assert rc == 0
        return out.read_bytes()

    a = once("a.csv", "7")
    b = once("b.csv", "7")
    c = once("c.csv", "8")
    assert a == b
    assert a != c


def test_evolve_random_manifest_records_seed(capsys, tmp_path):
    out = tmp_path / "r.csv"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley", "--k", "1", "--z0", "0",
        "--t-end", "0.5", "--mode", "random", "--seed", "42",
        "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["stats"]["steps"] > 0


def test_evolve_random_manifest_records_the_method(capsys, tmp_path):
    for spec, method in (("cayley", "mobius-exact"),
                         ("automorphism:1,0.5", "mobius-exact"),
                         ("taylor:0.5+2i", "mobius-exact"),
                         ("exponential", "rk4"), ("taylor:1,0.5", "rk4")):
        out = tmp_path / "r.csv"
        rc, _, _ = run(capsys, [
            "evolve", "--spec", spec, "--k", "1", "--z0", "0.3",
            "--t-end", "0.5", "--mode", "random", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["stats"] == {"steps": 50, "method": method}


def test_evolve_random_samples_on_the_path_grid(capsys, tmp_path):
    # dt = 0.03 does not divide t_end = 1: the path takes 33 steps of
    # 1/33, one cell each, and is sampled at its 34 grid points
    out = tmp_path / "r.csv"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley", "--k", "1", "--z0", "0",
        "--t-end", "1", "--dt", "0.03", "--mode", "random", "--seed", "0",
        "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["config"]["dt_used"] == 1.0 / 33
    assert manifest["stats"]["steps"] == 33
    times = [float(row[0]) for row in read_rows(out)[1:]]
    assert times == [j * (1.0 / 33) for j in range(34)]


def test_evolve_det_manifest_records_the_method(capsys, tmp_path):
    # t_end 0.5 at dt 0.01: 50 sample gaps of one exact cell each
    for spec, method in (("cayley", "mobius-exact"),
                         ("automorphism:1,0.5", "mobius-exact"),
                         ("taylor:0.5+2i", "mobius-exact"),
                         ("exponential", "dop853"),
                         ("taylor:1,0.5", "dop853")):
        out = tmp_path / "d.csv"
        rc, _, _ = run(capsys, [
            "evolve", "--spec", spec, "--k", "1", "--z0", "0.3",
            "--t-end", "0.5", "--mode", "det", "--out", str(out)])
        assert rc == 0
        stats = json.loads((tmp_path / "d.csv.manifest.json").read_text())[
            "stats"]
        assert stats["method"] == method
        if method == "mobius-exact":
            assert stats == {"steps": 50, "rejections": 0, "method": method}


@pytest.mark.parametrize("args", [
    ["evolve", "--spec", "cayley", "--k", "1", "--mode", "random"],
    ["evolve", "--spec", "cayley", "--k", "1", "--mode", "sde"],
    ["evolve", "--spec", "cayley", "--k", "1", "--mode", "det"],
    ["boundary", "--what", "diffusion", "--A", "1", "--B", "0", "--k", "1"],
], ids=["random", "sde", "det", "diffusion"])
def test_last_row_is_exactly_t_end(capsys, tmp_path, args):
    # 3 steps of 0.212 / 3: the path grid's 3 * dt_used is
    # 0.21200000000000002, one ulp past the end
    out = tmp_path / "end.csv"
    rc, _, _ = run(capsys, args + ["--t-end", "0.212", "--dt", "0.07",
                                   "--out", str(out)])
    assert rc == 0
    times = [float(row[0]) for row in read_rows(out)[1:]]
    assert len(times) == 4
    assert times[-1] == 0.212
    assert times == [j * (0.212 / 3) for j in range(3)] + [0.212]


@pytest.mark.parametrize("args, flag", [
    (["moments", "--spec", "cayley", "--k", "1", "--m", "0"], "--m"),
    (["moments", "--spec", "cayley", "--k", "1", "--truncation", "0"],
     "--truncation"),
    (["moments", "--spec", "cayley", "--k", "1", "--m", "1.5"], "--m"),
    (["classify", "--A", "1", "--B", "0", "--k", "3", "--closed-check",
      "--max-den", "0"], "--max-den"),
    (["boundary", "--spec", "cayley", "--k", "1", "--t", "1",
      "--points", "4"], "--points"),
    (["figures", "--points", "15"], "--points"),
])
def test_integer_flags_name_their_flag(capsys, tmp_path, args, flag):
    if args[0] in ("moments", "boundary"):
        args = args + ["--out", str(tmp_path / "x.csv")]
    elif args[0] == "figures":
        args = args + ["--out-dir", str(tmp_path / "f")]
    rc, _, err = run(capsys, args)
    assert rc == 2
    assert "argument %s:" % flag in err


def test_evolve_sde_mode(capsys, tmp_path):
    out = tmp_path / "sde.csv"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley", "--k", "1", "--z0", "0.2",
        "--t-end", "0.5", "--mode", "sde", "--seed", "3",
        "--scheme", "milstein", "--dt", "0.01", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[1][3] == "psi"
    assert len(rows) == 52        # header + 51 samples


def test_evolve_sde_manifest_reports_projections(capsys, tmp_path):
    # k = 30 on a 0.2 grid is far too coarse: every step lands outside
    # the disk and is projected back, and the manifest says so
    out = tmp_path / "coarse.csv"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley", "--k", "30", "--z0", "0.5",
        "--t-end", "2", "--dt", "0.2", "--mode", "sde", "--seed", "0",
        "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "coarse.csv.manifest.json").read_text())
    assert manifest["schema"] == "loewnerkit/manifest-v1"
    assert manifest["stats"]["steps"] == 10
    assert manifest["stats"]["projections"] == 10


def test_evolve_manifest_path_override(capsys, tmp_path):
    out = tmp_path / "t.csv"
    man = tmp_path / "custom.json"
    rc, _, _ = run(capsys, [
        "evolve", "--spec", "cayley", "--k", "1", "--z0", "0",
        "--t-end", "0.5", "--mode", "det", "--out", str(out),
        "--manifest", str(man)])
    assert rc == 0
    assert json.loads(man.read_text())["command"] == "evolve"


def test_figures_manifest_path_override(capsys, tmp_path):
    man = tmp_path / "custom.json"
    rc, _, _ = run(capsys, ["figures", "--points", "32",
                            "--out-dir", str(tmp_path / "figs"),
                            "--manifest", str(man)])
    assert rc == 0
    assert json.loads(man.read_text())["command"] == "figures"
    assert not (tmp_path / "figs" / "fig1.manifest.json").exists()


@pytest.mark.parametrize("args", NO_FILE_COMMANDS, ids=["classify", "bounds"])
def test_manifest_flag_only_where_a_manifest_is_written(capsys, tmp_path,
                                                         args):
    man = tmp_path / "m.json"
    rc, _, err = run(capsys, args + ["--manifest", str(man)])
    assert rc == 2
    assert "--manifest" in err
    assert not man.exists()


# ---------------------------------------------------------------- classify

def test_classify_parabolic(capsys):
    rc, out, _ = run(capsys, ["classify", "--spec", "automorphism:1,0",
                              "--k", "2"])
    assert rc == 0
    d = json.loads(out)
    assert d["kind"] == "parabolic"
    assert abs(d["D"]) < 1e-12


def test_classify_hyperbolic(capsys):
    rc, out, _ = run(capsys, ["classify", "--spec", "automorphism:1,0",
                              "--k", "0", "--closed-check"])
    assert rc == 0
    d = json.loads(out)
    assert d["kind"] == "hyperbolic"
    assert d["D"] == pytest.approx(4.0)
    assert d["closed"] is None
    assert "elliptic" in d["closed_reason"]


def test_classify_elliptic_closed(capsys):
    rc, out, _ = run(capsys, ["classify", "--spec", "automorphism:0,1",
                              "--k", "0.5", "--closed-check"])
    assert rc == 0
    d = json.loads(out)
    assert d["kind"] == "elliptic"
    assert d["closed"] is True
    assert d["ratio_fraction"] == "1/3"
    assert d["period"] == pytest.approx(4 * math.pi, rel=1e-9)
    fp = complex(d["fixed_point"][0], d["fixed_point"][1])
    assert abs(fp - 0.5) < 1e-9


def test_classify_const_i_maps_to_pure_rotation_family(capsys):
    rc, out, _ = run(capsys, ["classify", "--spec", "const-i", "--k", "1",
                              "--closed-check"])
    assert rc == 0
    d = json.loads(out)
    assert d["kind"] == "elliptic"
    assert d["closed"] is False


def test_classify_explicit_parameters(capsys):
    rc, out, _ = run(capsys, ["classify", "--A", "1", "--B", "0", "--k", "2"])
    assert rc == 0
    assert json.loads(out)["kind"] == "parabolic"


def test_classify_rejects_generic_spec(capsys):
    # fields that are not automorphism fields: linear, not quadratic, or
    # a constant p with Re p > 0
    for spec in ("cayley-linear", "exponential", "taylor:1,0.5", "taylor:1.0"):
        rc, _, _ = run(capsys, ["classify", "--spec", spec, "--k", "1"])
        assert rc == 2, spec


@pytest.mark.parametrize("spec, A, B", [("cayley", "1", "0"),
                                        ("taylor:0.5i", "0", "0.5")])
def test_classify_spec_reads_its_automorphism_parameters(capsys, spec, A, B):
    rc, by_spec, _ = run(capsys, ["classify", "--spec", spec, "--k", "2.5",
                                  "--closed-check"])
    assert rc == 0
    rc, by_params, _ = run(capsys, ["classify", "--A", A, "--B", B,
                                    "--k", "2.5", "--closed-check"])
    assert rc == 0
    assert by_spec == by_params


def test_classify_missing_parameters(capsys):
    rc, _, err = run(capsys, ["classify", "--k", "1"])
    assert rc == 2
    assert "--A" in err and "--B" in err


# ---------------------------------------------------------------- moments

def test_moments_first_moment_closed_form(capsys, tmp_path):
    out = tmp_path / "mom.csv"
    rc, _, _ = run(capsys, [
        "moments", "--spec", "cayley-linear", "--k", "1", "--z0", "0.3",
        "--t-end", "1", "--m", "2", "--truncation", "6", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["t", "re_mu1", "im_mu1", "re_mu2", "im_mu2"]
    assert len(rows) == 66     # header + default 65 sample times
    mu1 = complex(float(rows[-1][1]), float(rows[-1][2]))
    want = (0.3 - 2.0 / 3.0) * math.exp(-1.5) + 2.0 / 3.0
    assert abs(mu1 - want) < 1e-9


def test_moments_truncation_failure_exits_one(capsys, tmp_path):
    rc, _, err = run(capsys, [
        "moments", "--spec", "cayley", "--k", "0.5184927882198025",
        "--z0", "0.5370282164963841-0.1621848754225168i",
        "--t-end", "1.9382732551314645", "--m", "1", "--truncation", "5",
        "--closure", "frozen", "--out", str(tmp_path / "mom.csv")])
    assert rc == 1
    assert "truncated at order 5" in err


def test_moments_non_finite_failure_exits_one(capsys, tmp_path):
    # k^2/2 overflows at k = 1e160: one error line, no traceback
    out = tmp_path / "mom.csv"
    for closure in ("zero", "frozen"):
        rc, _, err = run(capsys, ["moments", "--spec", "cayley", "--k",
                                  "1e160", "--closure", closure,
                                  "--out", str(out)])
        assert rc == 1
        assert "non-finite moment" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_moments_overflowing_spec_prints_only_the_error(capsys, tmp_path):
    # the spec is admissible, but its samples on the circle overflow
    # to inf: no NumPy warning may precede the one error line
    out = tmp_path / "mom.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run(capsys, ["moments", "--spec",
                                  "taylor:1e308,1e308,0,1", "--k", "1",
                                  "--out", str(out)])
    assert caught == []
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------- bounds

def test_bounds_linear_field_from_origin(capsys):
    rc, out, _ = run(capsys, ["bounds", "--spec", "one", "--r0", "0",
                              "--t", "2"])
    assert rc == 0
    d = json.loads(out)
    assert d["lower"] == 0.0
    assert d["upper"] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_bounds_tanh_envelope(capsys):
    rc, out, _ = run(capsys, ["bounds", "--spec", "cayley", "--r0", "0.5",
                              "--t", "1"])
    assert rc == 0
    d = json.loads(out)
    assert d["lower"] == 0.0    # tanh(-1 + artanh 1/2) < 0, clamped
    assert d["upper"] == pytest.approx(math.tanh(1 + math.atanh(0.5)))


def test_bounds_monte_carlo_check(capsys):
    # the second case is a coarse grid at high k, where fixed-step RK4
    # left the disk: the Moebius cells keep all 2,000 paths inside
    for args, paths in (
            (["--spec", "cayley-linear", "--r0", "0.3", "--t", "1",
              "--k", "1.5", "--paths", "64", "--seed", "11"], 64),
            (["--spec", "cayley", "--r0", "0.99", "--t", "2", "--k", "30",
              "--dt", "0.2", "--paths", "2000", "--seed", "0"], 2000)):
        rc, out, _ = run(capsys, ["bounds"] + args)
        assert rc == 0
        d = json.loads(out)
        assert d["mc"]["violations"] == 0
        assert d["mc"]["paths"] == paths
        assert d["lower"] - 1e-9 <= d["mc"]["min"]
        assert d["mc"]["max"] <= d["upper"] + 1e-9


def escaping_row(j, block=0):
    """Block solver that runs the real one and puts row j of block number
    ``block`` outside the disk."""
    solve = stochastic._phi_pathwise_rows
    calls = []

    def solver(*args):
        phi = solve(*args)
        if len(calls) == block:
            phi[j] = 1.5
        calls.append(len(phi))
        return phi

    return solver


@pytest.mark.parametrize("args", [
    # fixed-step RK4 on a field that is not quadratic leaves the disk
    ["evolve", "--spec", "taylor:2.0,0.5i,0.3", "--k", "10", "--z0", "0.99",
     "--t-end", "2", "--dt", "0.5", "--mode", "random", "--seed", "9"],
    # every bounds spec takes the Moebius cells; the solver is made to fail
    ["bounds", "--spec", "cayley", "--r0", "0.99", "--t", "2", "--k", "30",
     "--dt", "0.2", "--paths", "20", "--seed", "0"],
    ["evolve", "--spec", "taylor:1e308", "--k", "1", "--t-end", "1",
     "--mode", "random"],
    ["evolve", "--spec", "cayley", "--k", "1e200", "--t-end", "1",
     "--mode", "sde"],
    # (k dB)^2 overflows in the first cell of every path
    ["bounds", "--spec", "cayley", "--r0", "0.99", "--t", "2", "--k", "1e200",
     "--dt", "0.2", "--paths", "3", "--seed", "0"],
    # the exact cells of the rotating drive overflow in their first cell
    ["evolve", "--mode", "det", "--t-end", "1", "--spec", "taylor:1e308",
     "--k", "1"],
    ["evolve", "--mode", "det", "--t-end", "1", "--spec", "cayley",
     "--k", "1e200"],
    ["evolve", "--mode", "det", "--t-end", "1",
     "--spec", "automorphism:1e200,0", "--k", "1"],
    ["evolve", "--mode", "random", "--t-end", "1", "--spec", "cayley",
     "--k", "1e200"],
    ["boundary", "--spec", "cayley", "--k", "1e200", "--t", "1"],
])
def test_disk_escape_exits_as_numerical_failure(capsys, tmp_path, monkeypatch,
                                                args):
    named = ""
    if args[0] != "bounds":
        args = args + ["--out", str(tmp_path / "x.csv")]
    elif "1e200" in args:
        # every path escapes; the message names the first
        named = "path 0 (seed %d)" % stochastic.derive_path_seed(0, 0)
    else:
        monkeypatch.setattr(stochastic, "_phi_pathwise_rows", escaping_row(4))
    # an overflow to NaN warns of nothing: stderr is the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run(capsys, args)
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "escapes the unit disk" in err and named in err
    assert not (tmp_path / "x.csv").exists()


def test_bounds_escape_names_the_path(capsys, monkeypatch):
    # row 3 of the second block of 8 paths is path 11
    monkeypatch.setattr(stochastic, "_BLOCK_PATHS", 8)
    monkeypatch.setattr(stochastic, "_phi_pathwise_rows",
                        escaping_row(3, block=1))
    rc, out, err = run(capsys, ["bounds", "--spec", "cayley", "--r0", "0.99",
                                "--t", "0.4", "--k", "30", "--dt", "0.2",
                                "--paths", "20", "--seed", "0"])
    assert rc == 1
    assert out == ""
    assert "path 11 (seed %d)" % stochastic.derive_path_seed(0, 11) in err
    assert "escapes the unit disk" in err


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()
    parser, registry = cli.build_parser()
    assert parser is not cli._parser()[0]
    assert sorted(registry) == sorted(cli._parser()[1])


@pytest.mark.parametrize("args, config", [
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "1", "--dt", "0"],
     None),
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "1",
      "--dt", "-0.1"], None),
    (["bounds", "--spec", "cayley", "--r0", "0.3", "--t", "1",
      "--paths", "4", "--dt", "0"], None),
    (["boundary", "--what", "diffusion", "--A", "1", "--B", "0", "--k", "1",
      "--t-end", "1", "--dt", "0"], None),
    (["bounds", "--spec", "cayley", "--r0", "0.3", "--t", "1",
      "--paths", "-3"], None),
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "1"],
     "z0 = notacomplex\n"),
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "1"], "dt = 0\n"),
    (["boundary", "--what", "diffusion", "--A", "1", "--B", "0", "--k", "1",
      "--t-end", "-1"], None),
    (["classify", "--A", "nan", "--B", "0", "--k", "1"], None),
    (["bounds", "--spec", "cayley", "--r0", "0.3", "--t", "nan"], None),
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "nan"], None),
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "1",
      "--z0", "nan"], None),
    (["evolve", "--spec", "taylor:nan", "--k", "1", "--t-end", "1"], None),
    (["moments", "--spec", "cayley", "--k", "1", "--points", "0"], None),
    (["classify", "--A", "1", "--B", "0"], "k = inf\n"),
    (["evolve", "--spec", "cayley", "--k", "1", "--t-end", "1",
      "--mode", "random", "--seed", "-1"], None),
    (["bounds", "--spec", "cayley", "--r0", "0.3", "--t", "1",
      "--paths", "4"], "seed = -1\n"),
    # Re p is NaN at some sampled angles and -1.3e308 at others
    (["evolve", "--spec", "taylor:0,1e308,1e308,1e308", "--k", "1",
      "--t-end", "1"], None),
])
def test_bad_values_are_usage_errors(capsys, tmp_path, args, config):
    seeded = "--seed" in args or (config or "").startswith("seed")
    if args[0] not in ("bounds", "classify"):
        args = args + ["--out", str(tmp_path / "x.csv")]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    rc, _, err = run(capsys, args)
    assert rc == 2
    # a bad seed names its flag, also when a config line gave it
    if seeded:
        assert "--seed" in err


# the library call behind each subcommand (module, name), and a command
# line that reaches it; {tmp} is the test's directory
LIBRARY_CALLS = {
    "evolve-det": (cli, "evolve_phi", [
        "evolve", "--spec", "cayley", "--k", "1", "--t-end", "0.1",
        "--out", "{tmp}/e.csv"]),
    "evolve-random": (stochastic, "evolve_phi_pathwise", [
        "evolve", "--spec", "cayley", "--k", "1", "--t-end", "0.1",
        "--mode", "random", "--out", "{tmp}/e.csv"]),
    "evolve-sde": (stochastic, "evolve_psi_sde", [
        "evolve", "--spec", "cayley", "--k", "1", "--t-end", "0.1",
        "--mode", "sde", "--out", "{tmp}/e.csv"]),
    "classify": (cli, "classify_semigroup", [
        "classify", "--A", "1", "--B", "0", "--k", "1"]),
    "moments": (stochastic, "solve_moment_hierarchy", [
        "moments", "--spec", "cayley", "--k", "1", "--out", "{tmp}/m.csv"]),
    "bounds": (stochastic, "growth_bounds", [
        "bounds", "--spec", "cayley", "--r0", "0.3", "--t", "0.5"]),
    "boundary-image": (cli, "_boundary_images", [
        "boundary", "--spec", "cayley", "--k", "1", "--t", "0.1",
        "--out", "{tmp}/b.csv"]),
    "boundary-diffusion": (stochastic, "simulate_boundary_diffusion", [
        "boundary", "--what", "diffusion", "--A", "1", "--B", "0", "--k", "1",
        "--t-end", "0.1", "--out", "{tmp}/b.csv"]),
    "figures": (cli, "_boundary_images", [
        "figures", "--out-dir", "{tmp}/f"]),
}

# DomainError is an Error and a ValueError: a usage error all the same
INJECTED_ERRORS = [
    (ValueError, 2), (DomainError, 2), (argparse.ArgumentTypeError, 2),
    (StiffnessError, 1), (stochastic.DiskEscapeError, 1),
    (stochastic.MomentTruncationError, 1), (stochastic.ZeroNotFoundError, 1),
    (Error, 1), (OSError, 1), (MemoryError, 1),
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=hs.sampled_from(sorted(LIBRARY_CALLS)),
       error=hs.sampled_from(INJECTED_ERRORS))
def test_exit_code_classifies_library_errors(capsys, tmp_path, call, error):
    module, name, args = LIBRARY_CALLS[call]
    exc_type, code = error

    def fail(*args, **kwargs):
        if exc_type is stochastic.DiskEscapeError:
            raise exc_type("injected", t_reached=0.0)
        raise exc_type("injected")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, fail)
        rc, _, err = run(capsys, [a.format(tmp=tmp_path) for a in args])
    assert rc == code
    assert "error: injected" in err


def test_infinite_complex_flag_is_not_finite(capsys, tmp_path):
    rc, _, err = run(capsys, ["evolve", "--spec", "cayley", "--k", "1",
                              "--t-end", "1", "--z0", "inf",
                              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "must be finite" in err


def test_zero_time_simulations_run(capsys, tmp_path):
    rc, out, _ = run(capsys, ["bounds", "--spec", "cayley", "--r0", "0.3",
                              "--t", "0", "--paths", "4"])
    assert rc == 0
    data = json.loads(out)
    assert data["lower"] == data["upper"] == 0.3
    assert data["mc"]["min"] == data["mc"]["max"] == 0.3
    assert data["mc"]["violations"] == 0
    csv_path = tmp_path / "theta.csv"
    rc, _, _ = run(capsys, ["boundary", "--what", "diffusion", "--A", "1",
                            "--B", "0", "--k", "1", "--t-end", "0",
                            "--theta0", "0.7", "--out", str(csv_path)])
    assert rc == 0
    assert read_rows(csv_path) == [["t", "theta"],
                                   ["0", "0.69999999999999996"]]


# ---------------------------------------------------------------- boundary

def test_boundary_image_csv_and_svg(capsys, tmp_path):
    out = tmp_path / "img.csv"
    svg = tmp_path / "img.svg"
    rc, _, _ = run(capsys, [
        "boundary", "--what", "image", "--spec", "cayley", "--k", "1",
        "--t", "0.8", "--points", "64", "--out", str(out),
        "--svg", str(svg)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["angle", "re", "im"]
    assert len(rows) == 65
    radii = [abs(complex(float(r[1]), float(r[2]))) for r in rows[1:]]
    assert max(radii) <= 1.0 + 1e-9
    assert "polyline" in svg.read_text()


def test_boundary_image_manifest_reports_the_solve(capsys, tmp_path):
    out = tmp_path / "img.csv"
    rc, _, _ = run(capsys, ["boundary", "--spec", "cayley", "--k", "1",
                            "--t", "0.8", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "img.csv.manifest.json").read_text())
    # 0.8 in exact cells no wider than 0.05
    assert manifest["stats"] == {"steps": 16, "rejections": 0,
                                 "method": "mobius-exact"}


def test_boundary_diffusion_angle_domain(capsys, tmp_path):
    out = tmp_path / "diff.csv"
    rc, _, _ = run(capsys, [
        "boundary", "--what", "diffusion", "--A", "1", "--B", "0.5",
        "--k", "1.2", "--theta0", "1.0", "--t-end", "2", "--dt", "0.001",
        "--seed", "4", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["t", "theta"]
    assert len(rows) == 2002
    thetas = [float(r[1]) for r in rows[1:]]
    assert min(thetas) >= 0.0
    assert max(thetas) < 2 * math.pi


# ---------------------------------------------------------------- figures

def test_figures_fig1_writes_three_closed_curves(capsys, tmp_path):
    rc, _, _ = run(capsys, ["figures", "--which", "fig1",
                            "--out-dir", str(tmp_path / "figs")])
    assert rc == 0
    for tag in "abc":
        text = (tmp_path / "figs" / ("fig1_%s.svg" % tag)).read_text()
        pts = re.search(r'points="([^"]+)"', text).group(1).split()
        assert len(pts) > 64
        assert pts[0] == pts[-1]       # the drawn curve is closed
    manifest = json.loads(
        (tmp_path / "figs" / "fig1.manifest.json").read_text())
    assert manifest["command"] == "figures"
    assert len(manifest["outputs"]) == 3


def test_figures_manifest_reports_the_one_solve(capsys, tmp_path):
    # the three panels are sample times of one Dormand-Prince 8(5,3) run
    rc, _, _ = run(capsys, ["figures", "--points", "64",
                            "--out-dir", str(tmp_path)])
    assert rc == 0
    stats = json.loads((tmp_path / "fig1.manifest.json").read_text())["stats"]
    times = [t for _, t, _ in cli._FIG1_TIMES]
    z0 = (1.0 - 1e-6) * np.exp(2j * np.pi * np.arange(64) / 64)
    config = deterministic.EvolutionConfig(k=1.0, t_end=times[-1], dt=0.05)
    _, want = deterministic._solve(Exponential(), config, z0, [0.0] + times,
                                   "phi")
    assert stats == want
    assert stats["method"] == "dop853"


def test_figures_solve_once(capsys, tmp_path, monkeypatch):
    calls = []
    solve = deterministic._solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(deterministic, "_solve", counted)
    rc, _, _ = run(capsys, ["figures", "--points", "16",
                            "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1


def test_figures_unknown_name(capsys, tmp_path):
    rc, _, _ = run(capsys, ["figures", "--which", "fig9",
                            "--out-dir", str(tmp_path / "figs")])
    assert rc == 2
    # refused while parsing, before the out-dir is made
    assert not (tmp_path / "figs").exists()


# ---------------------------------------------------------------- config

def test_config_file_supplies_required_values(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# orbit settings\n"
                   "spec = automorphism:0,1\n"
                   "k = 0.5\n"
                   "closed-check = true\n")
    rc, out, _ = run(capsys, ["classify", "--config", str(cfg)])
    assert rc == 0
    d = json.loads(out)
    assert d["kind"] == "elliptic"
    assert d["ratio_fraction"] == "1/3"


def test_explicit_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spec = automorphism:0,1\nk = 0.5\n")
    rc, out, _ = run(capsys, ["classify", "--config", str(cfg), "--k", "0"])
    assert rc == 0
    assert json.loads(out)["kind"] == "parabolic"


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 3\n")
    rc, _, err = run(capsys, ["classify", "--config", str(cfg), "--k", "1"])
    assert rc == 2
    assert "nonsense" in err


def test_config_value_outside_choices(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = sideways\n")
    rc, _, err = run(capsys, file_command("evolve", tmp_path)
                     + ["--config", str(cfg)])
    assert rc == 2
    assert "sideways" in err


def test_config_store_true_false_leaves_flag_off(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spec = automorphism:0,1\nk = 0.5\nclosed-check = false\n")
    rc, out, _ = run(capsys, ["classify", "--config", str(cfg)])
    assert rc == 0
    assert "closed" not in json.loads(out)


def test_config_equals_form_and_last_config_wins(capsys, tmp_path):
    first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
    first.write_text("spec = automorphism:0,1\nk = 0\n")
    last.write_text("spec = automorphism:0,1\nk = 0.5\n")
    rc, out, _ = run(capsys, ["classify", "--config=%s" % first,
                              "--config=%s" % last])
    assert rc == 0
    assert json.loads(out)["kind"] == "elliptic"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_config_file_sets_manifest_path(capsys, tmp_path, command):
    man = tmp_path / "from-config.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("manifest = %s\n" % man)
    rc, _, _ = run(capsys, file_command(command, tmp_path)
                   + ["--config", str(cfg)])
    assert rc == 0
    assert json.loads(man.read_text())["command"] == command
    assert not list(tmp_path.rglob("*.manifest.json"))


@pytest.mark.parametrize("args", NO_FILE_COMMANDS, ids=["classify", "bounds"])
def test_config_manifest_key_unknown_where_no_manifest(capsys, tmp_path,
                                                        args):
    man = tmp_path / "m.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("manifest = %s\n" % man)
    rc, _, err = run(capsys, args + ["--config", str(cfg)])
    assert rc == 2
    assert "unknown config key 'manifest'" in err
    assert not man.exists()


def test_config_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["classify", "--k", "1",
                              "--config", str(tmp_path / "none.cfg")])
    assert rc == 2
    assert "not found" in err


def test_config_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "oops.cfg"
    cfg.write_text("just some words\n")
    rc, _, err = run(capsys, ["classify", "--config", str(cfg), "--k", "1"])
    assert rc == 2
    assert "key=value" in err


def test_config_file_gives_the_same_run_as_flags(capsys, monkeypatch,
                                                 tmp_path):
    # the same values, given either way, make the same CSV and the same
    # manifest config
    monkeypatch.chdir(tmp_path)
    flags = ["evolve", "--mode", "sde", "--scheme", "euler", "--spec",
             "cayley", "--k", "1.5", "--z0", "0.3+0.2i", "--t-end", "0.5",
             "--dt", "0.01", "--seed", "7", "--out", "flags.csv"]
    assert run(capsys, flags)[0] == 0
    (tmp_path / "run.cfg").write_text(
        "mode = sde\nscheme = euler\nspec = cayley\nk = 1.5\n"
        "z0 = 0.3+0.2i\nt-end = 0.5\ndt = 0.01\nseed = 7\nout = config.csv\n")
    assert run(capsys, ["evolve", "--config", "run.cfg"])[0] == 0
    assert (tmp_path / "config.csv").read_bytes() == (
        tmp_path / "flags.csv").read_bytes()
    configs = []
    for name in ("flags", "config"):
        manifest = tmp_path / (name + ".csv.manifest.json")
        config = json.loads(manifest.read_text())["config"]
        config.pop("out")
        configs.append(config)
    assert configs[0] == configs[1]


# ---------------------------------------------------------------- manifest

def parsed(argv):
    parser, registry = cli.build_parser()
    args = parser.parse_args(argv)
    return args, registry[args.command][0]


def test_manifest_refuses_missing_output(capsys, tmp_path):
    # an output in a missing directory is an OSError, exit 1 on the
    # command line, and no manifest is written
    args, sub = parsed(file_command("evolve", tmp_path))
    written = cli.Written([(str(tmp_path / "no" / "ghost.csv"), "t\n")],
                          str(tmp_path / "m.json"))
    with pytest.raises(OSError):
        cli.write_run(args, sub, written, 0.0)
    assert not (tmp_path / "m.json").exists()
    rc, _, err = run(capsys, file_command("evolve", tmp_path / "no"))
    assert rc == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "no").exists()


def test_output_to_dev_null_is_written(capsys, tmp_path):
    # the check is on the text handed to write_run, not the size on disk
    man = tmp_path / "run.json"
    rc, _, err = run(capsys, ["evolve", "--spec", "cayley", "--k", "1",
                              "--t-end", "1", "--out", "/dev/null",
                              "--manifest", str(man)])
    assert (rc, err) == (0, "")
    assert json.loads(man.read_text())["outputs"] == ["/dev/null"]


def test_manifest_refuses_empty_output(tmp_path):
    args, sub = parsed(file_command("evolve", tmp_path))
    written = cli.Written([(str(tmp_path / "empty.csv"), "")],
                          str(tmp_path / "m.json"))
    with pytest.raises(Error, match="missing or empty"):
        cli.write_run(args, sub, written, 0.0)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_manifest_config_records_every_option(capsys, tmp_path, command):
    # every option the subcommand's parser defines, --config and
    # --manifest aside, plus computed entries such as dt_used
    _, sub = parsed(file_command(command, tmp_path))
    options = {a.dest for a in sub._actions} - {"help", "config", "manifest"}
    man = tmp_path / "m.json"
    rc, _, _ = run(capsys, file_command(command, tmp_path)
                   + ["--manifest", str(man)])
    assert rc == 0
    config = json.loads(man.read_text())["config"]
    assert set(config) - {"dt_used"} == options


# ---------------------------------------------------------------- README

def run_readme_commands(capsys, monkeypatch, where):
    """Run README.md's command lines in process in a new directory
    ``where``; return what each printed."""
    where.mkdir()
    monkeypatch.chdir(where)
    printed = []
    for line in conftest.readme_commands():
        rc, out, err = run(capsys, shlex.split(line)[1:])
        assert rc == 0, (line, err)
        printed.append(out)
    return printed


def files_under(root):
    """Every file under ``root`` by relative path: a manifest as its
    record less wall_time_s, any other file as its bytes."""
    found = {}
    for path in root.rglob("*"):
        name = str(path.relative_to(root))
        if path.name.endswith(".manifest.json"):
            record = json.loads(path.read_text())
            record.pop("wall_time_s")
            found[name] = record
        elif path.is_file():
            found[name] = path.read_bytes()
    return found


def test_readme_commands_run_and_repeat_bit_for_bit(capsys, monkeypatch,
                                                    tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    printed = run_readme_commands(capsys, monkeypatch, first)
    assert run_readme_commands(capsys, monkeypatch, again) == printed
    want, got = files_under(first), files_under(again)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
    # every manifest has the schema and lists real outputs; a solve's
    # (evolve, boundary image, figures) reports an integer step count
    # and, unless an sde run, which reports projections, its method
    monkeypatch.chdir(first)
    manifests = {n: r for n, r in want.items() if isinstance(r, dict)}
    assert manifests, "the README commands wrote no manifest"
    for name, record in manifests.items():
        assert record.get("schema") == cli.MANIFEST_SCHEMA, name
        for out in record["outputs"]:
            assert os.path.isfile(out) and os.path.getsize(out) > 0, out
        command, config = record["command"], record["config"]
        if command in ("evolve", "figures") or (
                command == "boundary" and config["what"] == "image"):
            stats = record.get("stats") or {}
            assert type(stats.get("steps")) is int, (name, stats)
            if config.get("mode") != "sde":
                assert stats.get("method") in (
                    "mobius-exact", "dop853", "rk4"), (name, stats)


def test_console_script_runs_cli_main():
    # tier-1 runs from the source tree, not an install, so read the entry
    # point from pyproject.toml (by hand: no tomllib on Python 3.10)
    text = (conftest.ROOT / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.split() == ["loewnerkit", "=", '"loewnerkit.cli:main"']
