import csv
import json
import math
import re

import pytest

from loewnerkit import Error, __version__, cli, stochastic
from loewnerkit.herglotz import Cayley


def run(capsys, args):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


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


@pytest.mark.parametrize("args", [
    ["classify", "--spec", "automorphism:1,0", "--k", "2"],
    ["bounds", "--spec", "cayley", "--r0", "0.3", "--t", "0.5"],
], ids=["classify", "bounds"])
def test_manifest_flag_only_where_a_manifest_is_written(capsys, tmp_path,
                                                         args):
    # classify and bounds print JSON and write no file
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
    rc, _, _ = run(capsys, ["classify", "--spec", "cayley", "--k", "1"])
    assert rc == 2


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
    out = tmp_path / "mom.csv"
    rc, _, err = run(capsys, ["moments", "--spec", "cayley", "--k", "1e20",
                              "--out", str(out)])
    assert rc == 1
    assert "non-finite moment" in err
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
    rc, out, _ = run(capsys, ["bounds", "--spec", "cayley-linear",
                              "--r0", "0.3", "--t", "1", "--k", "1.5",
                              "--paths", "64", "--seed", "11"])
    assert rc == 0
    d = json.loads(out)
    assert d["mc"]["violations"] == 0
    assert d["mc"]["paths"] == 64
    assert d["lower"] - 1e-9 <= d["mc"]["min"]
    assert d["mc"]["max"] <= d["upper"] + 1e-9


# these runs overflow to NaN, which counts as leaving the disk
_OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("args", [
    ["evolve", "--spec", "cayley", "--k", "30", "--z0", "0.99", "--t-end",
     "2", "--dt", "0.2", "--mode", "random", "--seed", "0"],
    ["bounds", "--spec", "cayley", "--r0", "0.99", "--t", "2", "--k", "30",
     "--dt", "0.2", "--paths", "20", "--seed", "0"],
    pytest.param(["evolve", "--spec", "taylor:1e308", "--k", "1",
                  "--t-end", "1", "--mode", "random"], marks=_OVERFLOWS),
    pytest.param(["evolve", "--spec", "cayley", "--k", "1e200", "--t-end",
                  "1", "--mode", "sde"], marks=_OVERFLOWS),
])
def test_disk_escape_exits_as_numerical_failure(capsys, tmp_path, args):
    if args[0] == "evolve":
        args = args + ["--out", str(tmp_path / "x.csv")]
    rc, _, err = run(capsys, args)
    assert rc == 1
    assert "escapes the unit disk" in err
    assert not (tmp_path / "x.csv").exists()


def test_bounds_escape_names_the_path(capsys):
    # the known escape case on a 2-step grid, where the first paths stay
    # inside the disk, so the reported index is not trivially 0
    n_steps, dt = stochastic._step_grid(0.4, 0.2)
    for j in range(20):
        seed = stochastic.derive_path_seed(0, j)
        path = stochastic.sample_brownian(seed, dt, n_steps)
        try:
            stochastic.evolve_phi_pathwise(Cayley(), 30.0, 0.99, path, [0.4])
        except stochastic.DiskEscapeError:
            break
    assert j > 0
    rc, out, err = run(capsys, ["bounds", "--spec", "cayley", "--r0", "0.99",
                                "--t", "0.4", "--k", "30", "--dt", "0.2",
                                "--paths", "20", "--seed", "0"])
    assert rc == 1
    assert out == ""
    assert "path %d (seed %d)" % (j, seed) in err
    assert "escapes the unit disk" in err


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
])
def test_bad_values_are_usage_errors(capsys, tmp_path, args, config):
    if args[0] not in ("bounds", "classify"):
        args = args + ["--out", str(tmp_path / "x.csv")]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    rc, _, _ = run(capsys, args)
    assert rc == 2


def test_infinite_complex_flag_is_not_finite(capsys, tmp_path):
    rc, _, err = run(capsys, ["evolve", "--spec", "cayley", "--k", "1",
                              "--t-end", "1", "--z0", "inf",
                              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "need a finite value" in err


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


def test_figures_unknown_name(capsys, tmp_path):
    rc, _, _ = run(capsys, ["figures", "--which", "fig9",
                            "--out-dir", str(tmp_path)])
    assert rc == 2


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


# ---------------------------------------------------------------- manifest

def test_manifest_refuses_missing_output(tmp_path):
    manifest = cli.RunManifest(command="evolve", config={},
                               outputs=[str(tmp_path / "ghost.csv")])
    with pytest.raises(Error):
        manifest.write(str(tmp_path / "m.json"))


def test_manifest_refuses_empty_output(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    manifest = cli.RunManifest(command="evolve", config={},
                               outputs=[str(empty)])
    with pytest.raises(Error):
        manifest.write(str(tmp_path / "m.json"))
