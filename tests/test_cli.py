import csv
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

from szegolab import acceptance, cli, hessian
from szegolab.assembly import TruncationWarning
from szegolab.asymptotics import szego_functional
from szegolab.manifold import (amplitude_from_dsl, circle,
                               default_periodic_nodes, quadrature)
from szegolab.spectral import indicator_function


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


CIRCLE = {"manifold": {"kind": "circle", "radius": 1.0},
          "k_sweep": [10.0], "quad_order": 96}
CUSTOM_CIRCLE = {"kind": "custom", "dim": 1, "ambient_dim": 1,
                 "coords": ["cos(t1)", "sin(t1)"], "periodic": [True],
                 "domain": [[0.0, 2 * math.pi]]}
# (t1, 0.3 bump(t2, 0.02, 0.15), t2, 0): symplectic where the bump varies
BUMP_CHART = {"kind": "custom", "dim": 2, "ambient_dim": 2,
              "coords": ["t1", "0.3*bump(t2, 0.02, 0.15)", "t2", "0"],
              "periodic": [False, False], "domain": [[0.0, 1.0]] * 2}


def test_geometry_csv(tmp_path):
    cfg = write_config(tmp_path, CIRCLE)
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "geometry"])
    assert code == 0
    with open(out / "geometry.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["classification"] == "lagrangian"
    assert rows[0]["d_prime"] == "1"
    assert rows[0]["half_rank"] == "0"


def test_spectrum_matches_poisson(tmp_path):
    cfg = write_config(tmp_path, CIRCLE)
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "--format", "json",
                     "spectrum"])
    assert code == 0
    rows = json.loads((out / "spectrum.json").read_text())
    k = 10.0
    eigs = sorted((r["eigenvalue"] for r in rows), reverse=True)
    expect = sorted((2 * k * poisson.pmf(n, k) for n in range(41)),
                    reverse=True)
    for got, want in zip(eigs[:10], expect[:10]):
        assert got == pytest.approx(want, rel=1e-8)
    assert rows[0]["M"] == 40


def test_spectrum_of_complex_amplitude_lists_singular_values(tmp_path):
    config = {**CIRCLE, "amplitude": ["1 + cos(t1)", "0.5*sin(t1)"]}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "--format", "json",
                     "spectrum"])
    assert code == 0
    rows = json.loads((out / "spectrum.json").read_text())
    assert all("eigenvalue" not in r for r in rows)
    values = [r["singular_value"] for r in rows]
    exp = cli.Experiment(config)
    op, _ = exp.operator(10.0)
    assert not op.hermitian
    assert values == pytest.approx(
        list(np.linalg.svd(op.matrix, compute_uv=False)), rel=1e-12)
    assert values == sorted(values, reverse=True)


@pytest.mark.filterwarnings("ignore::szegolab.assembly.TruncationWarning")
def test_k_override_splits_commas(tmp_path):
    cfg = write_config(tmp_path, CIRCLE)
    out = tmp_path / "out"
    cli.main(["--config", cfg, "--k", "5,9", "--out", str(out),
              "--format", "json", "spectrum"])
    rows = json.loads((out / "spectrum.json").read_text())
    assert sorted({r["k"] for r in rows}) == [5.0, 9.0]


def test_config_schema_is_valid():
    # checked here once, not by `cli.load_config` on every call
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    validator.check_schema(cli.CONFIG_SCHEMA)


def test_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"manifold": {"kind": "moebius"}})
    assert cli.main(["--config", cfg, "geometry"]) == 2
    cfg2 = write_config(tmp_path, {"k_sweep": [1.0]}, name="c2.json")
    assert cli.main(["--config", cfg2, "geometry"]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad), "geometry"]) == 2
    assert cli.main(["geometry"]) == 2  # --config missing entirely


@pytest.mark.parametrize("config, argv, code, message", [
    # malformed input: exit 2
    ({"amplitude": "1 + cos(t1"}, ["spectrum"], 2, "expected ')'"),
    ({}, ["bs-state", "--theta", "t1 +"], 2, "unexpected token"),
    ({}, ["bs-state", "--theta", "t1", "--alpha", "t2"], 2, "t2 out of range"),
    ({}, ["szego", "--phi", "gaussian"], 2, "unknown test function"),
    ({"test_function": "power:two"}, ["szego"], 2, "bad test function"),
    ({"seed": 3}, ["geometry"], 2, "'seed' was unexpected"),
    # failed computation: exit 1
    ({"amplitude": "log(t1 - 1)"}, ["spectrum"], 1,
     "spectrum: log of non-positive value in log(t1 - 1)"),
    ({}, ["entropy"], 1, "amplitude integrates to 6.28"),
    ({"amplitude": ["1 + cos(t1)", "0.5*sin(t1)"]}, ["szego"], 1,
     "need a real amplitude"),
    # malformed input: non-finite numbers, missing manifold fields and
    # per-axis orders of the wrong length exit 2 as well
    ({"k_sweep": [math.nan]}, ["spectrum"], 2, "non-finite number NaN"),
    ({"manifold": {"kind": "custom", "ambient_dim": 1,
                   "coords": ["cos(t1)", "sin(t1)"], "periodic": [True],
                   "domain": [[0.0, 2 * math.pi]]}}, ["geometry"], 2,
     "'dim' is a required property"),
    ({"manifold": {"kind": "torus_product"}}, ["geometry"], 2,
     "'radii' is a required property"),
    ({"manifold": {"kind": "plane_patch"}}, ["geometry"], 2,
     "'ranges' is a required property"),
    ({"quad_order": [96, 96]}, ["spectrum"], 2,
     "quad_order lists 2 orders for a manifold of dimension 1"),
    # list lengths that disagree with dim or ambient_dim exit 2, not 1
    ({"manifold": {**CUSTOM_CIRCLE, "periodic": [True, True]}}, ["geometry"],
     2, "manifold periodic lists 2 entries, not 1"),
    ({"manifold": {**CUSTOM_CIRCLE, "domain": []}}, ["geometry"], 2,
     "manifold domain lists 0 entries, not 1"),
    ({"manifold": {**CUSTOM_CIRCLE, "coords": ["cos(t1)"]}}, ["geometry"], 2,
     "manifold coords lists 1 entries, not 2"),
    ({"manifold": {"kind": "plane_patch", "ranges": [[-1, 1]] * 3}},
     ["geometry"], 2, "plane_patch lists 3 ranges, not 2N"),
    # values outside the domain of a prediction exit 2 as well
    ({"density_grid": [0.5, 0.0]}, ["density"], 2,
     "0.0 is less than or equal to the minimum of 0"),
    ({"interval": [0.0, 0.9]}, ["weyl"], 2,
     "0.0 is less than or equal to the minimum of 0"),
    ({"interval": [0.9, 0.2]}, ["weyl"], 2, "interval [0.9, 0.2] is reversed"),
    ({}, ["szego", "--phi", "power:-1"], 2,
     "bad test function 'power:-1': power needs a positive exponent"),
    # geometry a prediction does not cover: each prediction checks it
    ({"manifold": {"kind": "parabola_patch"}}, ["szego"], 1,
     "szego: Szego-type predictions need isotropic or coisotropic "
     "geometry, got symplectic"),
    ({"manifold": {"kind": "plane_patch", "ranges": [[-1, 1], [-1, 1]]}},
     ["density"], 1, "density: the limiting density needs d' > 0"),
    # a chart symplectic on a strip of its quadrature nodes and Lagrangian
    # elsewhere is refused before any operator is built
    ({"manifold": BUMP_CHART, "quad_order": 48}, ["geometry"], 1,
     "geometry: half rank varies across nodes: [0, 1]"),
    ({"manifold": BUMP_CHART, "quad_order": 48, "k_sweep": [4.0, 8.0]},
     ["szego"], 1, "szego: half rank varies across nodes: [0, 1]"),
])
def test_errors_exit_with_one_line(tmp_path, capsys, config, argv, code,
                                   message):
    cfg = write_config(tmp_path, {**CIRCLE, **config})
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out), *argv]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_dense_operator_over_budget_exits_1_before_allocating(tmp_path,
                                                              capsys):
    # the real circle (cos t, 0, sin t, 0) in C^2 has no rotation axis, and
    # at k = 80 the default M = 320 gives dim 51,681: a 43 GB dense T
    real_circle = {**CUSTOM_CIRCLE, "ambient_dim": 2,
                   "coords": ["cos(t1)", "0", "sin(t1)", "0"]}
    cfg = write_config(tmp_path, {"manifold": real_circle,
                                  "k_sweep": [80.0]})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(["--config", cfg, "--out", str(out), "spectrum"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "51681 x 51681" in err and err.count("\n") == 1
    assert peak < 100e6
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--k", "abc"], ["--k", "0"], ["--k", "5,"], ["--max-degree", "-1"],
    ["--quad-order", "0"], ["--k", "inf"], ["--k", "nan"],
])
def test_overrides_are_validated_by_the_schema(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, CIRCLE)
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out), *argv,
                     "spectrum"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config, argv", [
    ({"max_degree": 0}, []),
    ({}, ["--max-degree", "0"]),
    ({"max_degree": 7}, ["--max-degree", "0"]),
])
def test_max_degree_zero_is_kept(tmp_path, config, argv):
    cfg = write_config(tmp_path, {**CIRCLE, "k_sweep": [5.0], **config})
    out = tmp_path / "out"
    # the single basis function is the top degree, so truncation is flagged
    with pytest.warns(TruncationWarning):
        code = cli.main(["--config", cfg, "--out", str(out), *argv,
                         "--format", "json", "spectrum"])
    assert code == 0
    rows = json.loads((out / "spectrum.json").read_text())
    assert [r["M"] for r in rows] == [0]


def test_parse_error_names_the_expression(tmp_path, capsys):
    cfg = write_config(tmp_path, CIRCLE)
    argv = ["--config", cfg, "bs-state", "--theta", "t1", "--alpha", "sin("]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "(at offset 4) in 'sin('" in err and err.count("\n") == 1


def test_seed_belongs_to_hessian_check(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", "3", "--config", "c.json", "geometry"])
    assert exc.value.code == 2
    for name, seed in (("default", []), ("zero", ["--seed", "0"])):
        cli.main(["--out", str(tmp_path / name), "hessian-check", "--trials",
                  "2", *seed])
    assert ((tmp_path / "default" / "hessian_check.csv").read_text()
            == (tmp_path / "zero" / "hessian_check.csv").read_text())


def test_szego_verdict_schema(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"kind": "circle", "radius": 1.0},
        "k_sweep": [60.0, 120.0], "quad_order": 1024,
    })
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "szego",
                     "--phi", "power:2"])
    verdicts = json.loads((out / "szego_verdicts.json").read_text())
    assert len(verdicts) == 1
    v = verdicts[0]
    assert set(v) >= {"check_id", "observed", "predicted", "tolerance", "pass"}
    assert isinstance(v["pass"], bool)
    # prediction for unit amplitude and phi = s^2 is 2 pi / sqrt(2)
    assert v["predicted"] == pytest.approx(2 * math.pi / math.sqrt(2), rel=1e-8)
    assert code == (0 if v["pass"] else 1)


def test_hessian_check_exits_zero(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["--out", str(out), "hessian-check", "--d", "2",
                     "--q", "3", "--trials", "5", "--seed", "11"])
    assert code == 0
    verdicts = json.loads((out / "hessian_check_verdicts.json").read_text())
    assert verdicts[0]["pass"] is True
    with open(out / "hessian_check.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 5


def test_hessian_check_rows_are_the_per_trial_reports(tmp_path):
    # one stacked check gives each trial the report of its own 2-D call
    out = tmp_path / "out"
    cli.main(["--out", str(out), "hessian-check", "--d", "3", "--q", "4",
              "--trials", "6", "--seed", "7"])
    with open(out / "hessian_check.csv") as fh:
        rows = list(csv.DictReader(fh))
    rng = np.random.default_rng(7)
    for row in rows:
        rep = hessian.verify_sqrt_det(*hessian.random_spd_skew(3, rng), 4)
        assert row["rel_err_det"] == repr(rep.rel_err_det)
        assert row["rel_err_sqrt"] == repr(rep.rel_err_sqrt)
        assert row["pass"] == str(rep.ok)


def test_density_svg(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"kind": "circle", "radius": 1.0},
        "quad_order": 64, "density_grid": [0.2, 0.5, 0.8],
    })
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "--svg", "density"])
    assert code == 0
    svg = (out / "density.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    with open(out / "density.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["s"]) for r in rows] == [0.2, 0.5, 0.8]


def test_bs_state_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"kind": "circle", "radius": 1.0},
        "k_sweep": [16.0], "quad_order": 160,
    })
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "--format", "json",
                     "bs-state", "--theta", "t1"])
    assert code == 0
    rows = json.loads((out / "bs_state.json").read_text())
    assert rows[0]["norm_ratio"] == pytest.approx(2 * math.pi, rel=0.25)
    assert rows[0]["rayleigh"] > 0


def test_parse_test_function():
    phi = cli.parse_test_function("power:3")
    assert phi.p == 3.0 and phi([2.0]) == 8.0
    assert cli.parse_test_function("entropy").name == "entropy"
    trap = cli.parse_test_function("trapezoid:0.1,0.2,0.3,0.4")
    assert trap([0.25]) == 1.0
    with pytest.raises(cli.SchemaError):
        cli.parse_test_function("gaussian")
    with pytest.raises(cli.SchemaError):
        cli.parse_test_function("trapezoid:0.1,0.2")


def test_entropy_command_verdict(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"kind": "circle", "radius": 1.0},
        "amplitude": "1/(2*pi)", "k_sweep": [120.0], "quad_order": 1024,
    })
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "entropy"])
    verdicts = json.loads((out / "entropy_verdicts.json").read_text())
    assert verdicts[0]["predicted"] == pytest.approx(
        math.log(2 * math.pi) + 0.5, rel=1e-10)
    assert code == 0
    assert verdicts[0]["pass"] is True


def test_entropy_of_diagonal_operator_skips_lapack(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {
        "manifold": {"kind": "circle", "radius": 1.0},
        "amplitude": "1/(2*pi)", "k_sweep": [120.0], "quad_order": 1024,
    })
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "a"),
                     "entropy"]) == 0

    eigvalsh = np.linalg.eigvalsh

    def small_only(a, *args, **kwargs):
        # geometry frames still use it; the 481-dim operator must not
        if np.shape(a)[-1] > 10:
            raise AssertionError("eigvalsh called on a diagonal operator")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", small_only)
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "b"),
                     "entropy"]) == 0
    assert ((tmp_path / "a" / "entropy_verdicts.json").read_text()
            == (tmp_path / "b" / "entropy_verdicts.json").read_text())


def test_short_quad_order_is_named_on_stderr(tmp_path, capsys):
    # at order 64 power:2 reads 5.0004 at k = 100 and 5.7720 at k = 400
    # against F = 4.9982; one line per k names the order the k needs
    config = {"manifold": {"kind": "circle"}, "amplitude": "1 + 0.5*cos(t1)",
              "k_sweep": [100.0, 400.0]}
    cfg = write_config(tmp_path, {**config, "quad_order": 64})
    cli.main(["--config", cfg, "--out", str(tmp_path / "short"), "szego",
              "--phi", "power:2"])
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line, k in zip(lines, (100.0, 400.0)):
        auto = default_periodic_nodes(k, quadrature(circle(), 8)
                                      .max_radius())
        assert auto > 64
        assert (" 64 " in line and f"= {auto} " in line
                and line.endswith(f"k = {k:g}"))
    cfg = write_config(tmp_path, config, "auto.json")
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "auto"),
                     "szego", "--phi", "power:2"]) == 0
    assert capsys.readouterr().err == ""


def test_weyl_predicts_any_real_amplitude(tmp_path, capsys):
    # the indicator's Szego functional gives the Weyl law for any real
    # amplitude, not only the unit one
    base = {"manifold": {"kind": "circle", "radius": 1.0},
            "k_sweep": [100.0], "quad_order": 512}
    cfg = write_config(tmp_path, {**base, "amplitude": "1 + cos(t1)"})
    out = tmp_path / "out"
    assert cli.main(["--config", cfg, "--out", str(out), "weyl"]) == 0
    assert capsys.readouterr().err == ""
    verdicts = json.loads((out / "weyl_verdicts.json").read_text())
    sub = circle(1.0)
    assert verdicts[0]["pass"] is True
    assert verdicts[0]["predicted"] == pytest.approx(szego_functional(
        amplitude_from_dsl("1 + cos(t1)", 1), indicator_function(0.2, 0.9),
        quadrature(sub, 512)), rel=1e-12)
    cfg = write_config(tmp_path, {**base, "amplitude": "2 - 1"}, "unit.json")
    cli.main(["--config", cfg, "--out", str(out), "weyl"])
    verdicts = json.loads((out / "weyl_verdicts.json").read_text())
    assert verdicts[0]["predicted"] == pytest.approx(
        2 * math.pi / math.gamma(1.5)
        * (math.sqrt(-math.log(0.2)) - math.sqrt(-math.log(0.9))))


@pytest.mark.filterwarnings("ignore::szegolab.assembly.TruncationWarning")
def test_szego_builds_each_quadrature_once(tmp_path, monkeypatch):
    built = []

    def counting(sub, order):
        built.append(order)
        return quadrature(sub, order)

    monkeypatch.setattr(cli, "quadrature", counting)
    cfg = write_config(tmp_path, {"manifold": {"kind": "circle"},
                                  "k_sweep": [4.0, 8.0, 12.0]})
    cli.main(["--config", cfg, "--out", str(tmp_path / "out"), "szego"])
    # the radius probe and the one order every k shares
    assert built == [8, 64]


@pytest.mark.parametrize("command", ["schatten", "szego_entropy", "weyl",
                                     "entropy"])
def test_schatten_agrees_with_acceptance_check(tmp_path, command):
    # the acceptance sweep, truncation and quadrature order on both sides,
    # one pass rule, for each of the four Szego-family commands
    sweep, order = acceptance.CIRCLE_SWEEP, 1609
    if command == "schatten":
        check = acceptance.check_schatten(acceptance.Lab())
        expected = [check["detail"][p] for p in ("p=1", "p=2")]
        config = {"amplitude": ["0.5*cos(t1)*(1 + cos(t1))",
                                "0.5*sin(t1)*(1 + cos(t1))"],
                  "schatten_p": [1.0, 2.0]}
        argv = ["schatten"]
    elif command == "szego_entropy":
        check = acceptance.check_szego_entropy_function(acceptance.Lab())
        expected = [{"prediction": check["detail"]["functional"],
                     "final_rel": check["observed"]}]
        config, argv = {}, ["szego", "--phi", "entropy"]
    elif command == "weyl":
        check = acceptance.check_weyl_counts(acceptance.Lab())
        expected = [{"prediction": check["detail"]["prediction"],
                     "final_rel": check["observed"]}]
        sweep, order = acceptance.WEYL_SWEEP, 3209
        config, argv = {}, ["weyl"]
    else:
        # the entropy check gates the absolute gap
        check = acceptance.check_entropy(acceptance.Lab())
        pred = check["detail"]["prediction"]
        expected = [{"prediction": pred,
                     "final_rel": check["observed"] / abs(pred)}]
        config, argv = {"amplitude": "1/(2*pi)"}, ["entropy"]
    cfg = write_config(tmp_path, {
        "manifold": {"kind": "circle", "radius": 1.0},
        "k_sweep": list(sweep), **config})
    out = tmp_path / "out"
    code = cli.main(["--config", cfg, "--out", str(out), "--quad-order",
                     str(order), *argv])
    verdicts = json.loads((out / f"{argv[0]}_verdicts.json").read_text())
    assert [v["pass"] for v in verdicts] == [check["pass"]] * len(expected)
    assert code == (0 if check["pass"] else 1)
    for v, want in zip(verdicts, expected):
        assert v["predicted"] == pytest.approx(want["prediction"], rel=1e-12,
                                               abs=0)
        rel = abs(v["observed"] - v["predicted"]) / abs(v["predicted"])
        assert rel == pytest.approx(want["final_rel"], rel=0, abs=1e-12)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_steady_heap_returns_freed_matrices():
    # a freed 24 MB block raises glibc's default mmap threshold, so an
    # 8 MB array freed under a small live one stays resident in the heap;
    # cli.main fixes the threshold, and the 8 MB go back to the system
    code = ("import numpy as np\n"
            "from szegolab import cli\n"
            "def rss():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh\n"
            "                    if l.startswith('VmRSS')) / 1024\n"
            "cli._steady_heap()\n"
            "big = np.ones(3 << 20)\n"
            "del big\n"
            "before = rss()\n"
            "mid = np.ones(1 << 20)\n"
            "pin = np.ones(1000)\n"
            "del mid\n"
            "print(rss() - before)")  # MiB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert float(out.stdout) < 2.0
