import csv
import json
import math

import numpy as np
import pytest
from scipy.stats import poisson

from szegolab import cli


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


CIRCLE = {"manifold": {"kind": "circle", "radius": 1.0},
          "k_sweep": [10.0], "quad_order": 96}


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
    exp = cli.Experiment(config, cli.build_parser().parse_args(
        ["--config", cfg, "spectrum"]))
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


def test_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"manifold": {"kind": "moebius"}})
    assert cli.main(["--config", cfg, "geometry"]) == 2
    cfg2 = write_config(tmp_path, {"k_sweep": [1.0]}, name="c2.json")
    assert cli.main(["--config", cfg2, "geometry"]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad), "geometry"]) == 2
    assert cli.main(["geometry"]) == 2  # --config missing entirely


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
