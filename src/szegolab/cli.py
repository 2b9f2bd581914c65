"""Command-line driver.

Subcommands assemble operators for a configured manifold/amplitude pair,
sweep over k, and emit CSV or JSON tables plus machine-readable verdicts
{check_id, observed, predicted, tolerance, pass}.  Config files are
validated against a JSON schema before any computation; schema errors
exit with status 2, failed checks with status 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import acceptance, asymptotics, hessian, spectral, states
from .assembly import assemble_T, exact_trace, scale_to_S
from .fock import FockTruncation
from .manifold import (
    amplitude_from_dsl,
    classify,
    d_prime,
    default_max_degree,
    default_periodic_nodes,
    manifold_from_spec,
    quadrature,
)
from .spectral import (
    eigensolve,
    entropy_function,
    power_function,
    schatten_sum,
    trapezoid_function,
    weyl_count,
)

MANIFOLD_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["circle", "torus_product", "parabola_patch",
                          "plane_patch", "sphere3", "custom"]},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "radii": {"type": "array", "items": {"type": "number"}},
        "ambient_dim": {"type": "integer", "minimum": 1},
        "x1_range": {"type": "array", "items": {"type": "number"}},
        "y1_range": {"type": "array", "items": {"type": "number"}},
        "ranges": {"type": "array"},
        "dim": {"type": "integer", "minimum": 1},
        "coords": {"type": "array", "items": {"type": "string"}},
        "periodic": {"type": "array", "items": {"type": "boolean"}},
        "domain": {"type": "array"},
        "label": {"type": "string"},
    },
    "required": ["kind"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "manifold": MANIFOLD_SCHEMA,
        "amplitude": {"oneOf": [
            {"type": "string"},
            {"type": "array", "items": {"type": "string"},
             "minItems": 2, "maxItems": 2},
        ]},
        "k_sweep": {"type": "array", "items": {"type": "number",
                                               "exclusiveMinimum": 0},
                    "minItems": 1},
        "max_degree": {"type": "integer", "minimum": 0},
        "quad_order": {"oneOf": [
            {"type": "integer", "minimum": 1},
            {"type": "array", "items": {"type": "integer", "minimum": 1}},
        ]},
        "test_function": {"type": "string"},
        "interval": {"type": "array", "items": {"type": "number"},
                     "minItems": 2, "maxItems": 2},
        "schatten_p": {"type": "array", "items": {"type": "number",
                                                  "exclusiveMinimum": 0}},
        "density_grid": {"type": "array", "items": {"type": "number"}},
        "theta": {"type": "string"},
        "alpha": {"type": "string"},
        "seed": {"type": "integer"},
    },
    "required": ["manifold"],
    "additionalProperties": False,
}


class SchemaError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}")
    if jsonschema is not None:
        try:
            jsonschema.validate(config, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise SchemaError(f"config schema violation: {exc.message}")
    return config


def parse_test_function(name: str) -> spectral.TestFunction:
    """Named test functions: power:n, entropy, trapezoid:l1,l2,m1,m2."""
    if name == "entropy":
        return entropy_function()
    if name.startswith("power:"):
        return power_function(float(name.split(":", 1)[1]))
    if name.startswith("trapezoid:"):
        parts = [float(x) for x in name.split(":", 1)[1].split(",")]
        if len(parts) != 4:
            raise SchemaError("trapezoid needs four breakpoints")
        return trapezoid_function(*parts)
    raise SchemaError(f"unknown test function {name!r}")


def _max_workers() -> int:
    env = os.environ.get("SZEGO_LAB_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


class Experiment:
    """Config plus CLI overrides, resolved into assembly inputs."""

    def __init__(self, config: dict, args):
        self.config = config
        self.sub = manifold_from_spec(config["manifold"])
        if args.k:
            self.k_sweep = [float(k) for k in str(args.k).split(",")]
        else:
            self.k_sweep = [float(k) for k in config.get("k_sweep", [50.0])]
        self.max_degree = args.max_degree or config.get("max_degree")
        self.quad_order = args.quad_order or config.get("quad_order")
        self.seed = args.seed if args.seed is not None else config.get("seed", 0)
        amp = config.get("amplitude")
        if amp is None:
            self.amplitude = None
        elif isinstance(amp, str):
            self.amplitude = amplitude_from_dsl(amp, self.sub.dim)
        else:
            re_f = amplitude_from_dsl(amp[0], self.sub.dim)
            im_f = amplitude_from_dsl(amp[1], self.sub.dim)
            self.amplitude = lambda t: re_f(t) + 1j * im_f(t)
        self.classification = classify(self.sub)
        try:
            self.dp = d_prime(self.classification)
        except ValueError:
            self.dp = None

    def quad(self, k: float):
        if self.quad_order is not None:
            return quadrature(self.sub, self.quad_order)
        coarse = quadrature(self.sub, 8)
        order = default_periodic_nodes(k, coarse.max_radius())
        return quadrature(self.sub, order)

    def trunc(self, k: float, quad) -> FockTruncation:
        M = self.max_degree or default_max_degree(k, quad)
        return FockTruncation(self.sub.ambient_dim, k, M)

    def operator(self, k: float):
        quad = self.quad(k)
        trunc = self.trunc(k, quad)
        return assemble_T(trunc, self.sub, self.amplitude, quad), quad

    def provenance(self, k: float, trunc) -> dict:
        return {"k": k, "N": self.sub.ambient_dim, "d": self.sub.dim,
                "d_prime": self.dp if self.dp is not None else "",
                "M": trunc.max_degree,
                "quad_order": self.quad_order if self.quad_order is not None
                else "auto"}

    def scaled_norm(self, k: float) -> float:
        """Szego normalization 2^{d'/2} (pi/k)^{d/2}."""
        return 2.0 ** (0.5 * self.dp) * (math.pi / k) ** (0.5 * self.sub.dim)

    def sweep(self, fn):
        with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
            return list(pool.map(fn, self.k_sweep))


# --- output ------------------------------------------------------------------

def write_rows(rows: list[dict], args, name: str) -> None:
    if not rows:
        return
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
        suffix = ".json"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
        suffix = ".csv"
    _emit(text, args, name + suffix)


def _emit(text: str, args, filename: str) -> None:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text)
        print(f"wrote {out / filename}")
    else:
        sys.stdout.write(text)


def write_verdicts(verdicts: list[dict], args, name: str) -> int:
    for v in verdicts:
        v["pass"] = bool(v["pass"])
    _emit(json.dumps(verdicts, indent=2, default=float) + "\n", args,
          name + "_verdicts.json")
    return 0 if all(v["pass"] for v in verdicts) else 1


def svg_polyline(xs, ys, width=640, height=400, margin=50) -> str:
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    x0, x1 = xs.min(), xs.max()
    y0, y1 = min(ys.min(), 0.0), ys.max()
    sx = (width - 2 * margin) / max(x1 - x0, 1e-300)
    sy = (height - 2 * margin) / max(y1 - y0, 1e-300)
    pts = " ".join(f"{margin + (x - x0) * sx:.2f},"
                   f"{height - margin - (y - y0) * sy:.2f}"
                   for x, y in zip(xs, ys))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}"><rect width="100%" height="100%" fill="white"/>'
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="1.5"/></svg>\n')


# --- subcommands -------------------------------------------------------------

def cmd_geometry(exp: Experiment, args) -> int:
    cls = exp.classification
    lo, hi = cls.lambda_range
    rows = [{
        "manifold": exp.sub.label, "classification": cls.tag,
        "d": cls.dim, "N": cls.ambient_dim,
        "d_prime": exp.dp if exp.dp is not None else "",
        "half_rank": cls.half_rank, "lambda_min": lo, "lambda_max": hi,
    }]
    write_rows(rows, args, "geometry")
    return 0


def cmd_spectrum(exp: Experiment, args) -> int:
    def one(k):
        op, _ = exp.operator(k)
        spec = eigensolve(op) if op.hermitian else None
        eigs = spec.eigenvalues if spec else np.sort(
            np.abs(np.linalg.eigvals(op.matrix)))[::-1]
        prov = exp.provenance(k, op.trunc)
        return [{"index": i, "eigenvalue": float(v),
                 "normalization": op.normalization, **prov}
                for i, v in enumerate(eigs)]

    rows = [row for chunk in exp.sweep(one) for row in chunk]
    write_rows(rows, args, "spectrum")
    return 0


def _scaled_trace_rows(exp: Experiment, phi) -> tuple[list[dict], list[float]]:
    rows, values = [], []
    for k in exp.k_sweep:
        op, _ = exp.operator(k)
        S = scale_to_S(op, exp.dp)
        spec = eigensolve(S)
        val = exp.scaled_norm(k) * spectral.trace_phi(spec, phi)
        values.append(val)
        rows.append({"scaled_trace": val, "phi": phi.name,
                     **exp.provenance(k, op.trunc)})
    return rows, values


def cmd_szego(exp: Experiment, args) -> int:
    if exp.dp is None:
        print("szego requires an isotropic or coisotropic manifold",
              file=sys.stderr)
        return 1
    phi = parse_test_function(
        args.phi or exp.config.get("test_function", "power:2"))
    quad = exp.quad(exp.k_sweep[0])
    pred = asymptotics.szego_functional(exp.sub, exp.amplitude, phi, quad,
                                        cls=exp.classification)
    rows, values = _scaled_trace_rows(exp, phi)
    for row, val in zip(rows, values):
        row["prediction"] = pred.value
        row["abs_error"] = abs(val - pred.value)
    write_rows(rows, args, "szego")
    verdicts = [{
        "check_id": f"szego:{phi.name}",
        "observed": values[-1], "predicted": pred.value,
        "tolerance": 0.02 * max(abs(pred.value), 1e-300),
        "pass": abs(values[-1] - pred.value)
                <= 0.02 * max(abs(pred.value), 1e-300),
    }]
    if len(exp.k_sweep) >= 4:
        fit = spectral.rate_regression(exp.k_sweep, values, pred.value)
        verdicts[0]["rate_slope"] = fit.slope
    return write_verdicts(verdicts, args, "szego")


def cmd_weyl(exp: Experiment, args) -> int:
    if exp.dp is None:
        print("weyl requires an isotropic or coisotropic manifold",
              file=sys.stderr)
        return 1
    lo, hi = exp.config.get("interval", [0.2, 0.9])
    quad = exp.quad(exp.k_sweep[0])
    area = quad.total_mass
    pred = asymptotics.weyl_prediction(area, exp.dp, (lo, hi))
    rows = []
    last = None
    for k in exp.k_sweep:
        op, _ = exp.operator(k)
        spec = eigensolve(scale_to_S(op, exp.dp))
        count = weyl_count(spec, (lo, hi))
        last = exp.scaled_norm(k) * count
        rows.append({"count": count, "scaled_count": last,
                     "prediction": pred, **exp.provenance(k, op.trunc)})
    write_rows(rows, args, "weyl")
    verdicts = [{"check_id": f"weyl:[{lo},{hi}]", "observed": last,
                 "predicted": pred, "tolerance": 0.05 * pred,
                 "pass": abs(last - pred) <= 0.05 * pred}]
    return write_verdicts(verdicts, args, "weyl")


def cmd_schatten(exp: Experiment, args) -> int:
    if exp.dp is None:
        print("schatten requires an isotropic or coisotropic manifold",
              file=sys.stderr)
        return 1
    ps = exp.config.get("schatten_p", [1.0, 2.0])
    quad = exp.quad(exp.k_sweep[0])
    preds = [asymptotics.schatten_prediction(exp.sub, exp.amplitude, p, quad,
                                             cls=exp.classification)
             for p in ps]
    # one assembly per k, one operator held at a time; rows stay p-major
    per_p = [[] for _ in ps]
    for k in exp.k_sweep:
        op, _ = exp.operator(k)
        S = scale_to_S(op, exp.dp)
        prov = exp.provenance(k, op.trunc)
        for out, p in zip(per_p, ps):
            out.append((exp.scaled_norm(k) * schatten_sum(S, p), prov))
        del op, S
    rows, verdicts = [], []
    for p, pred, out in zip(ps, preds, per_p):
        rows.extend({"p": p, "scaled_schatten": val, "prediction": pred,
                     **prov} for val, prov in out)
        last = out[-1][0]
        verdicts.append({"check_id": f"schatten:p={p:g}", "observed": last,
                         "predicted": pred, "tolerance": 0.02 * pred,
                         "pass": abs(last - pred) <= 0.02 * pred})
    write_rows(rows, args, "schatten")
    return write_verdicts(verdicts, args, "schatten")


def cmd_entropy(exp: Experiment, args) -> int:
    if exp.dp is None or exp.dp <= 0:
        print("entropy requires d' > 0", file=sys.stderr)
        return 1
    quad = exp.quad(exp.k_sweep[0])
    pred, C_d = asymptotics.entropy_prediction(exp.sub, exp.amplitude, quad,
                                               cls=exp.classification)
    rows = []
    gap = None
    for k in exp.k_sweep:
        op, _ = exp.operator(k)
        rho_matrix = (math.pi / k) ** exp.sub.ambient_dim * op.matrix
        spec = spectral.SpectralSummary(
            eigenvalues=np.linalg.eigvalsh(rho_matrix)[::-1], k=k,
            ambient_dim=exp.sub.ambient_dim)
        H = spectral.entropy(spec)
        shifted = H + math.log(C_d * k ** (-0.5 * exp.sub.dim))
        gap = abs(shifted - pred)
        rows.append({"entropy": H, "shifted": shifted, "prediction": pred,
                     "gap": gap, **exp.provenance(k, op.trunc)})
    write_rows(rows, args, "entropy")
    verdicts = [{"check_id": "entropy", "observed": rows[-1]["shifted"],
                 "predicted": pred, "tolerance": 1e-2,
                 "pass": gap <= 1e-2}]
    return write_verdicts(verdicts, args, "entropy")


def cmd_density(exp: Experiment, args) -> int:
    if exp.dp is None or exp.dp <= 0:
        print("density requires d' > 0", file=sys.stderr)
        return 1
    quad = exp.quad(exp.k_sweep[0])
    grid = exp.config.get("density_grid")
    if grid is None:
        grid = list(np.linspace(0.02, 0.98, 49))
    rows = []
    for s in grid:
        val = asymptotics.limiting_density(exp.sub, exp.amplitude, float(s),
                                           quad, cls=exp.classification)
        rows.append({"s": float(s), "density": val,
                     "d_prime": exp.dp, "N": exp.sub.ambient_dim,
                     "d": exp.sub.dim})
    write_rows(rows, args, "density")
    if args.svg:
        _emit(svg_polyline([r["s"] for r in rows],
                           [r["density"] for r in rows]),
              args, "density.svg")
    return 0


def cmd_hessian_check(args) -> int:
    rng = np.random.default_rng(args.seed or 0)
    worst_det, worst_sqrt = 0.0, 0.0
    rows = []
    for trial in range(args.trials):
        G, H = hessian.random_spd_skew(args.d, rng)
        rep = hessian.verify_sqrt_det(G, H, args.q)
        worst_det = max(worst_det, rep.rel_err_det)
        worst_sqrt = max(worst_sqrt, rep.rel_err_sqrt)
        rows.append({"trial": trial, "d": args.d, "q": args.q,
                     "rel_err_det": rep.rel_err_det,
                     "rel_err_sqrt": rep.rel_err_sqrt, "pass": rep.ok})
    write_rows(rows, args, "hessian_check")
    verdicts = [{"check_id": f"hessian:d={args.d},q={args.q}",
                 "observed": max(worst_det, worst_sqrt), "predicted": 0.0,
                 "tolerance": 1e-8,
                 "pass": max(worst_det, worst_sqrt) <= 1e-8}]
    return write_verdicts(verdicts, args, "hessian_check")


def cmd_bs_state(exp: Experiment, args) -> int:
    theta_src = args.theta or exp.config.get("theta")
    if theta_src is None:
        print("bs-state needs --theta", file=sys.stderr)
        return 1
    theta = amplitude_from_dsl(theta_src, exp.sub.dim)
    alpha_src = args.alpha or exp.config.get("alpha")
    alpha = amplitude_from_dsl(alpha_src, exp.sub.dim) if alpha_src else None
    bs = states.BohrSommerfeldData(theta=theta, alpha=alpha)
    rows = []
    for k in exp.k_sweep:
        quad = exp.quad(k)
        trunc = exp.trunc(k, quad)
        psi = states.build_test_state(trunc, exp.sub, bs, quad)
        op = assemble_T(trunc, exp.sub, exp.amplitude, quad)
        q = states.rayleigh_lower_bound(op, psi)
        norm2 = float(np.vdot(psi, psi).real)
        ratio = norm2 / (2.0 * k / math.pi) ** (0.5 * exp.sub.ambient_dim)
        rows.append({"norm_sq": norm2, "norm_ratio": ratio,
                     "rayleigh": q, **exp.provenance(k, trunc)})
    write_rows(rows, args, "bs_state")
    return 0


def cmd_verify_all(args) -> int:
    verdicts = acceptance.run_all()
    return write_verdicts(verdicts, args, "verify_all")


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegolab",
        description="Spectral checks for singular Berezin-Toeplitz operators")
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--k", help="comma-separated k sweep override")
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--quad-order", type=int, dest="quad_order")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--svg", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("geometry", "spectrum", "szego", "weyl", "schatten",
                 "entropy", "density", "bs-state", "verify-all"):
        sub = subs.add_parser(name)
        if name == "szego":
            sub.add_argument("--phi")
        if name == "bs-state":
            sub.add_argument("--theta")
            sub.add_argument("--alpha")
    hc = subs.add_parser("hessian-check")
    hc.add_argument("--d", type=int, default=3)
    hc.add_argument("--q", type=int, default=4)
    hc.add_argument("--trials", type=int, default=20)
    hc.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify-all":
        return cmd_verify_all(args)
    if args.command == "hessian-check":
        return cmd_hessian_check(args)
    if not args.config:
        print("this subcommand requires --config", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
        exp = Experiment(config, args)
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    handlers = {
        "geometry": cmd_geometry,
        "spectrum": cmd_spectrum,
        "szego": cmd_szego,
        "weyl": cmd_weyl,
        "schatten": cmd_schatten,
        "entropy": cmd_entropy,
        "density": cmd_density,
        "bs-state": cmd_bs_state,
    }
    return handlers[args.command](exp, args)


if __name__ == "__main__":
    sys.exit(main())
