"""Command-line driver.

Subcommands assemble operators for a configured manifold/amplitude pair,
sweep over k, and emit CSV or JSON tables plus machine-readable verdicts
{check_id, observed, predicted, tolerance, pass}.  `szego`, `weyl`,
`schatten` and `entropy` run the Szego-family rows of `acceptance` on
one operator per k.  Config files are validated against `CONFIG_SCHEMA`
before any computation, by `_schema_errors`: it interprets the JSON Schema
keywords the schema uses, as jsonschema does, reports the message
jsonschema's `best_match` would, and raises on any other keyword, so no
config command imports jsonschema (the tests' reference).  Schema errors
exit with status 2, failed checks with status 1.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import operator
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import acceptance, asymptotics, dsl, hessian, spectral, states
from ._blas import single_threaded
from .acceptance import verdict
from .assembly import CostLimitError, assemble_T
from .fock import FockTruncation
from .manifold import (
    amplitude_from_dsl,
    d_prime,
    default_max_degree,
    default_periodic_nodes,
    manifold_from_spec,
    quadrature,
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
    # the fields each kind reads without a default
    "allOf": [{"if": {"properties": {"kind": {"const": kind}},
                      "required": ["kind"]},
               "then": {"required": fields}}
              for kind, fields in (("torus_product", ["radii"]),
                                   ("plane_patch", ["ranges"]),
                                   ("custom", ["dim", "ambient_dim", "coords",
                                               "periodic", "domain"]))],
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
        # weyl counts in [lo, hi] within (0, 1]; lo <= hi in load_config
        "interval": {"type": "array",
                     "items": {"type": "number", "exclusiveMinimum": 0,
                               "maximum": 1},
                     "minItems": 2, "maxItems": 2},
        "schatten_p": {"type": "array", "items": {"type": "number",
                                                  "exclusiveMinimum": 0}},
        "density_grid": {"type": "array", "items": {"type": "number",
                                                    "exclusiveMinimum": 0}},
        "theta": {"type": "string"},
        "alpha": {"type": "string"},
    },
    "required": ["manifold"],
    "additionalProperties": False,
}


class SchemaError(ValueError):
    pass


# JSON Schema's types: a bool is not a number, and 2.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = {"type", "enum", "const", "required", "properties",
             "additionalProperties", "items", "minItems", "maxItems",
             "minimum", "exclusiveMinimum", "maximum", "oneOf", "allOf",
             "if", "then"}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "exclusiveMinimum": (operator.le,
                                "less than or equal to the minimum"),
           "maximum": (operator.gt, "greater than the maximum")}


class _Violation(NamedTuple):
    path: tuple      # from the instance the schema was applied to
    keyword: str
    off_type: bool   # the value is not of the type of the keyword's schema
    message: str
    context: tuple   # the violations of each branch of a failed oneOf


def _unimplemented(schema: dict) -> set:
    """The keywords of `schema`, at any depth, that `_violations` does not
    interpret as JSON Schema (draft 2020-12) does."""
    if not isinstance(schema, dict):
        return {f"schema {schema!r}"}
    bad = set(schema) - _KEYWORDS
    if schema.get("type", "object") not in [*_TYPES]:
        bad.add("type")
    # compared with ==, which is JSON equality between strings only
    if not all(isinstance(v, str) for v in [*schema.get("enum", []),
                                            schema.get("const", "")]):
        bad |= {"enum", "const"} & set(schema)
    if schema.get("additionalProperties", False) is not False:
        bad.add("additionalProperties")
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", []),
            *schema.get("allOf", []),
            *(schema[k] for k in ("items", "if", "then") if k in schema)]
    return bad.union(*map(_unimplemented, subs))


def _violations(value, schema: dict, path: tuple = ()):
    """Each violation of `schema` by `value`, in jsonschema's order: the
    keywords of a schema as listed, depth first."""
    def error(keyword, message, context=()):
        off_type = "type" not in schema or not _TYPES[schema["type"]](value)
        return _Violation(path, keyword, off_type, message, context)

    for keyword, arg in schema.items():
        if keyword == "type" and not _TYPES[arg](value):
            yield error(keyword, f"{value!r} is not of type {arg!r}")
        elif keyword == "enum" and value not in arg:
            yield error(keyword, f"{value!r} is not one of {arg!r}")
        elif keyword == "const" and value != arg:
            yield error(keyword, f"{arg!r} was expected")
        elif keyword == "required" and isinstance(value, dict):
            yield from (error(keyword, f"{name!r} is a required property")
                        for name in arg if name not in value)
        elif keyword == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extra = sorted((name for name in value
                            if name not in schema.get("properties", {})),
                           key=str)
            if extra:
                yield error(keyword, "Additional properties are not allowed "
                            f"({', '.join(map(repr, extra))} "
                            f"{'was' if len(extra) == 1 else 'were'} "
                            "unexpected)")
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _violations(item, arg, path + (i,))
        elif keyword == "minItems" and isinstance(value, list) \
                and len(value) < arg:
            yield error(keyword, f"{value!r} " + ("should be non-empty"
                                                  if arg == 1 else
                                                  "is too short"))
        elif keyword == "maxItems" and isinstance(value, list) \
                and len(value) > arg:
            yield error(keyword, f"{value!r} " + ("is expected to be empty"
                                                  if arg == 0 else
                                                  "is too long"))
        elif keyword in _BOUNDS and _TYPES["number"](value) \
                and _BOUNDS[keyword][0](value, arg):
            yield error(keyword, f"{value!r} is {_BOUNDS[keyword][1]} of "
                        f"{arg!r}")
        elif keyword == "oneOf":
            valid = [sub for sub in arg if not any(_violations(value, sub))]
            if not valid:
                branches = tuple(e for sub in arg
                                 for e in _violations(value, sub))
                yield error(keyword, f"{value!r} is not valid under any of "
                            "the given schemas", branches)
            elif len(valid) > 1:
                yield error(keyword, f"{value!r} is valid under each of "
                            + ", ".join(map(repr, valid[1:] + valid[:1])))
        elif keyword == "allOf":
            for sub in arg:
                yield from _violations(value, sub, path)
        elif (keyword == "if" and "then" in schema
              and not any(_violations(value, arg))):
            yield from _violations(value, schema["then"], path)


def _relevance(error: _Violation) -> tuple:
    """jsonschema's `relevance` key: shallow before deep, then the later
    path, any keyword before oneOf, and a value not of the type its schema
    names before one that is."""
    return (-len(error.path), error.path, error.keyword != "oneOf",
            error.off_type)


def _schema_errors(value, schema: dict):
    """The messages of the violations of `schema` by `value`, the one
    jsonschema's `best_match` reports first.  `schema` may use only the
    keywords `_violations` interprets; any other raises
    NotImplementedError, so none can go unenforced."""
    bad = _unimplemented(schema)
    if bad:
        raise NotImplementedError(f"schema keywords not interpreted: "
                                  f"{sorted(bad)}")
    for error in sorted(_violations(value, schema), key=_relevance,
                        reverse=True):
        # a failed oneOf reports its most relevant branch violation unless
        # the two most relevant tie, as best_match does
        while error.context:
            first, *second = sorted(error.context, key=_relevance)[:2]
            if second and _relevance(first) == _relevance(second[0]):
                break
            error = first
        yield error.message


def _reject_constant(name: str):
    """json.load hook for NaN, Infinity and -Infinity, which JSON Schema's
    number comparisons let through."""
    raise SchemaError(f"config holds the non-finite number {name}")


def load_config(args) -> dict:
    """The --config file with --k, --max-degree and --quad-order merged in,
    validated against the schema as one dict."""
    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}")
    if args.k is not None:
        try:
            config["k_sweep"] = [float(k) for k in args.k.split(",")]
        except ValueError:
            raise SchemaError(f"--k takes comma-separated numbers, "
                              f"not {args.k!r}")
        if not all(map(math.isfinite, config["k_sweep"])):
            raise SchemaError(f"--k takes finite numbers, not {args.k!r}")
    for key in ("max_degree", "quad_order"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    for message in _schema_errors(config, CONFIG_SCHEMA):
        raise SchemaError(f"config schema violation: {message}")
    lo, hi = config.get("interval", (0, 0))
    if lo > hi:
        raise SchemaError(f"config interval {config['interval']} is reversed")
    return config


def parse_test_function(name: str) -> spectral.TestFunction:
    """Named test functions: power:n, entropy, trapezoid:l1,l2,m1,m2."""
    if name == "entropy":
        return spectral.entropy_function()
    try:
        if name.startswith("power:"):
            n = float(name.split(":", 1)[1])
            if not n > 0:
                raise SchemaError("power needs a positive exponent")
            return spectral.power_function(n)
        if name.startswith("trapezoid:"):
            parts = [float(x) for x in name.split(":", 1)[1].split(",")]
            if len(parts) != 4:
                raise SchemaError("trapezoid needs four breakpoints")
            return spectral.trapezoid_function(*parts)
    except ValueError as exc:
        raise SchemaError(f"bad test function {name!r}: {exc}")
    raise SchemaError(f"unknown test function {name!r}")


def _max_workers() -> int:
    """Workers of `Experiment.sweep`, which runs the k values in order."""
    return 1


def _check_manifold_lengths(spec: dict) -> None:
    """The list lengths of a manifold spec, which the schema cannot relate
    to `dim` and `ambient_dim`."""
    if spec["kind"] == "custom":
        for key, want in (("periodic", spec["dim"]), ("domain", spec["dim"]),
                          ("coords", 2 * spec["ambient_dim"])):
            if len(spec[key]) != want:
                raise SchemaError(f"manifold {key} lists {len(spec[key])} "
                                  f"entries, not {want}")
    if spec["kind"] == "plane_patch" and len(spec["ranges"]) % 2:
        raise SchemaError(f"plane_patch lists {len(spec['ranges'])} ranges, "
                          f"not 2N (x1, y1, x2, y2, ...)")


class Experiment:
    """A validated config (`load_config`), resolved into assembly inputs.

    Quadratures are memoised by order; operators are built per k, not kept.
    A command reads the classification of each quadrature it integrates
    over, so a half rank that varies over its nodes exits 1.
    """

    def __init__(self, config: dict):
        self.config = config
        _check_manifold_lengths(config["manifold"])
        self.sub = manifold_from_spec(config["manifold"])
        self.k_sweep = [float(k) for k in config.get("k_sweep", [50.0])]
        self.max_degree = config.get("max_degree")
        self.quad_order = config.get("quad_order")
        if (isinstance(self.quad_order, list)
                and len(self.quad_order) != self.sub.dim):
            raise SchemaError(f"quad_order lists {len(self.quad_order)} "
                              f"orders for a manifold of dimension "
                              f"{self.sub.dim}")
        amp = config.get("amplitude")
        if amp is None:
            self.amplitude = None
        elif isinstance(amp, str):
            self.amplitude = amplitude_from_dsl(amp, self.sub.dim)
        else:
            re_f = amplitude_from_dsl(amp[0], self.sub.dim)
            im_f = amplitude_from_dsl(amp[1], self.sub.dim)
            self.amplitude = lambda t: re_f(t) + 1j * im_f(t)
        self.lab = acceptance.Lab()
        self._checked = set()  # k values whose quad_order was checked

    def quad(self, k: float, order=None):
        """Quadrature for k, built once per order."""
        if order is None:
            order = self.quad_order
            if order is None:
                order = self._auto_order(k)
            elif k not in self._checked:
                self._checked.add(k)
                self._warn_if_short(k)
        return self.lab._get(("quad", *np.ravel(order).tolist()),
                             lambda: quadrature(self.sub, order))

    def _auto_order(self, k: float) -> int:
        # the default order depends on the radius of a coarse grid
        return default_periodic_nodes(k, self.quad(k, 8).max_radius())

    def _warn_if_short(self, k: float) -> None:
        """One line on stderr when a periodic axis of the configured
        quad_order has fewer nodes than the default order, which resolves
        the phase e^{ik omega}."""
        orders = np.broadcast_to(self.quad_order, (self.sub.dim,))
        periodic = [int(o) for o, p in zip(orders, self.sub.periodic) if p]
        if periodic and min(periodic) < (auto := self._auto_order(k)):
            print(f"warning: quad_order {min(periodic)} on a periodic axis "
                  f"is below default_periodic_nodes(k, R) = {auto} at "
                  f"k = {k:g}", file=sys.stderr)

    def dp(self, k: float):
        """d' of the quadrature for k, None where Gamma is neither
        isotropic nor coisotropic."""
        cls = self.quad(k).classification
        try:
            return d_prime(cls)
        except ValueError:
            return None

    def operator(self, k: float):
        quad = self.quad(k)
        M = (self.max_degree if self.max_degree is not None
             else default_max_degree(k, quad))
        trunc = FockTruncation(self.sub.ambient_dim, k, M)
        return assemble_T(trunc, self.sub, self.amplitude, quad), quad

    def scaled(self, k: float) -> acceptance.SzegoPoint:
        """The point a Szego-family row reads at k: T, the Szego factors
        of its quadrature's classification and the row provenance."""
        op, quad = self.operator(k)
        return acceptance.SzegoPoint(
            k, op, lambda: spectral.eigensolve(op).eigenvalues,
            *asymptotics.szego_factors(k, quad), self.provenance(k, op.trunc))

    def predict(self, prediction, *args) -> float:
        """An `asymptotics` prediction (amplitude, *args, quad) on the
        quadrature of the first k; it checks the geometry."""
        return prediction(self.amplitude, *args, self.quad(self.k_sweep[0]))

    def provenance(self, k: float, trunc) -> dict:
        dp = self.dp(k)
        return {"k": k, "N": self.sub.ambient_dim, "d": self.sub.dim,
                "d_prime": dp if dp is not None else "",
                "M": trunc.max_degree,
                "quad_order": self.quad_order if self.quad_order is not None
                else "auto"}

    def sweep(self, fn):
        """fn(k) for each k of the sweep, in order."""
        return [fn(k) for k in self.k_sweep]


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
    k = exp.k_sweep[0]
    cls, dp = exp.quad(k).classification, exp.dp(k)
    lo, hi = cls.lambda_range
    rows = [{
        "manifold": exp.sub.label, "classification": cls.tag,
        "d": cls.dim, "N": cls.ambient_dim,
        "d_prime": dp if dp is not None else "",
        "half_rank": cls.half_rank, "lambda_min": lo, "lambda_max": hi,
    }]
    write_rows(rows, args, "geometry")
    return 0


def cmd_spectrum(exp: Experiment, args) -> int:
    def one(k):
        op, _ = exp.operator(k)
        # a non-Hermitian operator reports its singular values instead
        if op.hermitian:
            column, values = "eigenvalue", spectral.eigensolve(op).eigenvalues
        else:
            column, values = "singular_value", spectral.singular_values(op)
        prov = exp.provenance(k, op.trunc)
        return [{"index": i, column: float(v),
                 "normalization": "raw_T", **prov}
                for i, v in enumerate(values)]

    rows = [row for chunk in exp.sweep(one) for row in chunk]
    write_rows(rows, args, "spectrum")
    return 0


def _judged(exp: Experiment, args, row: acceptance.SzegoRow) -> int:
    """Run a Szego-family row over the sweep (`acceptance.run_row`), one
    operator per k, and write its rows, check by check, and one verdict
    per check."""
    rows, runs = acceptance.run_row(row, exp, exp.scaled)
    write_rows(rows, args, args.command)
    verdicts = [verdict(check_id, run["values"][-1], pred, tol, run["pass"])
                for (check_id, pred, tol), run in zip(row.checks, runs)]
    for out, run in zip(verdicts, runs):
        if run["rate_slope"] is not None:
            out["rate_slope"] = run["rate_slope"]
    return write_verdicts(verdicts, args, args.command)


def cmd_szego(exp: Experiment, args) -> int:
    phi = parse_test_function(
        args.phi or exp.config.get("test_function", "power:2"))
    return _judged(exp, args, acceptance.szego_row(
        phi, exp.predict(asymptotics.szego_functional, phi)))


def cmd_weyl(exp: Experiment, args) -> int:
    lo, hi = exp.config.get("interval", [0.2, 0.9])
    pred = exp.predict(asymptotics.szego_functional,
                       spectral.indicator_function(lo, hi))
    return _judged(exp, args, acceptance.weyl_row((lo, hi), pred))


def cmd_schatten(exp: Experiment, args) -> int:
    ps = exp.config.get("schatten_p", [1.0, 2.0])
    return _judged(exp, args, acceptance.schatten_row(
        ps, [exp.predict(asymptotics.schatten_prediction, p) for p in ps]))


def cmd_entropy(exp: Experiment, args) -> int:
    N = exp.sub.ambient_dim
    # the density matrix is (pi/k)^N T
    return _judged(exp, args, acceptance.entropy_row(
        exp.predict(asymptotics.entropy_prediction),
        lambda at: (math.pi / at.k) ** N * at.eigs()))


def cmd_density(exp: Experiment, args) -> int:
    grid = exp.config.get("density_grid", np.linspace(0.02, 0.98, 49))
    dp = exp.dp(exp.k_sweep[0])
    rows = []
    for s in grid:
        val = exp.predict(asymptotics.limiting_density, float(s))
        rows.append({"s": float(s), "density": val,
                     "d_prime": dp, "N": exp.sub.ambient_dim,
                     "d": exp.sub.dim})
    write_rows(rows, args, "density")
    if args.svg:
        _emit(svg_polyline([r["s"] for r in rows],
                           [r["density"] for r in rows]),
              args, "density.svg")
    return 0


def cmd_hessian_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    G = np.empty((args.trials, args.d, args.d))
    H = np.empty_like(G)
    for trial in range(args.trials):
        G[trial], H[trial] = hessian.random_spd_skew(args.d, rng)
    stack = hessian.verify_sqrt_det(G, H, args.q)
    worst = 0.0
    rows = []
    for trial in range(args.trials):
        rep = stack.member(trial)
        worst = max(worst, rep.rel_err_det, rep.rel_err_sqrt)
        rows.append({"trial": trial, "d": args.d, "q": args.q,
                     "rel_err_det": rep.rel_err_det,
                     "rel_err_sqrt": rep.rel_err_sqrt, "pass": rep.ok})
    write_rows(rows, args, "hessian_check")
    return write_verdicts([verdict(f"hessian:d={args.d},q={args.q}", worst,
                                   0.0, acceptance.HESSIAN_TOL)],
                          args, "hessian_check")


def cmd_bs_state(exp: Experiment, args) -> int:
    theta_src = args.theta or exp.config.get("theta")
    if theta_src is None:
        print("bs-state needs --theta", file=sys.stderr)
        return 1
    theta = amplitude_from_dsl(theta_src, exp.sub.dim)
    alpha_src = args.alpha or exp.config.get("alpha")
    alpha = amplitude_from_dsl(alpha_src, exp.sub.dim) if alpha_src else None
    bs = states.BohrSommerfeldData(theta=theta, alpha=alpha)

    def one(k):
        op, quad = exp.operator(k)
        psi = states.build_test_state(op.trunc, exp.sub, bs, quad)
        norm2 = float(np.vdot(psi, psi).real)
        ratio = norm2 / (2.0 * k / math.pi) ** (0.5 * exp.sub.ambient_dim)
        return {"norm_sq": norm2, "norm_ratio": ratio,
                "rayleigh": states.rayleigh_lower_bound(op, psi),
                **exp.provenance(k, op.trunc)}

    write_rows(exp.sweep(one), args, "bs_state")
    return 0


def cmd_verify_all(args) -> int:
    return write_verdicts(acceptance.run_all(), args, "verify_all")


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegolab",
        description="Spectral checks for singular Berezin-Toeplitz operators")
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--k", help="comma-separated k sweep override")
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--quad-order", type=int, dest="quad_order")
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
    hc.add_argument("--seed", type=int, default=0)
    return parser


_MMAP_THRESHOLD = 1 << 20  # bytes; see _steady_heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _steady_heap() -> None:
    """Give every allocation of _MMAP_THRESHOLD bytes or more its own
    mapping, returned to the system when it is freed (glibc; a no-op
    elsewhere).

    By default glibc raises its mmap threshold to the size of each large
    block it frees, so the later matrices of a command are carved from
    the heap, and whether one fits the hole a freed one left depends on
    the small allocations around it.  The resident peak of one command
    then moved from run to run by a whole matrix: 22 MB on 120 MB for a
    torus `szego` or `schatten` sweep whose last operator has dim 1225.
    With the threshold fixed, the peak is that of the live arrays.  The
    heap keeps up to twice the threshold free at its top, glibc's own
    ratio, rather than its 128 kB default: trimming and refaulting the
    smaller arrays cost about a third of the added system time.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


@single_threaded()
def main(argv=None) -> int:
    """Run one subcommand; malformed input exits 2, and a failed
    computation, or one over the cost budget of `assembly`, exits 1."""
    _steady_heap()
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (SchemaError, dsl.DslSyntaxError, dsl.UnknownVariableError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, dsl.DslError, CostLimitError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    if args.command == "verify-all":
        return cmd_verify_all(args)
    if args.command == "hessian-check":
        return cmd_hessian_check(args)
    if not args.config:
        print("this subcommand requires --config", file=sys.stderr)
        return 2
    exp = Experiment(load_config(args))
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
