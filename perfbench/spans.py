"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the szegolab modules from outside the
package: every module attribute bound to a target function is replaced,
so calls through `from .x import y` bindings are seen as well as calls
through the defining module.  Spans record name, start, end, parent span
and iteration id and stay in memory until `dump`.

Hot leaf functions (`dsl.evaluate`, `manifold.frame_at`, the hessian
algebra, `mellin_log`) are aggregated into counters instead of recorded
one span per call; their time is still subtracted from the enclosing
span's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TINY = np.finfo(np.float64).tiny

# check_id of each acceptance check, in suite order
CHECK_IDS = (
    "circle_spectrum_oracle", "trace_identity", "pair_trace",
    "moment_asymptotics", "szego_slogs", "weyl_counts", "schatten",
    "entropy_limit", "norm_scaling", "hessian_oracle", "mellin_identity",
    "bohr_sommerfeld_bound", "parabola_moments",
)


@dataclass(frozen=True)
class Target:
    module: str                 # defining module under szegolab
    attr: str                   # function name in that module
    name: str                   # span name
    group: str                  # layer; `<group>.calls/s` count outermost spans
    leaf: bool = False          # aggregate only, no span record per call
    recursive: bool = False     # leave the defining module's own binding alone
    measure: Optional[Callable] = None  # (bound arguments, result) -> attrs


def _assemble_attrs(a, r):
    trunc, quad, m = a["trunc"], a["quad"], r.matrix.view(np.float64)
    nonzero = int(np.count_nonzero(m))
    subnormal = int(np.count_nonzero((np.abs(m) < TINY) & (m != 0)))
    return {"k": trunc.k, "dim": r.dim, "nodes": quad.size,
            "gflop": 8.0 * quad.size * r.dim ** 2 / 1e9,
            "key": (id(a["sub"]), id(a["a"]), trunc.k, trunc.max_degree,
                    quad.size, quad.total_mass),
            "keep": (a["sub"], a["a"]),
            "nonzero": nonzero, "subnormal": subnormal}


TARGETS = [
    Target("fock", "eval_basis_matrix", "fock.eval_basis_matrix", "fock",
           measure=lambda a, r: {"values": r.size}),
    Target("manifold", "quadrature", "manifold.quadrature", "manifold",
           measure=lambda a, r: {"nodes": r.size}),
    Target("manifold", "classify", "manifold.classify", "manifold"),
    Target("manifold", "frame_at", "manifold.frame_at", "manifold",
           leaf=True),
    Target("dsl", "evaluate", "dsl.evaluate", "dsl", leaf=True,
           recursive=True),
    Target("assembly", "assemble_T", "assembly.assemble_T", "assembly",
           measure=_assemble_attrs),
    Target("assembly", "pair_trace_integral", "assembly.pair_trace_integral",
           "assembly", measure=lambda a, r: {"pairs": a["quad"].size ** 2}),
    Target("assembly", "exact_trace", "assembly.exact_trace", "assembly",
           measure=lambda a, r: {"gap": r[2]}),
    Target("spectral", "eigensolve", "spectral.eigensolve", "spectral",
           measure=lambda a, r: {"dim3": a["op"].dim ** 3 / 1e9}),
    Target("spectral", "schatten_sum", "spectral.schatten_sum", "spectral"),
    Target("asymptotics", "mellin_log", "asymptotics.mellin_log",
           "asymptotics", leaf=True),
    *[Target("asymptotics", n, f"asymptotics.{n}", "asymptotics")
      for n in ("szego_functional", "limiting_density", "weyl_prediction",
                "moment_prediction", "schatten_prediction",
                "entropy_prediction")],
    *[Target("hessian", n, f"hessian.{n}", "hessian", leaf=True)
      for n in ("build_hessian", "det_recursion", "det_closed_form",
                "verify_sqrt_det", "lambdas_of", "random_spd_skew")],
    *[Target("states", n, f"states.{n}", "states")
      for n in ("verify_bohr_sommerfeld", "build_test_state",
                "norm_asymptotics_check", "rayleigh_lower_bound",
                "circle_theta")],
    *[Target("cli", f"cmd_{n}", f"cli.{n}", f"cli.{n}")
      for n in ("spectrum", "szego", "schatten")],
]

# per-layer metrics: name -> unit, in report order
METRICS = {
    "fock.eval_basis_matrix.calls": "count",
    "fock.eval_basis_matrix.s": "s",
    "fock.eval_basis_matrix.values": "count",
    "fock.eval_basis_matrix.ns_per_value": "ns",
    "manifold.quadrature.calls": "count",
    "manifold.quadrature.s": "s",
    "manifold.quadrature.nodes": "count",
    "manifold.classify.calls": "count",
    "manifold.classify.s": "s",
    "manifold.frame_at.calls": "count",
    "manifold.frame_at.s": "s",
    "dsl.evaluate.calls": "count",
    "dsl.evaluate.s": "s",
    "assembly.assemble_T.calls": "count",
    "assembly.assemble_T.s": "s",
    "assembly.assemble_T.self_s": "s",
    "assembly.assemble_T.nodes": "count",
    "assembly.assemble_T.gflop": "GFLOP",
    "assembly.assemble_T.gflops": "GFLOP/s",
    "assembly.assemble_T.distinct_frac": "ratio",
    "assembly.assemble_T.subnormal_frac": "ratio",
    "assembly.pair_trace_integral.calls": "count",
    "assembly.pair_trace_integral.s": "s",
    "assembly.pair_trace_integral.pairs": "count",
    "assembly.truncation_warnings": "count",
    "assembly.exact_trace.calls": "count",
    "assembly.exact_trace.gap_max": "ratio",
    "spectral.eigensolve.calls": "count",
    "spectral.eigensolve.s": "s",
    "spectral.eigensolve.dim3": "dim3/1e9",
    "spectral.schatten_sum.calls": "count",
    "spectral.schatten_sum.s": "s",
    "asymptotics.calls": "count",
    "asymptotics.s": "s",
    "asymptotics.moment_prediction.calls": "count",
    "asymptotics.moment_prediction.s": "s",
    "hessian.calls": "count",
    "hessian.s": "s",
    "states.calls": "count",
    "states.s": "s",
    **{f"acceptance.{c}.s": "s" for c in CHECK_IDS},
    "acceptance.lab.calls": "count",
    "acceptance.lab.hit_frac": "ratio",
    "cli.spectrum.s": "s",
    "cli.szego.s": "s",
    "cli.schatten.s": "s",
    "cli.sweep.calls": "count",
    "cli.sweep.s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

# metrics that are exact counts and must repeat exactly for one seed
EXACT = tuple(n for n in METRICS if n.endswith(".calls")) + (
    "fock.eval_basis_matrix.values", "manifold.quadrature.nodes",
    "assembly.assemble_T.nodes", "assembly.assemble_T.gflop",
    "assembly.pair_trace_integral.pairs", "assembly.truncation_warnings",
    "spectral.eigensolve.dim3",
)

# groups each workload must reach; a wrapper that never fires is an error
EXPECTED = {
    "verify_all": (
        "fock", "manifold.quadrature", "manifold.classify",
        "manifold.frame_at", "assembly.assemble_T",
        "assembly.pair_trace_integral", "assembly.exact_trace",
        "spectral.eigensolve", "spectral.schatten_sum", "asymptotics",
        "asymptotics.moment_prediction", "hessian", "states", "acceptance",
        "acceptance.lab"),
    "sphere_nodes": (
        "fock", "manifold.quadrature", "assembly.assemble_T",
        "assembly.exact_trace", "spectral.eigensolve"),
    "dsl_config": (
        "fock", "manifold.quadrature", "manifold.classify",
        "manifold.frame_at", "dsl.evaluate", "assembly.assemble_T",
        "spectral.eigensolve", "spectral.schatten_sum", "asymptotics",
        "cli.spectrum", "cli.szego", "cli.schatten", "cli.sweep"),
}


class Frame:
    """Stack entry of a leaf call; collects its leaf children's seconds."""
    __slots__ = ("folded",)

    def __init__(self):
        self.folded = 0.0


class Span:
    __slots__ = ("name", "group", "outer", "parent", "iteration",
                 "start", "end", "folded", "attrs")

    def __init__(self, target, outer, parent, iteration):
        self.name = target.name
        self.group = target.group
        self.outer = outer
        self.parent = parent
        self.iteration = iteration
        self.folded = 0.0  # seconds spent in aggregated leaf children
        self.attrs = None
        self.start = time.perf_counter()


class Tracer:
    """Installs span wrappers on the loaded szegolab modules."""

    def __init__(self):
        self.iteration = 0
        self.spans: list[Span] = []
        self.lab_calls = 0
        self.lab_hits = 0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._leaf_tables: list[dict] = []
        self._patches: list[tuple] = []

    # --- span bookkeeping --------------------------------------------------

    def _thread(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack, tls.depth, tls.root, tls.leaves = [], {}, None, {}
            with self._lock:
                self._leaf_tables.append(tls.leaves)
        return tls

    def _enter(self, target: Target) -> Span:
        tls = self._thread()
        depth = tls.depth.get(target.group, 0)
        tls.depth[target.group] = depth + 1
        parent = tls.stack[-1] if tls.stack else tls.root
        span = Span(target, depth == 0, parent, self.iteration)
        tls.stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        tls = self._tls
        tls.stack.pop()
        tls.depth[span.group] -= 1
        self.spans.append(span)

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, fn):
        if target.leaf:
            return self._wrap_leaf(target, fn)
        signature = inspect.signature(fn) if target.measure else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.attrs = target.measure(bound, result)
            return result

        return wrapper

    def _wrap_leaf(self, target: Target, fn):
        """Counting wrapper: calls and seconds, folded into the parent."""
        group, key, clock = target.group, (target.name, target.group), \
            time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = self._thread()
            stack, depth = tls.stack, tls.depth
            outer = not depth.get(group)
            depth[group] = depth.get(group, 0) + 1
            frame = Frame()
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[group] -= 1
                row = tls.leaves.get(key)
                if row is None:
                    row = tls.leaves[key] = [0, 0.0, 0, 0.0]
                row[0] += 1
                row[1] += duration
                if outer:
                    row[2] += 1
                    row[3] += duration
                if stack:
                    stack[-1].folded += duration
                elif tls.root is not None:  # parent lives in another thread
                    with self._lock:
                        tls.root.folded += duration

        return wrapper

    def _wrap_check(self, fn):
        target = Target("acceptance", fn.__name__, "acceptance", "acceptance")

        @functools.wraps(fn)
        def wrapper(lab):
            span = self._enter(target)
            try:
                verdict = fn(lab)
            finally:
                self._exit(span)
            span.name = f"acceptance.{verdict['check_id']}"
            return verdict

        return wrapper

    def _wrap_sweep(self, fn):
        target = Target("cli", "Experiment.sweep", "cli.sweep", "cli.sweep")

        @functools.wraps(fn)
        def wrapper(experiment, task):
            span = self._enter(target)

            def adopted(k):  # runs in a pool thread, under the sweep span
                tls = self._thread()
                tls.root = span
                try:
                    return task(k)
                finally:
                    tls.root = None

            try:
                return fn(experiment, adopted)
            finally:
                self._exit(span)

        return wrapper

    def _wrap_lab_get(self, fn):
        @functools.wraps(fn)
        def wrapper(lab, key, build):
            self.lab_calls += 1
            self.lab_hits += key in lab._cache
            return fn(lab, key, build)

        return wrapper

    # --- patching ----------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, list):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _patch_everywhere(self, modules, original, wrapper, skip=None):
        for module in modules:
            if module is skip:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "szegolab" or n.startswith("szegolab.")]
        pkg = {m.__name__.rpartition(".")[2]: m for m in modules}
        for target in TARGETS:
            defining = pkg[target.module]
            original = getattr(defining, target.attr)
            wrapper = self._wrap(target, original)
            if not target.recursive:
                self._patch_everywhere(modules, original, wrapper)
                continue
            # callers reach it as `module.attr`: hand them a proxy module so
            # the function's own recursion keeps calling the original
            self._patch_everywhere(modules, original, wrapper, skip=defining)
            proxy = types.ModuleType(defining.__name__)
            proxy.__dict__.update(vars(defining))
            setattr(proxy, target.attr, wrapper)
            self._patch_everywhere(modules, defining, proxy, skip=defining)
        acceptance, cli = pkg["acceptance"], pkg["cli"]
        for i, check in enumerate(acceptance.CHECKS):
            wrapper = self._wrap_check(check)
            self._set(acceptance.CHECKS, i, wrapper)
            self._patch_everywhere(modules, check, wrapper)
        self._set(acceptance.Lab, "_get",
                  self._wrap_lab_get(acceptance.Lab._get))
        self._set(cli.Experiment, "sweep",
                  self._wrap_sweep(cli.Experiment.sweep))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, list):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # --- results -----------------------------------------------------------

    def _self_times(self) -> dict:
        children: dict[int, list] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(id(span), ()),
                                key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[id(span)] = span.end - span.start - covered - span.folded
        return out

    def metrics(self, truncation_warnings: int, walls: tuple) -> dict:
        """Per-layer metrics of everything recorded since install."""
        calls, outer_calls = defaultdict(int), defaultdict(int)
        busy, outer_busy, self_s = (defaultdict(float) for _ in range(3))
        selfs = self._self_times()
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            busy[span.name] += duration
            self_s[span.name] += selfs[id(span)]
            if span.outer:
                outer_calls[span.group] += 1
                outer_busy[span.group] += duration
        for table in self._leaf_tables:
            for (name, group), (n, s, n_outer, s_outer) in table.items():
                calls[name] += n
                busy[name] += s
                outer_calls[group] += n_outer
                outer_busy[group] += s_outer

        def attr_sum(name, key):
            return sum(s.attrs[key] for s in self.spans
                       if s.name == name and s.attrs)

        m = {}
        for name in METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":  # a span name, else a layer's outermost
                m[name] = calls[base] if base in calls else outer_calls[base]
            elif field == "s":
                m[name] = busy[base] if base in busy else outer_busy[base]
        m["assembly.assemble_T.self_s"] = self_s["assembly.assemble_T"]
        values = attr_sum("fock.eval_basis_matrix", "values")
        m["fock.eval_basis_matrix.values"] = values
        m["fock.eval_basis_matrix.ns_per_value"] = (
            1e9 * m["fock.eval_basis_matrix.s"] / values if values else 0.0)
        m["manifold.quadrature.nodes"] = attr_sum("manifold.quadrature",
                                                  "nodes")
        assembled = [s.attrs for s in self.spans
                     if s.name == "assembly.assemble_T" and s.attrs]
        gflop = sum(a["gflop"] for a in assembled)
        m["assembly.assemble_T.nodes"] = sum(a["nodes"] for a in assembled)
        m["assembly.assemble_T.gflop"] = gflop
        m["assembly.assemble_T.gflops"] = (
            gflop / m["assembly.assemble_T.self_s"] if gflop else 0.0)
        m["assembly.assemble_T.distinct_frac"] = (
            len({a["key"] for a in assembled}) / len(assembled)
            if assembled else 0.0)
        nonzero = sum(a["nonzero"] for a in assembled)
        m["assembly.assemble_T.subnormal_frac"] = (
            sum(a["subnormal"] for a in assembled) / nonzero
            if nonzero else 0.0)
        m["assembly.pair_trace_integral.pairs"] = attr_sum(
            "assembly.pair_trace_integral", "pairs")
        m["assembly.truncation_warnings"] = truncation_warnings
        m["assembly.exact_trace.gap_max"] = max(
            (s.attrs["gap"] for s in self.spans
             if s.name == "assembly.exact_trace" and s.attrs), default=0.0)
        m["spectral.eigensolve.dim3"] = attr_sum("spectral.eigensolve", "dim3")
        m["acceptance.lab.calls"] = self.lab_calls
        m["acceptance.lab.hit_frac"] = (self.lab_hits / self.lab_calls
                                        if self.lab_calls else 0.0)
        untraced, traced = walls
        m["trace.untraced_wall_s"] = untraced
        m["trace.traced_wall_s"] = traced
        m["trace.overhead_s"] = traced - untraced
        return {name: m[name] for name in METRICS}

    def fired(self) -> set:
        """Names and groups of every wrapper that recorded a call."""
        out = {"acceptance.lab"} if self.lab_calls else set()
        for span in self.spans:
            out.update((span.name, span.group))
        for table in self._leaf_tables:
            for name_group in table:
                out.update(name_group)
        return out

    def dump(self, path) -> None:
        """Write recorded spans as JSON lines with integer span ids."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in (s.attrs or {}).items()
                         if k not in ("key", "keep")}
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)),
                    "iteration": s.iteration, **attrs}) + "\n")
            for table in self._leaf_tables:
                for (name, _), (n, s, _, _) in table.items():
                    fh.write(json.dumps({"leaf": name, "calls": n,
                                         "s": s}) + "\n")
