"""Spans around calls into the program's layers, recorded from outside.

Tracer.install replaces each target function at its defining module and at
every module attribute that holds the same function object (the bindings
made by ``from ... import``), plus the entries of ``verify.SUITES`` and
``Diagram.from_points``.  ``dist`` is counted, not spanned: a wrapper on
every space class counts the outermost call only, so a quotient distance
that calls its ambient distance counts once.  Targets that no longer exist
in a loaded module are skipped and listed in ``missing``; targets in a
module the workload never imported are skipped silently.  Tracer.uninstall restores every
binding it replaced.

Calls made through a reference taken before install bypass the wrappers,
so callers must look targets up on their module at call time.

Spans live in flat arrays (name, start, end, parent, op) until the end of
the run.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

OP_SPAN = "bench.op"

# (module, attribute, span name).  Several attributes may share one span name.
FUNCTIONS = [
    ("pdmetric.wasserstein", "wasserstein_value", "wasserstein.value"),
    ("pdmetric.wasserstein", "wasserstein", "wasserstein.matching"),
    ("pdmetric.wasserstein", "bottleneck", "wasserstein.bottleneck"),
    ("pdmetric.wasserstein", "brute_force_wasserstein", "wasserstein.brute_force"),
    ("pdmetric.wasserstein", "wasserstein_quotient_reduced", "wasserstein.quotient_reduced"),
    ("pdmetric.wasserstein", "_space_costs", "wasserstein.cost_build"),
    ("pdmetric.wasserstein", "_padded_costs", "wasserstein.cost_build"),
    ("pdmetric.assignment", "min_cost_assignment", "assignment.min_cost_assignment"),
    ("pdmetric.assignment", "hungarian", "assignment.hungarian"),
    ("pdmetric.assignment", "bottleneck_assignment", "assignment.bottleneck_assignment"),
    ("pdmetric.assignment", "has_perfect_matching", "assignment.has_perfect_matching"),
    ("pdmetric.assignment", "hopcroft_karp", "assignment.hopcroft_karp"),
    ("pdmetric.assignment", "lex_smallest_assignment", "assignment.lex"),
    ("pdmetric.assignment", "lex_smallest_bottleneck", "assignment.lex"),
    ("pdmetric.assignment", "exhaustive_min", "assignment.exhaustive_min"),
    ("pdmetric.kr_duality", "kr_certificate", "kr_duality.kr_certificate"),
    ("pdmetric.kr_duality", "support_function", "kr_duality.support_function"),
    ("pdmetric.io", "load_diagram", "io.load_diagram"),
    ("pdmetric.io", "dump_json", "io.dump_json"),
    ("pdmetric.cli", "cmd_distance", "cli.distance"),
    ("pdmetric.universality", "check_maximality", "universality"),
    ("pdmetric.universality", "check_restriction_trichotomy", "universality"),
    ("pdmetric.universality", "converse_stability", "universality"),
    ("pdmetric.universality", "extend_lipschitz", "universality"),
    ("pdmetric.universality", "lipschitz_norm", "universality"),
]

# The keys of verify.SUITES, fixed here because the metric names are fixed.
SUITE_NAMES = (
    "metric-axioms", "padding", "subadditivity", "monotonicity", "oracle",
    "duality", "strengthening", "quotient-reduced", "universality",
    "converse-stability", "word-metric",
)

WASSERSTEIN_SPANS = ("wasserstein.value", "wasserstein.matching", "wasserstein.bottleneck",
                     "wasserstein.brute_force", "wasserstein.quotient_reduced")


def _matrix_entries(result) -> int:
    size = getattr(result, "size", None)
    if isinstance(size, int):
        return size
    return sum(len(row) for row in result)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list = []
        self._in_dist = False

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _spanned(self, fn, span: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def _counted_dist(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_dist:
                return fn(*args, **kwargs)
            tracer._in_dist = True
            tracer.counts["dist"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_dist = False

        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pdmetric" or name.startswith("pdmetric."))]
        hooks = self._count_hooks()
        self.missing = []
        for module_name, attr, span in FUNCTIONS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._spanned(fn, span, hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

        diagram = sys.modules.get("pdmetric.diagram")
        raw = vars(getattr(diagram, "Diagram", object)).get("from_points")
        if isinstance(raw, staticmethod):
            wrapper = self._spanned(raw.__func__, "diagram.from_points", _count_diagram)
            self._set(diagram.Diagram, "from_points", staticmethod(wrapper))
        elif diagram is not None:
            self.missing.append("pdmetric.diagram.Diagram.from_points")

        verify = sys.modules.get("pdmetric.verify")
        if verify is not None:
            suites = verify.SUITES
            for key, fn in list(suites.items()):
                self._undo.append((suites, key, fn))
                suites[key] = self._spanned(fn, f"verify.{key}")

        metric_core = sys.modules.get("pdmetric.metric_core")
        base = getattr(metric_core, "MetricSpace", None)
        for mod in modules:
            for cls in list(vars(mod).values()):
                if (inspect.isclass(cls) and base is not None and issubclass(cls, base)
                        and cls.__module__ == mod.__name__
                        and inspect.isfunction(vars(cls).get("dist"))):
                    self._set(cls, "dist", self._counted_dist(vars(cls)["dist"]))

    def _count_hooks(self) -> dict:
        wasserstein = sys.modules.get("pdmetric.wasserstein")
        # Count matrix entries at the innermost builder only.
        builder = "_padded_costs" if hasattr(wasserstein, "_padded_costs") else "_space_costs"
        return {
            builder: lambda c, args, res: c.update(entries=_matrix_entries(res)),
            "hungarian": lambda c, args, res: c.update(rows=len(args[0])),
            "load_diagram": lambda c, args, res: c.update(bytes_in=os.path.getsize(args[0])),
            "dump_json": lambda c, args, res: c.update(bytes_out=len(res)),
        }

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}


def _count_diagram(counts, args, result) -> None:
    counts.update(atoms=len(result.atoms), atoms_with_multiplicity=result.size)


def layer_metrics(totals: dict, counts: Counter, ops: int, overhead_s: float) -> dict:
    """Every per-layer metric, per traced op; layers that did not run read 0."""

    def calls(*spans):
        return sum(totals.get(s, {}).get("calls", 0) for s in spans) / ops

    def self_s(*spans):
        return sum(totals.get(s, {}).get("self_s", 0.0) for s in spans) / ops

    def total_s(span):
        return totals.get(span, {}).get("total_s", 0.0) / ops

    def mean_total(span):
        t = totals.get(span)
        return t["total_s"] / t["calls"] if t else 0.0

    built = counts["atoms_with_multiplicity"]
    out = {
        "metric_core.dist.calls": (counts["dist"] / ops, "count/op"),
        "wasserstein.cost_build.self_s": (self_s("wasserstein.cost_build"), "s/op"),
        "wasserstein.cost_build.entries": (counts["entries"] / ops, "count/op"),
        "assignment.hungarian.calls": (calls("assignment.hungarian"), "count/op"),
        "assignment.hungarian.self_s": (
            self_s("assignment.hungarian", "assignment.min_cost_assignment"), "s/op"),
        "assignment.hungarian.rows": (counts["rows"] / ops, "count/op"),
        "assignment.hopcroft_karp.calls": (calls("assignment.hopcroft_karp"), "count/op"),
        "assignment.hopcroft_karp.self_s": (self_s("assignment.hopcroft_karp"), "s/op"),
        "assignment.bottleneck.probes": (calls("assignment.has_perfect_matching"), "count/op"),
        "assignment.bottleneck.self_s": (
            self_s("assignment.bottleneck_assignment", "assignment.has_perfect_matching"),
            "s/op"),
        "assignment.lex.self_s": (self_s("assignment.lex"), "s/op"),
        "assignment.lex.total_s": (total_s("assignment.lex"), "s/op"),
        "assignment.solves_per_op": (
            calls("assignment.min_cost_assignment", "assignment.bottleneck_assignment"),
            "count/op"),
        "assignment.exhaustive_min.calls": (calls("assignment.exhaustive_min"), "count/op"),
        "assignment.exhaustive_min.self_s": (self_s("assignment.exhaustive_min"), "s/op"),
        "diagram.from_points.self_s": (self_s("diagram.from_points"), "s/op"),
        "diagram.distinct_ratio": (counts["atoms"] / built if built else 0.0, "ratio"),
        "wasserstein.value.calls": (calls("wasserstein.value"), "count/op"),
        "wasserstein.matching.calls": (calls("wasserstein.matching"), "count/op"),
        "wasserstein.self_s": (self_s(*WASSERSTEIN_SPANS), "s/op"),
        "kr_duality.kr_certificate.self_s": (self_s("kr_duality.kr_certificate"), "s/op"),
        "kr_duality.support_function.self_s": (self_s("kr_duality.support_function"), "s/op"),
        "io.load_diagram.self_s": (self_s("io.load_diagram"), "s/op"),
        "io.dump_json.self_s": (self_s("io.dump_json"), "s/op"),
        "io.bytes_in": (counts["bytes_in"] / ops, "bytes/op"),
        "io.bytes_out": (counts["bytes_out"] / ops, "bytes/op"),
        "cli.distance.self_s": (self_s("cli.distance"), "s/op"),
        "cli.exit_nonzero": (counts["exit_nonzero"] / ops, "count/op"),
    }
    for suite in SUITE_NAMES:
        out[f"verify.{suite}.total_s"] = (mean_total(f"verify.{suite}"), "s/suite")
    out["verify.self_s"] = (self_s(*(f"verify.{s}" for s in SUITE_NAMES)), "s/op")
    out["universality.calls"] = (calls("universality"), "count/op")
    out["universality.self_s"] = (self_s("universality"), "s/op")
    out["bench.unattributed_s"] = (self_s(OP_SPAN), "s/op")
    out["bench.trace_overhead_s"] = (overhead_s, "s/op")
    return out
