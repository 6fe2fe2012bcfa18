"""Seeded workloads: how each one builds its inputs, runs one op, and checks it.

Every workload builds a fixed pool of ops from the seed.  The timed loop
runs the pool in whole passes, so a run measures the same mix of sizes and
exponents whatever the seed; the seed picks the coordinates and the order.
Imports of the program happen in ``load`` so that set-up time covers them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random

INF = math.inf
P_VALUES = (1.0, 2.0, INF)
P_TEXT = {1.0: "1", 2.0: "2", INF: "inf"}

# Pools are groups of replicates: (n, m, kind, p, count).  Each group holds
# ops of one size, kind and exponent on fresh seeded points, so the median
# and the tail fall among ops of like cost and data noise averages out.
BARE, MATCHING, CERTIFICATE = "bare", "matching", "certificate"
HP_POOL = {
    "full": [(100, 107, BARE, 1.0, 5), (100, 107, BARE, 2.0, 5), (100, 107, BARE, INF, 4),
             (150, 157, BARE, 1.0, 3), (150, 157, BARE, 2.0, 3), (150, 157, BARE, INF, 2),
             (200, 193, BARE, 1.0, 1), (200, 193, BARE, 2.0, 1), (200, 193, BARE, INF, 2)],
    "tiny": [(4, 5, BARE, p, 1) for p in P_VALUES] + [(8, 7, BARE, p, 1) for p in P_VALUES],
}
_CLI_COMBOS = [(BARE, p) for p in P_VALUES] + [(MATCHING, p) for p in P_VALUES] + [
    (CERTIFICATE, 1.0)]
CLI_POOL = {
    "full": [(10, 13, kind, p, 2) for kind, p in _CLI_COMBOS]
    + [(20, 23, kind, p, 2 if p == INF else 5) for kind, p in _CLI_COMBOS]
    + [(30, 27, kind, p, 2 if p == INF else 5) for kind, p in _CLI_COMBOS],
    "tiny": [(3, 4, kind, p, 1) for kind, p in _CLI_COMBOS],
}
VERIFY_SAMPLES = {"full": None, "tiny": 2}


def _rng(seed: int, tag: str) -> random.Random:
    # A str seed is hashed with sha512, so the stream is the same everywhere.
    return random.Random(f"perfbench:{seed}:{tag}")


def expand_pool(groups) -> list[dict]:
    return [{"n": n, "m": m, "kind": kind, "p": p}
            for n, m, kind, p, count in groups for _ in range(count)]


def size_ranges(pool) -> dict:
    return {"n_range": [min(it["n"] for it in pool), max(it["n"] for it in pool)],
            "m_range": [min(it["m"] for it in pool), max(it["m"] for it in pool)],
            "exponents": sorted({P_TEXT[it["p"]] for it in pool})}


def dense_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n distinct off-diagonal points with float coordinates."""
    seen: set = set()
    out = []
    while len(out) < n:
        b = rng.uniform(0.0, 10.0)
        point = (b, b + rng.uniform(0.05, 5.0))
        if point not in seen:
            seen.add(point)
            out.append(point)
    return out


def grid_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points on the integer grid: births 0-5, lifetimes 1-5 (30 sites)."""
    out = []
    for _ in range(n):
        b = rng.randint(0, 5)
        out.append((float(b), float(b + rng.randint(1, 5))))
    return out


def canonical_atoms(points) -> list[tuple[tuple[float, float], int]]:
    """Distinct points in the program's canonical (birth, death) order, with counts."""
    counts: dict = {}
    for point in points:
        counts[point] = counts.get(point, 0) + 1
    return sorted(counts.items())


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One pool of ops.  Subclasses define load, setup, run and check."""

    name = ""
    op = ""

    def __init__(self, scale: str, workdir: str):
        self.scale = scale
        self.workdir = workdir
        self.provenance: dict = {}

    def load(self) -> None:
        """Import the program modules this workload calls."""

    def setup(self, seed: int) -> list:
        """Generate the seeded pool of ops (and write any input files)."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Called before every pass over the pool."""

    def run(self, item):
        raise NotImplementedError

    def describe(self, item) -> dict:
        """What the details line shows of one pool op."""
        return {k: item[k] for k in ("kind", "n", "m", "suite") if k in item} | (
            {"p": P_TEXT[item["p"]]} if "p" in item else {})

    def check(self, item, result, reference) -> str | None:
        """None when result is correct, else a one-line reason."""
        raise NotImplementedError


class HalfPlaneValue(Workload):
    """wasserstein_value on HalfPlaneSpace(q=inf, p) diagram pairs."""

    op = "one wasserstein_value call on one diagram pair"

    def __init__(self, scale, workdir, name, points):
        super().__init__(scale, workdir)
        self.name = name
        self.points = points

    def load(self):
        from pdmetric.diagram import Diagram
        from pdmetric.spaces import HalfPlaneSpace

        self.Diagram = Diagram
        # The package re-exports a function named wasserstein, so fetch the module.
        self.wasserstein = importlib.import_module("pdmetric.wasserstein")
        self.spaces = {p: HalfPlaneSpace(INF, p) for p in P_VALUES}

    def setup(self, seed):
        rng = _rng(seed, self.name)
        pool = expand_pool(HP_POOL[self.scale])
        for item in pool:
            item["left"] = self.points(rng, item["n"])
            item["right"] = self.points(rng, item["m"])
            space = self.spaces[item["p"]]
            item["alpha"] = self.Diagram.from_points(item["left"], space)
            item["beta"] = self.Diagram.from_points(item["right"], space)
        rng.shuffle(pool)
        atoms = sum(len(it["alpha"].atoms) + len(it["beta"].atoms) for it in pool)
        size = sum(it["n"] + it["m"] for it in pool)
        self.provenance = {
            "digest": digest([[it["p"], it["left"], it["right"]] for it in pool]),
            **size_ranges(pool),
            "distinct_ratio": atoms / size,
        }
        return pool

    def run(self, item):
        return self.wasserstein.wasserstein_value(item["alpha"], item["beta"], item["p"])

    def check(self, item, result, reference):
        want = reference.value(item["left"], item["right"], item["p"])
        if not math.isclose(result, want, rel_tol=1e-9, abs_tol=0.0):
            return f"value {result!r} != reference {want!r}"
        return None


class CliDistance(Workload):
    """In-process `pdmetric distance` on diagram JSON files, stdout captured."""

    name = "cli-distance"
    op = "one in-process `pdmetric distance` invocation"

    def load(self):
        from pdmetric import cli

        self.cli = cli

    def setup(self, seed):
        rng = _rng(seed, self.name)
        folder = os.path.join(self.workdir, f"cli-{self.scale}-{seed}")
        os.makedirs(folder, exist_ok=True)
        pool = expand_pool(CLI_POOL[self.scale])
        for k, item in enumerate(pool):
            item["left"] = dense_points(rng, item["n"])
            item["right"] = dense_points(rng, item["m"])
            files = []
            for side in ("left", "right"):
                path = os.path.join(folder, f"{k}-{side}.json")
                payload = {"space": "halfplane",
                           "atoms": [[list(x), c] for x, c in canonical_atoms(item[side])]}
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                files.append(path)
            argv = ["distance", *files, "--space", "halfplane", "--q", "inf",
                    "--p", P_TEXT[item["p"]]]
            if item["kind"] != BARE:
                argv.append("--matching")
            if item["kind"] == CERTIFICATE:
                argv.append("--certificate")
            item["argv"] = argv
        rng.shuffle(pool)
        self.provenance = {
            "digest": digest([[it["argv"][3:], it["left"], it["right"]] for it in pool]),
            **size_ranges(pool),
            "distinct_ratio": 1.0,
            "mix": {kind: sum(it["kind"] == kind for it in pool)
                    for kind in (BARE, MATCHING, CERTIFICATE)},
        }
        return pool

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(item["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result, reference):
        code, stdout, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        out = json.loads(stdout)
        p = item["p"]
        want = reference.value(item["left"], item["right"], p)
        if not math.isclose(out["value"], want, rel_tol=1e-9, abs_tol=0.0):
            return f"value {out['value']!r} != reference {want!r}"
        if item["kind"] == BARE:
            return None
        problem = reference.matching_problem(item["left"], item["right"], p,
                                             out["matching"], out["value"])
        if problem or item["kind"] != CERTIFICATE:
            return problem
        return reference.certificate_problem(item["left"], item["right"],
                                             out["certificate"])


class VerifyAll(Workload):
    """verify.run_suite over every suite, one suite per op."""

    name = "verify-all"
    op = "one suite of verify.SUITES via verify.run_suite(suite, seed)"

    def load(self):
        from pdmetric import assignment, verify

        self.assignment = assignment
        self.verify = verify
        self.suites = list(verify.SUITES)

    def setup(self, seed):
        self.seed = seed
        samples = VERIFY_SAMPLES[self.scale]
        self.provenance = {
            "digest": digest([seed, self.suites, samples]),
            "suites": len(self.suites),
            "samples": samples,
        }
        return [{"suite": name, "samples": samples} for name in self.suites]

    def begin_pass(self):
        # Each `pdmetric verify` process starts with an empty permutation
        # cache, so every pass does too.
        cache = getattr(self.assignment, "_PERM_CACHE", None)
        if cache is not None:
            cache.clear()

    def run(self, item):
        return self.verify.run_suite(item["suite"], self.seed, item["samples"])

    def check(self, item, result, reference):
        if result.get("passed") is not True:
            failed = [c["property"] for c in result.get("checks", [])
                      if c.get("status") != "pass"]
            return f"suite {item['suite']} failed: {failed}"
        return None


WORKLOADS = {
    "hp-dense": lambda scale, workdir: HalfPlaneValue(scale, workdir, "hp-dense", dense_points),
    "hp-grid": lambda scale, workdir: HalfPlaneValue(scale, workdir, "hp-grid", grid_points),
    "cli-distance": CliDistance,
    "verify-all": VerifyAll,
}
