"""Randomized verification suites.

Each suite draws seeded random instances and yields one Report per check.
The @_suite decorator registers it in SUITES, exposed through the CLI, and
makes it return a plain dict report (suitable for JSON output and for
assertions in tests); each takes its instance count as its second argument.

Most checks bound a margin, such as a triangle excess or a gap to an
oracle, over many instances.  Such a check passes when its worst margin is
at most its tolerance; a failing check's witness is its worst instance,
and a NaN margin fails the check.

Determinism: all randomness flows through random.Random seeded from the
suite seed and a per-check tag, so reports are reproducible byte for byte
for a fixed seed regardless of process or platform.
"""

from __future__ import annotations

import functools
import math
import os
import random
import zlib
from typing import Callable, Iterator

from .assignment import exhaustive_min, min_cost_assignment
from .diagram import Diagram, diagram_from_list, empty_diagram, include
from .errors import PreconditionError
from .kr_duality import (
    dual_objective,
    duality_gap,
    feasibility_violation,
    kr_certificate,
    mcshane_extend,
    support_function,
    tightness_violation,
)
from .metric_core import (
    FAIL,
    INF,
    PASS,
    FiniteSpace,
    Report,
    check_axioms_sampled,
    check_metric_axioms,
    check_p_strengthened,
    check_subset_dist_compatible,
    lp_norm,
    p_strengthen,
    product_metric,
    quotient_metric,
    remetrize,
)
from .spaces import (
    AnagramSpace,
    FiniteAbelianGroup,
    IntervalModuleSpace,
    IntervalSpace,
    anagram_distance,
    cayley_metric,
    halfplane_quotient,
    interval_half_length,
    interval_interleaving,
    wasserstein_word_metric,
    word_diagram,
)
from .universality import (
    REAL_LINE,
    check_maximality,
    check_restriction_trichotomy,
    converse_stability,
    extend_lipschitz,
    lipschitz_norm,
)
from .wasserstein import (
    brute_force_wasserstein,
    wasserstein_quotient_reduced,
    wasserstein_value,
)

DEFAULT_SEED = 20177
SEED_ENV_VAR = "PDMETRIC_SEED"

VALUE_TOL = 1e-9
FEASIBILITY_TOL = 1e-12
GAP_TOL = 1e-8
RATIO_REL_TOL = 1e-12

P_VALUES = (1.0, 1.5, 2.0, INF)
Q_VALUES = (1.0, 2.0, INF)


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed, else the PDMETRIC_SEED environment variable, else the default."""
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _rng(seed: int, tag: str) -> random.Random:
    # str hashes are salted per process, so derive the stream id from crc32.
    return random.Random((seed & 0xFFFFFFFF) * 1_000_003 + zlib.crc32(tag.encode()))


def random_diagram(space, rng: random.Random, max_size: int, min_size: int = 0) -> Diagram:
    size = rng.randint(min_size, max_size)
    return Diagram.from_normal_points([space.sample_point(rng) for _ in range(size)], space)


def random_finite_space(rng: random.Random, size: int = 4, scale: float = 3.0) -> FiniteSpace:
    """A random finite metric space: symmetric positive entries closed under shortest paths."""
    labels = [f"x{i}" for i in range(size)]
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            matrix[i][j] = matrix[j][i] = rng.uniform(0.25 * scale, scale)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                through = matrix[i][k] + matrix[k][j]
                if through < matrix[i][j]:
                    matrix[i][j] = through
    return FiniteSpace(labels, matrix, labels[0])


def _sample_spaces(seed: int, tag: str, p: float):
    """The rotation of spaces the randomized suites draw instances from."""
    rng = _rng(seed, tag + "/finite")
    return [
        ("halfplane-q1", halfplane_quotient(1.0, p)),
        ("halfplane-q2", halfplane_quotient(2.0, p)),
        ("halfplane-qinf", halfplane_quotient(INF, p)),
        ("finite", random_finite_space(rng)),
    ]


def _check(name: str, ok: bool, witness: dict | None = None) -> Report:
    return Report(name, PASS if ok else FAIL, None if ok else witness)


class _Worst:
    """The worst margin a check has seen, with the witness of that instance.

    A margin is how far an instance goes past the property; a check passes
    when its worst margin is at most its tolerance.  The start, -inf, passes
    every tolerance (all are >= 0).  NaN always counts as a new worst, so a
    NaN margin fails.
    """

    __slots__ = ("margin", "witness")

    def __init__(self) -> None:
        self.margin = -INF
        self.witness: dict | None = None

    def see(self, margin: float, witness: Callable[[], dict] | None = None) -> None:
        """Record margin if it is a new worst or NaN; only then build its witness."""
        if margin > self.margin or margin != margin:
            self.margin = margin
            if witness is not None:
                self.witness = witness()

    def check(self, name: str, tol: float, witness: dict | None = None) -> Report:
        """The check's report; a failure carries witness, else the recorded one."""
        return _check(name, self.margin <= tol, self.witness if witness is None else witness)


SUITES: dict[str, Callable[..., dict]] = {}


def _suite(name: str):
    """Register a generator of check Reports as the suite name in SUITES;
    the registered function resolves its seed and returns the report dict."""

    def register(checks: Callable[..., Iterator[Report]]) -> Callable[..., dict]:
        @functools.wraps(checks)
        def suite(seed: int | None = None, *args, **keywords) -> dict:
            seed = resolve_seed(seed)
            reports = list(checks(seed, *args, **keywords))
            return {
                "suite": name,
                "seed": seed,
                "passed": all(c.ok for c in reports),
                "checks": [c.as_dict() for c in reports],
            }

        SUITES[name] = suite
        return suite

    return register


# ---------------------------------------------------------------------------
# metric-axioms


@_suite("metric-axioms")
def metric_axioms_suite(seed: int, triples: int = 1000, *,
                        axiom_triples: int = 300) -> Iterator[Report]:
    """Sampled metric axioms for the concrete spaces, the quotient and
    strengthened constructions, and for W_p itself on random diagram triples."""
    named_spaces = [
        ("intervals-hausdorff", IntervalSpace("hausdorff")),
        ("intervals-dissimilarity", IntervalSpace("dissimilarity")),
        ("interval-module", IntervalModuleSpace()),
        ("anagram", AnagramSpace()),
    ]
    for q in Q_VALUES:
        for p in P_VALUES:
            named_spaces.append(
                (f"halfplane-q{q:g}-p{p:g}", halfplane_quotient(q, p))
            )
    base = random_finite_space(_rng(seed, "axioms/finite"), size=5)
    named_spaces.append(("finite", base))
    named_spaces.append(("finite-strengthened", p_strengthen(base, 2.0)))
    named_spaces.append(
        ("finite-quotient",
         quotient_metric(base, lambda x: base.dist(x, "x1"), 1.0, label="x1-class"))
    )
    named_spaces.append(
        ("product", product_metric(halfplane_quotient(INF, 1.0), base, 2.0))
    )

    for name, space in named_spaces:
        report = check_axioms_sampled(space, _rng(seed, f"axioms/{name}"), axiom_triples)
        yield Report(f"axioms[{name}]", report.status, report.witness)

    # Finite spaces admit the exhaustive checker as well.
    exhaustive = check_metric_axioms(base)
    yield _check("axioms-exhaustive[finite]", exhaustive.is_extended_pseudometric,
                 exhaustive.as_dict())

    # Quotients are p-strengthened and compatible with the subset distance.
    rng = _rng(seed, "axioms/quotient-strengthened")
    for q in Q_VALUES:
        for p in P_VALUES:
            space = halfplane_quotient(q, p)
            sampled_pairs = [(space.sample_point(rng), space.sample_point(rng))
                             for _ in range(axiom_triples)]
            ok = check_p_strengthened(space, p, sampled_pairs)
            yield _check(f"quotient-strengthened[q={q:g},p={p:g}]", ok,
                         {"q": q, "p": p})
            ambient_pairs = [(space.ambient.sample_point(rng),
                              space.ambient.sample_point(rng))
                             for _ in range(axiom_triples)]
            ok = check_subset_dist_compatible(space.ambient, space.subset_dist,
                                              ambient_pairs)
            yield _check(f"subset-dist-compatible[q={q:g},p={p:g}]", ok,
                         {"q": q, "p": p})

    # W_p is symmetric and satisfies the triangle inequality; triples counts
    # instances per (p, q) combination.
    for p in P_VALUES:
        for q in Q_VALUES:
            space = halfplane_quotient(q, p)
            rng = _rng(seed, f"wp-axioms/p{p:g}/q{q:g}")
            sym, tri = _Worst(), _Worst()
            for index in range(max(1, triples)):
                a = random_diagram(space, rng, 3)
                b = random_diagram(space, rng, 3)
                c = random_diagram(space, rng, 3)
                ab = wasserstein_value(a, b, p)
                sym.see(abs(ab - wasserstein_value(b, a, p)))
                tri.see(ab - (wasserstein_value(a, c, p) + wasserstein_value(c, b, p)),
                        lambda: {"alpha": repr(a), "beta": repr(b), "gamma": repr(c)})
                if index < 50 and wasserstein_value(a, a, p) != 0.0:
                    tri.see(INF, lambda: {"alpha": repr(a), "identity": "W_p(a, a) != 0"})
                    break
            ok = sym.margin <= VALUE_TOL and tri.margin <= VALUE_TOL
            yield _check(
                f"wasserstein-pseudometric[p={p:g},q={q:g}]", ok,
                {"symmetry_gap": sym.margin, "triangle_excess": tri.margin,
                 "witness": tri.witness})


# ---------------------------------------------------------------------------
# padding


@_suite("padding")
def padding_suite(seed: int, instances: int = 300) -> Iterator[Report]:
    """Adding basepoint atoms never changes a diagram or any W_p value."""
    for p in P_VALUES:
        spaces = _sample_spaces(seed, f"padding/p{p:g}", p)
        rng = _rng(seed, f"padding/p{p:g}")
        per_space = max(1, instances // len(spaces))
        for name, space in spaces:
            ok = True
            witness = None
            for _ in range(per_space):
                alpha = random_diagram(space, rng, 3)
                beta = random_diagram(space, rng, 3)
                pad_a = alpha + diagram_from_list(
                    [space.basepoint] * rng.randint(1, 4), space)
                pad_b = beta + diagram_from_list(
                    [space.basepoint] * rng.randint(1, 4), space)
                if pad_a != alpha or pad_b != beta:
                    ok = False
                    witness = {"reason": "canonical form kept a basepoint atom",
                               "alpha": repr(alpha)}
                    break
                plain = wasserstein_value(alpha, beta, p)
                padded = wasserstein_value(pad_a, pad_b, p)
                if plain != padded:
                    ok = False
                    witness = {"alpha": repr(alpha), "beta": repr(beta),
                               "plain": plain, "padded": padded}
                    break
            yield _check(f"padding[{name},p={p:g}]", ok, witness)

    # The empty diagram is the additive identity and is at distance 0 from itself.
    space = halfplane_quotient(2.0, 1.0)
    empty = empty_diagram(space)
    ok = (wasserstein_value(empty, empty, 1.0) == 0.0
          and empty + empty == empty
          and len(empty) == 0)
    yield _check("padding[empty]", ok, None)


# ---------------------------------------------------------------------------
# subadditivity


@_suite("subadditivity")
def subadditivity_suite(seed: int, quadruples: int = 500) -> Iterator[Report]:
    """W_p(a + b, c + d) <= ||(W_p(a, c), W_p(b, d))||_p on random quadruples."""
    for p in P_VALUES:
        spaces = _sample_spaces(seed, f"subadd/p{p:g}", p)
        rng = _rng(seed, f"subadd/p{p:g}")
        per_space = max(1, quadruples // len(spaces))
        for name, space in spaces:
            excess = _Worst()
            for _ in range(per_space):
                a = random_diagram(space, rng, 3)
                b = random_diagram(space, rng, 3)
                c = random_diagram(space, rng, 3)
                d = random_diagram(space, rng, 3)
                joint = wasserstein_value(a + b, c + d, p)
                split = lp_norm(
                    [wasserstein_value(a, c, p), wasserstein_value(b, d, p)], p)
                excess.see(joint - split,
                           lambda: {"a": repr(a), "b": repr(b), "c": repr(c),
                                    "d": repr(d), "joint": joint, "split": split})
            yield excess.check(f"subadditivity[{name},p={p:g}]", VALUE_TOL)


# ---------------------------------------------------------------------------
# monotonicity


@_suite("monotonicity")
def monotonicity_suite(seed: int, pairs: int = 500) -> Iterator[Report]:
    """p <= q implies W_q <= W_p, with the n-fold singleton ratio exactly n^(1/p - 1/q)."""
    exponents = (1.0, 1.5, 2.0, 4.0, INF)
    space = halfplane_quotient(INF, 1.0)
    rng = _rng(seed, "monotone/pairs")
    excess = _Worst()
    for _ in range(pairs):
        alpha = random_diagram(space, rng, 3)
        beta = random_diagram(space, rng, 3)
        values = [wasserstein_value(alpha, beta, p) for p in exponents]
        for i in range(len(exponents) - 1):
            excess.see(values[i + 1] - values[i],
                       lambda: {"alpha": repr(alpha), "beta": repr(beta),
                                "p": exponents[i], "q": exponents[i + 1],
                                "W_p": values[i], "W_q": values[i + 1]})
    yield excess.check("monotone-in-p", VALUE_TOL)

    # n copies of a unit-persistence point against the empty diagram: the
    # distance is n^(1/p), so W_p / W_q = n^(1/p - 1/q) up to roundoff.
    rel = _Worst()
    for n in (1, 2, 4, 8):
        alpha = diagram_from_list([(0.0, 2.0)] * n, space)
        empty = empty_diagram(space)
        for i, p in enumerate(P_VALUES):
            for q in P_VALUES[i:]:
                wp = wasserstein_value(alpha, empty, p)
                wq = wasserstein_value(alpha, empty, q)
                expected = n ** ((1.0 / p if p != INF else 0.0)
                                 - (1.0 / q if q != INF else 0.0))
                rel.see(abs(wp / wq - expected) / expected,
                        lambda: {"n": n, "p": p, "q": q, "ratio": wp / wq,
                                 "expected": expected})
    yield rel.check("singleton-ratio", RATIO_REL_TOL)


# ---------------------------------------------------------------------------
# oracle


@_suite("oracle")
def oracle_suite(seed: int, instances: int = 500, *,
                 max_size: int = 4) -> Iterator[Report]:
    """The assignment solver against brute-force enumeration, plus the
    closed-form anagram distance against the generic W_1 solver."""
    for p in P_VALUES:
        spaces = _sample_spaces(seed, f"oracle/p{p:g}", p)
        rng = _rng(seed, f"oracle/p{p:g}")
        per_space = max(1, instances // len(spaces))
        for name, space in spaces:
            gap = _Worst()
            for _ in range(per_space):
                alpha = random_diagram(space, rng, max_size)
                beta = random_diagram(space, rng, max_size)
                solver = wasserstein_value(alpha, beta, p)
                brute = brute_force_wasserstein(alpha, beta, p)
                gap.see(abs(solver - brute) if solver != brute else 0.0,  # inf == inf is exact
                        lambda: {"alpha": repr(alpha), "beta": repr(beta),
                                 "solver": solver, "brute": brute})
            yield gap.check(f"oracle[{name},p={p:g}]", VALUE_TOL)

    # Assignment duals: feasible and tight at the reported optimum.
    rng = _rng(seed, "oracle/duals")
    gap = _Worst()
    for _ in range(100):
        n = rng.randint(1, 7)
        costs = [[rng.uniform(0.0, 5.0) for _ in range(n)] for _ in range(n)]
        result = min_cost_assignment(costs)
        assert result.u is not None and result.v is not None
        slack = max(result.u[i] + result.v[j] - costs[i][j]
                    for i in range(n) for j in range(n))
        drift = abs(math.fsum(result.u) + math.fsum(result.v) - result.total)
        direct = exhaustive_min(costs, 1.0)
        gap.see(max(slack, drift, abs(result.total - direct)),
                lambda: {"n": n, "slack": slack, "drift": drift,
                         "total": result.total, "exhaustive": direct})
    yield gap.check("assignment-duals", VALUE_TOL)

    # Anagram distance: closed form against the W_1 solver on random words.
    space = AnagramSpace()
    rng = _rng(seed, "oracle/anagram")
    letters = space.alphabet[1:]
    gap = _Worst()
    for _ in range(100):
        s = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        t = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        closed = anagram_distance(s, t, space)
        solved = wasserstein_value(word_diagram(s, space), word_diagram(t, space), 1.0)
        gap.see(abs(closed - solved),
                lambda: {"s": s, "t": t, "closed": closed, "solved": solved})
    yield gap.check("anagram-closed-form", VALUE_TOL)


# ---------------------------------------------------------------------------
# duality


def _random_lipschitz_candidate(support, dists, rng: random.Random) -> dict:
    """A random 1-Lipschitz function on the support: a max of distance cones.

    dists[i][j] is the distance from support[i] to support[j]; anchors are
    drawn as indices, which uses rng exactly as sampling the points would.
    """
    anchors = rng.sample(range(len(support)), rng.randint(1, len(support)))
    values = [rng.uniform(-2.0, 2.0) for _ in anchors]
    return {
        point: max(v - row[a] for a, v in zip(anchors, values))
        for point, row in zip(support, dists)
    }


@_suite("duality")
def duality_suite(seed: int, instances: int = 200, *,
                  candidates_per_instance: int = 100) -> Iterator[Report]:
    """Kantorovich-Rubinstein certificates: zero gap, feasibility, tightness,
    a well-defined support function, Lipschitz McShane extensions, and weak
    duality against random 1-Lipschitz candidates."""
    space = halfplane_quotient(INF, 1.0)
    rng = _rng(seed, "duality/instances")

    gap, feas, tight, obj, lip, weak = (_Worst() for _ in range(6))
    lipschitz_pairs = 0
    for index in range(instances):
        alpha = random_diagram(space, rng, 4)
        beta = random_diagram(space, rng, 4)
        cert = kr_certificate(alpha, beta)
        if not cert.has_certificate:
            gap.see(INF, lambda: {"reason": "no certificate on finite instance",
                                  "alpha": repr(alpha), "beta": repr(beta)})
            break
        gap.see(abs(cert.primal_value - cert.dual_value),
                lambda: {"alpha": repr(alpha), "beta": repr(beta),
                         "primal": cert.primal_value, "dual": cert.dual_value})
        feas.see(feasibility_violation(cert))
        tight.see(tightness_violation(cert))
        h = support_function(cert)
        obj.see(abs(dual_objective(h, alpha, beta) - cert.dual_value))
        # The McShane extension agrees on the support and stays 1-Lipschitz
        # against fresh sample points.  Both-empty instances have nothing
        # to extend.
        if h.order:
            for c, v in h.items():
                obj.see(abs(mcshane_extend(h, c) - v))
            probes = [space.sample_point(rng) for _ in range(4)] + list(h.order)
            extended = [mcshane_extend(h, x) for x in probes]
            for x, hx in zip(probes, extended):
                for y, hy in zip(probes, extended):
                    d = space.dist(x, y)
                    if d < INF:
                        lip.see(abs(hx - hy) - d)
                        lipschitz_pairs += 1

        # Weak duality per instance: no 1-Lipschitz candidate beats the
        # primal value.  The primal is solved once; duality_gap re-solves,
        # so it is exercised on the first candidate only.
        support = sorted(set(alpha.expand()) | set(beta.expand())
                         | {space.basepoint}, key=space.sort_key)
        dists = space.pairwise(support, support)[0]
        for k in range(candidates_per_instance):
            candidate = _random_lipschitz_candidate(support, dists, rng)
            if k == 0 and index < 20:
                margin = duality_gap(alpha, beta, candidate)
            else:
                margin = cert.primal_value - dual_objective(candidate, alpha, beta)
            weak.see(-margin,
                     lambda: {"alpha": repr(alpha), "beta": repr(beta), "margin": margin})
    yield gap.check("zero-gap", GAP_TOL)
    yield feas.check("dual-feasibility", FEASIBILITY_TOL,
                     {"violation": feas.margin})
    yield tight.check("tightness", GAP_TOL, {"violation": tight.margin})
    yield obj.check("support-objective", GAP_TOL, {"gap": obj.margin})
    yield lip.check("mcshane-lipschitz", FEASIBILITY_TOL,
                    {"excess": lip.margin, "pairs": lipschitz_pairs})
    yield weak.check("weak-duality", VALUE_TOL)

    # Degenerate case: two empty diagrams certify a zero distance.
    empty = empty_diagram(space)
    cert = kr_certificate(empty, empty)
    ok = (cert.primal_value == 0.0 and cert.dual_value == 0.0
          and cert.has_certificate and feasibility_violation(cert) <= 0.0)
    yield _check("empty-certificate", ok, None)


# ---------------------------------------------------------------------------
# strengthening


@_suite("strengthening")
def strengthening_suite(seed: int, pairs: int = 500) -> Iterator[Report]:
    """The p-strengthened metric changes nothing W_p can see: same diagram
    distances, restriction to singletons, idempotence, and the two-sided
    equivalence bounds between exponents."""
    for p in (1.0, 2.0, INF):
        rng = _rng(seed, f"strengthen/p{p:g}")
        base = random_finite_space(rng, size=5)
        strong = p_strengthen(base, p)

        # W_p over d equals W_p over d_p.
        gap = _Worst()
        for _ in range(pairs):
            labels = [rng.choice(base.labels) for _ in range(rng.randint(0, 4))]
            other = [rng.choice(base.labels) for _ in range(rng.randint(0, 4))]
            a_base = diagram_from_list(labels, base)
            b_base = diagram_from_list(other, base)
            a_strong = diagram_from_list(labels, strong)
            b_strong = diagram_from_list(other, strong)
            diff = abs(wasserstein_value(a_base, b_base, p)
                       - wasserstein_value(a_strong, b_strong, p))
            gap.see(diff, lambda: {"alpha": labels, "beta": other, "gap": diff})
        yield gap.check(f"wasserstein-invariant[p={p:g}]", VALUE_TOL)

        # Restriction of W_p along the inclusion recovers d_p on points.
        gap = _Worst()
        for x in base.labels:
            for y in base.labels:
                restricted = wasserstein_value(include(x, base), include(y, base), p)
                gap.see(abs(restricted - strong.dist(x, y)))
        yield gap.check(f"restriction-is-dp[p={p:g}]", VALUE_TOL,
                        {"gap": gap.margin})

        # Idempotence and the sandwich d_p <= d <= 2^(1 - 1/p) d_p, sampled
        # over fresh random spaces so the pair count is honest.
        factor = 2.0 ** (1.0 - (1.0 / p if p != INF else 0.0))
        idem, low, high = _Worst(), _Worst(), _Worst()
        sampled = 0
        while sampled < pairs:
            fresh = random_finite_space(rng, size=5)
            fresh_strong = p_strengthen(fresh, p)
            twice = p_strengthen(fresh_strong, p)
            for x in fresh.labels:
                for y in fresh.labels:
                    dp = fresh_strong.dist(x, y)
                    idem.see(abs(twice.dist(x, y) - dp))
                    low.see(dp - fresh.dist(x, y))
                    high.see(fresh.dist(x, y) - factor * dp)
            sampled += len(fresh.labels) ** 2
        ok = (idem.margin <= FEASIBILITY_TOL and low.margin <= FEASIBILITY_TOL
              and high.margin <= VALUE_TOL)
        yield _check(f"idempotent-and-bounded[p={p:g}]", ok,
                     {"idempotence": idem.margin, "lower": low.margin,
                      "upper": high.margin, "pairs": sampled})

        # The basepoint distance is never strengthened away.
        gap = _Worst()
        for x in base.labels:
            gap.see(abs(strong.dist(x, base.basepoint) - base.dist(x, base.basepoint)))
        yield gap.check(f"basepoint-preserved[p={p:g}]", 0.0, {"gap": gap.margin})

    # Quotient metrics with exponents p <= q are uniformly equivalent:
    # quotient_q <= quotient_p <= 2^(1/p - 1/q) quotient_q.
    rng = _rng(seed, "strengthen/equivalence")
    ambient = halfplane_quotient(INF, 1.0).ambient
    subset_dist = halfplane_quotient(INF, 1.0).subset_dist
    excess = _Worst()
    for p, q in ((1.0, 2.0), (1.0, INF), (2.0, INF), (1.5, 2.0)):
        lower = quotient_metric(ambient, subset_dist, p, label="diagonal")
        upper = quotient_metric(ambient, subset_dist, q, label="diagonal")
        factor = 2.0 ** ((1.0 / p) - (1.0 / q if q != INF else 0.0))
        for _ in range(pairs // 4):
            x = ambient.sample_point(rng)
            y = ambient.sample_point(rng)
            dq = upper.dist(x, y)
            dp = lower.dist(x, y)
            excess.see(max(dq - dp, dp - factor * dq),
                       lambda: {"p": p, "q": q, "x": x, "y": y, "d_p": dp, "d_q": dq})
    yield excess.check("quotient-exponent-equivalence", VALUE_TOL)


# ---------------------------------------------------------------------------
# quotient-reduced


@_suite("quotient-reduced")
def quotient_reduced_suite(seed: int, pairs: int = 200) -> Iterator[Report]:
    """The reduced-cost formulation over the ambient metric matches W_p over
    the quotient metric."""
    for p in P_VALUES:
        for q in Q_VALUES:
            space = halfplane_quotient(q, p)
            rng = _rng(seed, f"quotient-reduced/p{p:g}/q{q:g}")
            gap = _Worst()
            for _ in range(pairs):
                alpha = random_diagram(space, rng, 4)
                beta = random_diagram(space, rng, 4)
                direct = wasserstein_value(alpha, beta, p)
                reduced = wasserstein_quotient_reduced(alpha, beta, p)
                gap.see(abs(direct - reduced) if direct != reduced else 0.0,
                        lambda: {"alpha": repr(alpha), "beta": repr(beta),
                                 "direct": direct, "reduced": reduced})
            yield gap.check(f"quotient-reduced[p={p:g},q={q:g}]", VALUE_TOL)


# ---------------------------------------------------------------------------
# universality


@_suite("universality")
def universality_suite(seed: int, pairs: int = 200) -> Iterator[Report]:
    """The extension of a Lipschitz map is Lipschitz with the same norm, the
    norm is attained on singletons, and W_p is maximal among p-subadditive
    extended pseudometrics restricting below the ground metric."""
    # Total persistence of a diagram is the canonical 2-Lipschitz example.
    space = halfplane_quotient(INF, 1.0)

    def persistence(x) -> float:
        if x == space.basepoint:
            return 0.0
        return x[1] - x[0]

    rng = _rng(seed, "universality/persistence")
    bound = _Worst()
    for _ in range(pairs):
        alpha = random_diagram(space, rng, 4)
        beta = random_diagram(space, rng, 4)
        total = extend_lipschitz(persistence, alpha, REAL_LINE, 1.0)
        other = extend_lipschitz(persistence, beta, REAL_LINE, 1.0)
        excess = abs(total - other) - 2.0 * wasserstein_value(alpha, beta, 1.0)
        bound.see(excess,
                  lambda: {"alpha": repr(alpha), "beta": repr(beta), "excess": excess})
    yield bound.check("extension-norm-bound", VALUE_TOL)

    # The bound is attained: one unit-persistence point against nothing.
    alpha = diagram_from_list([(0.0, 2.0)], space)
    attained = abs(extend_lipschitz(persistence, alpha, REAL_LINE, 1.0))
    ok = abs(attained - 2.0 * wasserstein_value(alpha, empty_diagram(space), 1.0)) \
        <= VALUE_TOL
    yield _check("extension-norm-attained", ok, {"value": attained})

    # On a finite space the Lipschitz norm is exact, and the extension of a
    # random map attains it on singleton diagrams.
    rng = _rng(seed, "universality/finite")
    excess = _Worst()
    for _ in range(20):
        base = random_finite_space(rng, size=4)
        values = {label: rng.uniform(-3.0, 3.0) for label in base.labels}
        values[base.basepoint] = 0.0
        phi = values.__getitem__
        norm = lipschitz_norm(phi, base, REAL_LINE.dist)
        for _ in range(pairs // 20):
            a = random_diagram(base, rng, 3)
            b = random_diagram(base, rng, 3)
            lhs = abs(extend_lipschitz(phi, a, REAL_LINE, 1.0)
                      - extend_lipschitz(phi, b, REAL_LINE, 1.0))
            excess.see(lhs - norm * wasserstein_value(a, b, 1.0),
                       lambda: {"labels": base.labels, "values": values,
                                "alpha": repr(a), "beta": repr(b)})
        best_ratio = max(
            abs(phi(x) - phi(y)) / base.dist(x, y)
            for x in base.labels for y in base.labels if base.dist(x, y) > 0.0)
        if abs(best_ratio - norm) > VALUE_TOL:
            excess.see(INF, lambda: {"reason": "norm not attained on points",
                                     "norm": norm, "best_ratio": best_ratio})
    yield excess.check("finite-extension-norm", VALUE_TOL)

    # Maximality: any W_q with q >= p passes, and a scaled-up candidate is
    # rejected for breaking the 1-Lipschitz precondition.
    rng = _rng(seed, "universality/maximality")
    base = random_finite_space(rng, size=3)
    for q in (1.0, 2.0, INF):
        def rho(a: Diagram, b: Diagram, _q=q) -> float:
            return wasserstein_value(a, b, _q)

        report = check_maximality(base, rho, 1.0, max_size=2,
                                  rng=_rng(seed, f"universality/max/q{q:g}"))
        yield Report(f"maximality[W_{q:g}]", report.status, report.witness)

    def doubled(a: Diagram, b: Diagram) -> float:
        return 2.0 * wasserstein_value(a, b, 1.0)

    report = check_maximality(base, doubled, 1.0, max_size=2,
                              rng=_rng(seed, "universality/max/doubled"))
    ok = report.status == "precondition_failed"
    yield _check("maximality-rejects-oversized", ok,
                 {"status": report.status, "witness": report.witness})

    # Restriction trichotomy: being p-strengthened and being recovered by
    # restriction are the same property, on raw and strengthened spaces.
    rng = _rng(seed, "universality/trichotomy")
    agree = True
    witness = None
    for p in (1.0, 2.0, INF):
        for _ in range(5):
            base = random_finite_space(rng, size=4)
            for candidate in (base, p_strengthen(base, p)):
                report = check_restriction_trichotomy(candidate, p, base.labels)
                if not report.ok:
                    agree = False
                    witness = {"p": p, "witness": report.witness}
    yield _check("restriction-trichotomy", agree, witness)


# ---------------------------------------------------------------------------
# converse-stability


@_suite("converse-stability")
def converse_stability_suite(seed: int, pairs: int = 200) -> Iterator[Report]:
    """Interleaving-flavored stability: the interleaving distance on interval
    modules is the infinity-strengthening of the Hausdorff picture, and any
    metric obtained by restricting a subadditive diagram metric is again
    bounded by the Wasserstein distance it induces."""
    module_space = IntervalModuleSpace()
    hausdorff_space = IntervalSpace("hausdorff")

    # d_I = min(d_H, max of half lengths): the infinity-strengthening of the
    # Hausdorff metric once the basepoint distance is the half length.
    def hausdorff_with_half_length(x, y) -> float:
        if x.is_empty and y.is_empty:
            return 0.0
        if x.is_empty:
            return interval_half_length(y)
        if y.is_empty:
            return interval_half_length(x)
        return hausdorff_space.dist(x, y)

    pre = remetrize(module_space, hausdorff_with_half_length, label="hausdorff-half")
    strengthened = p_strengthen(pre, INF)
    rng = _rng(seed, "converse/formula")
    gap = _Worst()
    for _ in range(pairs):
        x = module_space.sample_point(rng)
        y = module_space.sample_point(rng)
        diff = abs(strengthened.dist(x, y) - interval_interleaving(x, y))
        gap.see(diff, lambda: {"x": repr(x), "y": repr(y), "gap": diff})
    yield gap.check("interleaving-is-strengthened-hausdorff", VALUE_TOL)

    # Interleaving never exceeds Hausdorff, so neither do the diagram metrics.
    rng = _rng(seed, "converse/stability")
    excess = _Worst()
    for _ in range(pairs):
        points = [module_space.sample_point(rng)
                  for _ in range(rng.randint(0, 3))]
        others = [module_space.sample_point(rng)
                  for _ in range(rng.randint(0, 3))]
        soft = wasserstein_value(diagram_from_list(points, module_space),
                                 diagram_from_list(others, module_space), INF)
        hard = wasserstein_value(diagram_from_list(points, hausdorff_space),
                                 diagram_from_list(others, hausdorff_space), INF)
        excess.see(soft - hard,
                   lambda: {"points": [repr(p) for p in points],
                            "others": [repr(p) for p in others],
                            "interleaving": soft, "hausdorff": hard})
    yield excess.check("interleaving-below-hausdorff", VALUE_TOL)

    # Restricting a subadditive diagram metric and rebuilding W_p can only
    # grow: rho <= W_p[i* rho].  Checked for rho = W_inf over finite spaces.
    rng = _rng(seed, "converse/roundtrip")
    for p in (1.0, INF):
        base = random_finite_space(rng, size=4)

        def rho(a: Diagram, b: Diagram, _p=p) -> float:
            return wasserstein_value(a, b, _p)

        report = converse_stability(base, rho, p,
                                    rng=_rng(seed, f"converse/rt/p{p:g}"),
                                    sample_diagrams=max(10, pairs // 10))
        yield Report(f"converse-stability[p={p:g}]", report.status,
                     report.witness)


# ---------------------------------------------------------------------------
# word metric


@_suite("word-metric")
def word_metric_suite(seed: int, max_order: int = 12) -> Iterator[Report]:
    """The BFS word metric against its realization as a minimum of W_1 over
    the star space, exhaustively over small cyclic groups and Z2 x Z2.  Each
    group's Cayley distances, words and word diagrams are built once."""
    groups = [(f"cyclic[{n}]", {"n": n}, FiniteAbelianGroup((n,)),
               tuple(dict.fromkeys(((1 % n,), ((-1) % n,))))) for n in range(2, max_order + 1)]
    klein = FiniteAbelianGroup((2, 2))
    groups.append(("klein-four", {}, klein, tuple(g for g in klein.elements() if g != klein.zero)))
    for name, where, group, generators in groups:
        direct = cayley_metric(group, generators)
        # Twice the diameter always suffices (word_metric_via_wasserstein).
        bound = max(2 * max(direct(g, group.zero) for g in group.elements()), 1)
        realized = wasserstein_word_metric(group, generators, bound)
        gap = _Worst()
        for g in group.elements():
            for h in group.elements():
                d, w = direct(g, h), realized(g, h)
                gap.see(abs(d - w), lambda: {**where, "g": g, "h": h, "bfs": d,
                                             "wasserstein": w})
        yield gap.check(name, 0.0)


# ---------------------------------------------------------------------------
# registry


def run_suite(name: str, seed: int | None = None, samples: int | None = None) -> dict:
    """Run one named suite, or every suite under "all"."""
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    seed = resolve_seed(seed)
    if name == "all":
        reports = [run_suite(suite, seed, samples) for suite in SUITES]
        return {
            "suite": "all",
            "seed": seed,
            "passed": all(r["passed"] for r in reports),
            "suites": reports,
        }
    if name not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise PreconditionError(f"unknown suite {name!r}; known suites: {known}")
    if samples is None:
        return SUITES[name](seed)
    return SUITES[name](seed, int(samples))
