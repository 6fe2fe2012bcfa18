"""Lipschitz extension of point maps to diagram homomorphisms.

The inclusion of points as singleton diagrams is 1-Lipschitz onto the
p-strengthened metric, the quotient by the basepoint (p_strengthen), and
W_p is the largest p-subadditive metric with that restriction.  These facts
become checkable statements here: norm computation, extension, maximality,
the restriction trichotomy, and the converse stability bound rho <= W_p
over the pulled-back ground metric.  Maximality and converse stability
share one comparison of rho with W_p on diagram pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .diagram import Diagram, diagram_from_list, enumerate_diagrams, extend_hom, include
from .errors import PreconditionError
from .metric_core import (
    FAIL,
    INF,
    PASS,
    PRECONDITION_FAILED,
    FiniteSpace,
    PointedSpace,
    Report,
    as_exponent,
    lp_norm,
    p_strengthen,
    remetrize,
)
from .wasserstein import wasserstein_value

_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MetricMonoid:
    """A commutative monoid carrying a metric, with a declared subadditivity
    exponent: dist(a + b, a' + b') <= ||(dist(a, a'), dist(b, b'))||_p."""

    add: Callable
    identity: object
    dist: Callable
    subadditive_p: float


REAL_LINE = MetricMonoid(
    add=lambda a, b: a + b,
    identity=0.0,
    dist=lambda a, b: abs(a - b),
    subadditive_p=1.0,
)


def lipschitz_norm(f, source: FiniteSpace, target_dist: Callable) -> float:
    """Exact sup over pairs of target_dist(f(x), f(y)) / d(x, y).

    A zero denominator contributes 0 when the numerator is also zero and
    inf otherwise; pairs at infinite source distance impose no constraint.
    """
    worst = 0.0
    labels = source.labels
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            d = source.dist(x, y)
            rho = target_dist(f(x), f(y))
            if math.isinf(d):
                continue
            if d == 0.0:
                if rho > 0.0:
                    return INF
                continue
            worst = max(worst, rho / d)
    return worst


def extend_lipschitz(phi, alpha: Diagram, monoid: MetricMonoid, p):
    """Image of a diagram under the homomorphism extending phi.

    The target must be declared p-subadditive for at least the requested
    exponent (q-subadditive monoids are p-subadditive for all p <= q).
    """
    p = as_exponent(p)
    if monoid.subadditive_p < p:
        raise PreconditionError(
            f"target is declared {monoid.subadditive_p}-subadditive, which "
            f"does not cover p = {p}"
        )
    return extend_hom(phi, alpha, monoid_add=monoid.add, identity=monoid.identity)


def _subadditivity_witness(rho, p: float, diagrams, rng, samples: int):
    """A quadruple violating rho(a+b, c+d) <= ||(rho(a,c), rho(b,d))||_p, or None."""
    pool = list(diagrams)
    if len(pool) < 2:
        return None
    for _ in range(samples):
        a, b, c, d = (pool[rng.randrange(len(pool))] for _ in range(4))
        lhs = rho(a + b, c + d)
        rhs = lp_norm((rho(a, c), rho(b, d)), p)
        if lhs > rhs + _TOLERANCE * max(1.0, abs(rhs)):
            return {"a": repr(a), "b": repr(b), "c": repr(c), "d": repr(d),
                    "lhs": lhs, "rhs": rhs}
    return None


def _below_wasserstein(name: str, key: str, rho: Callable, pairs, bound: Callable) -> Report:
    """Passes when rho(alpha, beta) <= bound(alpha, beta), the W_p value, on
    every pair; else fails at the first excess, the bound witnessed under key."""
    for alpha, beta in pairs:
        limit = bound(alpha, beta)
        value = rho(alpha, beta)
        if value > limit + _TOLERANCE * max(1.0, abs(limit)):
            return Report(name, FAIL, {"alpha": repr(alpha), "beta": repr(beta),
                                       "rho": value, key: limit})
    return Report(name, PASS)


def check_maximality(space: FiniteSpace, rho: Callable, p, max_size: int,
                     rng, subadditivity_samples: int = 200) -> Report:
    """Is rho <= W_p on all diagram pairs up to max_size?

    Preconditions checked first: the inclusion of points must be
    1-Lipschitz for rho, and rho must be p-subadditive on sampled
    quadruples.  Either failure reports precondition_failed; the toolkit
    never certifies maximality of a metric outside the comparison class.
    """
    p = as_exponent(p)
    diagrams = enumerate_diagrams(space, max_size)
    for x in space.labels:
        for y in space.labels:
            d = space.dist(x, y)
            value = rho(include(x, space), include(y, space))
            if value > d + _TOLERANCE * max(1.0, abs(d)):
                return Report(
                    "maximality", PRECONDITION_FAILED,
                    {"reason": "inclusion is not 1-Lipschitz",
                     "x": repr(x), "y": repr(y), "rho": value, "d": d},
                )
    witness = _subadditivity_witness(rho, p, diagrams, rng, subadditivity_samples)
    if witness is not None:
        witness["reason"] = "rho is not p-subadditive"
        return Report("maximality", PRECONDITION_FAILED, witness)
    return _below_wasserstein("maximality", "wasserstein", rho,
                              itertools.product(diagrams, repeat=2),
                              lambda alpha, beta: wasserstein_value(alpha, beta, p))


def check_restriction_trichotomy(space: PointedSpace, p, points=None) -> Report:
    """d is p-strengthened iff W_p restricts to d on singletons.

    Both sides are decided exhaustively over the given points (default: the
    labels of a finite space); the report passes when they agree (whether
    both hold or both fail).  d is p-strengthened when d <= d_p, the
    distance of p_strengthen(space, p).
    """
    p = as_exponent(p)
    if points is None:
        points = space.labels
    points = list(points)
    strengthened_dist = p_strengthen(space, p).dist
    strengthened = True
    restriction_equals = True
    for x in points:
        for y in points:
            d = space.dist(x, y)
            dp = strengthened_dist(x, y)
            if d > dp + _TOLERANCE * max(1.0, abs(dp)):
                strengthened = False
            w = wasserstein_value(include(x, space), include(y, space), p)
            if abs(w - d) > _TOLERANCE * max(1.0, abs(d)):
                restriction_equals = False
    agree = strengthened == restriction_equals
    return Report(
        "restriction-trichotomy",
        PASS if agree else FAIL,
        {"strengthened": strengthened, "restriction_equals": restriction_equals},
    )


def converse_stability(space: PointedSpace, rho: Callable, p, rng,
                       sample_diagrams: int, subadditivity_samples: int = 100) -> Report:
    """rho <= W_p over the ground metric that rho itself induces on points.

    The induced metric is d'(x, y) = rho(i(x), i(y)); rho must be
    p-subadditive (checked on samples) for the bound to be meaningful.
    sample_diagrams is the number of random diagrams, of up to 3 points
    drawn with rng, compared pairwise.
    """
    p = as_exponent(p)
    pool = [
        diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 3))], space)
        for _ in range(sample_diagrams)
    ]
    witness = _subadditivity_witness(rho, p, pool, rng, subadditivity_samples)
    if witness is not None:
        witness["reason"] = "rho is not p-subadditive"
        return Report("converse-stability", PRECONDITION_FAILED, witness)

    def induced(x, y):
        return rho(include(x, space), include(y, space))

    pulled = remetrize(space, induced, label="induced-by-rho")

    def bound(alpha: Diagram, beta: Diagram) -> float:
        return wasserstein_value(diagram_from_list(alpha.expand(), pulled),
                                 diagram_from_list(beta.expand(), pulled), p)

    return _below_wasserstein("converse-stability", "bound", rho,
                              itertools.product(pool, repeat=2), bound)
