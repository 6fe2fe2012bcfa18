"""Dual certificates for the 1-Wasserstein distance.

The padded assignment problem is a linear program over doubly stochastic
matrices whose vertices are permutations, so the optimal matching comes
with dual potentials y in R^(2r): y[i] - y[r+j] <= d(a_i, b_j) everywhere,
with equality along the optimal matching, and equal objective values.  A
certificate reads the duals of the p = 1 Solve record that gives W_1:
the compact solve's, immortal atoms included, whose potentials price the
basepoint at 0 on both sides (the normalization h(x0) = 0), or the square
solve's where the compact solve declines a positive optimum (one too
small next to the basepoint costs, or data that breaks the triangle
inequality around immortal atoms).  Where the solve's bottleneck value
decides W_1, the record has no duals: at 0 the optimum is a zero-cost
matching, certified by zero potentials, and at inf no assignment is
finite, so there are no potentials.
The potentials assemble into a 1-Lipschitz function h on the atoms, and
the McShane formula extends h to the whole space without increasing the
Lipschitz constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .diagram import Diagram
from .errors import DomainError, PreconditionError
from .metric_core import INF, ext_fsum
from .wasserstein import Solve, _require_same_space, solve

FEASIBILITY_TOLERANCE = 1e-12
COINCIDENCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DualCertificate:
    """Primal optimum with matching and dual potentials of equal value.

    left_points / right_points are the padded supports (atoms then
    basepoint copies), each of length r = n + m.  y has length 2r: row
    potentials first, then column potentials negated so that feasibility
    reads y[i] - y[r+j] <= d(a_i, b_j).  They are the duals of one p = 1
    Solve (certificate_of); when it is the compact one, every pad potential
    (y[n:r] and y[r+m:]) is 0.  When the primal is infinite no potentials
    exist and y is None.
    """

    space: object
    primal_value: float
    dual_value: float | None
    y: tuple[float, ...] | None
    permutation: tuple[int, ...]
    left_points: tuple
    right_points: tuple
    n: int
    m: int

    @property
    def r(self) -> int:
        return len(self.left_points)

    @property
    def has_certificate(self) -> bool:
        return self.y is not None


def certificate_of(alpha: Diagram, beta: Diagram, solved: Solve) -> DualCertificate:
    """The matching and dual potentials of a p = 1 Solve of alpha against beta.

    They are the compact solve's, lifted to the padded matrix, with every
    pad potential 0, or the square solve's where the compact solve
    declines a positive optimum.  A solve with no result was decided by
    its bottleneck value.  At 0 every potential is 0, and the permutation
    is Solve.permutation's, a zero-cost matching.  At inf no assignment is
    finite (possible only with infinite ground distances): the primal is
    inf, with no potentials, and the permutation the completed one
    Solve.permutation gives.  The dual value is one exact sum of all
    potentials (ext_fsum).  Any other p is a PreconditionError.
    """
    if solved.p != 1.0:
        raise PreconditionError("dual certificates are available for p = 1 only")
    space, result = alpha.space, solved.result
    n, m = alpha.size, beta.size
    left = tuple(alpha.expand()) + (space.basepoint,) * m
    right = tuple(beta.expand()) + (space.basepoint,) * n
    if result is None and solved.value:
        return DualCertificate(space, INF, None, None, solved.permutation(), left, right, n, m)
    # A bound-0 record is a zero optimum: zero potentials are feasible, as
    # costs are >= 0, and tight on its zero-cost matching.
    zeros = (0.0,) * (n + m)
    _, perm, u, v = result or (0.0, solved.permutation(), zeros, zeros)
    # One exact sum: a potential may be negative (compact duals), so no
    # partial sum's overflow decides it.
    return DualCertificate(space, solved.value, ext_fsum([*u, *v]), (*u, *(-x for x in v)),
                           perm, left, right, n, m)


def kr_certificate(alpha: Diagram, beta: Diagram) -> DualCertificate:
    """certificate_of the one W_1 solve of alpha against beta."""
    return certificate_of(alpha, beta, solve(alpha, beta, 1))


def feasibility_violation(cert: DualCertificate) -> float:
    """Largest excess of y[i] - y[r+j] over d(a_i, b_j); <= 0 when feasible.

    Pairs at infinite ground distance impose no constraint.
    """
    if not cert.has_certificate:
        raise PreconditionError("certificate has no potentials")
    worst = -INF
    r = cert.r
    for i, a in enumerate(cert.left_points):
        for j, b in enumerate(cert.right_points):
            d = cert.space.dist(a, b)
            if math.isinf(d):
                continue
            worst = max(worst, cert.y[i] - cert.y[r + j] - d)
    return worst


def tightness_violation(cert: DualCertificate) -> float:
    """Largest |y[i] - y[r+perm(i)] - d| along the realizing matching."""
    if not cert.has_certificate:
        raise PreconditionError("certificate has no potentials")
    worst = 0.0
    r = cert.r
    for i, j in enumerate(cert.permutation):
        d = cert.space.dist(cert.left_points[i], cert.right_points[j])
        worst = max(worst, abs(cert.y[i] - cert.y[r + j] - d))
    return worst


@dataclass(frozen=True)
class SupportFunction:
    """The potentials read as a function on the atoms plus basepoint.

    Well defined because feasibility plus tightness force equal potentials
    on coincident points of a metric space; construction checks that, up
    to COINCIDENCE_TOLERANCE times the certificate's scale.
    """

    space: object
    order: tuple
    values: Mapping

    def value(self, point) -> float:
        key = self.space.canonical(point)
        if key not in self.values:
            raise DomainError(f"{point!r} is not in the support")
        return self.values[key]

    def items(self):
        return [(point, self.values[point]) for point in self.order]

    def __contains__(self, point) -> bool:
        return self.space.canonical(point) in self.values


def support_function(cert: DualCertificate) -> SupportFunction:
    """Assemble h with h(a_i) = y[i], h(b_j) = y[r+j]."""
    if not cert.has_certificate:
        raise PreconditionError("certificate has no potentials")
    r = cert.r
    # Potentials round in proportion to the certificate's scale.
    tol = COINCIDENCE_TOLERANCE * max(1.0, cert.primal_value, *map(abs, cert.y))
    values: dict = {}
    order: list = []
    pairs = list(zip(cert.left_points, cert.y[:r])) + list(
        zip(cert.right_points, cert.y[r:])
    )
    for point, val in pairs:
        key = cert.space.canonical(point)
        if key in values:
            if abs(values[key] - val) > tol:
                raise DomainError(f"potentials disagree on coincident point {point!r}: "
                                  f"{values[key]} vs {val}; the ground distance may "
                                  "break the triangle inequality")
            continue
        values[key] = val
        order.append(key)
    return SupportFunction(cert.space, tuple(order), values)


def _real(point, value) -> float:
    """A candidate's value at point; KR potentials are real-valued, so an
    infinite or NaN one is a PreconditionError."""
    if not math.isfinite(value):
        raise PreconditionError(f"candidate value at {point!r} is not finite: {value}")
    return value


def dual_objective(h, alpha: Diagram, beta: Diagram) -> float:
    """sum h(a_i) - sum h(b_j) + (m - n) h(x0).

    h may be a SupportFunction or a plain mapping of real values; a
    non-finite one is a PreconditionError.  The basepoint value is only
    consulted when the diagram sizes differ.
    """
    lookup = h.value if isinstance(h, SupportFunction) else h.__getitem__
    n, m = alpha.size, beta.size
    terms = [_real(x, lookup(x)) for x in alpha.expand()]
    terms += [-_real(y, lookup(y)) for y in beta.expand()]
    total = ext_fsum(terms)
    if n != m:
        try:
            base = lookup(alpha.space.basepoint)
        except (KeyError, DomainError):
            raise PreconditionError(
                "candidate must assign a value to the basepoint when the "
                "diagram sizes differ"
            ) from None
        total += (m - n) * _real(alpha.space.basepoint, base)
    return total


def mcshane_extend(h: SupportFunction, x, space=None) -> float:
    """Largest 1-Lipschitz extension: max over support of h(c) - d(x, c).

    Agrees with h on the support.  If x is infinitely far from every
    support point the extension there is -inf; with a nonempty support over
    a finite-distance space this cannot happen.
    """
    space = space or h.space
    if not h.order:
        raise PreconditionError("support is empty")
    return max(h.values[c] - space.dist(x, c) for c in h.order)


def duality_gap(alpha: Diagram, beta: Diagram, candidate) -> float:
    """W_1(alpha, beta) minus the candidate's dual objective.

    The candidate must be real-valued and 1-Lipschitz on the padded
    support (violations up to 1e-12 are treated as rounding); weak duality
    then makes the gap nonnegative, with zero exactly at optimal
    potentials.  A non-finite candidate value is a PreconditionError naming
    its point.  Where W_1 and the dual objective both pass the largest
    float, the gap is the exact sum of the optimal matching's costs and the
    dual objective's terms negated.
    """
    _require_same_space(alpha, beta)
    space = alpha.space
    points = list(dict.fromkeys(
        alpha.expand() + beta.expand() + [space.basepoint]
    ))
    lookup = candidate.value if isinstance(candidate, SupportFunction) else candidate.__getitem__
    covered = []
    for point in points:
        try:
            value = lookup(point)
        except (KeyError, DomainError):
            if point == space.basepoint and alpha.size == beta.size:
                continue
            raise PreconditionError(f"candidate gives no value at {point!r}") from None
        covered.append((point, _real(point, value)))
    for i, (x, hx) in enumerate(covered):
        for y, hy in covered[i + 1:]:
            d = space.dist(x, y)
            if math.isinf(d):
                continue
            if abs(hx - hy) > d + FEASIBILITY_TOLERANCE:
                raise PreconditionError(
                    f"candidate is not 1-Lipschitz: |h({x!r}) - h({y!r})| = "
                    f"{abs(hx - hy)} > {d}"
                )
    w1 = solve(alpha, beta, 1)
    gap = w1.value - dual_objective(candidate, alpha, beta)
    # inf - inf: the candidate is finite, so both sides passed the largest
    # float, and the exact sum decides.
    if math.isnan(gap):
        n, m = alpha.size, beta.size
        base = lookup(space.basepoint) if n != m else 0.0
        gap = ext_fsum([*w1.costs.matched(w1.permutation()), *(-lookup(x) for x in alpha.expand()),
                        *map(lookup, beta.expand()), *[base if n > m else -base] * abs(n - m)])
    return gap
