"""p-Wasserstein and bottleneck distances between diagrams.

Both diagrams are padded with copies of the basepoint so that each side
has r = n + m entries, and the distance is the minimum over permutations
of the lp combination of matched ground distances.  That padded matrix is
held as one Costs record: the n x m atom-to-atom distances and each atom's
distance to the basepoint, from which any entry can be read.  The ground
distances come from the space's pairwise hook, so a quotient space reads
each atom's distance to the collapsed subset once per build; a NaN or
negative one is a DomainError.  p = inf is the bottleneck (minimax)
problem, solved by threshold search on the atom block: a threshold is
feasible when the atoms farther than it from the basepoint can be matched
to atoms within it.  For finite p the assignment runs on the entrywise
p-th powers, taken row by row as the compact rows are built, so a value
holds no powers matrix.  The padded matrix's m pad rows are copies of
one row and its n pad columns copies of one column, so it is solved on
the n left atoms against the m right atoms plus one diagonal column that
any number of rows may take (the "diagonal as one extra node" of hera and
gudhi), and the permutation and duals are lifted back to the padded matrix.
Immortal atoms (infinite basepoint cost) take that solve too.  When the
compact solve declines, the bottleneck value t decides what follows, at
every p (_solve picks every route), since t <= W_p <= r^(1/p) t.  If t
is inf, no assignment is finite: the value is inf, and the square matrix
(Costs.square) is built only if a matching is asked for, to complete
one.  If t is 0, so is W_p, and the optima are the zero-cost matchings,
whose ties are broken as at p = inf.  Otherwise the square solve serves
what was declined: a positive optimum too small next to the basepoint
costs to survive their subtraction, or data that breaks the triangle
inequality around immortal atoms.  For p > 1 that matrix is
scaled by a bound on the optimum; p = 1 has no powers to keep in range,
so its square solve runs on the costs unscaled.  A request builds its
costs once and solves them once (solve), and its value, its matching
and, at p = 1, kr_duality's certificate from the duals all read that one
Solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import add, sub
from typing import NamedTuple

from .assignment import (
    EXHAUSTIVE_LIMIT,
    AssignmentResult,
    bottleneck_assignment,
    exhaustive_min,
    hungarian,
    infeasible_assignment,
    lex_smallest_matching,
    min_cost_assignment,
)
from .diagram import Diagram
from .errors import DomainError, PreconditionError, SizeLimitError
from .metric_core import INF, QuotientSpace, as_exponent, ext_fsum, lp_norm

BASEPOINT = "basepoint"


class MatchedPair(NamedTuple):
    left: int | str  # index into the left diagram's expansion, or "basepoint"
    right: int | str
    cost: float


@dataclass(frozen=True)
class Matching:
    """A realizing matching: r pairs covering every atom of both diagrams.

    Indices refer to the canonical expansions of the inputs; padded slots
    carry the "basepoint" marker.  total == lp_norm(costs, p) always holds,
    including total == inf when only forbidden pairings remain.
    """

    p: float
    total: float
    pairs: tuple[MatchedPair, ...]

    def costs(self) -> list[float]:
        return [pair.cost for pair in self.pairs]


def _require_same_space(alpha: Diagram, beta: Diagram) -> None:
    if alpha.space is not beta.space and alpha.space.signature != beta.space.signature:
        raise DomainError("diagrams live over different spaces")


class Costs(NamedTuple):
    """A W_p problem: c[i][j] the distance from left atom i to right atom j,
    a[i] and b[j] the atoms' distances to the basepoint.

    It stands for the (n+m) x (n+m) padded matrix whose n atom rows are c[i]
    followed by n copies of a[i], and whose m pad rows are b followed by n
    zeros.  matched reads the entries a permutation takes; square builds it.
    """

    c: list[list[float]]
    a: list[float]
    b: list[float]

    def matched(self, perm) -> list[float]:
        """The entries a padded permutation takes, less its pad-pad zeros."""
        m = len(self.b)
        return ([row[j] if j < m else ai for row, ai, j in zip(self.c, self.a, perm)]
                + [self.b[j] for j in perm[len(self.a):] if j < m])

    def square(self) -> list[list[float]]:
        n = len(self.a)
        return ([row + [ai] * n for row, ai in zip(self.c, self.a)]
                + [self.b + [0.0] * n for _ in self.b])


def _checked_costs(c, a, b) -> Costs:
    """Costs(c, a, b); a NaN or negative ground distance is a DomainError."""
    # One C-level pass each.  NaN compares false, so min cannot report it.
    entries = [*a, *b, *chain.from_iterable(c)]
    if min(entries, default=0.0) < 0.0:
        raise DomainError("a ground distance is negative")
    if math.isnan(sum(entries)):
        raise DomainError("a ground distance is NaN")
    return Costs(c, a, b)


def _space_costs(alpha: Diagram, beta: Diagram) -> Costs:
    return _checked_costs(*alpha.space.pairwise(alpha.expand(), beta.expand()))


# The compact solve subtracts basepoint costs from atom costs.  Below r times
# this share of its largest entry, that cancellation could decide the optimum.
_CANCEL = 2.0 ** -11


def _finite_max(rows) -> float:
    top = max(chain.from_iterable(rows), default=0.0)
    if math.isinf(top):
        top = max((c for row in rows for c in row if not math.isinf(c)), default=0.0)
    return top


def _power_row(row, p: float, bound: float) -> list[float]:
    """The entries of row an assignment at p runs on.  At p = 1 that is row
    itself: there are no powers to keep in range.  At p > 1 it is
    (x / bound) ** p for every entry x; entries above bound are inf
    (forbidden), and bound 0 scales by 1."""
    if p == 1.0:
        return row
    scale = bound or 1.0
    return [INF if x > bound else (x / scale) ** p for x in row]


def _powers(costs: Costs, p: float, bound: float) -> Costs:
    """_power_row of every row of costs: the matrix a square solve runs on,
    and that Solve.permutation rebuilds to break its ties."""
    c, a, b = costs
    return Costs([_power_row(row, p, bound) for row in c], _power_row(a, p, bound),
                 _power_row(b, p, bound))


def _lift(match, m: int) -> tuple[int, ...]:
    """The padded permutation of an assignment of n rows to m columns and a diagonal m.

    Rows on the diagonal take the pad columns in row order, pad rows the
    columns no row took in ascending order, then the pad columns left over.
    Among the padded permutations that agree with match on the atoms, this
    is the lexicographically smallest.
    """
    perm, pad = [], m
    for j in match:
        if j == m:
            j, pad = pad, pad + 1
        perm.append(j)
    taken = set(match)
    return (*perm, *[j for j in range(m) if j not in taken], *range(pad, m + len(match)))


def _compact_assignment(costs: Costs, p: float = 1.0, bound: float = 0.0
                        ) -> AssignmentResult | None:
    """The padded optimum, solved on n rows and m + 1 columns, then lifted.

    It runs on _power_row of each row: the costs as they are at p = 1, and
    at p > 1 their powers over bound, each row powered as its compact row
    is built, so no powers matrix exists beside the compact rows.  Below,
    a_i, b_j and c_ij are the entries it runs on.

    Rows may share one diagonal column of entries a_i; atom entries are
    c_ij - s_j, where s_j is b_j if finite and 0 for an immortal column
    (b_j = inf).  A padded permutation's total is its compact one plus
    sum s_j when no pad row takes an immortal column, and inf otherwise, so
    a finite lifted total is the padded optimum.  Rows on the diagonal take
    the pad columns in row order, pad rows the atom columns left over in
    ascending order, then the rest.  The duals (u, 0^m) and (v_j + s_j, 0^n)
    are feasible for the padded matrix, since v_j <= 0 and u_i <= a_i, and
    tight on that permutation, since v_j = 0 on the columns no atom row
    takes.  A side may be empty, or both: with no atom rows v_j is 0, so
    the lifted v is s.

    Returns None when the lifted total is inf, or too small next to the
    entries for their differences to decide it.  A failed solve lifts as
    all-diagonal, whose total is inf (some row has a_i = inf).  On metric
    data d(x, x0) = inf and d(y, x0) < inf force d(x, y) = inf, so an
    immortal row can take only an immortal column, and the lifted total is
    inf only when no finite assignment exists.  Data that breaks the
    triangle inequality may leave an immortal column to a pad row instead.

    Nothing of size (n+m)^2 is built:
    the padded total is the fsum of the entries the lifted permutation
    takes (Costs.matched, powered), the same float as over the whole padded
    row set, and the guard reads the largest finite entry of b and the
    compact rows.
    """
    c, a, b = costs
    n, m = len(a), len(b)
    a, b = _power_row(a, p, bound), _power_row(b, p, bound)
    shift = [0.0 if bj == INF else bj for bj in b]
    compact = [[*map(sub, _power_row(row, p, bound), shift), ai] for row, ai in zip(c, a)]
    _, match, u, v = hungarian(compact, shared=True)
    perm = _lift(match or [m] * n, m)
    total = ext_fsum(_power_row(costs.matched(perm), p, bound))
    if math.isinf(total) or total < (n + m) * _CANCEL * _finite_max([b, *compact]):
        return None
    return AssignmentResult(total, perm, (*u, *[0.0] * m),
                            (*map(add, v or [0.0] * m, shift), *[0.0] * n))


class Solve(NamedTuple):
    """One solve of a W_p problem, costs, as _solve routes it.

    result is the assignment, with duals, and value the lp value of
    result.permutation on costs, not its scaled total.  At p > 1 the
    assignment ran on the powers of costs over scale (_powers): c_max, the
    largest finite cost, on the compact route, and r^(1/p) t on the square
    route.  The record keeps the scale, not the powers, and only
    Solve.permutation rebuilds them, the same floats.  At p = 1 it ran on
    the costs, and scale is unused there and where result is None.  result
    is None exactly when the bottleneck bound decides the value, which is
    then the bottleneck value: at p = inf, when no assignment is finite
    (inf), and for a zero optimum (0, at any p).
    """

    costs: Costs
    p: float
    value: float
    scale: float
    result: AssignmentResult | None

    def permutation(self) -> tuple[int, ...]:
        """Optimal permutation, lexicographically smallest among optima.

        Optima are the perfect matchings of the threshold graph at the
        bottleneck value, or (complementary slackness) of the optimal duals'
        equality subgraph, whose tolerance over r rows sums to 1e-9 of the
        optimum.  The square solve's duals never exceed the optimum, and an
        accepted compact optimum is at least r 2^-11 times its entries, so
        rounding stays far below it either way.

        The search runs on the n atom rows against the m atom columns and
        the diagonal, with the pad rows as one node (lex_smallest_matching),
        and _lift gives the padded permutation.  An atom row may take the
        diagonal if it is tight to some pad column, and an atom column may
        be left to the pad rows if it is tight to some pad row.  Pad rows
        are alike, and so are pad columns, so the largest pad dual decides
        each test exactly (subtraction is monotone).  An immortal row never
        takes the diagonal, nor is an immortal column left to the pad rows:
        their inf entries are never tight.  The pad rows left over take pad
        columns at 0, which the largest pad duals leave tight.
        A record the bound decided has no duals: they are 0 and the
        tolerance is its bottleneck value t, so the search runs on the
        threshold graph at t, which at t = 0 holds the zero entries of the
        costs (not of underflowed powers).  It starts from a shared-column
        solve of the indicators of entries above t, whose padded optimum is
        0, so its matching lies in the threshold graph.  An infinite value
        has no optimum to break ties among.  With no finite assignment, at
        any p, the permutation is infeasible_assignment's on the square
        matrix, built only here; a finite optimum whose lp value overflows
        keeps its solve's.
        """
        costs, result = self.costs, self.result
        n, m = len(costs.a), len(costs.b)
        if math.isinf(self.value):
            return (result or infeasible_assignment(costs.square())).permutation
        if result is None:
            work, tol = costs, self.value
            u = v = [0.0] * (n + m)
            over = [[(cij > tol) - (bj > tol) for cij, bj in zip(row, costs.b)] + [ai > tol]
                    for row, ai in zip(costs.c, costs.a)]
            start = hungarian(over, shared=True)[1]
        else:
            work, u, v = _powers(costs, self.p, self.scale), result.u, result.v
            tol = 1e-9 * result.total / max(1, n + m)
            start = [min(j, m) for j in result.permutation[:n]]
        pad_u, pad_v = max(u[n:], default=0.0), max(v[m:], default=0.0)
        adjacency = [[j for j in range(m) if j == s or row[j] - u[i] - v[j] <= tol]
                     + [m] * (s == m or ai - u[i] - pad_v <= tol)
                     for i, (row, ai, s) in enumerate(zip(work.c, work.a, start))]
        held = set(start)
        optional = [j not in held or bj - pad_u - v[j] <= tol for j, bj in enumerate(work.b)]
        return _lift(lex_smallest_matching(adjacency, optional, start), m)

    def matching(self) -> Matching:
        """The optimal permutation as pairs of atoms, pad-pad pairs left out."""
        n, m = len(self.costs.a), len(self.costs.b)
        perm = self.permutation()
        # A pad-pad pair costs 0 and carries no information.  Costs.matched
        # reads the kept slots in this order: atom rows, then pad rows.
        kept = [(i, j) for i, j in enumerate(perm) if i < n or j < m]
        pairs = tuple(MatchedPair(i if i < n else BASEPOINT, j if j < m else BASEPOINT, cost)
                      for (i, j), cost in zip(kept, self.costs.matched(perm)))
        total = lp_norm([pair.cost for pair in pairs], self.p)
        return Matching(p=self.p, total=total, pairs=pairs)


def _solve(costs: Costs, p: float) -> Solve:
    """The one solve of costs at p, and the one place that picks its route.

    It has three exits.  At finite p the compact solve
    (_compact_assignment) runs first: at p = 1 on the costs, and at p > 1 on
    powers (c / c_max) ** p, c_max the largest finite cost, which cannot
    overflow and of which one is 1, so an optimum it accepts is far above
    where underflow could decide it.  Otherwise the bottleneck value t
    bounds W_p: t <= W_p <= r^(1/p) t.  Where that bound decides the value,
    the record is the bound's, t with no result, and Solve.permutation
    breaks its ties on the threshold graph at t: at p = inf; at t = inf,
    where no assignment is finite; and at t = 0, where at every p the
    optima are the zero-cost matchings.  A finite positive t takes the
    square solve: at p = 1 on the costs as they are, with no powers to
    keep in range, and at p > 1 on the powers over bound = r^(1/p) t, with
    the entries above bound forbidden.  No optimum uses them, since its lp
    value is at most r^(1/p) t (the 1e-9 margin keeps rounding from
    forbidding more).  Every kept power is then
    at most 1 and the optimum about 1/r or more.  Totals are in units of
    the scale, so every value is the lp norm of the costs the permutation
    takes.  Each route holds the costs and one working matrix at a time:
    the compact rows, powered as they are built; the bottleneck search's
    rank lists; or the square matrix, whose powers are dropped once it is
    built.  The record keeps the scale of the powers, not the powers.
    """
    scale = 0.0 if p in (1.0, INF) else _finite_max([*costs.c, costs.a, costs.b])
    if p != INF:
        result = _compact_assignment(costs, p, scale)
        if result is not None:
            return Solve(costs, p, lp_norm(costs.matched(result.permutation), p), scale, result)
    bound = bottleneck_assignment(*costs)
    if p == INF or not 0.0 < bound < INF:
        return Solve(costs, p, bound, scale, None)
    if p != 1.0:
        r = len(costs.a) + len(costs.b)
        scale = bound * (r * (1.0 + 1e-9)) ** (1.0 / p)
    result = min_cost_assignment(_powers(costs, p, scale).square())
    return Solve(costs, p, lp_norm(costs.matched(result.permutation), p), scale, result)


def solve(alpha: Diagram, beta: Diagram, p) -> Solve:
    """The one solve of W_p(alpha, beta): costs built once, solved once."""
    p = as_exponent(p)
    _require_same_space(alpha, beta)
    return _solve(_space_costs(alpha, beta), p)


def wasserstein_value(alpha: Diagram, beta: Diagram, p) -> float:
    """W_p(alpha, beta) without constructing the realizing matching."""
    return solve(alpha, beta, p).value


def wasserstein(alpha: Diagram, beta: Diagram, p) -> tuple[float, Matching]:
    """W_p(alpha, beta) together with a realizing matching.

    Among optimal matchings the lexicographically smallest permutation of
    the padded index set is returned, so output is deterministic.
    """
    matching = solve(alpha, beta, p).matching()
    return matching.total, matching


def bottleneck(alpha: Diagram, beta: Diagram) -> tuple[float, Matching]:
    """The bottleneck distance W_inf and a realizing matching."""
    return wasserstein(alpha, beta, INF)


def brute_force_wasserstein(alpha: Diagram, beta: Diagram, p) -> float:
    """W_p by enumerating all (n+m)! permutations; the reference oracle.

    Refuses inputs with n + m beyond the enumeration guard.
    """
    p = as_exponent(p)
    _require_same_space(alpha, beta)
    r = alpha.size + beta.size
    if r > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(
            f"brute force limited to n + m <= {EXHAUSTIVE_LIMIT}, got {r}"
        )
    return exhaustive_min(_space_costs(alpha, beta).square(), p)


def wasserstein_quotient_reduced(alpha: Diagram, beta: Diagram, p, *,
                                 ambient_dist=None, subset_dist=None) -> float:
    """W_p over a quotient space computed from ambient data only.

    Ground costs are ambient distances between atoms and distance-to-subset
    against the basepoint, never the quotient metric itself.  The diagrams
    must live over a quotient space whose exponent equals p; mixing
    exponents computes a different quantity, so it is rejected.
    """
    p = as_exponent(p)
    _require_same_space(alpha, beta)
    space = alpha.space
    if ambient_dist is None or subset_dist is None:
        if not isinstance(space, QuotientSpace):
            raise PreconditionError(
                "ambient_dist and subset_dist are required unless the "
                "diagrams live over a quotient space"
            )
        ambient_dist = ambient_dist or space.ambient.dist
        subset_dist = subset_dist or space.subset_dist
    if isinstance(space, QuotientSpace) and space.p != p:
        raise PreconditionError(
            f"quotient exponent {space.p} does not match requested p = {p}"
        )
    left, right = alpha.expand(), beta.expand()
    rows = [[float(ambient_dist(x, y)) for y in right] for x in left]
    costs = _checked_costs(rows, [float(subset_dist(x)) for x in left],
                           [float(subset_dist(y)) for y in right])
    return _solve(costs, p).value
