"""p-Wasserstein and bottleneck distances between diagrams.

Both diagrams are padded with copies of the basepoint so that each side
has r = n + m entries, and the distance is the minimum over permutations
of the lp combination of matched ground distances.  The ground distances
come from the space's pairwise hook, so a quotient space reads each atom's
distance to the collapsed subset once per matrix; a NaN or negative one
is a DomainError.  p = inf is the bottleneck (minimax) problem, solved by
threshold search on its atom block: a threshold is feasible when the atoms
farther than it from the basepoint can be matched to atoms within it.
For finite p the assignment runs on the entrywise p-th powers.  Its m pad
rows are copies of one row and its n pad columns copies of one column, so
it is solved on the n left atoms against the m right atoms plus one
diagonal column that any number of rows may take (the "diagonal as one
extra node" of hera and gudhi), and the permutation and duals are lifted
back to the padded matrix.  Two cases are solved on the square matrix:
infinite basepoint costs (immortal atoms), and an optimum too small next to
the basepoint costs to survive their subtraction.  For p > 1 that matrix is
scaled by a bound on the optimum; p = 1 has no powers to keep in range, so
its square solve runs on the costs unscaled.  A request builds its costs
once and solves them once (solve), and its value, its matching and, at
p = 1, kr_duality's certificate from the duals all read that one Solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .assignment import (
    EXHAUSTIVE_LIMIT,
    AssignmentResult,
    bottleneck_assignment,
    exhaustive_min,
    hungarian,
    lex_smallest_matching,
    min_cost_assignment,
)
from .diagram import Diagram
from .errors import DomainError, PreconditionError, SizeLimitError
from .metric_core import INF, QuotientSpace, as_exponent, lp_norm

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
    if alpha.space.signature != beta.space.signature:
        raise DomainError("diagrams live over different spaces")


def _padded_costs(rows, left_base, right_base) -> list[list[float]]:
    """(n+m) x (n+m) matrix: atoms of alpha + pads vs atoms of beta + pads.

    rows is the n x m matrix of atom-to-atom ground distances, which this
    extends in place; left_base and right_base are the atoms' distances to
    the basepoint.  A NaN or negative ground distance is a DomainError.
    """
    n = len(rows)
    for row, a in zip(rows, left_base):
        row.extend([a] * n)
    rows.extend(right_base + [0.0] * n for _ in right_base)
    # One C-level pass each.  NaN compares false, so min cannot report it.
    if rows and min(map(min, rows)) < 0.0:
        raise DomainError("a ground distance is negative")
    if math.isnan(sum(map(sum, rows))):
        raise DomainError("a ground distance is NaN")
    return rows


def _space_costs(alpha: Diagram, beta: Diagram) -> list[list[float]]:
    return _padded_costs(*alpha.space.pairwise(alpha.expand(), beta.expand()))


# The compact solve subtracts basepoint costs from atom costs.  Below r times
# this share of its largest entry, that cancellation could decide the optimum.
_CANCEL = 2.0 ** -11


def _finite_max(rows) -> float:
    top = max(map(max, rows), default=0.0)
    if math.isinf(top):
        top = max((c for row in rows for c in row if not math.isinf(c)), default=0.0)
    return top


def _padded_powers(costs, p: float, bound: float, n: int) -> list[list[float]]:
    """(c / bound) ** p on a padded matrix, one power per atom pair or basepoint cost.

    Entries above bound are inf (forbidden), and bound 0 scales by 1.  The
    m pad rows are one shared list, which no caller modifies.
    """
    m = len(costs) - n
    scale = bound or 1.0
    rows = [[INF if c > bound else (c / scale) ** p for c in row[:m]]
            + [INF if row[m] > bound else (row[m] / scale) ** p] * n for row in costs[:n]]
    return rows + [[INF if c > bound else (c / scale) ** p for c in row[:m]] + [0.0] * n
                   for row in costs[n:n + 1]] * m


def _lift(match, m: int) -> tuple[int, ...]:
    """The padded permutation of an assignment of n rows to m columns and a diagonal m.

    Rows on the diagonal take the pad columns in row order, pad rows the
    columns no row took in ascending order, then the pad columns left over.
    Among the padded permutations that agree with match on the atoms, this
    is the lexicographically smallest.
    """
    pads = iter(range(m, m + len(match)))
    perm = [next(pads) if j == m else j for j in match]
    taken = set(match)
    return tuple(perm + [j for j in range(m) if j not in taken] + list(pads))


def _compact_assignment(work, n: int) -> AssignmentResult | None:
    """The padded optimum, solved on n rows and m + 1 columns, then lifted.

    work is padded: n atom rows, each with one basepoint cost a_i in its n
    pad columns, and m pad rows, each the right atoms' basepoint costs b_j
    followed by zeros.  Rows may share one diagonal column of entries a_i;
    atom entries are w_ij - b_j, so the padded optimum is the compact one
    plus sum b_j.  Rows on the diagonal take the pad columns in row order,
    pad rows the atom columns left over in ascending order, then the rest.
    The duals (u, 0^m) and (v_j + b_j, 0^n) are feasible for work, since
    v_j <= 0 and u_i <= a_i, and tight on that permutation, since v_j = 0
    on the columns no atom row takes.  A side may be empty, or both: with no
    atom rows v_j is 0, so the lifted v is b.  Returns None when the optimum
    is too small next to the entries for their differences to decide it.
    """
    m = len(work) - n
    b = work[n][:m] if m else []
    compact = [[c - bj for c, bj in zip(row, b)] + [row[m]] for row in work[:n]]
    _, perm, u, v = hungarian(compact, shared=True)
    perm = _lift(perm, m)
    total = math.fsum(work[i][j] for i, j in enumerate(perm))
    if total < len(work) * _CANCEL * max(_finite_max(compact), max(b, default=0.0)):
        return None
    u = tuple(u) + (0.0,) * m
    v = tuple(vj + bj for vj, bj in zip(v or [0.0] * m, b)) + (0.0,) * n
    return AssignmentResult(total, perm, u, v)


def _power_assignment(costs, p: float, n: int) -> tuple[list[list[float]], AssignmentResult]:
    """An argmin of sum c ** p, solved on scaled powers; returns (powers, result).

    costs is padded with the left diagram's n atoms first.  When every
    basepoint cost is finite, the optimum is solved on n rows and a shared
    diagonal column (_compact_assignment), on powers (c / c_max) ** p, which
    cannot overflow; at p > 1 one of them is 1, so an optimum the compact
    solve accepts is far above where underflow could decide it.  Otherwise,
    or when the compact solve declines, the square matrix is solved instead.
    At p = 1 that is costs as they are, with no powers to keep in range.
    At p > 1 it is the powers taken over bound = r^(1/p) b, b the bottleneck
    value, with the entries above bound forbidden: no optimum uses them,
    since its lp value is at most r^(1/p) b (the 1e-9 margin keeps rounding
    from forbidding more).  Every kept power is then at most 1 and the
    optimum about 1/r or more; at bound 0 the kept entries are the zeros.
    Its total is in units of bound ** p, so callers read values off costs.
    When b is inf, no assignment is finite, and costs is solved as is.
    """
    r = len(costs)
    m = r - n
    if INF not in [row[m] for row in costs[:n]] + (costs[n][:m] if m else []):
        work = costs if p == 1.0 else _padded_powers(costs, p, _finite_max(costs[:n + 1]), n)
        result = _compact_assignment(work, n)
        if result is not None:
            return work, result
    bound = INF if p == 1.0 else bottleneck_assignment(costs, n) * (r * (1.0 + 1e-9)) ** (1.0 / p)
    if math.isinf(bound):
        return costs, min_cost_assignment(costs)
    work = _padded_powers(costs, p, bound, n)
    return work, min_cost_assignment(work)


class Solve(NamedTuple):
    """One solve of a padded matrix, costs, whose first n rows are atoms.

    At finite p, (work, result) is what _power_assignment returns and value
    the lp value of result.permutation on costs, not its scaled total.  At
    p = inf, value is the bottleneck value and work and result are None.
    """

    costs: list[list[float]]
    n: int
    p: float
    value: float
    work: list[list[float]] | None
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
        each test exactly (subtraction is monotone).  The pad rows left
        over take pad columns at 0, which the largest pad duals leave tight.
        At p = inf the duals are 0 and the tolerance is the bottleneck value
        t.  The search starts from a shared-column solve of the indicators
        of entries above t, whose padded optimum is 0, so its matching lies
        in the threshold graph.
        """
        costs, n, result = self.costs, self.n, self.result
        m = len(costs) - n
        if math.isinf(self.value):
            return min_cost_assignment(costs).permutation if result is None else result.permutation
        if result is None:
            work, tol = costs, self.value
            u = v = [0.0] * len(costs)
            # costs[-1] is a pad row, the b_j, whenever m > 0.
            over = [[(c > tol) - (bj > tol) for c, bj in zip(row[:m], costs[-1])] + [row[m] > tol]
                    for row in costs[:n]]
            start = hungarian(over, shared=True)[1]
        else:
            work, u, v = self.work, result.u, result.v
            tol = 1e-9 * result.total / max(1, len(work))
            start = [min(j, m) for j in result.permutation[:n]]
        pad_u, pad_v = max(u[n:], default=0.0), max(v[m:], default=0.0)
        adjacency = [[j for j in range(m) if j == s or row[j] - u[i] - v[j] <= tol]
                     + [m] * (s == m or row[m] - u[i] - pad_v <= tol)
                     for i, (row, s) in enumerate(zip(work, start))]
        held = set(start)
        optional = [j not in held or work[n][j] - pad_u - v[j] <= tol for j in range(m)]
        return _lift(lex_smallest_matching(adjacency, optional, start), m)

    def matching(self) -> Matching:
        """The optimal permutation as pairs of atoms, pad-pad pairs left out."""
        n, m = self.n, len(self.costs) - self.n
        pairs = []
        for i, j in enumerate(self.permutation()):
            left = i if i < n else BASEPOINT
            right = j if j < m else BASEPOINT
            if left == BASEPOINT and right == BASEPOINT:
                continue  # zero-cost padding, carries no information
            pairs.append(MatchedPair(left, right, self.costs[i][j]))
        total = lp_norm([pair.cost for pair in pairs], self.p)
        return Matching(p=self.p, total=total, pairs=tuple(pairs))


def _solve(costs, p: float, n: int) -> Solve:
    if p == INF:
        return Solve(costs, n, p, bottleneck_assignment(costs, n), None, None)
    work, result = _power_assignment(costs, p, n)
    value = lp_norm([costs[i][j] for i, j in enumerate(result.permutation)], p)
    return Solve(costs, n, p, value, work, result)


def solve(alpha: Diagram, beta: Diagram, p) -> Solve:
    """The one solve of W_p(alpha, beta): padded costs built once, solved once."""
    p = as_exponent(p)
    _require_same_space(alpha, beta)
    return _solve(_space_costs(alpha, beta), p, alpha.size)


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
    return exhaustive_min(_space_costs(alpha, beta), p)


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
    costs = _padded_costs(rows, [float(subset_dist(x)) for x in left],
                          [float(subset_dist(y)) for y in right])
    return _solve(costs, p, alpha.size).value
