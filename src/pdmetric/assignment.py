"""Exact solvers for assignment problems.

hungarian        O(n^2 k) min-cost assignment of the n rows of an n x k matrix
                 by shortest augmenting paths that skip forbidden (inf)
                 entries, with dual potentials (u, v): u[i] + v[j] <= c[i][j],
                 equality on matched pairs.  Its last column may be shared:
                 any number of rows may take it, so a padded W_p problem
                 solves as n atom rows against m atoms and one diagonal.
hopcroft_karp    maximum bipartite matching, optionally grown from a given one;
                 it completes infeasible assignments (infeasible_assignment)
                 and runs threshold probes.
bottleneck_assignment
                 minimax value of a padded problem, given as its atom block
                 and the atoms' basepoint costs, by binary search on the block.
lex_smallest_matching
                 the deterministic tie-break: lexicographically smallest
                 assignment of n rows to m columns, some of which may stay
                 free, and a shared diagonal, grown from a given one.  On a
                 W_p problem the rows are the atoms, the pad rows one node,
                 and the graph the optimal duals' equality subgraph (or the
                 bottleneck threshold graph).
exhaustive_min   the optimum over all permutations, guarded at n <= 9; the
                 independent oracle for everything else.  An exact dynamic
                 program over column subsets, 2^n n steps where listing the
                 permutations takes n! n.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, groupby
from typing import NamedTuple

from .errors import SizeLimitError
from .metric_core import INF, as_exponent, ext_fsum

EXHAUSTIVE_LIMIT = 9


def hungarian(costs, shared: bool = False
              ) -> tuple[float, list[int] | None, list[float] | None, list[float] | None]:
    """Minimum-cost assignment of every row of an n x k matrix, n <= k; inf is forbidden.

    Returns (total, perm, u, v) where perm[i] is the column matched to row
    i and (u, v) are feasible dual potentials tight on matched pairs; every
    v[j] is <= 0, and 0 on a column no row takes.  total is the sum of the
    matched entries (ext_fsum: inf past the float range).  When no
    assignment avoids the inf entries it returns (inf, None, None, None).
    Each row is matched by a shortest augmenting path search in the reduced
    costs (Crouse 2016); among tied columns the search takes a free one,
    which ends the search at once on the zero corner of padded diagrams.

    With shared, the last column may take any number of rows (so n may
    exceed k): a search that reaches it stops there, it never becomes
    owned, and its potential stays 0.
    """
    n = len(costs)
    k = len(costs[0]) if n else 0
    u, v = [0.0] * n, [0.0] * k
    col4row, row4col = [-1] * n, [-1] * k
    path = [-1] * k  # path[j]: the row the shortest path reaches column j from
    for cur in range(n):
        dist = [INF] * k  # shortest path length from row cur to each column
        remaining = list(range(k))
        rows, cols = [], []
        i, reach = cur, 0.0
        while True:
            rows.append(i)
            row, h = costs[i], reach - u[i]
            reach, best = INF, -1
            for j in remaining:
                d = h + row[j] - v[j]
                if d < dist[j]:
                    dist[j] = d
                    path[j] = i
                else:
                    d = dist[j]
                if d < reach or (d == reach and row4col[j] < 0):
                    reach, best = d, j
            if reach == INF:
                return INF, None, None, None
            remaining.remove(best)
            cols.append(best)
            if row4col[best] < 0:
                break
            i = row4col[best]
        u[cur] += reach
        for i in rows[1:]:
            u[i] += reach - dist[col4row[i]]
        for j in cols:
            v[j] -= reach - dist[j]
        j = best
        while j != -1:  # flip the path: each row on it takes the column it reached
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
        if shared:
            row4col[-1] = -1
    total = ext_fsum([row[j] for row, j in zip(costs, col4row)])
    return total, col4row, u, v


def hopcroft_karp(adjacency: list[list[int]], n_right: int,
                  start: list[int] | None = None) -> tuple[int, list[int]]:
    """Maximum matching in a bipartite graph given as left adjacency lists.

    Returns (size, match_left) with match_left[i] the column matched to
    left node i, or -1.  start, if given, is a matching inside the graph
    (in the same form) to grow from.
    """
    n_left = len(adjacency)
    match_left = [-1] * n_left if start is None else list(start)
    match_right = [-1] * n_right
    for i, j in enumerate(match_left):
        if j != -1:
            match_right[j] = i
    size = n_left - match_left.count(-1)
    while True:
        # BFS layers from free left nodes.
        dist = [-1] * n_left
        queue = [i for i in range(n_left) if match_left[i] == -1]
        for i in queue:
            dist[i] = 0
        # Layers up to the first that reaches a free column are complete
        # once one is reached, and no augmenting path needs a deeper one.
        found_free = False
        head = 0
        while head < len(queue) and not found_free:
            i = queue[head]
            head += 1
            for j in adjacency[i]:
                k = match_right[j]
                if k == -1:
                    found_free = True
                    break
                if dist[k] == -1:
                    dist[k] = dist[i] + 1
                    queue.append(k)
        if not found_free:
            return size, match_left
        for root in range(n_left):
            if match_left[root] == -1 and _augment(root, adjacency, dist, match_left, match_right):
                size += 1


def _augment(root: int, adjacency, dist, match_left, match_right) -> bool:
    """Depth-first search along the BFS layers for an augmenting path from root.

    Iterative, so a path may be as long as the graph: rows holds the path's
    rows, cols the columns between them and scans each row's place in its
    adjacency.  A row whose search fails leaves the layers, as in the
    recursive form, and the search resumes in the row before it.
    """
    rows, cols, scans = [root], [], [iter(adjacency[root])]
    while rows:
        level = dist[rows[-1]] + 1
        for j in scans[-1]:
            k = match_right[j]
            if k == -1:  # a free column: each row on the path takes the next column
                cols.append(j)
                for i, j in zip(rows, cols):
                    match_left[i] = j
                    match_right[j] = i
                return True
            if dist[k] == level:
                cols.append(j)
                rows.append(k)
                scans.append(iter(adjacency[k]))
                break
        else:
            dist[rows.pop()] = -1
            scans.pop()
            if cols:
                cols.pop()
    return False


def _finite_adjacency(costs) -> list[list[int]]:
    return [[j for j, c in enumerate(row) if not math.isinf(c)] for row in costs]


def has_perfect_matching(adjacency: list[list[int]], n_right: int,
                         start: list[int] | None = None) -> tuple[bool, list[int]]:
    """Whether every left node can be matched, with the maximum matching found."""
    size, match_left = hopcroft_karp(adjacency, n_right, start)
    return size == len(adjacency), match_left


def _complete_greedily(k: int, match_left: list[int]) -> list[int]:
    """Extend a partial matching to an assignment into k columns, deterministically."""
    used = {j for j in match_left if j != -1}
    free_cols = iter(j for j in range(k) if j not in used)
    return [j if j != -1 else next(free_cols) for j in match_left]


class AssignmentResult(NamedTuple):
    """Optimal value, realizing permutation, and dual potentials.

    Duals are omitted (None) when no finite-cost perfect matching exists;
    the permutation then realizes total == inf while matching as many
    finite edges as possible.
    """

    total: float
    permutation: tuple[int, ...]
    u: tuple[float, ...] | None
    v: tuple[float, ...] | None


def infeasible_assignment(costs) -> AssignmentResult:
    """The result for an n x k matrix, n >= 1, on which every assignment
    takes an inf entry: total inf, no duals, and a maximum matching on the
    finite edges (Hopcroft-Karp), greedily completed."""
    k = len(costs[0])
    _, match_left = hopcroft_karp(_finite_adjacency(costs), k)
    return AssignmentResult(INF, tuple(_complete_greedily(k, match_left)), None, None)


def min_cost_assignment(costs) -> AssignmentResult:
    """Minimum-total assignment of the rows of an n x k matrix (see hungarian).

    inf entries mark forbidden edges, which the solver never follows.  If no
    assignment avoids them, the result is infeasible_assignment's.
    """
    total, perm, u, v = hungarian(costs)
    if perm is None:
        return infeasible_assignment(costs)
    return AssignmentResult(total, tuple(perm), tuple(u), tuple(v))


def _ranked(rows) -> tuple[list[list[int]], list[list[float]]]:
    """Each row's columns sorted by cost, and their costs in that order.

    Every order is a permutation of one list of column indices, so the
    orders share its int objects rather than making new ones each.
    """
    index = list(range(len(rows[0])))
    order = [sorted(index, key=row.__getitem__) for row in rows]
    return order, [[row[j] for j in cols] for row, cols in zip(rows, order)]


def bottleneck_assignment(c, a, b) -> float:
    """The least t at which some padded permutation's entries are all <= t (inf if none).

    c[i][j] is the cost of left atom i against right atom j, and a[i] and
    b[j] the atoms' basepoint costs, as in wasserstein.Costs.  t is feasible
    iff the atom block c at t has a matching covering each row with a_i > t
    and each column with b_j > t (other atoms take pads, pads take each
    other at 0).  By Mendelsohn-Dulmage each set may be covered on its own, so a
    probe runs Hopcroft-Karp on the required rows over their cost-sorted
    prefixes, then on the required columns, each grown from the last failed
    probe's matching; a side with nothing required is covered at once.  With
    one diagram empty every atom takes a pad, so the value is the largest
    basepoint cost, and no search runs.

    No t below the largest, over atoms of both sides, of min(basepoint
    cost, cheapest atom cost) is feasible: that atom is required at t and
    has no edge.  So the search probes that bound first and bisects above
    it, over the distinct finite entries (and the pads' 0) in one sorted
    list.  The search holds the rank lists of both sides and that list;
    the transposed block is dropped once ranked.
    """
    n, m = len(a), len(b)
    if not n or not m:
        return max(a or b, default=0.0)
    sides = [(a, *_ranked(c), m, [-1] * n), (b, *_ranked(list(zip(*c))), n, [-1] * m)]

    def feasible(t: float) -> bool:
        runs = []
        for need, order, ranked, k, start in sides:
            required = [i for i, x in enumerate(need) if x > t]
            if not required:
                continue
            adjacency = [order[i][:bisect_right(ranked[i], t)] for i in required]
            perfect, match = has_perfect_matching(adjacency, k, [start[i] for i in required])
            runs.append((start, required, match))
            if not perfect:  # later probes are above t, so these matchings stay valid
                for start, required, match in runs:
                    for i, j in zip(required, match):
                        start[i] = j
                return False
        return True

    low = max(min(x, row[0]) for need, _, ranked, _, _ in sides for x, row in zip(need, ranked))
    if low == INF:
        return INF
    # Sorted and deduplicated, each value kept as its first occurrence (a,
    # b, the pads' 0, then the rows) as a set union would keep it.
    values = [x for x, _ in groupby(sorted(chain(a, b, [0.0], *sides[0][2]))) if x != INF]
    lo = bisect_left(values, low)
    if feasible(values[lo]):
        return values[lo]
    if not feasible(values[-1]):
        return INF
    return values[bisect_left(values, True, lo + 1, len(values) - 1, key=feasible)]


def lex_smallest_matching(adjacency: list[list[int]], optional: list[bool],
                          match: list[int]) -> tuple[int, ...]:
    """Lexicographically smallest assignment of n rows to m columns and a diagonal.

    adjacency[i] lists row i's columns in ascending order.  Column m =
    len(optional), the diagonal, may take any number of rows and ranks last.
    Column j < m may stay free when optional[j]; otherwise some row must take
    it.  Node n stands for the pad rows, which are all alike: it holds the
    free columns and the diagonal, and may take the diagonal and every
    optional column.  match is one such assignment, a column per row.  Row
    by row, commit the smallest column whose holder can pass it on along an
    alternating path, over uncommitted rows and node n, that ends at the
    column the row gives up, and rotate along that path.  With no optional
    column and no diagonal edge this is the lexicographically smallest
    perfect matching of a square graph.
    """
    n, m = len(adjacency), len(optional)
    match = list(match) + [m]  # plus node n's entry, which the rotation writes and nothing reads
    # takers[col]: the nodes that may take col.  Node n may take the optional
    # columns and the diagonal.
    takers = [[n] if takes else [] for takes in optional + [True]]
    for i, cols in enumerate(adjacency):
        for j in cols:
            takers[j].append(i)
    for i in range(n):
        target = match[i]
        free = set(range(m)).difference(match[:n])  # the columns node n holds
        # via[col]: the node that gives col up on an alternating path that
        # ends at `target`, the column row i gives up; step[k] (k > i): the
        # column node k then moves to.  Every column but the diagonal has one
        # holder, so col's holder is on such a path iff via[col] is set.
        step = [-1] * (n + 1)
        via = [-1] * (m + 1)
        stack = [(target, i)]
        while stack:
            col, giver = stack.pop()
            if via[col] == -1:
                via[col] = giver
                for k in takers[col]:
                    if k > i and step[k] == -1:
                        step[k] = col
                        held = [match[k]] if k < n else [*free, m]
                        stack += [(j, k) for j in held]
        best = min((j for j in adjacency[i] if j < target and via[j] != -1), default=target)
        k, col = via[best], best
        match[i] = best
        while col != target:  # each node on the path moves on to its step
            col = step[k]
            match[k], k = col, via[col]
    return tuple(match[:n])


def exhaustive_min(costs, p) -> float:
    """min over all permutations of the lp combination of matched entries.

    The oracle the fast solvers are checked against, guarded at n <=
    EXHAUSTIVE_LIMIT.  An exact dynamic program over column subsets: the
    optimum of rows 0..|S| taking S + {j} is the least, over j, of the
    optimum of rows 0..|S|-1 taking S extended by row |S|'s entry in column
    j, since an lp combination grows with that of its first entries.  A
    column set that no finite partial assignment reaches stays at inf.  At
    p = inf a partial optimum is its largest entry, exactly.  At finite p it
    is kept as its norm, its largest entry top and the sum of (e / top) ** p
    over its entries e, rescaled when a larger entry arrives, as in lp_norm,
    so that no scale or spread of input over- or underflows.
    """
    p = as_exponent(p)
    n = len(costs)
    if n == 0:
        return 0.0
    if n > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(
            f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT}, got {n}"
        )
    rows = [[float(c) for c in row] for row in costs]
    bits = [1 << j for j in range(n)]
    full = (1 << n) - 1
    # norms[S]: the optimum of rows 0..|S|-1 taking the columns in S.
    norms = [INF] * (full + 1)
    norms[0] = 0.0
    if p == INF:
        for taken in range(full):
            top = norms[taken]
            if top == INF:
                continue
            for bit, e in zip(bits, rows[taken.bit_count()]):
                if taken & bit:
                    continue
                if e < top:
                    e = top
                if e < norms[taken | bit]:
                    norms[taken | bit] = e
        return norms[full]
    inv = 1.0 / p
    tops, sums = [0.0] * (full + 1), [0.0] * (full + 1)
    for taken in range(full):
        if norms[taken] == INF:
            continue
        top, s = tops[taken], sums[taken]
        for bit, e in zip(bits, rows[taken.bit_count()]):
            if taken & bit:
                continue
            if e > top:
                t, u = e, s * (top / e) ** p + 1.0
            elif top > 0.0:
                t, u = top, s + (e / top) ** p
            else:  # every entry so far, and e, is 0
                t, u = top, s
            norm = t * u ** inv
            grown = taken | bit
            if norm < norms[grown]:
                norms[grown], tops[grown], sums[grown] = norm, t, u
    return norms[full]
