"""Exact solvers for the square assignment problem.

hungarian        O(n^3) min-cost perfect matching with dual potentials
                 (u, v) satisfying u[i] + v[j] <= c[i][j] with equality on
                 matched pairs, so sum(u) + sum(v) equals the optimum.
hopcroft_karp    maximum bipartite matching, used for feasibility questions
                 (forbidden edges, bottleneck thresholds).
bottleneck_assignment
                 minimax matching by binary search over the distinct entries.
lex_smallest_matching
                 the deterministic tie-break: lexicographically smallest perfect
                 matching of the optimal duals' equality subgraph (or of the
                 bottleneck threshold graph), grown from the solver's matching.
exhaustive_min   brute-force enumeration over all permutations (vectorized),
                 guarded at n <= 9; the independent oracle for everything else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import SizeLimitError
from .metric_core import INF, as_exponent

if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_LIMIT = 9


def hungarian(costs) -> tuple[float, list[int], list[float], list[float]]:
    """Minimum-cost perfect matching on a square matrix of finite floats.

    Returns (total, perm, u, v) where perm[i] is the column matched to row
    i and (u, v) are feasible dual potentials tight on matched pairs.
    """
    n = len(costs)
    if n == 0:
        return 0.0, [], [], []
    # 1-indexed potentials with a dummy 0 slot, in the usual shortest
    # augmenting path formulation.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            row = costs[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        if match[j]:
            perm[match[j] - 1] = j - 1
    total = math.fsum(costs[i][perm[i]] for i in range(n))
    return total, perm, u[1:], v[1:]


def hopcroft_karp(adjacency: list[list[int]], n_right: int) -> tuple[int, list[int]]:
    """Maximum matching in a bipartite graph given as left adjacency lists.

    Returns (size, match_left) with match_left[i] the column matched to
    left node i, or -1.
    """
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    size = 0
    while True:
        # BFS layers from free left nodes.
        dist = [-1] * n_left
        queue = [i for i in range(n_left) if match_left[i] == -1]
        for i in queue:
            dist[i] = 0
        found_free = False
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for j in adjacency[i]:
                k = match_right[j]
                if k == -1:
                    found_free = True
                elif dist[k] == -1:
                    dist[k] = dist[i] + 1
                    queue.append(k)
        if not found_free:
            return size, match_left

        def dfs(i: int) -> bool:
            for j in adjacency[i]:
                k = match_right[j]
                if k == -1 or (dist[k] == dist[i] + 1 and dfs(k)):
                    match_left[i] = j
                    match_right[j] = i
                    return True
            dist[i] = -1
            return False

        for i in range(n_left):
            if match_left[i] == -1 and dfs(i):
                size += 1


def _finite_adjacency(costs) -> list[list[int]]:
    return [[j for j, c in enumerate(row) if not math.isinf(c)] for row in costs]


def _threshold_adjacency(costs, bound: float) -> list[list[int]]:
    return [[j for j, c in enumerate(row) if c <= bound] for row in costs]


def has_perfect_matching(adjacency: list[list[int]], n_right: int) -> bool:
    size, _ = hopcroft_karp(adjacency, n_right)
    return size == len(adjacency)


def _complete_greedily(n: int, match_left: list[int]) -> list[int]:
    """Extend a partial matching to a permutation, deterministically."""
    used = {j for j in match_left if j != -1}
    free_cols = iter(j for j in range(n) if j not in used)
    return [j if j != -1 else next(free_cols) for j in match_left]


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal value, realizing permutation, and dual potentials.

    Duals are omitted (None) when no finite-cost perfect matching exists;
    the permutation then realizes total == inf while matching as many
    finite edges as possible.
    """

    total: float
    permutation: tuple[int, ...]
    u: tuple[float, ...] | None
    v: tuple[float, ...] | None


def min_cost_assignment(costs) -> AssignmentResult:
    """Minimum-total assignment on a square matrix with entries in [0, inf].

    inf entries mark forbidden edges.  Feasibility is established first via
    maximum matching on the finite edges; if no perfect matching exists the
    total is inf and no duals are produced.
    """
    n = len(costs)
    if n == 0:
        return AssignmentResult(0.0, (), (), ())
    finite = [c for row in costs for c in row if not math.isinf(c)]
    if len(finite) < n * n:
        adjacency = _finite_adjacency(costs)
        size, match_left = hopcroft_karp(adjacency, n)
        if size < n:
            perm = _complete_greedily(n, match_left)
            return AssignmentResult(INF, tuple(perm), None, None)
        # A finite perfect matching exists, so an optimum never pays more
        # than the sum of all finite entries; any larger placeholder keeps
        # forbidden edges out of the solution.
        big = math.fsum(finite) + max(finite, default=0.0) + 1.0
        filled = [[big if math.isinf(c) else c for c in row] for row in costs]
        _, perm, u, v = hungarian(filled)
        total = math.fsum(costs[i][perm[i]] for i in range(n))
        return AssignmentResult(total, tuple(perm), tuple(u), tuple(v))
    total, perm, u, v = hungarian(costs)
    return AssignmentResult(total, tuple(perm), tuple(u), tuple(v))


def bottleneck_assignment(costs) -> tuple[float, tuple[int, ...]]:
    """Minimize the maximum matched entry; returns (value, permutation)."""
    n = len(costs)
    if n == 0:
        return 0.0, ()
    adjacency = _finite_adjacency(costs)
    size, match_left = hopcroft_karp(adjacency, n)
    if size < n:
        return INF, tuple(_complete_greedily(n, match_left))
    values = sorted({c for row in costs for c in row if not math.isinf(c)})
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if has_perfect_matching(_threshold_adjacency(costs, values[mid]), n):
            hi = mid
        else:
            lo = mid + 1
    value = values[lo]
    _, match_left = hopcroft_karp(_threshold_adjacency(costs, value), n)
    return value, tuple(match_left)


def lex_smallest_matching(adjacency: list[list[int]], perm) -> tuple[int, ...]:
    """Lexicographically smallest perfect matching of a bipartite graph.

    adjacency[i] lists row i's columns; perm is one perfect matching in it.
    Row by row, commit the smallest column on an alternating cycle through
    the current matching over uncommitted rows, and rotate along the cycle.
    """
    n = len(adjacency)
    match = list(perm)
    owner = [0] * n
    for i, j in enumerate(match):
        owner[j] = i
    rows_of: list[list[int]] = [[] for _ in range(n)]
    for i, cols in enumerate(adjacency):
        for j in cols:
            rows_of[j].append(i)
    for i in range(n):
        target = match[i]
        # step[k] (k > i): the column row k moves to on an alternating path
        # that ends at `target`, the column row i gives up.
        step = [-1] * n
        stack = [target]
        while stack:
            col = stack.pop()
            for k in rows_of[col]:
                if k > i and step[k] == -1:
                    step[k] = col
                    stack.append(match[k])
        best = min((j for j in adjacency[i] if j < target and step[owner[j]] != -1),
                   default=target)
        k, col = owner[best], best
        match[i], owner[best] = best, i
        while col != target:  # each row on the cycle moves on to its step
            col = step[k]
            match[k], owner[col], k = col, k, owner[col]
    return tuple(match)


_PERM_CACHE: dict[int, np.ndarray] = {}


def _permutation_array(n: int) -> np.ndarray:
    cached = _PERM_CACHE.get(n)
    if cached is None:
        import numpy as np
        cached = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        _PERM_CACHE[n] = cached
    return cached


def exhaustive_min(costs, p) -> float:
    """min over all permutations of the lp combination of matched entries.

    Enumerates every permutation outright, so it is the oracle the fast
    solvers are checked against.  Guarded at n <= EXHAUSTIVE_LIMIT.
    """
    p = as_exponent(p)
    n = len(costs)
    if n == 0:
        return 0.0
    if n > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(
            f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT}, got {n}"
        )
    import numpy as np
    matrix = np.asarray(costs, dtype=float)
    perms = _permutation_array(n)
    picked = matrix[np.arange(n)[None, :], perms]
    if p == INF:
        return float(picked.max(axis=1).min())
    # Each permutation's lp norm scaled by its own largest entry, as in
    # lp_norm, so that no scale or spread of input over- or underflows.
    top = picked.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = picked / top[:, None]
        np.power(ratio, p, out=ratio)
        norms = top * ratio.sum(axis=1) ** (1.0 / p)
    return float(np.where((top > 0.0) & np.isfinite(top), norms, top).min())
