"""Independent reference for W_p on HalfPlaneSpace(q=inf, p) diagrams.

Shares no code with the program: costs are built with numpy from the raw
points, finite p is solved by scipy's linear_sum_assignment on the padded
(c / c_max) ** p matrix and rescaled, and p = inf by a threshold search
with scipy's maximum_bipartite_matching.  scipy is imported only here,
after the timed loop, and is not a dependency of the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

REL_TOL = 1e-9
GAP_TOL = 1e-8
FEASIBILITY_TOL = 1e-9


def _expanded(points) -> np.ndarray:
    """Points repeated by multiplicity in canonical (birth, death) order."""
    return np.array(sorted(points), dtype=float).reshape(-1, 2)


def _lp(values, p: float) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if p == math.inf:
        return float(values.max())
    top = float(values.max())
    if top == 0.0:
        return 0.0
    return top * float(np.sum((values / top) ** p)) ** (1.0 / p)


def padded_costs(left, right, p: float) -> np.ndarray:
    """(n+m) x (n+m) costs: atoms of left then n pads, against atoms of right then m pads.

    Ground distance in the half plane with the diagonal collapsed: the
    l_inf distance, or the lp combination of both distances to the
    diagonal if that is shorter.  For q = inf the distance to the diagonal
    is half the lifetime.
    """
    a, b = _expanded(left), _expanded(right)
    n, m = len(a), len(b)
    sa = (a[:, 1] - a[:, 0]) / 2.0
    sb = (b[:, 1] - b[:, 0]) / 2.0
    direct = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                        np.abs(a[:, None, 1] - b[None, :, 1]))
    if p == math.inf:
        through = np.maximum(sa[:, None], sb[None, :])
    else:
        top = np.maximum(np.maximum(sa[:, None], sb[None, :]), np.finfo(float).tiny)
        through = top * ((sa[:, None] / top) ** p + (sb[None, :] / top) ** p) ** (1.0 / p)
    costs = np.zeros((n + m, n + m))
    costs[:n, :m] = np.minimum(direct, through)
    costs[:n, m:] = sa[:, None]
    costs[n:, :m] = sb[None, :]
    return costs


def _perfect_at(costs: np.ndarray, bound: float) -> bool:
    graph = csr_matrix((costs <= bound).astype(np.int8))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool(np.all(match >= 0))


def solve(costs: np.ndarray, p: float) -> float:
    """Optimal lp value of a square cost matrix."""
    if costs.size == 0:
        return 0.0
    if p == math.inf:
        values = np.unique(costs)
        lo, hi = 0, len(values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if _perfect_at(costs, values[mid]):
                hi = mid
            else:
                lo = mid + 1
        return float(values[lo])
    top = float(costs.max())
    if top == 0.0:
        return 0.0
    scaled = (costs / top) ** p
    rows, cols = linear_sum_assignment(scaled)
    return top * float(scaled[rows, cols].sum()) ** (1.0 / p)


class Reference:
    """Reference values, cached per diagram pair and exponent."""

    def __init__(self):
        self._values: dict = {}

    def value(self, left, right, p: float) -> float:
        key = (tuple(left), tuple(right), p)
        if key not in self._values:
            self._values[key] = solve(padded_costs(left, right, p), p)
        return self._values[key]

    def matching_problem(self, left, right, p, matching, value) -> str | None:
        """Check a JSON matching: every atom covered once, total == value, optimal costs."""
        n, m = len(left), len(right)
        pairs = matching["pairs"]
        lefts = sorted(q["left"] for q in pairs if q["left"] != "basepoint")
        rights = sorted(q["right"] for q in pairs if q["right"] != "basepoint")
        if lefts != list(range(n)) or rights != list(range(m)):
            return "matching does not cover every atom exactly once"
        if matching["total"] != value:
            return f"matching total {matching['total']!r} != value {value!r}"
        costs = padded_costs(left, right, p)
        own = []
        for q in pairs:
            i = q["left"] if q["left"] != "basepoint" else None
            j = q["right"] if q["right"] != "basepoint" else None
            if i is None:
                own.append(costs[n, j])
            elif j is None:
                own.append(costs[i, m])
            else:
                own.append(costs[i, j])
        cost = _lp(own, p)
        want = self.value(left, right, p)
        if not math.isclose(cost, want, rel_tol=REL_TOL, abs_tol=0.0):
            return f"matching costs {cost!r} under the reference, optimum {want!r}"
        return None

    def certificate_problem(self, left, right, cert) -> str | None:
        """Check a JSON KR certificate: zero gap and feasible potentials."""
        primal, dual = cert["primal"], cert["dual"]
        if abs(dual - primal) > GAP_TOL * max(1.0, abs(primal)):
            return f"duality gap {dual - primal!r}"
        want = self.value(left, right, 1.0)
        if not math.isclose(primal, want, rel_tol=REL_TOL, abs_tol=0.0):
            return f"primal {primal!r} != reference {want!r}"
        costs = padded_costs(left, right, 1.0)
        r = len(costs)
        y = np.asarray(cert["y"], dtype=float)
        if y.shape != (2 * r,):
            return f"expected {2 * r} potentials, got {y.shape}"
        violation = float(np.max(y[:r, None] - y[None, r:] - costs))
        if violation > FEASIBILITY_TOL:
            return f"feasibility violation {violation!r}"
        return None
