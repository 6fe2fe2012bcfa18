"""Metamorphic relations of the solver at size: scaling, translation and swap.

They hold in the mathematics, so they need no oracle, and they reach sizes
the brute-force oracle cannot:
- scaling every point by 2^k is exact in floats, so the value is exactly
  2^k times the original, with the same permutation;
- translating integer grid data by (s, s) leaves every cost bitwise the
  same, so the value and the matching are bitwise the same too;
- swapping the diagrams transposes the problem, whose value may round
  differently, by at most 4 ulps.

The point generators are copies of dense_points and grid_points in
perfbench/workloads.py, so that these tests do not import the benchmark.
"""

import math
import random

import pytest

from pdmetric.diagram import diagram_from_list
from pdmetric.spaces import halfplane_quotient
from pdmetric.wasserstein import solve, wasserstein_value

INF = math.inf
P_VALUES = (1.0, 2.0, 7.0, 64.0, INF)
SCALE_EXPONENTS = (-600, -40, 40, 600)
SHIFTS = (-7.0, 3.0, 2.0 ** 20)


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


GENERATORS = {"dense": dense_points, "grid": grid_points}

# (kind, n, m, q, p): a few pairs at size, one exponent each to keep tier-1
# quick, and every exponent against every ground q on small pairs.
CASES = ([("dense", 100, 107, 2.0, 1.0), ("dense", 100, 93, 1.0, 7.0),
          ("grid", 100, 107, 2.0, 2.0), ("grid", 100, 93, INF, 64.0),
          ("dense", 150, 143, INF, INF)]
         + [(kind, 3 + 7 * i, 30 - 6 * i, q, p)
            for kind in GENERATORS for i, p in enumerate(P_VALUES) for q in (1.0, 2.0, INF)])


def pair(index: int, kind: str, n: int, m: int, q: float, p: float, move=lambda x: x):
    rng = random.Random(f"metamorphic:{index}")
    space = halfplane_quotient(q, p)
    points = GENERATORS[kind]
    return (diagram_from_list([move(x) for x in points(rng, n)], space),
            diagram_from_list([move(x) for x in points(rng, m)], space))


def matched(solved) -> list[tuple]:
    return [(link.left, link.right, link.cost) for link in solved.matching().pairs]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_scaling_by_a_power_of_two_and_swapping_the_sides(index):
    kind, n, m, q, p = CASES[index]
    factor = 2.0 ** SCALE_EXPONENTS[index % len(SCALE_EXPONENTS)]
    alpha, beta = pair(index, kind, n, m, q, p)
    scaled = solve(*pair(index, kind, n, m, q, p, lambda x: (factor * x[0], factor * x[1])), p)
    plain = solve(alpha, beta, p)
    assert scaled.value == factor * plain.value
    assert scaled.permutation() == plain.permutation()
    swapped = wasserstein_value(beta, alpha, p)
    assert abs(swapped - plain.value) <= 4 * math.ulp(plain.value)


@pytest.mark.parametrize("index", [i for i, case in enumerate(CASES) if case[0] == "grid"])
def test_translating_grid_data_changes_no_bit(index):
    kind, n, m, q, p = CASES[index]
    shift = SHIFTS[index % len(SHIFTS)]
    plain = solve(*pair(index, kind, n, m, q, p), p)
    moved = solve(*pair(index, kind, n, m, q, p, lambda x: (x[0] + shift, x[1] + shift)), p)
    assert moved.value == plain.value
    assert matched(moved) == matched(plain)
