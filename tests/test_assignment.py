import itertools
import math
import random
import tracemalloc

import pytest

from pdmetric import assignment
from pdmetric.assignment import (
    EXHAUSTIVE_LIMIT,
    AssignmentResult,
    bottleneck_assignment,
    exhaustive_min,
    hopcroft_karp,
    hungarian,
    lex_smallest_matching,
    min_cost_assignment,
)
from pdmetric.diagram import diagram_from_list
from pdmetric.errors import SizeLimitError
from pdmetric.metric_core import INF, lp_norm
from pdmetric.spaces import HalfPlaneSpace
from pdmetric.wasserstein import (
    Costs,
    _compact_assignment,
    _powers,
    _solve,
    _space_costs,
)


def brute_total(costs):
    """Plain-python oracle: the minimum assignment cost over permutations."""
    n = len(costs)
    return min(
        math.fsum(costs[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def brute_minimax(costs):
    n = len(costs)
    return min(
        max(costs[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def random_matrix(rng, n, with_inf=0.0):
    return [
        [INF if rng.random() < with_inf else rng.uniform(0.0, 10.0) for _ in range(n)]
        for _ in range(n)
    ]


def test_hungarian_matches_brute_force():
    rng = random.Random(424242)
    for _ in range(60):
        n = rng.randint(1, 7)
        costs = random_matrix(rng, n)
        total, perm, u, v = hungarian(costs)
        assert total == pytest.approx(brute_total(costs), abs=1e-9)
        assert sorted(perm) == list(range(n))
        assert total == pytest.approx(
            math.fsum(costs[i][perm[i]] for i in range(n)), abs=1e-9
        )


def test_hungarian_duals_are_feasible_and_tight():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        costs = random_matrix(rng, n)
        total, perm, u, v = hungarian(costs)
        for i in range(n):
            for j in range(n):
                assert u[i] + v[j] <= costs[i][j] + 1e-9
        # Complementary slackness and strong duality.
        for i in range(n):
            assert u[i] + v[perm[i]] == pytest.approx(costs[i][perm[i]], abs=1e-8)
        assert math.fsum(u) + math.fsum(v) == pytest.approx(total, abs=1e-8)


def test_min_cost_assignment_empty():
    result = min_cost_assignment([])
    assert result.total == 0.0
    assert result.permutation == ()
    assert result.u == () and result.v == ()


def test_min_cost_assignment_with_infinite_entries():
    costs = [
        [1.0, INF],
        [INF, 2.0],
    ]
    result = min_cost_assignment(costs)
    assert result.total == 3.0
    assert result.permutation == (0, 1)
    assert result.u is not None
    # Duals certify the optimum over the finite edges.
    assert math.fsum(result.u) + math.fsum(result.v) == pytest.approx(3.0)


def test_min_cost_assignment_infeasible():
    costs = [
        [INF, INF],
        [1.0, 1.0],
    ]
    result = min_cost_assignment(costs)
    assert result.total == INF
    assert sorted(result.permutation) == [0, 1]
    assert result.u is None and result.v is None


def test_min_cost_assignment_matches_brute_with_sparse_inf():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        costs = random_matrix(rng, n, with_inf=0.2)
        expected = brute_total(costs)
        got = min_cost_assignment(costs).total
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, abs=1e-9)


def padded_matrix(rng, kind, n, m):
    """The (n+m)-square matrix of a diagram pair: atom costs, each left atom's
    own basepoint cost repeated n times, the right atoms' basepoint costs and
    the m x n zero corner.  kind "ties" draws integers, "inf" forbids some
    atom pairs and some left atoms' basepoint pairings."""
    def entry():
        return float(rng.randint(0, 3)) if kind == "ties" else rng.uniform(0.0, 10.0)

    rows = []
    for _ in range(n):
        base = INF if kind == "inf" and rng.random() < 0.2 else entry()
        atoms = [INF if kind == "inf" and rng.random() < 0.3 else entry() for _ in range(m)]
        rows.append(atoms + [base] * n)
    right = [entry() for _ in range(m)]
    return rows + [right + [0.0] * n for _ in range(m)]


def padded_square(costs):
    """A k x k matrix as a padded problem with n = m = k: every basepoint
    cost inf and the pad block 0.  Its optima are the matrix's optima with
    pads matched to pads, so its lexicographically smallest optimum starts
    with the matrix's and its lp value and bottleneck value are the matrix's."""
    k = len(costs)
    return [list(row) + [INF] * k for row in costs] + [[INF] * k + [0.0] * k for _ in costs]


def as_costs(padded, n):
    """The Costs record of a padded matrix whose first n rows are atoms."""
    m = len(padded) - n
    return Costs([row[:m] for row in padded[:n]], [row[m] for row in padded[:n]],
                 padded[n][:m] if m else [])


def test_hungarian_on_padded_structure_matches_oracle():
    rng = random.Random(2016)
    feasible = 0
    for trial in range(300):
        n = rng.randint(0, 5)
        m = rng.randint(0 if n else 1, 8 - n)
        costs = padded_matrix(rng, ("random", "ties", "inf")[trial % 3], n, m)
        expected = exhaustive_min(costs, 1.0)
        total, perm, u, v = hungarian(costs)
        result = min_cost_assignment(costs)
        if math.isinf(expected):
            assert math.isinf(total) and (perm, u, v) == (None, None, None)
            assert math.isinf(result.total) and result.u is None
            continue
        feasible += 1
        assert total == pytest.approx(expected, abs=1e-9)
        assert result.total == total and result.permutation == tuple(perm)
        r = n + m
        for i in range(r):
            assert u[i] + v[perm[i]] == pytest.approx(costs[i][perm[i]], abs=1e-9)
            for j in range(r):
                assert u[i] + v[j] <= costs[i][j] + 1e-9
    assert feasible >= 250


def brute_shared(costs):
    """Minimum total over assignments in which only the last column repeats."""
    k = len(costs[0])
    return min(
        (math.fsum(costs[i][j] for i, j in enumerate(cols))
         for cols in itertools.product(range(k), repeat=len(costs))
         if len({j for j in cols if j != k - 1}) == sum(j != k - 1 for j in cols)),
        default=INF,
    )


def brute_total_rect(costs, k):
    return min((math.fsum(row[j] for row, j in zip(costs, cols))
                for cols in itertools.permutations(range(k), len(costs))), default=INF)


def test_hungarian_on_rectangular_and_shared_matrices():
    rng = random.Random(2017)
    for trial in range(200):
        shared = trial % 2 == 0
        k = rng.randint(1, 5)
        n = rng.randint(1, 5) if shared else rng.randint(1, k)
        costs = [[INF if rng.random() < 0.15 else float(rng.randint(-3, 3)) for _ in range(k)]
                 for _ in range(n)]
        expected = brute_shared(costs) if shared else brute_total_rect(costs, k)
        total, perm, u, v = hungarian(costs, shared)
        if math.isinf(expected):
            assert (total, perm, u, v) == (INF, None, None, None)
            if not shared:
                result = min_cost_assignment(costs)
                assert math.isinf(result.total) and len(result.permutation) == n
            continue
        assert total == expected
        owned = [j for j in perm if not (shared and j == k - 1)]
        assert len(owned) == len(set(owned))
        for i in range(n):
            assert u[i] + v[perm[i]] == costs[i][perm[i]]
            for j in range(k):
                assert u[i] + v[j] <= costs[i][j]
        assert all(vj <= 0.0 for vj in v)
        assert all(v[j] == 0.0 for j in range(k) if j not in perm)
        if shared:
            assert v[-1] == 0.0


def test_compact_solve_on_padded_structure_matches_oracle():
    # Integer ties and zero basepoint costs: compact entries w_ij - b_j are
    # exact, so the compact optimum plus sum b_j is the padded optimum.
    rng = random.Random(2021)
    lifted = 0
    for trial in range(400):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8 - n)
        costs = padded_matrix(rng, "ties", n, m)
        for row in costs[:n]:
            row[m:] = [0.0 if rng.random() < 0.3 else row[m]] * n
        b = costs[n][:m]
        expected = exhaustive_min(costs, 1.0)
        compact = [[c - bj for c, bj in zip(row, b)] + [row[m]] for row in costs[:n]]
        total = hungarian(compact, shared=True)[0] + math.fsum(b)
        assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)
        result = _compact_assignment(as_costs(costs, n))
        if result is None:  # declined: the optimum is 0 beside entries up to 3
            assert expected == 0.0
            continue
        lifted += 1
        perm, u, v = result.permutation, result.u, result.v
        assert sorted(perm) == list(range(n + m))
        assert result.total == total == math.fsum(costs[i][j] for i, j in enumerate(perm))
        scale = 1e-12 * max(map(max, costs))
        for i, row in enumerate(costs):
            assert u[i] + v[perm[i]] == pytest.approx(row[perm[i]], abs=scale)
            for j, c in enumerate(row):
                assert u[i] + v[j] <= c + scale
    assert lifted >= 300


def test_accepted_compact_optimum_is_far_above_underflow():
    # At p > 1 the compact solve runs on powers over the largest finite cost
    # `top`, so one of them is 1: an a_i, a b_j, or a c_ij with c_ij - b_j or
    # b_j at least 1/2.  So the cancellation guard declines every total below
    # r 2^-12, far above where underflow could decide the optimum; only
    # top == 0 is accepted lower, at a total of 0.
    rng = random.Random(1292)
    seen = {"accepted": 0, "declined": 0, "top 0": 0}
    for trial in range(2000):
        p = (1.5, 2.0, 7.0, 64.0, 1e4)[trial % 5]
        n = rng.randint(0, 5)
        m = rng.randint(0 if n else 1, 5)
        scale = 0.0 if trial % 10 == 9 else 10.0 ** rng.uniform(-300.0, 300.0)

        def entry():
            roll = rng.random()
            if roll < 0.2:
                return 0.0
            if roll < 0.3 and scale:
                return 5e-324 * rng.randint(1, 2 ** 20)  # subnormal
            return scale * rng.random()

        costs = [[INF if rng.random() < 0.15 else entry() for _ in range(m)] + [entry()] * n
                 for _ in range(n)]
        right = [entry() for _ in range(m)]
        costs += [right + [0.0] * n for _ in range(m)]
        top = max((c for row in costs for c in row if c < INF), default=0.0)
        result = _compact_assignment(_powers(as_costs(costs, n), p, top))
        if result is None:
            seen["declined"] += 1
        elif top == 0.0:
            assert result.total == 0.0
            seen["top 0"] += 1
        else:
            assert result.total >= (n + m) * 2.0 ** -12
            seen["accepted"] += 1
    assert min(seen.values()) >= 150, seen


@pytest.mark.parametrize("n, m", [(0, 1), (0, 4), (1, 0), (4, 0)])
def test_compact_solve_with_an_empty_side(n, m):
    # One diagram empty: every atom takes a pad, so the lifted permutation
    # is the identity, and the lifted duals are feasible and tight.  With no
    # atom rows the lifted v is the right atoms' basepoint costs.
    costs = padded_matrix(random.Random(2025 + 10 * n + m), "random", n, m)
    result = _compact_assignment(as_costs(costs, n))
    r = n + m
    assert result.permutation == tuple(range(r))
    assert result.total == math.fsum(costs[i][i] for i in range(r))
    if n == 0:
        assert result.u == (0.0,) * m and result.v == tuple(costs[-1])
    else:
        assert result.v == (0.0,) * n
    for i, row in enumerate(costs):
        assert result.u[i] + result.v[i] == pytest.approx(row[i], abs=1e-12)
        for j, c in enumerate(row):
            assert result.u[i] + result.v[j] <= c + 1e-12


def test_bottleneck_assignment_on_a_long_augmenting_path():
    # A warm-started probe at threshold 2 must shift the whole diagonal
    # chain along one augmenting path 1,200 rows long.
    n = 1200
    costs = [[3.0] * n for _ in range(n)]
    for i in range(n):
        costs[i][i] = 2.0
        if i + 1 < n:
            costs[i][i + 1] = 1.0
    costs[0][1] = 0.0
    value = bottleneck_assignment(*as_costs(padded_square(costs), n))
    assert value == 2.0
    size, perm = hopcroft_karp([[j for j, c in enumerate(row) if c <= value] for row in costs], n)
    assert size == n
    assert max(costs[i][j] for i, j in enumerate(perm)) == 2.0


def test_min_cost_assignment_infeasible_at_last_row():
    # Rows 0-2 match at once; only row 3 finds no free finite column.  The
    # permutation extends a maximum finite matching greedily, as before the
    # solver detected infeasibility itself.
    costs = [
        [1.0, INF, 2.0, 3.0],
        [2.0, INF, 1.0, 3.0],
        [3.0, INF, 3.0, 1.0],
        [1.0, INF, 1.0, 1.0],
    ]
    assert hungarian(costs) == (INF, None, None, None)
    assert min_cost_assignment(costs) == AssignmentResult(INF, (0, 2, 3, 1), None, None)


def test_duals_never_exceed_the_optimum():
    # The equality-subgraph tolerance of the tie-break is relative to the
    # optimum, so the rounding of c - u - v must be too.
    rng = random.Random(11)
    checked = 0
    for trial in range(1200):
        n = rng.randint(0, 9)
        m = rng.randint(0 if n else 1, 9)
        p = (1.0, 2.0, 3.5)[trial % 3]
        costs = [[c ** p for c in row]
                 for row in padded_matrix(rng, ("random", "ties", "inf")[trial // 3 % 3], n, m)]
        result = min_cost_assignment(costs)
        if result.u is None:
            continue
        assert max(map(abs, result.u + result.v)) <= result.total * (1.0 + 1e-9)
        checked += 1
    assert checked >= 1000


def test_square_solve_leaves_the_largest_pad_duals_tight():
    # The tie-break lets the pad rows an assignment leaves over take pad
    # columns at 0.  That is exact when some pad row and pad column are
    # tight at the largest pad duals, as on the compact solve, where both
    # are 0; the square solve must keep it too, also when every optimum
    # sends all left atoms to the diagonal.
    rng = random.Random(5)
    seen = {"all on the diagonal": 0, "not all": 0}
    for trial in range(1500):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        costs = padded_matrix(rng, ("random", "ties", "inf")[trial % 3], n, m)
        if trial % 2:  # basepoint costs far below the atom costs
            costs = [[c * 1e-3 if (i < n) != (j < m) else c for j, c in enumerate(row)]
                     for i, row in enumerate(costs)]
        p = (1.0, 2.0, 7.0)[trial // 3 % 3]
        result = min_cost_assignment([[c ** p for c in row] for row in costs])
        if result.u is None:
            continue
        assert 0.0 - max(result.u[n:]) - max(result.v[m:]) <= 1e-9 * result.total / (n + m)
        seen["all on the diagonal" if min(result.permutation[:n]) >= m else "not all"] += 1
    assert min(seen.values()) >= 300, seen


def test_bottleneck_assignment_matches_brute():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 7)
        costs = random_matrix(rng, n, with_inf=0.1)
        value = bottleneck_assignment(*as_costs(padded_square(costs), n))
        perm = _solve(as_costs(padded_square(costs), n), INF).permutation()[:n]
        assert sorted(perm) == list(range(n))
        expected = brute_minimax(costs)
        if math.isinf(expected):
            assert math.isinf(value)
        else:
            assert value == pytest.approx(expected, abs=0.0)
            # The value is attained by the matching built at it.
            assert max(costs[i][perm[i]] for i in range(n)) == value


def test_bottleneck_empty():
    assert bottleneck_assignment(*as_costs(padded_square([]), 0)) == 0.0
    assert bottleneck_assignment([], [], []) == 0.0


def bottleneck_instances(rng, count):
    """Tie-heavy (costs, n, oracle) triples.  Padded matrices of integer-grid
    half-plane diagrams, n + m <= 9, some with immortal points (infinite
    basepoint and cross costs) and some with an empty side, are their own
    oracle; square integer matrices with forbidden entries, k <= 7, are the
    oracle of their padded_square embedding, for which n is k."""
    space = HalfPlaneSpace(INF, INF, extended=True)
    for trial in range(count):
        kind = trial % 4
        if kind == 3:
            r = rng.randint(1, 7)
            square = [[INF if rng.random() < 0.15 else float(rng.randint(0, 3)) for _ in range(r)]
                      for _ in range(r)]
            yield padded_square(square), r, square
            continue
        r = 9 if trial % 160 in (1, 2) else 8 if trial % 40 in (5, 6) else rng.randint(0, 7)
        n = rng.choice((0, r)) if kind == 0 else rng.randint(0, r)
        sides = []
        for k in (n, r - n):
            births = [rng.randint(0, 3) for _ in range(k)]
            sides.append(diagram_from_list(
                [(float(b), INF if kind == 2 and rng.random() < 0.25 else float(b + rng.randint(1, 3)))
                 for b in births], space))
        costs = _space_costs(*sides).square()
        yield costs, n, costs


def test_bottleneck_value_matches_exhaustive_oracle():
    rng = random.Random(1107)
    seen = {"padded": 0, "infeasible": 0, "empty side": 0, "square": 0, "r = 9": 0}
    for costs, n, oracle in bottleneck_instances(rng, 2700):
        value = bottleneck_assignment(*as_costs(costs, n))
        assert value == exhaustive_min(oracle, INF)
        seen["padded"] += oracle is costs
        seen["infeasible"] += math.isinf(value)
        seen["empty side"] += n in (0, len(costs))
        seen["square"] += oracle is not costs
        seen["r = 9"] += len(costs) == 9
    assert seen["padded"] >= 2000
    assert min(seen.values()) >= 30, seen


def search_lower_bound(c, a, b):
    """The largest, over atoms of both sides, of min(basepoint cost, cheapest atom cost)."""
    return max(min(x, min(entries)) for x, entries in [*zip(a, c), *zip(b, zip(*c))])


def test_bottleneck_search_probes_its_lower_bound_first(monkeypatch):
    # No threshold below the largest, over atoms of both sides, of
    # min(basepoint cost, cheapest atom cost) is feasible, and the search
    # probes that bound first.  Where it is the value, one probe ends the
    # search: at most one run on the rows and one on the columns.
    rng = random.Random(1108)
    runs = []
    cold = assignment.has_perfect_matching
    monkeypatch.setattr(assignment, "has_perfect_matching",
                        lambda *args: runs.append(args) or cold(*args))
    seen = {"at the bound": 0, "above it": 0}
    for costs, n, oracle in bottleneck_instances(rng, 600):
        c, a, b = as_costs(costs, n)
        if not a or not b:
            continue
        runs.clear()
        value = bottleneck_assignment(c, a, b)
        assert value == exhaustive_min(oracle, INF)
        low = search_lower_bound(c, a, b)
        assert value >= low
        if value == low:
            assert len(runs) <= 2
        seen["at the bound" if value == low else "above it"] += 1
    assert min(seen.values()) >= 30, seen


def test_bottleneck_warm_started_probes_match_a_cold_solve(monkeypatch):
    # Below 5 every atom must be matched, and 50 columns cannot all be
    # covered by 40 rows; right atom 0 must be matched below 1e6, left atom
    # 0 is 0.5 from it and every other left atom about 1e3.  So the search's
    # lower bound, the largest over atoms of min(basepoint cost, cheapest
    # atom cost), is 0.5, and the value lies above it, among the basepoint
    # costs in [5, 6].  The row runs saturate while the column run keeps
    # failing, and each failed probe hands both matchings to the next.
    rng = random.Random(5)
    n, m = 40, 50
    rows = [[1e3 + rng.random() if j == 0 else rng.random() for j in range(m)] for _ in range(n)]
    rows[0][0] = 0.5
    costs = [row + [5.0 + rng.random()] * n for row in rows]
    costs += [[1e6] + [5.0 + rng.random() for _ in range(m - 1)] + [0.0] * n] * m
    probes = []
    cold = assignment.has_perfect_matching

    def recording(adjacency, n_right, start=None):
        probes.append((n_right, sum(j != -1 for j in start)))
        return cold(adjacency, n_right, start)

    monkeypatch.setattr(assignment, "has_perfect_matching", recording)
    c, a, b = as_costs(costs, n)
    value = bottleneck_assignment(c, a, b)
    assert len(probes) >= 12
    assert sum(k == m and warm > 0 for k, warm in probes) >= 5  # row runs
    assert sum(k == n and warm > 0 for k, warm in probes) >= 5  # column runs
    low = search_lower_bound(c, a, b)
    assert low == 0.5 and 5.0 < value < 6.0
    # Cold: the square threshold graph is perfect at the value, not below it.
    r = n + m
    below = max(c for row in costs for c in row if c < value)
    assert hopcroft_karp([[j for j, c in enumerate(row) if c <= value] for row in costs], r)[0] == r
    assert hopcroft_karp([[j for j, c in enumerate(row) if c <= below] for row in costs], r)[0] < r


def test_hopcroft_karp():
    # Left 0 connects to both, left 1 only to 0: perfect matching exists.
    size, match = hopcroft_karp([[0, 1], [0]], 2)
    assert size == 2
    assert match[1] == 0 and match[0] == 1
    # Both rows demand the same single column: no perfect matching.
    size, match = hopcroft_karp([[0], [0]], 2)
    assert size == 1
    size, match = hopcroft_karp([[], []], 2)
    assert size == 0
    # Grown from a start that blocks row 1, through the one augmenting path.
    size, match = hopcroft_karp([[0, 1], [0]], 2, start=[0, -1])
    assert size == 2 and match == [1, 0]
    assert hopcroft_karp([[0], [0]], 2, start=[-1, 0]) == (1, [-1, 0])


def test_hopcroft_karp_on_a_long_augmenting_path():
    # The start leaves row n-1 and column 0 free; the one augmenting path
    # shifts every row down the chain.
    n = 1500
    chain = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    start = [i + 1 for i in range(n - 1)] + [-1]
    assert hopcroft_karp(chain, n, start) == (n, list(range(n)))


def only_finite_on(perm, rng):
    """A matrix that is inf off the entries perm picks, so perm is the one finite assignment."""
    n = len(perm)
    return [[rng.uniform(0.0, 10.0) if perm[i] == j else INF for j in range(n)]
            for i in range(n)]


# Entries that tie, vanish, are forbidden, or sit at either end of the float range.
ENTRY_KINDS = [
    lambda rng: rng.uniform(0.0, 10.0),
    lambda rng: float(rng.randint(0, 2)),
    lambda rng: 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 10.0),
    lambda rng: INF if rng.random() < 0.5 else rng.uniform(0.0, 10.0),
    lambda rng: rng.choice([1e-300, 1e300]) * rng.uniform(1.0, 10.0),
    lambda rng: rng.choice([0.0, 5e-324, 1e-310, 2e-308]) * rng.randint(1, 9),
]


def test_exhaustive_min_matches_pure_python():
    # The oracle against the literal enumeration of every permutation.  The
    # inf matrices leave one finite permutation of 8 columns: rows 1024, 1023
    # and the last of their table in lexicographic order.
    rng = random.Random(99)
    table = list(itertools.permutations(range(8)))
    matrices = [[[kind(rng) for _ in range(n)] for _ in range(n)]
                for kind in ENTRY_KINDS for n in range(1, 7) for _ in range(2)]
    matrices += [random_matrix(rng, 7), random_matrix(rng, 8, with_inf=0.6)]
    matrices += [only_finite_on(table[row], rng) for row in (1024, 1023, -1)]
    for costs in matrices:
        n = len(costs)
        # A permutation that takes an inf entry has lp value inf at every p.
        picks = [picked for perm in itertools.permutations(range(n))
                 if INF not in (picked := [costs[i][perm[i]] for i in range(n)])]
        for p in (1.0, 1.5, 2.0, 3.5, 7.0, 64.0, 200.0, 1e4, INF):
            got = exhaustive_min(costs, p)
            if p == INF:
                assert got == min((max(picked) for picked in picks), default=INF)
                continue
            expected = min((lp_norm(picked, p) for picked in picks), default=INF)
            if 0.0 in (got, expected) or INF in (got, expected):
                assert got == expected
            else:
                assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, INF])
def test_exhaustive_min_memory_stays_bounded(p):
    # A call keeps a few numbers per column subset, 2^9 of them, far below
    # the 26 MB one float copy of the 9! x 9 permutation table would take.
    n = EXHAUSTIVE_LIMIT
    costs = random_matrix(random.Random(6), n)
    exhaustive_min(costs, p)
    tracemalloc.start()
    try:
        exhaustive_min(costs, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_exhaustive_min_guard():
    n = EXHAUSTIVE_LIMIT + 1
    costs = [[1.0] * n for _ in range(n)]
    with pytest.raises(SizeLimitError):
        exhaustive_min(costs, 1.0)


@pytest.mark.parametrize("scale", [1e10, 1e-7])
@pytest.mark.parametrize("p", [40.0, 60.0, 200.0])
def test_exhaustive_min_at_extreme_scales(scale, p):
    # W_p scales linearly; c ** p itself over- or underflows at these scales.
    rng = random.Random(5)
    costs = random_matrix(rng, 5)
    scaled = [[c * scale for c in row] for row in costs]
    assert exhaustive_min(scaled, p) == pytest.approx(
        scale * exhaustive_min(costs, p), rel=1e-12
    )
    assert exhaustive_min([[scale, scale], [scale, scale]], p) == pytest.approx(
        scale * 2.0 ** (1.0 / p), rel=1e-12
    )
    # Mixed scales: at p = 200 every entry of the optimum is below
    # 2^(-1074/p) c_max, so powers taken over c_max would all be 0.
    mixed = [[0.02, 0.01, 1.0], [0.01, 0.02, 1.0], [1.0, 1.0, 0.0]]
    assert exhaustive_min([[c * scale for c in row] for row in mixed], p) == pytest.approx(
        scale * lp_norm([0.01, 0.01], p), rel=1e-12
    )


def test_lex_smallest_matching_breaks_ties():
    # Every permutation has the same total; the identity is lexicographically
    # least.
    costs = [[1.0] * 4 for _ in range(4)]
    assert _solve(as_costs(padded_square(costs), 4), 1.0).permutation()[:4] == (0, 1, 2, 3)
    assert _solve(as_costs(padded_square(costs), 4), INF).permutation()[:4] == (0, 1, 2, 3)
    complete = [list(range(4)) for _ in range(4)]
    assert lex_smallest_matching(complete, [False] * 4, [3, 2, 1, 0]) == (0, 1, 2, 3)
    # Two optimal permutations: (0, 1) and (1, 0); prefer (0, 1).
    costs = [[2.0, 2.0], [2.0, 2.0]]
    assert _solve(as_costs(padded_square(costs), 2), 1.0).permutation()[:2] == (0, 1)
    assert lex_smallest_matching([[0, 1], [0, 1]], [False] * 2, [1, 0]) == (0, 1)


def test_lex_smallest_matching_respects_optimality():
    costs = [
        [0.0, 5.0],
        [5.0, 0.0],
    ]
    assert _solve(as_costs(padded_square(costs), 2), 1.0).permutation()[:2] == (0, 1)
    assert _solve(as_costs(padded_square(costs), 2), INF).permutation()[:2] == (0, 1)
    # Only the identity is a perfect matching of this graph.
    assert lex_smallest_matching([[0, 1], [1]], [False] * 2, [0, 1]) == (0, 1)


def test_lex_smallest_matching_empty():
    assert lex_smallest_matching([], [], []) == ()
    assert _solve(as_costs(padded_square([]), 0), 1.0).permutation() == ()
    assert _solve(as_costs(padded_square([]), 0), INF).permutation() == ()


def first_compact_assignment(adjacency, optional):
    """The least feasible tuple by enumeration: one column per row, no atom
    column twice, every column that is not optional taken, the diagonal m
    (any number of rows) last."""
    m = len(optional)
    for cols in itertools.product(*(sorted(row) for row in adjacency)):
        atoms = [j for j in cols if j < m]
        covered = all(free or j in atoms for j, free in enumerate(optional))
        if covered and len(atoms) == len(set(atoms)):
            return cols
    return None


def test_lex_smallest_matching_on_compact_graphs_matches_enumeration():
    # n rows against m columns and a shared diagonal, some columns optional:
    # the rows that leave the diagonal or an optional column, and the pad
    # node that takes them, must all be searched.  Here row 0 can take
    # column 0 only if row 1 moves onto the diagonal while the pad node
    # takes column 1, which row 0 gives up.
    assert lex_smallest_matching([[0, 1], [0, 2]], [False, True], [1, 0]) == (0, 2)
    rng = random.Random(1717)
    seen = {"diagonal": 0, "optional": 0, "moved": 0}
    for trial in range(1000):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        start, free = [], list(range(m))
        for _ in range(n):
            j = m if not free or rng.random() < 0.1 else free.pop(rng.randrange(len(free)))
            start.append(j)
        optional = [j in free or rng.random() < 0.5 for j in range(m)]
        adjacency = [sorted({s} | {j for j in range(m + 1) if rng.random() < 0.5}) for s in start]
        expected = first_compact_assignment(adjacency, optional)
        assert lex_smallest_matching(adjacency, optional, start) == expected
        seen["diagonal"] += m in expected
        seen["optional"] += len(set(expected) - {m}) < m
        seen["moved"] += expected != tuple(start)
    assert min(seen.values()) >= 200, seen


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, INF])
def test_tie_break_is_first_optimum_in_permutation_order(p):
    rng = random.Random(20240 + (0 if p == INF else int(p)))
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 7)
        kind = trial % 5
        if kind == 0:
            costs = random_matrix(rng, n, with_inf=0.15)
        elif kind < 4:
            # Integer ties, with forbidden entries (kind 2) or with ties
            # broken by 1e-6, far above the tie tolerance (kind 3).
            costs = [
                [INF if kind == 2 and rng.random() < 0.15
                 else rng.randint(0, 3) + (rng.choice([0.0, 1e-6]) if kind == 3 else 0.0)
                 for _ in range(n)]
                for _ in range(n)
            ]
        else:
            # A small optimum, with ties, next to entries 1e5 to 1e7 times
            # larger: the tie tolerance must follow the optimum, not c_max.
            costs = [
                [rng.randint(1, 3) * 1e-4 if rng.random() < 0.7
                 else rng.randint(1, 3) * 10.0 ** rng.randint(1, 3)
                 for _ in range(n)]
                for _ in range(n)
            ]
        best = exhaustive_min(costs, p)
        if math.isinf(best):
            continue
        expected = next(
            perm for perm in itertools.permutations(range(n))
            if math.isclose(lp_norm([costs[i][perm[i]] for i in range(n)], p),
                            best, rel_tol=1e-9, abs_tol=0.0)
        )
        assert _solve(as_costs(padded_square(costs), n), p).permutation()[:n] == expected
        checked += 1
    assert checked >= 150
    # Padded problems with finite basepoint costs, which the tie-break reads
    # on the atoms and one diagonal: integer ties, zero costs, and now and
    # then an immortal row (basepoint cost inf) that sends the solve square.
    finite = 0
    for trial in range(120):
        n = rng.randint(0, 4)
        m = rng.randint(0 if n else 1, 7 - n)
        costs = padded_matrix(rng, "ties", n, m)
        for row in costs[:n]:
            roll = rng.random()
            if roll < 0.25:
                row[m:] = [0.0 if roll < 0.2 else INF] * n
        best = exhaustive_min(costs, p)
        if math.isinf(best):
            continue
        expected = next(
            perm for perm in itertools.permutations(range(n + m))
            if math.isclose(lp_norm([costs[i][j] for i, j in enumerate(perm)], p),
                            best, rel_tol=1e-9, abs_tol=0.0)
        )
        assert _solve(as_costs(costs, n), p).permutation() == expected
        finite += INF not in [row[m] for row in costs[:n]]
    assert finite >= 80
