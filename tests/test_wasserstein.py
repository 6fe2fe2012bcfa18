import importlib
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from test_assignment import as_costs, padded_square

from pdmetric import cli
from pdmetric.assignment import exhaustive_min, min_cost_assignment
from pdmetric.diagram import diagram_from_list, empty_diagram
from pdmetric.errors import DomainError, PreconditionError, SizeLimitError
from pdmetric.io import load_diagram
from pdmetric.kr_duality import (
    certificate_of,
    duality_gap,
    feasibility_violation,
    kr_certificate,
    support_function,
    tightness_violation,
)
from pdmetric.metric_core import INF, FiniteSpace, lp_norm, remetrize
from pdmetric.spaces import halfplane_quotient
from pdmetric.wasserstein import (
    BASEPOINT,
    Matching,
    _solve,
    bottleneck,
    brute_force_wasserstein,
    solve,
    wasserstein,
    wasserstein_quotient_reduced,
    wasserstein_value,
)

# The package re-exports the function wasserstein under the module's name.
wasserstein_module = importlib.import_module("pdmetric.wasserstein")
assignment_module = importlib.import_module("pdmetric.assignment")
kr_duality_module = importlib.import_module("pdmetric.kr_duality")

GOLDEN = Path(__file__).parent / "golden"
Q_INF_P1 = halfplane_quotient(INF, 1.0)
Q_INF_PINF = halfplane_quotient(INF, INF)


def diagrams(space, *point_lists):
    return tuple(diagram_from_list(list(points), space) for points in point_lists)


# -- frozen values -----------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
def test_single_point_to_empty(p):
    space = halfplane_quotient(INF, p)
    alpha, beta = diagrams(space, [(0.0, 2.0)], [])
    # The only move is onto the diagonal at l-inf cost 1.
    assert wasserstein_value(alpha, beta, p) == pytest.approx(1.0)


def test_bottleneck_known_pair():
    alpha, beta = diagrams(Q_INF_PINF, [(0.0, 2.0)], [(0.0, 4.0)])
    value, matching = bottleneck(alpha, beta)
    assert value == pytest.approx(2.0)
    assert matching.pairs[0].left == 0 and matching.pairs[0].right == 0


def test_far_pair_routes_through_diagonal():
    alpha, beta = diagrams(Q_INF_PINF, [(0.0, 2.0)], [(10.0, 12.0)])
    # Killing both points costs max(1, 1) = 1, beating the direct move.
    assert wasserstein_value(alpha, beta, INF) == pytest.approx(1.0)


def test_w1_close_pair_moves_directly():
    alpha, beta = diagrams(Q_INF_P1, [(0.0, 2.0)], [(0.0, 3.0)])
    assert wasserstein_value(alpha, beta, 1.0) == pytest.approx(1.0)


def test_multiplicity_scales_w1():
    alpha, beta = diagrams(Q_INF_P1, [(0.0, 2.0)] * 3, [])
    assert wasserstein_value(alpha, beta, 1.0) == pytest.approx(3.0)


def test_identical_diagrams_at_zero():
    alpha, _ = diagrams(Q_INF_P1, [(0.0, 2.0), (1.0, 5.0)], [])
    assert wasserstein_value(alpha, alpha, 1.0) == 0.0
    value, matching = wasserstein(alpha, alpha, 1.0)
    assert value == 0.0
    assert all(pair.cost == 0.0 for pair in matching.pairs)


def test_empty_empty():
    empty = empty_diagram(Q_INF_P1)
    assert wasserstein_value(empty, empty, 1.0) == 0.0
    value, matching = wasserstein(empty, empty, INF)
    assert value == 0.0 and matching.pairs == ()


# -- invariants -------------------------------------------------------------


def test_padding_is_exact():
    alpha, beta = diagrams(Q_INF_P1, [(0.0, 2.0), (3.0, 4.0)], [(1.0, 6.0)])
    padded_a = alpha + diagram_from_list([Q_INF_P1.basepoint] * 3, Q_INF_P1)
    assert padded_a == alpha
    assert wasserstein_value(padded_a, beta, 1.0) == wasserstein_value(
        alpha, beta, 1.0
    )


def test_matching_covers_atoms_and_reprices():
    alpha, beta = diagrams(
        Q_INF_P1, [(0.0, 2.0), (3.0, 4.0), (3.0, 4.0)], [(0.0, 4.0)]
    )
    value, matching = wasserstein(alpha, beta, 1.0)
    lefts = [pair.left for pair in matching.pairs if pair.left != BASEPOINT]
    rights = [pair.right for pair in matching.pairs if pair.right != BASEPOINT]
    assert sorted(lefts) == [0, 1, 2]
    assert sorted(rights) == [0]
    assert value == pytest.approx(lp_norm(matching.costs(), 1.0))
    assert matching.total == value


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
def test_matches_brute_force(p):
    rng = random.Random(2024)
    space = halfplane_quotient(2.0, p)
    for _ in range(50):
        alpha = diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 4))], space
        )
        beta = diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 4))], space
        )
        fast = wasserstein_value(alpha, beta, p)
        slow = brute_force_wasserstein(alpha, beta, p)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_matching_total_is_lp_of_costs():
    rng = random.Random(5)
    for p in (1.0, 2.0, INF):
        space = halfplane_quotient(INF, p)
        for _ in range(20):
            alpha = diagram_from_list(
                [space.sample_point(rng) for _ in range(rng.randint(0, 3))], space
            )
            beta = diagram_from_list(
                [space.sample_point(rng) for _ in range(rng.randint(0, 3))], space
            )
            value, matching = wasserstein(alpha, beta, p)
            assert value == pytest.approx(lp_norm(matching.costs(), p), abs=1e-9)


def test_deterministic_matching():
    alpha, beta = diagrams(
        Q_INF_P1, [(0.0, 2.0), (0.0, 2.0)], [(0.0, 2.0), (0.0, 2.0)]
    )
    _, first = wasserstein(alpha, beta, 1.0)
    _, second = wasserstein(alpha, beta, 1.0)
    assert first.pairs == second.pairs
    # Ties broken lexicographically: atom k goes to atom k.
    assert [(pair.left, pair.right) for pair in first.pairs] == [
        (0, 0),
        (1, 1),
    ]


def test_large_exponent_is_the_true_wp():
    # 100 unit-persistence atoms against the empty diagram: W_p = 100^(1/p),
    # which stays continuous in p rather than collapsing onto W_inf = 1.
    for p in (63.0, 64.0, 200.0):
        alpha, beta = diagrams(halfplane_quotient(INF, p), [(0.0, 2.0)] * 100, [])
        expected = 100.0 ** (1.0 / p)
        assert wasserstein_value(alpha, beta, p) == pytest.approx(expected, rel=1e-12)
        assert wasserstein(alpha, beta, p)[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [64.0, 200.0])
def test_large_exponent_mixed_scale_against_oracle(p):
    # Entries spread over three decades: at these p most of them underflow
    # when raised over c_max, yet the value and the matching stay exact.
    rng = random.Random(int(p))
    for _ in range(40):
        n = rng.randint(2, 6)
        costs = [[10.0 ** rng.uniform(-3.0, 0.0) for _ in range(n)] for _ in range(n)]
        best = exhaustive_min(costs, p)
        assert _solve(as_costs(padded_square(costs), n), p).value == pytest.approx(best, rel=1e-9)
        perm = _solve(as_costs(padded_square(costs), n), p).permutation()[:n]
        assert lp_norm([costs[i][perm[i]] for i in range(n)], p) == pytest.approx(best, rel=1e-9)
    costs = [[0.02, 0.01, 1.0], [0.01, 0.02, 1.0], [1.0, 1.0, 0.0]]
    assert _solve(as_costs(padded_square(costs), 3), p).value == pytest.approx(
        lp_norm([0.01, 0.01], p), rel=1e-12)
    assert _solve(as_costs(padded_square(costs), 3), p).permutation()[:3] == (1, 0, 2)
    # An optimum of 0 beside entries whose powers underflow to 0.
    costs = [[1e-5, 0.0, 1.0], [0.0, 1e-5, 1.0], [1.0, 1.0, 0.0]]
    assert _solve(as_costs(padded_square(costs), 3), p).value == 0.0
    assert _solve(as_costs(padded_square(costs), 3), p).permutation()[:3] == (1, 0, 2)


@pytest.mark.parametrize("p", [2.0, 3.5, 200.0])
def test_matching_value_agrees_beside_large_atom(p):
    # Near-identical diagrams that share one atom of persistence 2e6: the
    # optimum is tiny next to the largest padded cost.  Births 2e-5 apart
    # let the moves reorder the atoms, so the identity is not optimal.
    space = halfplane_quotient(INF, p)
    rng = random.Random(7)
    for _ in range(10):
        points = [(k * 2e-5, 2.0 + 0.3 * k) for k in range(3)] + [(0.0, 2e6)]
        moved = [(b + rng.uniform(-1e-4, 1e-4), d + rng.uniform(-1e-4, 1e-4))
                 for b, d in points]
        alpha, beta = diagrams(space, points, moved)
        value = wasserstein_value(alpha, beta, p)
        assert value < 1e-3
        assert wasserstein(alpha, beta, p)[0] == pytest.approx(value, rel=1e-9)
        assert brute_force_wasserstein(alpha, beta, p) == pytest.approx(value, rel=1e-9)


def test_compact_solve_guard_on_near_identical_large_atoms():
    # Atoms of persistence 1e2 to 1e7 sharing one death, births 1e-13 to
    # 1e-7 apart, moved by as little: the compact entries w_ij - b_j cancel
    # to the optimum's size, so the solver must fall back to the square
    # matrix rather than trust them.
    rng = random.Random(2024)
    spaces = {p: halfplane_quotient(INF, p) for p in (1.0, 2.0, 3.5)}
    for trial in range(3000):
        p = (1.0, 2.0, 3.5)[trial % 3]
        eps = 10 ** rng.uniform(-13, -8)
        death = 10 ** rng.uniform(2, 7)
        points = [(rng.uniform(0.0, 10 * eps), death) for _ in range(rng.randint(2, 3))]
        moved = [(b + rng.uniform(-eps, eps), d) for b, d in points]
        if rng.random() < 0.5:
            moved.append((0.5, 0.5 + rng.uniform(0.0, eps)))
        alpha, beta = diagrams(spaces[p], *((points, moved) if trial % 2 else (moved, points)))
        expected = brute_force_wasserstein(alpha, beta, p)
        assert wasserstein_value(alpha, beta, p) == pytest.approx(expected, rel=1e-9)
        assert wasserstein(alpha, beta, p)[0] == pytest.approx(expected, rel=1e-9)


@pytest.fixture
def solve_calls(monkeypatch):
    """The solves wasserstein makes, in order: "bound" for bottleneck_assignment,
    "square" for min_cost_assignment and "compact" for a direct hungarian call,
    and "build" for each padded (n+m) x (n+m) matrix built (Costs.square)."""
    calls = []

    def recorder(name, solve):
        def recording(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        return recording

    for attr, name in [("bottleneck_assignment", "bound"), ("min_cost_assignment", "square"),
                       ("hungarian", "compact")]:
        monkeypatch.setattr(wasserstein_module, attr,
                            recorder(name, getattr(wasserstein_module, attr)))
    costs = wasserstein_module.Costs
    monkeypatch.setattr(costs, "square", recorder("build", costs.square))
    return calls


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_immortal_atoms_take_the_compact_solve(p, solve_calls):
    # Immortal atoms (infinite basepoint cost) take the compact solve: an
    # immortal column is not shifted, and on metric data an immortal row can
    # take only an immortal column.  No padded matrix is built.
    calls = solve_calls
    space = halfplane_quotient(INF, p, extended=True)
    alpha, beta = diagrams(space, [(0.0, INF), (1.0, 3.0), (2.0, 2.5)], [(0.5, INF), (1.0, 3.5)])
    expected = brute_force_wasserstein(alpha, beta, p)
    calls.clear()  # the oracle builds the square matrix
    assert wasserstein_value(alpha, beta, p) == pytest.approx(expected, rel=1e-12)
    assert wasserstein(alpha, beta, p)[0] == pytest.approx(expected, rel=1e-12)
    assert calls == ["compact"] * 2
    # With no finite assignment the compact solve's lifted total is inf, so
    # it declines, whether an immortal row finds no immortal column or an
    # immortal column is left to a pad row.  The bound is then inf, at every
    # p, and the value says so with no result and no padded matrix.  Only a
    # matching builds it, once, to complete the maximum finite matching
    # that min_cost_assignment falls back to.
    for points in ([(0.0, INF), (1.0, 3.0)], []), ([(0.0, INF)], [(1.0, 3.5)]), \
            ([(1.0, 3.0)], [(0.5, INF)]):
        calls.clear()
        solved = solve(*diagrams(space, *points), p)
        assert solved.value == INF and solved.result is None and calls == ["compact", "bound"]
        permutation = solved.permutation()
        assert calls == ["compact", "bound", "build"]
        assert permutation == min_cost_assignment(solved.costs.square()).permutation
    # So do the same diagrams without the immortal atoms, also against an
    # empty diagram on either side.
    for points in ([(1.0, 3.0), (2.0, 2.5)], [(1.0, 3.5)]), ([(1.0, 3.0)], []), ([], [(1.0, 3.5)]):
        alpha, beta = diagrams(space, *points)
        expected = brute_force_wasserstein(alpha, beta, p)
        calls.clear()
        assert wasserstein_value(alpha, beta, p) == pytest.approx(expected, rel=1e-12)
        assert calls == ["compact"]


@pytest.mark.parametrize("p, expected", [(1.0, 6.0), (2.0, math.sqrt(26.0))])
def test_non_metric_immortal_data_falls_back_to_the_square_solve(p, expected, solve_calls):
    # A FiniteSpace may break the triangle inequality: here y is immortal
    # (d(y, o) = inf) yet d(x, y) = 5 for the immortal x, and z is mortal
    # with d(x, z) = 1.  The compact relaxation gives x to z and leaves y to
    # a pad row, an infinite lifted total, so the square solve decides.
    inf = INF
    space = FiniteSpace(["o", "x", "y", "z"],
                        [[0, inf, inf, 1], [inf, 0, 5, 1], [inf, 5, 0, 3], [1, 1, 3, 0]], "o")
    alpha, beta = diagrams(space, ["x"], ["y", "z"])
    assert brute_force_wasserstein(alpha, beta, p) == pytest.approx(expected, rel=1e-12)
    solve_calls.clear()
    assert wasserstein_value(alpha, beta, p) == pytest.approx(expected, rel=1e-12)
    assert solve_calls == ["compact", "bound", "build", "square"]
    value, matching = wasserstein(alpha, beta, p)
    assert value == pytest.approx(expected, rel=1e-12)
    assert [pair[:2] for pair in matching.pairs] == [(0, 0), (BASEPOINT, 1)]


def immortal_pairs(rng, p, count):
    """Seeded extended half-plane pairs: 0-3 mortal and 0-2 immortal atoms a
    side, the immortal counts equal about half the time, n + m <= 9."""
    space = halfplane_quotient(2.0, p, extended=True)
    for _ in range(count):
        k = rng.randint(0, 2)
        immortal = [k, k if rng.random() < 0.5 else rng.randint(0, 2)]
        mortal = [rng.randint(0, 3), rng.randint(0, 3)]
        if sum(immortal) + sum(mortal) > 9:
            mortal[0] -= 1
        sides = []
        for k, births in zip(immortal, [[rng.randint(0, 4) for _ in range(j)] for j in mortal]):
            points = [(float(b), float(b + rng.randint(0, 3))) for b in births]
            sides.append(points + [(float(rng.randint(0, 4)), INF) for _ in range(k)])
        yield diagrams(space, *sides)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 7.0, 64.0, INF])
def test_immortal_pairs_match_brute_force(p):
    # Both values agree with the oracle (inf with inf), and at p = 1 every
    # finite certificate is feasible and tight with a zero duality gap.
    for alpha, beta in immortal_pairs(random.Random(2326), p, 60):
        expected = brute_force_wasserstein(alpha, beta, p)
        for value in (wasserstein_value(alpha, beta, p), wasserstein(alpha, beta, p)[0]):
            assert value == expected or value == pytest.approx(expected, rel=1e-9)
        cert = kr_certificate(alpha, beta) if p == 1.0 else None
        if cert is not None and cert.has_certificate:
            assert feasibility_violation(cert) <= 1e-12
            assert tightness_violation(cert) <= 1e-8
            assert duality_gap(alpha, beta, support_function(cert)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 7.0, 64.0, INF])
def test_solve_path_hands_the_square_solve_only_finite_assignments(monkeypatch, solve_calls, p):
    # _solve is the one router: "no finite assignment" is decided by the
    # bound, so every matrix it hands min_cost_assignment has a finite
    # assignment, and the fallback for one that has none is never reached.
    # An infeasible pair builds the padded matrix only for its matching or
    # certificate, once, and never square-solves it.  Each diagram against
    # itself has a zero optimum, so where the compact solve declines it, the
    # bound of 0 ends the solve: no padded matrix is built or square-solved
    # for its value, its matching or its W_1 certificate, whose potentials
    # are 0 with a zero duality gap.
    results = []
    real = wasserstein_module.min_cost_assignment

    def recording(matrix):
        results.append(real(matrix))
        return results[-1]

    monkeypatch.setattr(wasserstein_module, "min_cost_assignment", recording)
    route = ["bound"] if p == INF else ["compact", "bound"]
    infeasible = declined = 0
    for alpha, beta in immortal_pairs(random.Random(2326), p, 60):
        solve_calls.clear()
        assert wasserstein_value(alpha, alpha, p) == 0.0
        if solve_calls == route:
            declined += 1
            wasserstein(alpha, alpha, p)
            cert = kr_certificate(alpha, alpha) if p == 1.0 else None
            assert "build" not in solve_calls and "square" not in solve_calls
            if cert is not None:
                assert cert.dual_value == 0.0 and set(cert.y) == {0.0}
                assert duality_gap(alpha, alpha, support_function(cert)) == 0.0
        solve_calls.clear()
        if wasserstein_value(alpha, beta, p) < INF:
            wasserstein(alpha, beta, p)
            if p == 1.0:
                kr_certificate(alpha, beta)
            continue
        infeasible += 1
        assert solve_calls == route
        solve_calls.clear()
        wasserstein(alpha, beta, p)
        assert solve_calls == route + ["build"]
        if p == 1.0:
            solve_calls.clear()
            kr_certificate(alpha, beta)
            assert solve_calls == route + ["build"]
    assert infeasible >= 20 and declined >= 40
    assert all(result.u is not None for result in results)


def value_cases():
    """One pair per route of _solve: alpha, beta, p and the solves it makes."""
    small = [(1.0, 3.0), (2.0, 2.5)], [(1.0, 3.5)]
    square = ["compact", "bound", "build", "square"]
    inf = INF
    finite = FiniteSpace(["o", "x", "y", "z"],
                         [[0, inf, inf, 1], [inf, 0, 5, 1], [inf, 5, 0, 3], [1, 1, 3, 0]], "o")
    extended = halfplane_quotient(2.0, 64.0, extended=True)
    immortal = [load_diagram(str(GOLDEN / f"immortal-{side}.json"), extended)
                for side in ("left", "right")]
    zero = diagrams(halfplane_quotient(2.0, 2.0), small[0]) * 2
    overflow = diagrams(halfplane_quotient(2.0, 1.0), [(-1e308, 1e308)] * 2, [])
    for name, pair, p, route in [
            ("compact p=1", diagrams(halfplane_quotient(INF, 1.0), *small), 1.0, ["compact"]),
            ("compact p=2", diagrams(halfplane_quotient(INF, 2.0), *small), 2.0, ["compact"]),
            ("square p=1", diagrams(finite, ["x"], ["y", "z"]), 1.0, square),
            ("immortal p=64", immortal, 64.0, square),
            ("zero optimum", zero, 2.0, ["compact", "bound"]),
            ("fsum overflow", overflow, 1.0, square)]:
        yield pytest.param(*pair, p, route, id=name)


@pytest.mark.parametrize("alpha, beta, p, route", value_cases())
def test_every_value_is_the_lp_norm_of_the_matched_costs(alpha, beta, p, route, solve_calls):
    # One formula for the value on every route: the lp norm of the costs the
    # solve's permutation takes (the tie-broken one where the bound decided).
    solved = solve(alpha, beta, p)
    assert solve_calls == route
    perm = solved.result.permutation if solved.result else solved.permutation()
    assert solved.value == lp_norm(solved.costs.matched(perm), p)


@pytest.mark.parametrize("p", [2.0, 64.0])
@pytest.mark.parametrize("d_ab", [0.0, INF])
def test_all_zero_costs_take_one_compact_solve(p, d_ab, solve_calls):
    # Every finite cost is 0 (and d(a, b) either 0 or inf), so every power
    # is 0 or inf and the compact optimum is 0.  It is accepted, with the
    # matching a square re-solve would give, since every finite edge is tight.
    space = FiniteSpace(["o", "a", "b"], [[0.0, 0.0, 0.0], [0.0, 0.0, d_ab], [0.0, d_ab, 0.0]],
                        "o")
    alpha, beta = diagrams(space, ["a", "a", "b"], ["b", "a"])
    assert wasserstein_value(alpha, beta, p) == 0.0
    assert solve_calls == ["compact"]
    value, matching = wasserstein(alpha, beta, p)
    assert value == 0.0
    right = [0, 1, BASEPOINT] if d_ab == 0.0 else [0, BASEPOINT, 1]
    assert matching.pairs == tuple((i, j, 0.0) for i, j in enumerate(right))
    assert solve_calls == ["compact"] * 2


@pytest.mark.parametrize("p", [1.0, 2.0, 64.0])
def test_two_empty_diagrams_take_one_compact_solve(p, solve_calls):
    # r = 0: no atom rows and no atom columns, solved like an empty side.
    alpha, beta = diagrams(halfplane_quotient(INF, p), [], [])
    assert wasserstein_value(alpha, beta, p) == 0.0
    assert solve_calls == ["compact"]
    assert wasserstein(alpha, beta, p) == (0.0, Matching(p=p, total=0.0, pairs=()))
    assert solve_calls == ["compact"] * 2


def test_certificate_reads_the_w1_solve(solve_calls):
    # kr_certificate's potentials are the duals of the one W_1 solve: the
    # compact one, immortal atoms included.  When no finite matching exists
    # the bound says so, the certificate has no potentials, and the padded
    # matrix is built once, for its completed permutation.
    space = halfplane_quotient(INF, 1.0, extended=True)
    for points in ([(1.0, 3.0), (2.0, 2.5)], [(1.0, 3.5)]), ([(1.0, 3.0)], []), \
            ([], [(1.0, 3.5)]), ([(0.0, INF), (1.0, 3.0)], [(0.5, INF)]):
        solve_calls.clear()
        cert = kr_certificate(*diagrams(space, *points))
        assert cert.has_certificate
        assert solve_calls == ["compact"]
    solve_calls.clear()
    assert not kr_certificate(*diagrams(space, [(0.0, INF)], [])).has_certificate
    assert solve_calls == ["compact", "bound", "build"]


def test_distance_with_matching_and_certificate_solves_once(monkeypatch, capsys):
    # The value, the matching and the W_1 certificate read one solve record.
    # Every module that binds the solver's names is counted.
    calls = []
    for attr in ("_space_costs", "_solve"):
        def recording(*args, _attr=attr, _real=getattr(wasserstein_module, attr)):
            calls.append(_attr)
            return _real(*args)
        for module in (wasserstein_module, kr_duality_module, cli):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, recording)
    code = cli.main(["distance", str(GOLDEN / "grid40-left.json"),
                     str(GOLDEN / "grid40-right.json"), "--space", "halfplane", "--q", "inf",
                     "--p", "1", "--matching", "--certificate"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "grid40-p1-certificate.json").read_text()
    assert calls == ["_space_costs", "_solve"]


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_tie_break_runs_on_the_atom_rows(monkeypatch, solve_calls, p):
    # The tie-break searches the left atoms against the right atoms and the
    # diagonal, with the pad rows as one node, at every exponent: it is given
    # n rows, not the n + m rows of the padded matrix.  No padded matrix is
    # built: the compact route makes one solve, and the threshold route one
    # threshold search and one shared-column solve for the tie-break's start.
    alpha, beta = (load_diagram(str(GOLDEN / name), halfplane_quotient(INF, p))
                   for name in ("grid40-left.json", "grid40-right.json"))
    rows = []
    real = wasserstein_module.lex_smallest_matching

    def recording(adjacency, *args):
        rows.append(len(adjacency))
        return real(adjacency, *args)

    monkeypatch.setattr(wasserstein_module, "lex_smallest_matching", recording)
    wasserstein(alpha, beta, p)
    assert rows == [alpha.size] and beta.size > 0
    assert solve_calls == (["bound", "compact"] if p == INF else ["compact"])


def test_infinite_bottleneck_permutation_makes_no_hungarian_call(monkeypatch):
    # An immortal atom with no immortal partner leaves no finite matching,
    # so hungarian is bound to fail: the permutation is the completed maximum
    # finite matching that min_cost_assignment falls back to, taken directly.
    rng = random.Random(150)
    space = halfplane_quotient(2.0, INF, extended=True)

    def points(count):
        births = [rng.uniform(-5.0, 5.0) for _ in range(count)]
        return [(b, b + rng.uniform(0.0, 6.0)) for b in births]

    alpha, beta = diagrams(space, points(20) + [(0.0, INF)], points(20))
    solved = solve(alpha, beta, INF)
    assert solved.value == INF
    expected = min_cost_assignment(solved.costs.square()).permutation
    calls = []
    for module in (assignment_module, wasserstein_module):
        monkeypatch.setattr(module, "hungarian", lambda *args, _solve=module.hungarian:
                            calls.append(args) or _solve(*args))
    assert solved.permutation() == expected
    assert wasserstein(alpha, beta, INF)[1].pairs == solved.matching().pairs
    assert calls == []


def dense_points(rng, n):
    """n distinct off-diagonal points with float coordinates."""
    points = set()
    while len(points) < n:
        birth = rng.uniform(0.0, 10.0)
        points.add((birth, birth + rng.uniform(0.05, 5.0)))
    return sorted(points)


@pytest.mark.parametrize("p", [1.5, 2.0, 7.0])
def test_value_only_compact_solve_builds_no_powers(monkeypatch, solve_calls, p):
    # The compact rows are built from the costs, each row powered as it
    # goes, so a value builds no powers matrix; the record keeps the scale,
    # and only a matching rebuilds the powers, once, for its tie-break.
    rng = random.Random(28)
    space = halfplane_quotient(INF, p)
    alpha, beta = diagrams(space, dense_points(rng, 12), dense_points(rng, 9))
    calls = []
    real = wasserstein_module._powers
    monkeypatch.setattr(wasserstein_module, "_powers",
                        lambda *args: calls.append(args[1:]) or real(*args))
    solved = solve(alpha, beta, p)
    assert solve_calls == ["compact"] and calls == []
    assert solved.value == lp_norm(solved.costs.matched(solved.result.permutation), p)
    costs = solved.costs
    assert solved.scale == max(x for row in (*costs.c, costs.a, costs.b) for x in row)
    solve_calls.clear()
    total, _ = wasserstein(alpha, beta, p)
    assert solve_calls == ["compact"] and calls == [(p, solved.scale)]
    assert total == pytest.approx(solved.value, rel=1e-12)


@pytest.mark.parametrize("n, p, share", [(80, 1.0, 1.25), (80, 2.0, 1.25), (300, INF, 4.0)])
def test_value_only_solve_holds_one_working_matrix(n, p, share):
    # Beyond its costs, a value-only solve holds one n x (m + 1) working
    # matrix: the compact rows, with no powers matrix beside them, or at
    # p = inf the bottleneck search's rank lists and one sorted list of
    # thresholds, with no set of every entry and no kept transposed copy.
    # The costs are built untraced, which is faster, and their size is
    # that of their distinct objects, as tracemalloc would count them.
    rng = random.Random(n)
    space = halfplane_quotient(INF, p)
    costs = wasserstein_module._space_costs(
        *diagrams(space, dense_points(rng, n), dense_points(rng, n)))
    rows = (*costs.c, costs.a, costs.b)
    objects = {id(obj): obj for obj in (costs, costs.c, *rows)}
    objects.update((id(x), x) for row in rows for x in row)
    held = sum(map(sys.getsizeof, objects.values()))
    tracemalloc.start()
    try:
        _solve(costs, p)
        extra = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extra <= share * held


def test_certificate_of_a_p_two_solve_is_refused():
    alpha, beta = diagrams(halfplane_quotient(INF, 2.0), [(0.0, 2.0)], [(0.5, 2.0)])
    with pytest.raises(PreconditionError, match="p = 1 only"):
        certificate_of(alpha, beta, solve(alpha, beta, 2.0))


def test_requires_same_space():
    alpha = diagram_from_list([(0.0, 2.0)], Q_INF_P1)
    beta = empty_diagram(Q_INF_PINF)
    with pytest.raises(DomainError):
        wasserstein_value(alpha, beta, 1.0)


def test_brute_force_size_guard():
    space = Q_INF_P1
    alpha = diagram_from_list([(0.0, 2.0)] * 5, space)
    beta = diagram_from_list([(0.0, 4.0)] * 5, space)
    with pytest.raises(SizeLimitError):
        brute_force_wasserstein(alpha, beta, 1.0)


# -- quotient-reduced formulation --------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_quotient_reduced_equals_direct(p):
    rng = random.Random(17)
    space = halfplane_quotient(2.0, p)
    for _ in range(40):
        alpha = diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 4))], space
        )
        beta = diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 4))], space
        )
        direct = wasserstein_value(alpha, beta, p)
        reduced = wasserstein_quotient_reduced(alpha, beta, p)
        assert reduced == pytest.approx(direct, abs=1e-9)


def test_quotient_reduced_rejects_mismatched_exponent():
    alpha, beta = diagrams(Q_INF_P1, [(0.0, 2.0)], [])
    with pytest.raises(PreconditionError):
        wasserstein_quotient_reduced(alpha, beta, 2.0)


def test_quotient_reduced_needs_ambient_data():
    space = FiniteSpace(
        ["o", "a"], [[0.0, 1.0], [1.0, 0.0]], "o"
    )
    alpha = diagram_from_list(["a"], space)
    with pytest.raises(PreconditionError):
        wasserstein_quotient_reduced(alpha, alpha, 1.0)
    # Explicit ambient data substitutes for a quotient space.
    value = wasserstein_quotient_reduced(
        alpha,
        alpha,
        1.0,
        ambient_dist=space.dist,
        subset_dist=lambda x: space.dist(x, "o"),
    )
    assert value == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_nan_ground_distance_is_domain_error(p):
    labels = ["o", "x1", "x2", "x3"]
    finite = FiniteSpace(labels, [[0.0 if i == j else 1.0 for j in labels] for i in labels], "o")
    space = remetrize(finite, lambda x, y: 0.0 if x == y else math.nan)
    for points in (["x1", "x2"], ["x3"]), (["x1", "x2"], []), ([], ["x3"]):
        alpha, beta = diagrams(space, *points)
        for solve in (wasserstein_value, wasserstein):
            with pytest.raises(DomainError, match="NaN"):
                solve(alpha, beta, p)
    # The quotient-reduced route checks its ambient data the same way, the
    # distances to the subset and those between atoms.
    alpha, beta = diagrams(finite, ["x1", "x2"], ["x3"])
    for ambient, subset in ((finite.dist, lambda x: math.nan),
                            (lambda x, y: math.nan, lambda x: finite.dist(x, "o"))):
        with pytest.raises(DomainError, match="NaN"):
            wasserstein_quotient_reduced(alpha, beta, p, ambient_dist=ambient, subset_dist=subset)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_negative_ground_distance_is_domain_error(p):
    labels = ["o", "x1", "x2", "x3"]
    finite = FiniteSpace(labels, [[0.0 if i == j else 1.0 for j in labels] for i in labels], "o")
    space = remetrize(finite, lambda x, y: 0.0 if x == y else -1.0)
    for points in (["x1", "x2"], ["x3"]), (["x1", "x2"], []), ([], ["x3"]):
        alpha, beta = diagrams(space, *points)
        for solve in (wasserstein_value, wasserstein, brute_force_wasserstein):
            with pytest.raises(DomainError, match="negative"):
                solve(alpha, beta, p)
    alpha, beta = diagrams(finite, ["x1", "x2"], ["x3"])
    for ambient, subset in ((finite.dist, lambda x: -1.0),
                            (lambda x, y: -1.0, lambda x: finite.dist(x, "o"))):
        with pytest.raises(DomainError, match="negative"):
            wasserstein_quotient_reduced(alpha, beta, p, ambient_dist=ambient, subset_dist=subset)
