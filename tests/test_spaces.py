import math
import random
import time

import pytest

from pdmetric import spaces
from pdmetric.diagram import diagram_from_list
from pdmetric.errors import DomainError, PreconditionError
from pdmetric.metric_core import INF
from pdmetric.spaces import (
    EMPTY_INTERVAL,
    AnagramSpace,
    FiniteAbelianGroup,
    HalfPlane,
    Interval,
    IntervalModuleSpace,
    IntervalSpace,
    StarGraphSpace,
    anagram_distance,
    dissimilarity,
    ext_abs_diff,
    halfplane_dist,
    hausdorff,
    interval_half_length,
    interval_interleaving,
    word_diagram,
    word_metric,
    word_metric_via_wasserstein,
)
from pdmetric.verify import DEFAULT_SEED, word_metric_suite
from pdmetric.wasserstein import wasserstein_value


# -- extended arithmetic ------------------------------------------------------


def test_ext_abs_diff():
    assert ext_abs_diff(3.0, 1.0) == 2.0
    assert ext_abs_diff(INF, INF) == 0.0
    assert ext_abs_diff(-INF, -INF) == 0.0
    assert ext_abs_diff(INF, 1.0) == INF
    assert ext_abs_diff(1.0, -INF) == INF
    assert ext_abs_diff(2.5, 2.5) == 0.0


def test_halfplane_dist_exponents():
    x, y = (0.0, 0.0), (3.0, 4.0)
    assert halfplane_dist(x, y, 1.0) == 7.0
    assert halfplane_dist(x, y, 2.0) == 5.0
    assert halfplane_dist(x, y, INF) == 4.0
    # Points sharing an infinite death are at finite distance.
    assert halfplane_dist((0.0, INF), (1.0, INF), INF) == 1.0
    assert halfplane_dist((0.0, INF), (1.0, 2.0), INF) == INF


def test_halfplane_sampling_extended(rng):
    space = HalfPlane(INF, extended=True)
    points = [space.sample_point(rng) for _ in range(300)]
    assert all(space.contains(x) for x in points)
    assert any(math.isinf(x[1]) for x in points)


# -- intervals ----------------------------------------------------------------


def test_interval_emptiness_and_length():
    assert EMPTY_INTERVAL.is_empty
    assert Interval(1.0, 0.0).is_empty
    assert Interval(2.0, 2.0, True, False).is_empty
    assert not Interval(2.0, 2.0).is_empty
    assert Interval(1.0, 4.0).length == 3.0
    assert Interval(0.0, INF).length == INF
    assert EMPTY_INTERVAL.length == 0.0


def test_hausdorff_values():
    assert hausdorff(Interval(0.0, 1.0), Interval(0.0, 2.0)) == 1.0
    # Closedness is invisible to the Hausdorff distance.
    assert hausdorff(Interval(0.0, 1.0, True, False), Interval(0.0, 1.0)) == 0.0
    assert hausdorff(Interval(0.0, 1.0), EMPTY_INTERVAL) == INF
    assert hausdorff(EMPTY_INTERVAL, EMPTY_INTERVAL) == 0.0
    assert hausdorff(Interval(0.0, INF), Interval(1.0, INF)) == 1.0


def test_dissimilarity_values():
    assert dissimilarity(Interval(0.0, 3.0), Interval(1.0, 5.0)) == 3.0
    # Disjoint intervals: the symmetric difference is both of them.
    assert dissimilarity(Interval(0.0, 1.0), Interval(2.0, 3.0)) == 2.0
    # Touching intervals agree with the endpoint formula.
    assert dissimilarity(Interval(0.0, 1.0), Interval(1.0, 2.0)) == 2.0
    assert dissimilarity(Interval(0.0, 2.0), EMPTY_INTERVAL) == 2.0
    assert dissimilarity(Interval(0.0, INF), Interval(1.0, INF)) == 1.0


def test_interleaving_values():
    assert interval_interleaving(Interval(0.0, 10.0), Interval(1.0, 9.0)) == 1.0
    # Far-apart short intervals die rather than travel.
    assert interval_interleaving(Interval(0.0, 2.0), Interval(100.0, 104.0)) == 2.0
    assert interval_interleaving(Interval(0.0, 3.0), EMPTY_INTERVAL) == 1.5
    assert interval_interleaving(EMPTY_INTERVAL, EMPTY_INTERVAL) == 0.0
    assert interval_half_length(Interval(0.0, INF)) == INF


def test_interval_space_canonicalizes_empties():
    space = IntervalSpace("hausdorff")
    assert space.canonical(Interval(5.0, 1.0)) == EMPTY_INTERVAL
    assert space.basepoint == EMPTY_INTERVAL
    d = diagram_from_list([Interval(3.0, 2.0), Interval(0.0, 1.0)], space)
    assert d.atoms == ((Interval(0.0, 1.0), 1),)


def test_interval_space_metric_kinds():
    a, b = Interval(0.0, 3.0), Interval(1.0, 5.0)
    assert IntervalSpace("hausdorff").dist(a, b) == 2.0
    assert IntervalSpace("dissimilarity").dist(a, b) == 3.0
    assert IntervalModuleSpace().dist(a, b) == 2.0
    with pytest.raises(DomainError):
        IntervalSpace("unknown")


def test_interval_space_rejects_nan_endpoints():
    space = IntervalSpace("hausdorff")
    for bad in (Interval(0.0, math.nan), Interval(math.nan, 1.0)):
        assert not space.contains(bad)
        with pytest.raises(DomainError):
            diagram_from_list([bad], space)
    assert space.contains(Interval(0.0, INF))


def test_interval_point_json_round_trip():
    space = IntervalSpace("hausdorff")
    x = Interval(0.0, INF, False, True)
    assert space.point_from_json(space.point_to_json(x)) == x


# -- anagrams -----------------------------------------------------------------


def test_anagram_paper_values():
    assert anagram_distance("manifold", "mind loaf") == 0
    assert anagram_distance("mathematics", "cat asthma") == 3


def test_anagram_simple_values():
    assert anagram_distance("a", "a") == 0
    assert anagram_distance("ab", "cd") == 2
    assert anagram_distance("", "abc") == 3
    assert anagram_distance("abc", "") == 3
    assert anagram_distance("aab", "ab") == 1


def test_anagram_runtime_is_fast():
    started = time.perf_counter()
    anagram_distance("manifold", "mind loaf")
    anagram_distance("mathematics", "cat asthma")
    assert time.perf_counter() - started < 0.01


def test_anagram_matches_wasserstein_solver():
    space = AnagramSpace()
    rng = random.Random(31)
    letters = "abcdef"
    for _ in range(60):
        s = "".join(rng.choice(letters) for _ in range(rng.randint(0, 7)))
        t = "".join(rng.choice(letters) for _ in range(rng.randint(0, 7)))
        expected = anagram_distance(s, t, space)
        solved = wasserstein_value(
            word_diagram(s, space), word_diagram(t, space), 1.0
        )
        assert solved == pytest.approx(float(expected))


def test_anagram_alphabet_validation():
    with pytest.raises(DomainError):
        anagram_distance("ab#", "ab")
    with pytest.raises(DomainError):
        AnagramSpace("abc")  # first character must be the blank
    with pytest.raises(DomainError):
        AnagramSpace(" aa")
    custom = AnagramSpace(" xyz")
    assert anagram_distance("xy", "yz", custom) == 1


def test_word_diagram_ignores_blanks():
    space = AnagramSpace()
    assert word_diagram("a a", space) == word_diagram("aa", space)


# -- star graphs and word metrics ---------------------------------------------


def test_star_graph_metric():
    space = StarGraphSpace(((1,), (5,)), (0,))
    assert space.dist((1,), (1,)) == 0.0
    assert space.dist((1,), (5,)) == 2.0
    assert space.dist((1,), (0,)) == 1.0
    assert space.basepoint == (0,)
    assert not space.contains((2,))


def test_finite_abelian_group():
    group = FiniteAbelianGroup((2, 3))
    assert len(group) == 6
    assert group.add((1, 2), (1, 2)) == (0, 1)
    assert group.neg((1, 1)) == (1, 2)
    assert group.zero == (0, 0)
    assert sorted(group.elements())[0] == (0, 0)
    # A bare int order means a cyclic group with tuple elements.
    cyclic = FiniteAbelianGroup(5)
    assert cyclic.coerce(7) == (2,)


def test_word_metric_cyclic_values():
    group = FiniteAbelianGroup((6,))
    gens = ((1,), (5,))
    assert word_metric(group, gens, (0,), (3,)) == 3
    assert word_metric(group, gens, (0,), (5,)) == 1
    assert word_metric(group, gens, (2,), (4,)) == 2
    assert word_metric(group, gens, (4,), (4,)) == 0


def test_word_metric_klein_four():
    group = FiniteAbelianGroup((2, 2))
    gens = tuple(g for g in group.elements() if g != (0, 0))
    assert word_metric(group, gens, (0, 0), (1, 1)) == 1
    # Every nonzero element is one step from any other: their difference is
    # itself a generator.
    assert word_metric(group, gens, (1, 0), (0, 1)) == 1
    # With only the coordinate generators the diagonal costs two steps.
    axes = ((1, 0), (0, 1))
    assert word_metric(group, axes, (0, 0), (1, 1)) == 2


def test_word_metric_z4_self_inverse_pair():
    group = FiniteAbelianGroup((4,))
    gens = ((1,), (3,))
    assert word_metric(group, gens, (0,), (2,)) == 2


def test_word_metric_requires_symmetric_generators():
    group = FiniteAbelianGroup((6,))
    with pytest.raises(DomainError):
        word_metric(group, ((1,),), (0,), (3,))


def test_word_metric_requires_generation():
    group = FiniteAbelianGroup((6,))
    # {3} is symmetric but generates only {0, 3}.
    with pytest.raises(DomainError):
        word_metric(group, ((3,),), (0,), (1,))


def test_word_metric_via_wasserstein_agrees():
    group = FiniteAbelianGroup((6,))
    gens = ((1,), (5,))
    for g in group.elements():
        for h in group.elements():
            direct = word_metric(group, gens, g, h)
            realized = word_metric_via_wasserstein(group, gens, g, h, 6)
            assert realized == float(direct)


def test_word_metric_via_wasserstein_bound_too_small():
    group = FiniteAbelianGroup((6,))
    gens = ((1,), (5,))
    with pytest.raises(PreconditionError):
        word_metric_via_wasserstein(group, gens, (0,), (3,), 2)


def test_word_metric_suite_builds_each_groups_words_once(monkeypatch):
    # Every (g, h) pair of a group reads one set of words and their
    # diagrams: one bucketing per group, for 11 cyclic groups and Z2 x Z2.
    calls = []
    words_by_value = spaces._words_by_value

    def counting(*args):
        calls.append(args)
        return words_by_value(*args)

    monkeypatch.setattr(spaces, "_words_by_value", counting)
    assert word_metric_suite(DEFAULT_SEED)["passed"]
    assert len(calls) == 12
    # A single pair still rejects a bound too small to write both elements.
    with pytest.raises(PreconditionError, match="too small"):
        word_metric_via_wasserstein(FiniteAbelianGroup((6,)), ((1,), (5,)), (0,), (3,), 2)


def test_word_metric_needs_long_words():
    # Realizing d(5, 7) = 2 in Z12 takes a length-7 word for 5; with the
    # bound at the diameter the minimum over word pairs is strictly larger.
    group = FiniteAbelianGroup((12,))
    gens = ((1,), (11,))
    g, h = (5,), (7,)
    assert word_metric(group, gens, g, h) == 2
    assert word_metric_via_wasserstein(group, gens, g, h, 12) == 2.0
    assert word_metric_via_wasserstein(group, gens, g, h, 6) > 2.0
