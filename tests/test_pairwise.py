"""Every pairwise override against the generic loop, PointedSpace.pairwise.

An override may only be a faster way to the same cost build: the same
floats, bit for bit, and the same error on a point outside the space.
"""

import pytest

from pdmetric.diagram import diagram_from_list
from pdmetric.errors import DomainError
from pdmetric.metric_core import INF, FiniteSpace, PointedSpace, p_strengthen, product_metric
from pdmetric.spaces import HalfPlaneSpace, StarGraphSpace
from pdmetric.verify import _rng, random_finite_space
from pdmetric.wasserstein import _require_same_space


def outcome(space, xs, ys, pairwise):
    """The build as reprs (exact floats, signed zeros), or the error it raised."""
    try:
        return repr(pairwise(space, xs, ys))
    except Exception as exc:  # the generic loop's error is the reference
        return type(exc), str(exc)


def same_as_generic(space, xs, ys):
    expected = outcome(space, xs, ys, PointedSpace.pairwise)
    assert outcome(space, xs, ys, type(space).pairwise) == expected
    return expected


def finite_base():
    return random_finite_space(_rng(7, "pairwise/finite"), size=5)


def halfplane_points(space, rng, count):
    points = [space.sample_point(rng) for _ in range(count)]
    return points + [(-INF, 1.0), (0.5, INF), (-INF, INF), space.basepoint]


@pytest.mark.parametrize("q", [1.0, 2.0, INF])
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_halfplane_pairwise_is_the_generic_loop(q, p):
    space = HalfPlaneSpace(q, p, extended=True)
    rng = _rng(11, f"pairwise/halfplane/{q}/{p}")
    xs, ys = halfplane_points(space, rng, 6), halfplane_points(space, rng, 5)
    for left, right in [(xs, ys), (ys, xs), (xs, []), ([], ys), ([], [])]:
        assert isinstance(same_as_generic(space, left, right), str)
    # Outside the space: a reversed pair computes, a non-pair fails alike.
    for bad in [(3.0, 1.0), ("b", 1.0)]:
        same_as_generic(space, [xs[0], bad], ys)
        same_as_generic(space, xs, [bad, ys[1]])


def test_stargraph_pairwise_is_the_generic_loop():
    space = StarGraphSpace(["a", "b", "c"], "o")
    xs, ys = ["a", "o", "c", "a"], ["b", "a", "o"]
    for left, right in [(xs, ys), (ys, xs), (xs, []), ([], ys)]:
        assert isinstance(same_as_generic(space, left, right), str)
    for left, right in [(["a", "z"], ys), (xs, ["z"]), ([], ["b", "z"]), (["z"], [])]:
        error = same_as_generic(space, left, right)
        assert error == (DomainError, "'z' is neither the identity nor a generator")


def test_strengthened_finite_pairwise_is_the_generic_loop():
    base = finite_base()
    strong = p_strengthen(base, 2.0)
    xs, ys = ["x1", "x0", "x3", "x1"], [strong.basepoint, "x2", "x4"]
    for left, right in [(xs, ys), (ys, xs), (xs, []), ([], ys)]:
        assert isinstance(same_as_generic(strong, left, right), str)
    for left, right in [(["x1", "zz"], ys), (xs, ["zz"])]:
        assert same_as_generic(strong, left, right) == (DomainError, "unknown label 'zz'")


def test_product_pairwise_is_the_generic_loop():
    base = finite_base()
    product = product_metric(HalfPlaneSpace(2.0, 1.0), base, 2.0)
    xs = [((0.0, 1.0), "x1"), (product.left.basepoint, "x2"), ((1.0, 4.0), "x0")]
    ys = [((0.5, 2.0), "x3"), ((0.0, 1.0), "x1")]
    assert isinstance(same_as_generic(product, xs, ys), str)
    assert same_as_generic(product, xs, [((0.0, 1.0), "zz")]) == (
        DomainError, "unknown label 'zz'")


def test_require_same_space_compares_signatures():
    space = HalfPlaneSpace(2.0, 1.0)
    alpha = diagram_from_list([(0.0, 1.0)], space)
    _require_same_space(alpha, alpha)
    # Two constructions with one signature are one space.
    _require_same_space(alpha, diagram_from_list([(0.0, 2.0)], HalfPlaneSpace(2.0, 1.0)))
    finite = FiniteSpace(["o", "a"], [[0.0, 1.0], [1.0, 0.0]], "o")
    _require_same_space(diagram_from_list(["a"], finite),
                        diagram_from_list([], FiniteSpace(["o", "a"], [[0, 1], [1, 0]], "o")))
    for other in (HalfPlaneSpace(INF, 1.0), HalfPlaneSpace(2.0, 2.0), finite):
        with pytest.raises(DomainError, match="different spaces"):
            _require_same_space(alpha, diagram_from_list([], other))
