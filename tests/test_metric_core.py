import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdmetric.errors import DomainError
from pdmetric.metric_core import (
    INF,
    FiniteSpace,
    as_exponent,
    check_axioms_sampled,
    check_metric_axioms,
    check_p_strengthened,
    check_subset_dist_compatible,
    ext_fsum,
    lp_norm,
    p_strengthen,
    product_metric,
    pullback_metric,
    quotient_metric,
    remetrize,
)
from pdmetric.diagram import diagram_from_list, empty_diagram
from pdmetric.kr_duality import feasibility_violation, kr_certificate
from pdmetric.spaces import (
    DISSIMILARITY,
    EMPTY_INTERVAL,
    HAUSDORFF,
    AnagramSpace,
    HalfPlane,
    Interval,
    IntervalModuleSpace,
    IntervalSpace,
    StarGraphSpace,
    halfplane_diag_dist,
    halfplane_quotient,
)
from pdmetric.verify import DEFAULT_SEED, _rng, random_finite_space
from pdmetric.wasserstein import (
    _space_costs,
    brute_force_wasserstein,
    wasserstein,
    wasserstein_value,
)

finite_values = st.lists(st.floats(0.0, 100.0), max_size=8)
exponents = st.one_of(st.floats(1.0, 20.0), st.just(INF))


# -- lp_norm ----------------------------------------------------------------


def test_lp_norm_known_values():
    assert lp_norm([3.0, 4.0], 2) == pytest.approx(5.0)
    assert lp_norm([1.0, 2.0, 3.0], 1) == 6.0
    assert lp_norm([1.0, 7.0, 2.0], INF) == 7.0
    assert lp_norm([], 2) == 0.0
    assert lp_norm([0.0, 0.0], 1.5) == 0.0
    assert lp_norm([5.0], 3.7) == 5.0
    assert lp_norm([1.0, INF], 2) == INF
    assert lp_norm([INF], INF) == INF


def test_lp_norm_scales_to_avoid_overflow():
    # Naive sum of p-th powers would overflow to inf here.
    big = 1e200
    assert lp_norm([big, big], 2) == pytest.approx(big * math.sqrt(2.0))


def test_sums_past_the_float_range_are_inf():
    big = 1e308
    assert lp_norm([big, big], 1) == INF
    assert ext_fsum([big, big]) == INF and ext_fsum([-big, -big]) == -INF
    # A partial sum overflows, yet the total is in range: it is the exact sum, rounded.
    assert ext_fsum([big, big, -big, 1.0]) == math.fsum([big, 1.0])
    assert ext_fsum([big, big, INF]) == INF
    assert ext_fsum([0.5, 0.25]) == 0.75 and ext_fsum([]) == 0.0


def test_lp_norm_rejects_negatives():
    with pytest.raises(DomainError):
        lp_norm([1.0, -0.5], 2)


@given(finite_values, exponents, exponents)
def test_lp_norm_monotone_decreasing_in_p(values, p, q):
    if p > q:
        p, q = q, p
    assert lp_norm(values, q) <= lp_norm(values, p) + 1e-9 * max(
        1.0, lp_norm(values, p)
    )


@given(finite_values, exponents)
def test_lp_norm_between_max_and_sum(values, p):
    norm = lp_norm(values, p)
    top = max(values, default=0.0)
    total = math.fsum(values)
    assert top <= norm + 1e-12 * max(1.0, top)
    assert norm <= total + 1e-9 * max(1.0, total)


def test_as_exponent():
    assert as_exponent(1) == 1.0
    assert as_exponent(2.5) == 2.5
    assert as_exponent(INF) == INF
    for bad in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            as_exponent(bad)


# -- finite spaces and the axiom checkers -----------------------------------


def triangle_matrix():
    # d(a, c) = 10 breaks the triangle through b.
    return [
        [0.0, 1.0, 10.0],
        [1.0, 0.0, 1.0],
        [10.0, 1.0, 0.0],
    ]


def test_finite_space_validation():
    with pytest.raises(DomainError):
        FiniteSpace(["a", "a"], [[0.0, 1.0], [1.0, 0.0]], "a")
    with pytest.raises(DomainError):
        FiniteSpace(["a", "b"], [[0.0, 1.0], [2.0, 0.0]], "a")
    with pytest.raises(DomainError):
        FiniteSpace(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]], "a")
    with pytest.raises(DomainError):
        FiniteSpace(["a", "b"], [[0.5, 1.0], [1.0, 0.0]], "a")
    with pytest.raises(DomainError):
        FiniteSpace(["a", "b"], [[0.0, 1.0], [1.0, 0.0]], "missing")


def test_check_metric_axioms_flags_triangle_violation():
    space = FiniteSpace(["a", "b", "c"], triangle_matrix(), "a")
    report = check_metric_axioms(space)
    assert not report.triangle
    assert not report.is_extended_pseudometric
    assert report.symmetry and report.point_equality


def test_check_metric_axioms_separation_and_finiteness_flags():
    # Pseudometric (zero distance between distinct points), extended (inf).
    matrix = [
        [0.0, 0.0, INF],
        [0.0, 0.0, INF],
        [INF, INF, 0.0],
    ]
    space = FiniteSpace(["a", "b", "c"], matrix, "a")
    report = check_metric_axioms(space)
    assert report.is_extended_pseudometric
    assert not report.separation
    assert not report.finiteness
    assert report.as_dict()["triangle"] is True


def test_check_axioms_sampled_passes_on_quotient(rng):
    report = check_axioms_sampled(halfplane_quotient(INF, 1.0), rng, triples=200)
    assert report.ok


def test_check_axioms_sampled_catches_asymmetry(rng):
    base = halfplane_quotient(INF, 1.0)

    def skewed(x, y):
        a = x[0] if isinstance(x, tuple) else 0.0
        b = y[0] if isinstance(y, tuple) else 0.0
        return a - b if a >= b else 2.0 * (b - a)

    broken = remetrize(base, skewed, label="asymmetric")
    report = check_axioms_sampled(broken, rng, triples=200)
    assert not report.ok
    assert report.witness


# -- half-plane ground metric and the diagonal distance ---------------------


def grid_diag_oracle(point, q, steps=4001):
    """Independent check of the distance to the diagonal: coarse search over
    diagonal points (t, t) on a wide window around the optimum."""
    b, d = point
    best = INF
    lo, hi = b - 2.0 * (d - b) - 1.0, d + 2.0 * (d - b) + 1.0
    for i in range(steps):
        t = lo + (hi - lo) * i / (steps - 1)
        if q == INF:
            cost = max(abs(b - t), abs(d - t))
        else:
            cost = (abs(b - t) ** q + abs(d - t) ** q) ** (1.0 / q)
        best = min(best, cost)
    return best


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("point", [(0.0, 2.0), (1.0, 4.0), (-3.0, -0.5)])
def test_diag_dist_matches_grid_search(point, q):
    assert halfplane_diag_dist(point, q) == pytest.approx(
        grid_diag_oracle(point, q), abs=5e-3
    )


def test_diag_dist_frozen_values():
    # Closed form 2^(1/q - 1) * (d - b), optimum at the midpoint.
    assert halfplane_diag_dist((0.0, 2.0), 1.0) == pytest.approx(2.0)
    assert halfplane_diag_dist((0.0, 2.0), 2.0) == pytest.approx(math.sqrt(2.0))
    assert halfplane_diag_dist((0.0, 2.0), INF) == pytest.approx(1.0)
    assert halfplane_diag_dist((1.0, 4.0), 2.0) == pytest.approx(3.0 / math.sqrt(2.0))
    assert halfplane_diag_dist((5.0, INF), 2.0) == INF


@pytest.mark.parametrize("q, expected", [(INF, 1e308), (2.0, math.sqrt(2.0) * 1e308), (1.0, INF)])
def test_diag_dist_of_a_persistence_past_the_float_range(q, expected):
    # d - b overflows, but 2^(1/q - 1) (d - b) is finite at q = 2 and q = inf:
    # 2^-1 * 2e308 = 1e308 and 2^-0.5 * 2e308 = sqrt(2) * 1e308.  At q = 1 the
    # true value, 2e308, is past the float range.
    point = (-1e308, 1e308)
    assert halfplane_diag_dist(point, q) == pytest.approx(expected, rel=1e-15)
    space = halfplane_quotient(q, 1.0)
    atom = diagram_from_list([point], space)
    for p in (1.0, 2.0, INF):
        assert wasserstein_value(atom, empty_diagram(space), p) == pytest.approx(expected,
                                                                                 rel=1e-15)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, INF])
def test_diag_dist_is_the_closed_form_bit_for_bit(rng, q):
    # Away from overflow the value is exactly 2^(1/q - 1) * (d - b).
    for _ in range(200):
        b = rng.uniform(-1e3, 1e3)
        d = b + rng.uniform(0.0, 1e3)
        factor = 2.0 ** ((0.0 if q == INF else 1.0 / q) - 1.0)
        assert halfplane_diag_dist((b, d), q) == factor * (d - b)


def test_halfplane_contains():
    space = HalfPlane(INF)
    assert space.contains((0.0, 1.0))
    assert space.contains((2.0, 2.0))
    assert not space.contains((2.0, 1.0))
    assert not space.contains((0.0, INF))
    assert HalfPlane(INF, extended=True).contains((0.0, INF))


# -- constructions -----------------------------------------------------------


def two_point_space(d, base_a=1.0, base_b=1.0):
    matrix = [
        [0.0, base_a, base_b],
        [base_a, 0.0, d],
        [base_b, d, 0.0],
    ]
    return FiniteSpace(["o", "a", "b"], matrix, "o")


def test_p_strengthen_known_values():
    space = two_point_space(10.0)
    assert p_strengthen(space, 1.0).dist("a", "b") == pytest.approx(2.0)
    assert p_strengthen(space, 2.0).dist("a", "b") == pytest.approx(math.sqrt(2.0))
    assert p_strengthen(space, INF).dist("a", "b") == pytest.approx(1.0)
    # Distances to the basepoint never change.
    assert p_strengthen(space, INF).dist("a", "o") == 1.0


def test_p_strengthen_no_op_when_direct_route_shorter():
    space = two_point_space(0.5)
    assert p_strengthen(space, 1.0).dist("a", "b") == 0.5


def _strengthening_bases():
    """(metric base, points of it off the basepoint class): a random finite
    space, a half-plane x finite product, a half-plane quotient and a
    remetrized finite space."""
    finite = random_finite_space(_rng(DEFAULT_SEED, "strengthen/finite"), size=5)
    prod = product_metric(halfplane_quotient(INF, 1.0), finite, 2.0)
    wide = remetrize(finite, lambda x, y: finite.dist(x, y) + (x != y), "plus-discrete")
    return [
        (finite, list(finite.labels[1:])),
        (prod, [((0.0, 2.0), "x0"), ((1.0, 1.0), "x3"), ((-1.0, 2.5), "x2"),
                ((0.5, 4.0), "x1"), ((3.0, 3.5), "x4")]),
        (halfplane_quotient(2.0, 1.0), [p for p in HALFPLANE_POINTS if p[0] != p[1]]),
        (wide, list(finite.labels[1:])),
    ]


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_p_strengthen_is_the_capped_distance(p):
    """dist and pairwise of the strengthening are min(d(x, y), through x0)
    exactly, on the basepoint and on a basepoint-class point too."""
    for base, points in _strengthening_bases():
        x0 = base.basepoint
        strong = p_strengthen(base, p)
        points = points + [x0]
        expected = [[min(base.dist(x, y), lp_norm((base.dist(x, x0), base.dist(x0, y)), p))
                     for y in points] for x in points]
        assert [[strong.dist(x, y) for y in points] for x in points] == expected
        rows, xs_base, ys_base = strong.pairwise(points, points[::-1])
        assert rows == [row[::-1] for row in expected]
        assert xs_base == [base.dist(x, x0) for x in points] == ys_base[::-1]
    # The half-plane quotient's diagonal points are its basepoint class.
    quot = halfplane_quotient(2.0, 1.0)
    assert p_strengthen(quot, p).dist((2.0, 2.0), (0.0, 2.0)) == quot.dist(quot.basepoint,
                                                                            (0.0, 2.0))


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_p_strengthen_pairwise_reads_each_basepoint_distance_once(monkeypatch, p):
    for base, points in _strengthening_bases():
        calls = []
        dist = base.dist

        def counting(x, y, _dist=dist):
            calls.append((x, y))
            return _dist(x, y)

        xs, ys = points, points[1:]
        with monkeypatch.context() as patch:
            patch.setattr(base, "dist", counting)
            p_strengthen(base, p).pairwise(xs, ys)
        assert len(calls) == len(xs) * len(ys) + len(xs) + len(ys)


def test_quotient_canonical_is_the_ambient_normal_form():
    """Off the collapsed class a quotient's points take the ambient's normal
    form: ((1, 1), "a") and ((2, 2), "a") are one product point, so one
    atom, in a quotient of the product and in its strengthening."""
    finite = FiniteSpace(["o", "a"], [[0.0, 1.0], [1.0, 0.0]], "o")
    prod = product_metric(halfplane_quotient(INF, 1.0), finite, 2.0)
    far = ((0.0, 4.0), "o")
    for space in (quotient_metric(prod, lambda x: prod.dist(x, far), 1.0),
                  p_strengthen(prod, 2.0)):
        alpha = diagram_from_list([((1.0, 1.0), "a"), ((2.0, 2.0), "a")], space)
        assert alpha.atoms == ((prod.canonical(((1.0, 1.0), "a")), 2),)
        assert space.canonical(((2.0, 2.0), "a")) == prod.canonical(((1.0, 1.0), "a"))


# Half-plane points on and off the diagonal, then extended ones.
HALFPLANE_POINTS = [(3.0, 3.0), (-1.0, -1.0), (0.0, 2.0), (10.0, 12.0), (2.0, 2.0), (0.5, 4.0)]
EXTENDED_POINTS = HALFPLANE_POINTS + [(INF, INF), (0.0, INF), (-2.5, INF), (-INF, 1.0),
                                      (-INF, INF)]


def _two_pass_quotient_dist(quot, x, y):
    """The quotient distance by definition: canonicalize, then compute."""
    x, y = quot.canonical(x), quot.canonical(y)
    if x == quot.basepoint and y == quot.basepoint:
        return 0.0
    if x == quot.basepoint:
        return float(quot.subset_dist(y))
    if y == quot.basepoint:
        return float(quot.subset_dist(x))
    through = lp_norm((quot.subset_dist(x), quot.subset_dist(y)), quot.p)
    return min(quot.ambient.dist(x, y), through)


def test_quotient_metric_collapses_subset(rng):
    space = HalfPlane(INF)
    quot = quotient_metric(space, lambda x: halfplane_diag_dist(x, INF), 1.0,
                           label="diagonal")
    on_diag = quot.canonical((3.0, 3.0))
    assert on_diag == quot.basepoint
    assert quot.dist((0.0, 2.0), quot.basepoint) == pytest.approx(1.0)
    # Route through the diagonal beats the direct distance for far pairs.
    assert quot.dist((0.0, 2.0), (10.0, 12.0)) == pytest.approx(2.0)
    assert halfplane_quotient(INF, INF).dist((0.0, 2.0), (10.0, 12.0)) == \
        pytest.approx(1.0)
    # A point of the collapsed set is the basepoint on either side of dist.
    assert quot.dist((3.0, 3.0), (0.0, 2.0)) == quot.dist(quot.basepoint, (0.0, 2.0))
    assert quot.dist((0.0, 2.0), (3.0, 3.0)) == quot.dist((0.0, 2.0), quot.basepoint)
    assert quot.dist((3.0, 3.0), (-1.0, -1.0)) == 0.0

    # The one-pass distance equals the two-pass definition exactly, on
    # collapsed-set points, extended points with infinite death and the
    # finite-space quotient that the metric-axioms suite builds.
    finite = random_finite_space(_rng(DEFAULT_SEED, "axioms/finite"), size=5)
    for p in (1.0, 2.0, 3.5, INF):
        cases = [(halfplane_quotient(q, p), HALFPLANE_POINTS) for q in (1.0, 2.0, INF)]
        cases += [(halfplane_quotient(q, p, extended=True), EXTENDED_POINTS)
                  for q in (1.0, 2.0, INF)]
        cases.append((quotient_metric(finite, lambda x: finite.dist(x, "x1"), p,
                                      label="x1-class"), list(finite.labels)))
        for quot, points in cases:
            points = points + [quot.basepoint] + [quot.sample_point(rng)
                                                  for _ in range(6)]
            for x in points:
                for y in points:
                    assert quot.dist(x, y) == _two_pass_quotient_dist(quot, x, y)


def _pairwise_cases():
    finite = random_finite_space(_rng(DEFAULT_SEED, "axioms/finite"), size=5)
    labels = list(finite.labels)
    intervals = [Interval(0.0, 1.0), Interval(-1.0, 2.5, False, True), Interval(0.0, INF),
                 Interval(1.0, 1.0, True, False), Interval(-INF, 3.0), EMPTY_INTERVAL]
    cases = [(finite, labels)]
    for p in (1.0, 2.0, 3.5, INF):
        for q in (1.0, 2.0, INF):
            cases.append((halfplane_quotient(q, p), HALFPLANE_POINTS))
            cases.append((halfplane_quotient(q, p, extended=True), EXTENDED_POINTS))
        cases.append((quotient_metric(finite, lambda x: finite.dist(x, "x1"), p,
                                      label="x1-class"), labels))
        cases.append((p_strengthen(finite, p), labels))
    cases.append((remetrize(finite, lambda x, y: abs(finite.sort_key(x) - finite.sort_key(y))),
                  labels))
    cases += [(IntervalSpace(HAUSDORFF), intervals), (IntervalSpace(DISSIMILARITY), intervals),
              (IntervalModuleSpace(), intervals)]
    cases.append((AnagramSpace(), ["a", "b", " ", "a", "Z"]))
    cases.append((StarGraphSpace([1, 2, 3], 0), [0, 1, 2, 3, 2]))
    return cases


def test_pairwise_matches_dist(rng):
    """pairwise is dist on every pair and against the basepoint, exactly;
    _space_costs stands for the padded matrix of the per-pair definition,
    as square builds it, also with an empty side and with immortal atoms
    (infinite distance to the basepoint)."""
    immortal = 0
    for space, points in _pairwise_cases():
        x0 = space.basepoint
        xs = points + [x0] + [space.sample_point(rng) for _ in range(4)]
        ys = xs[::-1]
        rows, xs_base, ys_base = space.pairwise(xs, ys)
        assert rows == [[space.dist(x, y) for y in ys] for x in xs]
        assert xs_base == [space.dist(x, x0) for x in xs]
        assert ys_base == [space.dist(y, x0) for y in ys]

        for left, right in (xs[:6], ys[:5]), ([], ys[:5]), (xs[:6], []), (points, points[::-1]):
            alpha = diagram_from_list(left, space)
            beta = diagram_from_list(right, space)
            left, right = alpha.expand(), beta.expand()
            n = len(left)
            expected = [[space.dist(x, y) for y in right] + [space.dist(x, x0)] * n for x in left]
            expected += [[space.dist(y, x0) for y in right] + [0.0] * n for _ in right]
            costs = _space_costs(alpha, beta)
            assert costs.square() == expected
            immortal += INF in costs.a
    assert immortal >= 3


def test_quotient_metric_direct_route_wins_nearby():
    quot = halfplane_quotient(INF, 1.0)
    assert quot.dist((0.0, 2.0), (0.0, 3.0)) == pytest.approx(1.0)


def test_check_p_strengthened_and_subset_compat(rng):
    space = halfplane_quotient(2.0, 2.0)
    pairs = [(space.sample_point(rng), space.sample_point(rng)) for _ in range(200)]
    assert check_p_strengthened(space, 2.0, pairs)
    # A 1-strengthened metric need not be inf-strengthened.
    weak = two_point_space(2.0)
    assert check_p_strengthened(weak, 1.0, [("a", "b")])
    assert not check_p_strengthened(weak, INF, [("a", "b")])
    ambient_pairs = [(space.ambient.sample_point(rng), space.ambient.sample_point(rng))
                     for _ in range(200)]
    assert check_subset_dist_compatible(space.ambient, space.subset_dist,
                                        ambient_pairs)
    # Full persistence is not 1-Lipschitz for the l2 ground metric.
    assert not check_subset_dist_compatible(
        space.ambient, lambda x: x[1] - x[0], [((0.0, 2.0), (1.0, 1.0))]
    )


def test_pullback_metric():
    space = two_point_space(2.0)
    pulled = pullback_metric(lambda s: s.strip(), space)
    assert pulled(" a ", "b") == 2.0
    assert pulled("a", "a") == 0.0
    # A bare distance function works as the target too.
    from_callable = pullback_metric(abs, lambda u, v: abs(u - v))
    assert from_callable(-3.0, 2.0) == 1.0


def test_product_metric():
    left = two_point_space(2.0)
    right = two_point_space(3.0)
    prod = product_metric(left, right, 2.0)
    assert prod.dist(("a", "a"), ("b", "b")) == pytest.approx(math.sqrt(13.0))
    assert prod.dist(("a", "a"), ("a", "b")) == 3.0
    assert prod.basepoint == ("o", "o")


def test_product_with_a_non_pointed_factor_has_no_basepoint():
    finite = FiniteSpace(["o", "a"], [[0, 1], [1, 0]], "o")
    prod = product_metric(HalfPlane(2.0), finite, 1.0)
    assert prod.dist(((0.0, 1.0), "a"), ((0.0, 1.0), "o")) == 1.0
    with pytest.raises(DomainError, match="halfplane-ambient"):
        diagram_from_list([((0.0, 1.0), "a")], prod)


def _composed_spaces():
    """Pointed spaces built from pointed spaces: products, a strengthened
    product and a remetrized strengthening."""
    finite = FiniteSpace(["o", "a", "b"], [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]], "o")
    prod = product_metric(halfplane_quotient(INF, 1.0), finite, 2.0)
    strong = p_strengthen(prod, INF)
    return {
        "halfplane-x-finite": prod,
        "halfplane-x-halfplane": product_metric(
            halfplane_quotient(INF, 1.0), halfplane_quotient(2.0, 2.0), 1.0),
        "strengthened-product": strong,
        "remetrized-strengthening": remetrize(
            strong, lambda x, y: 0.5 * strong.dist(x, y), "half"),
    }


@pytest.mark.parametrize("name", list(_composed_spaces()))
def test_composed_pointed_spaces_solve(rng, name):
    """pairwise is dist, the solver meets the oracle and the W_1 certificate
    closes on products, strengthenings and remetrizations of them."""
    space = _composed_spaces()[name]
    x0 = space.basepoint
    for _ in range(6):
        xs = [space.sample_point(rng) for _ in range(rng.randint(0, 4))]
        ys = [space.sample_point(rng) for _ in range(rng.randint(0, 4))]
        rows, xs_base, ys_base = space.pairwise(xs + [x0], ys)
        assert rows == [[space.dist(x, y) for y in ys] for x in xs + [x0]]
        assert xs_base == [space.dist(x, x0) for x in xs + [x0]]
        assert ys_base == [space.dist(y, x0) for y in ys]

        alpha, beta = diagram_from_list(xs, space), diagram_from_list(ys, space)
        for p in (1.0, 2.0, INF):
            expected = brute_force_wasserstein(alpha, beta, p)
            assert wasserstein_value(alpha, beta, p) == pytest.approx(expected, rel=1e-9)
            assert wasserstein(alpha, beta, p)[0] == pytest.approx(expected, rel=1e-9)
        cert = kr_certificate(alpha, beta)
        assert abs(cert.primal_value - cert.dual_value) <= 1e-8
        assert feasibility_violation(cert) <= 1e-12


def test_product_basepoint_class_leaves_the_diagram():
    """A pair of basepoint-class coordinates is the basepoint of a product."""
    prod = _composed_spaces()["halfplane-x-finite"]
    assert prod.canonical(((1.0, 1.0), "o")) == prod.basepoint
    assert diagram_from_list([((1.0, 1.0), "o")], prod) == empty_diagram(prod)
    alpha = diagram_from_list([((0.0, 2.0), "a"), ((3.0, 3.0), "o")], prod)
    beta = diagram_from_list([((1.0, 2.0), "b")], prod)
    assert alpha.size == 1
    assert wasserstein_value(alpha, beta, 1.0) == 1.8027756377319948


def test_spaces_compare_by_signature():
    assert halfplane_quotient(2.0, 1.0).signature == \
        halfplane_quotient(2.0, 1.0).signature
    assert halfplane_quotient(2.0, 1.0).signature != \
        halfplane_quotient(2.0, 2.0).signature
    # A strengthening is a quotient of its base, yet not a default one.
    base = two_point_space(2.0)
    assert p_strengthen(base, 1.0).signature == p_strengthen(base, 1.0).signature
    assert p_strengthen(base, 1.0).signature != \
        quotient_metric(base, lambda x: base.dist(x, "a"), 1.0).signature


def test_signatures_name_the_subset_and_remetrized_distances():
    # Quotients by different subsets, and remetrizations by different
    # distances, are different spaces even with equal bases and labels.
    space = FiniteSpace(["o", "a", "b"], [[0, 1, 2], [1, 0, 3], [2, 3, 0]], "o")
    by_a = quotient_metric(space, lambda x: space.dist(x, "a"), 1.0)
    by_b = quotient_metric(space, lambda x: space.dist(x, "b"), 1.0)
    near = remetrize(space, lambda x, y: 0.0 if x == y else 1.0)
    far = remetrize(space, lambda x, y: 0.0 if x == y else 5.0)
    for left, right in ((by_a, by_b), (near, far)):
        alpha, beta = diagram_from_list(["o"], left), diagram_from_list(["o"], right)
        assert alpha != beta
        with pytest.raises(DomainError):
            wasserstein_value(alpha, beta, 1.0)
