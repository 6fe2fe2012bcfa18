import dataclasses
import math
import random
from pathlib import Path

import pytest

from pdmetric.diagram import diagram_from_list, empty_diagram
from pdmetric.errors import DomainError, PreconditionError
from pdmetric.io import load_diagram
from pdmetric.kr_duality import (
    dual_objective,
    duality_gap,
    feasibility_violation,
    kr_certificate,
    mcshane_extend,
    support_function,
    tightness_violation,
)
from pdmetric.metric_core import INF, SOLVE_TOL, FiniteSpace, relative_excess
from pdmetric.spaces import halfplane_quotient
from pdmetric.verify import _random_lipschitz_candidate
from pdmetric.wasserstein import wasserstein_value

SPACE = halfplane_quotient(INF, 1.0)
GOLDEN = Path(__file__).parent / "golden"


def make(points):
    return diagram_from_list(points, SPACE)


def test_certificate_on_known_instance():
    alpha = make([(0.0, 2.0), (3.0, 4.0), (3.0, 4.0)])
    beta = make([(0.0, 4.0)])
    cert = kr_certificate(alpha, beta)
    assert cert.primal_value == pytest.approx(3.0)
    assert cert.dual_value == pytest.approx(3.0, abs=1e-8)
    assert cert.has_certificate
    assert cert.n == 3 and cert.m == 1 and cert.r == 4
    assert len(cert.y) == 2 * cert.r
    assert feasibility_violation(cert) <= 1e-12
    assert tightness_violation(cert) <= 1e-8


def test_support_function_reproduces_dual_value():
    alpha = make([(0.0, 2.0), (1.0, 5.0)])
    beta = make([(0.0, 4.0), (6.0, 7.0), (2.0, 3.0)])
    cert = kr_certificate(alpha, beta)
    h = support_function(cert)
    assert dual_objective(h, alpha, beta) == pytest.approx(cert.dual_value, abs=1e-8)
    assert dual_objective(h, alpha, beta) == pytest.approx(
        wasserstein_value(alpha, beta, 1.0), abs=1e-8)
    # Every support point carries a value; missing points are rejected.
    for point in h.order:
        assert point in h
    with pytest.raises(DomainError):
        h.value((99.0, 100.0))


def test_support_function_handles_coincident_points():
    # The same point on both sides forces equal potentials there.
    alpha = make([(0.0, 2.0)])
    beta = make([(0.0, 2.0)])
    cert = kr_certificate(alpha, beta)
    h = support_function(cert)
    # Left potential of the point (row 0) against its right potential (column 0).
    assert cert.y[0] == pytest.approx(cert.y[cert.r])
    assert h.value((0.0, 2.0)) == cert.y[0]
    assert cert.primal_value == 0.0


def test_certificate_is_the_compact_solves_duals():
    # The certificate is the W_1 solve's duals: the compact solve prices the
    # basepoint at 0 on both sides, the paper's h(x0) = 0, so every pad
    # potential is 0.  That holds with immortal atoms too (the golden pair).
    rng = random.Random(1414)
    space = halfplane_quotient(2.0, 1.0)

    def points(k):
        births = [rng.uniform(-5.0, 5.0) for _ in range(k)]
        return [(b, b + rng.uniform(0.1, 6.0)) for b in births]

    grid = tuple(load_diagram(str(GOLDEN / name), SPACE)
                 for name in ("grid40-left.json", "grid40-right.json"))
    pairs = [(diagram_from_list(points(rng.randint(1, 8)), space),
              diagram_from_list(points(rng.randint(1, 8)), space)) for _ in range(20)]
    immortal = tuple(load_diagram(str(GOLDEN / name), halfplane_quotient(2.0, 1.0, extended=True))
                     for name in ("immortal-left.json", "immortal-right.json"))
    pairs += [(diagram_from_list(points(5), space), empty_diagram(space)), grid, immortal]
    for alpha, beta in pairs:
        cert = kr_certificate(alpha, beta)
        n, m, r = cert.n, cert.m, cert.r
        h = support_function(cert)
        assert h.value(alpha.space.basepoint) == 0.0
        assert all(y == 0.0 for y in cert.y[n:r] + cert.y[r + m:])
        assert feasibility_violation(cert) <= 1e-12
        assert tightness_violation(cert) <= 1e-8
        assert dual_objective(h, alpha, beta) == pytest.approx(cert.primal_value, rel=1e-12)


def test_support_function_rejects_disagreeing_potentials():
    # A ground distance breaking the triangle inequality (d(o, a) = 2 >
    # d(o, b) + d(b, a) = 1) leaves the two copies of b different potentials.
    space = FiniteSpace(["o", "a", "b"], [[0, 2, 1], [2, 0, 0], [1, 0, 0]], "o")
    cert = kr_certificate(diagram_from_list(["a"] * 3 + ["b"], space),
                          diagram_from_list(["b"], space))
    with pytest.raises(DomainError, match="coincident point 'b'.*triangle inequality"):
        support_function(cert)


@pytest.mark.parametrize("scale", [1e8, 1e12, 1e16])
def test_support_function_at_large_scales_with_repeated_atoms(scale):
    # Potentials round in proportion to the scale, so an absolute tolerance
    # on coincident points rejected some of these valid certificates.
    space = halfplane_quotient(2.0, 1.0)
    rng = random.Random(int(scale) % 1000 + 7)

    def points():
        out = []
        for _ in range(rng.randint(0, 4)):
            b = rng.uniform(0.0, 1.0) * scale
            out += [(b, b + rng.uniform(0.0, 1.0) * scale)] * rng.randint(1, 3)
        return out

    for _ in range(60):
        alpha = diagram_from_list(points(), space)
        beta = diagram_from_list(points(), space)
        cert = kr_certificate(alpha, beta)
        h = support_function(cert)
        assert dual_objective(h, alpha, beta) == pytest.approx(cert.primal_value, rel=1e-12)


def test_support_function_rejects_a_disagreement_at_small_scale():
    # Two copies of one atom whose potentials differ by 1e-3 of the
    # certificate's scale: a tolerance floored at an absolute 1e-9 let it
    # through once the whole instance sat at 2^-40.
    scale = 2.0 ** -40
    alpha = make([(0.0, 2.0 * scale)] * 2)
    cert = kr_certificate(alpha, make([(0.0, 4.0 * scale)]))
    assert cert.left_points[0] == cert.left_points[1]
    support_function(cert)
    y = list(cert.y)
    y[1] += 1e-3 * max(map(abs, y))
    with pytest.raises(DomainError, match="coincident point"):
        support_function(dataclasses.replace(cert, y=tuple(y)))


def test_mcshane_extension_agrees_and_is_lipschitz():
    rng = random.Random(23)
    alpha = make([(0.0, 2.0), (1.0, 5.0), (4.0, 9.0)])
    beta = make([(0.0, 4.0)])
    cert = kr_certificate(alpha, beta)
    h = support_function(cert)
    for point, value in h.items():
        assert mcshane_extend(h, point) == pytest.approx(value, abs=1e-9)
    probes = [SPACE.sample_point(rng) for _ in range(30)] + list(h.order)
    values = {x: mcshane_extend(h, x) for x in probes}
    for x in probes:
        for y in probes:
            assert values[x] - values[y] <= SPACE.dist(x, y) + 1e-12


def test_mcshane_requires_support():
    cert = kr_certificate(empty_diagram(SPACE), empty_diagram(SPACE))
    h = support_function(cert)
    with pytest.raises(PreconditionError):
        mcshane_extend(h, (0.0, 1.0))


def test_duality_gap_zero_at_optimum():
    alpha = make([(0.0, 2.0), (3.0, 4.0)])
    beta = make([(0.0, 4.0)])
    cert = kr_certificate(alpha, beta)
    h = support_function(cert)
    assert duality_gap(alpha, beta, h) == pytest.approx(0.0, abs=1e-8)


def test_duality_gap_nonnegative_for_feasible_candidates():
    rng = random.Random(71)
    alpha = make([(0.0, 2.0), (3.0, 4.0)])
    beta = make([(0.0, 4.0), (5.0, 6.0)])
    support = sorted(set(alpha.expand()) | set(beta.expand()) | {SPACE.basepoint},
                     key=SPACE.sort_key)
    for _ in range(50):
        anchor = rng.choice(support)
        value = rng.uniform(-2.0, 2.0)
        candidate = {x: value - SPACE.dist(x, anchor) for x in support}
        assert duality_gap(alpha, beta, candidate) >= -1e-9


def test_duality_gap_accepts_distance_cones_at_large_scale():
    # A max of distance cones is 1-Lipschitz up to the rounding of its
    # distances, which at 2^40 passes any absolute slack.
    scale = 2.0 ** 40
    rng = random.Random(11)

    def scaled():
        return make([(scale * b, scale * d) for b, d in
                     (SPACE.sample_point(rng) for _ in range(rng.randint(0, 4)))])

    for _ in range(30):
        alpha, beta = scaled(), scaled()
        support = sorted(set(alpha.expand()) | set(beta.expand()) | {SPACE.basepoint},
                         key=SPACE.sort_key)
        candidate = _random_lipschitz_candidate(support, SPACE.pairwise(support, support)[0],
                                                rng)
        gap = duality_gap(alpha, beta, candidate)
        assert relative_excess(0.0, gap, *candidate.values()) <= SOLVE_TOL


def test_duality_gap_rejects_non_lipschitz_candidate():
    alpha = make([(0.0, 2.0)])
    beta = make([(0.0, 4.0)])
    candidate = {
        (0.0, 2.0): 10.0,
        (0.0, 4.0): 0.0,
        SPACE.basepoint: 0.0,
    }
    with pytest.raises(PreconditionError):
        duality_gap(alpha, beta, candidate)


def test_duality_gap_requires_basepoint_value_when_sizes_differ():
    alpha = make([(0.0, 2.0), (3.0, 4.0)])
    beta = make([(0.0, 4.0)])
    candidate = {
        (0.0, 2.0): 0.5,
        (3.0, 4.0): 0.0,
        (0.0, 4.0): 0.0,
    }
    with pytest.raises(PreconditionError):
        duality_gap(alpha, beta, candidate)
    # With equal sizes the basepoint value is not consulted.
    gamma = make([(0.0, 2.0)])
    delta = make([(0.0, 4.0)])
    assert duality_gap(gamma, delta, {(0.0, 2.0): 0.0, (0.0, 4.0): 0.0}) >= 0.0


def test_infinite_primal_has_no_certificate():
    space = halfplane_quotient(INF, 1.0, extended=True)
    alpha = diagram_from_list([(0.0, INF)], space)
    beta = empty_diagram(space)
    cert = kr_certificate(alpha, beta)
    assert cert.primal_value == INF
    assert not cert.has_certificate
    assert cert.y is None


def test_certificate_past_the_float_range():
    # Two atoms 1e308 from the diagonal: the optimum is finite in the reals
    # but past the largest float, so primal and dual read inf, with duals.
    alpha = make([(-1e308, 1e308), (-1e308, 1e308)])
    beta = empty_diagram(SPACE)
    cert = kr_certificate(alpha, beta)
    assert cert.primal_value == cert.dual_value == INF
    assert cert.y == (1e308, 1e308, 0.0, 0.0)
    assert dual_objective(support_function(cert), alpha, beta) == INF


@pytest.mark.parametrize("flip", [False, True])
def test_duality_gap_past_the_float_range(flip):
    # W_1 and the certificate's dual objective both read inf, so their float
    # difference is nan; the exact sum of the matched costs less the dual's
    # terms gives the gap at optimal potentials, 0, in either order.
    alpha = make([(-1e308, 1e308), (-1e308, 1e308)])
    pair = (empty_diagram(SPACE), alpha) if flip else (alpha, empty_diagram(SPACE))
    h = support_function(kr_certificate(*pair))
    assert wasserstein_value(*pair, 1.0) == dual_objective(h, *pair) == INF
    assert duality_gap(*pair, h) == 0.0
    # An infinite candidate value is refused, even against an infinite W_1.
    space = halfplane_quotient(INF, 1.0, extended=True)
    immortal = diagram_from_list([(0.0, INF)], space)
    candidate = {immortal.expand()[0]: INF, space.basepoint: 0.0}
    with pytest.raises(PreconditionError, match="not finite"):
        duality_gap(immortal, empty_diagram(space), candidate)


@pytest.mark.parametrize("bad", [INF, -INF, math.nan])
def test_non_finite_candidate_values_are_refused(bad):
    # KR potentials are real-valued.  An infinite value on an atom of each
    # side passes the 1-Lipschitz check, which compares nan, and would sum
    # inf - inf; each is refused with the point it sits at.
    space = halfplane_quotient(INF, 1.0, extended=True)
    alpha, beta = (diagram_from_list([point], space) for point in [(0.0, INF), (1.0, INF)])
    candidate = {(0.0, INF): bad, (1.0, INF): bad}
    with pytest.raises(PreconditionError, match=r"at \(0\.0, inf\) is not finite"):
        dual_objective(candidate, alpha, beta)
    with pytest.raises(PreconditionError, match=r"at \(0\.0, inf\) is not finite"):
        duality_gap(alpha, beta, candidate)
    # So is a non-finite basepoint value when the sizes differ.
    mortal = diagram_from_list([(0.0, 2.0)], space)
    candidate = {(0.0, 2.0): 0.0, space.basepoint: bad}
    with pytest.raises(PreconditionError, match="not finite"):
        dual_objective(candidate, mortal, empty_diagram(space))
    with pytest.raises(PreconditionError, match="not finite"):
        duality_gap(mortal, empty_diagram(space), candidate)


def test_empty_instance_certificate():
    cert = kr_certificate(empty_diagram(SPACE), empty_diagram(SPACE))
    assert cert.primal_value == 0.0
    assert cert.dual_value == 0.0
    assert cert.has_certificate
    assert feasibility_violation(cert) <= 0.0
    assert duality_gap(empty_diagram(SPACE), empty_diagram(SPACE), {}) == 0.0
