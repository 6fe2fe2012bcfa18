import json
import math
import random
from pathlib import Path

import pytest

from pdmetric.diagram import diagram_from_list, empty_diagram, include
from pdmetric.errors import PreconditionError
from pdmetric.metric_core import INF, FiniteSpace, p_strengthen
from pdmetric.spaces import halfplane_quotient
from pdmetric.universality import (
    REAL_LINE,
    MetricMonoid,
    check_maximality,
    check_restriction_trichotomy,
    converse_stability,
    extend_lipschitz,
    lipschitz_norm,
)
from pdmetric.verify import random_finite_space
from pdmetric.wasserstein import wasserstein_value

SPACE = FiniteSpace(
    ["o", "a", "b"],
    [
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ],
    "o",
)


def test_lipschitz_norm_exact_value():
    phi = {"o": 0.0, "a": 2.0, "b": 2.0}.__getitem__
    assert lipschitz_norm(phi, SPACE, REAL_LINE.dist) == 2.0


def test_lipschitz_norm_degenerate_cases():
    assert lipschitz_norm(lambda x: 0.0, SPACE, REAL_LINE.dist) == 0.0
    # A map separating points at pseudodistance zero has infinite norm.
    glued = FiniteSpace(
        ["o", "a"], [[0.0, 0.0], [0.0, 0.0]], "o"
    )
    assert lipschitz_norm({"o": 0.0, "a": 1.0}.__getitem__, glued,
                          REAL_LINE.dist) == INF
    # Infinite ground distance imposes no constraint at all.
    split = FiniteSpace(["o", "a"], [[0.0, INF], [INF, 0.0]], "o")
    assert lipschitz_norm({"o": 0.0, "a": 5.0}.__getitem__, split,
                          REAL_LINE.dist) == 0.0


def test_extend_lipschitz_is_bounded_by_norm():
    space = halfplane_quotient(INF, 1.0)

    def persistence(x):
        return 0.0 if x == space.basepoint else x[1] - x[0]

    rng = random.Random(13)
    for _ in range(100):
        alpha = diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 4))], space)
        beta = diagram_from_list(
            [space.sample_point(rng) for _ in range(rng.randint(0, 4))], space)
        lhs = abs(extend_lipschitz(persistence, alpha, REAL_LINE, 1.0)
                  - extend_lipschitz(persistence, beta, REAL_LINE, 1.0))
        assert lhs <= 2.0 * wasserstein_value(alpha, beta, 1.0) + 1e-9


def test_extend_lipschitz_norm_attained_on_singletons():
    space = halfplane_quotient(INF, 1.0)

    def persistence(x):
        return 0.0 if x == space.basepoint else x[1] - x[0]

    alpha = diagram_from_list([(0.0, 2.0)], space)
    value = extend_lipschitz(persistence, alpha, REAL_LINE, 1.0)
    assert value == pytest.approx(
        2.0 * wasserstein_value(alpha, empty_diagram(space), 1.0))


def test_extend_lipschitz_requires_subadditive_target():
    # The real line is 1-subadditive but not 2-subadditive.
    alpha = diagram_from_list(["a"], SPACE)
    with pytest.raises(PreconditionError):
        extend_lipschitz(lambda x: 0.0, alpha, REAL_LINE, 2.0)


def test_metric_monoid_custom_target():
    # Diagrams over SPACE with W_1 form a 1-subadditive monoid.
    monoid = MetricMonoid(
        add=lambda a, b: a + b,
        identity=empty_diagram(SPACE),
        dist=lambda a, b: wasserstein_value(a, b, 1.0),
        subadditive_p=1.0,
    )
    alpha = diagram_from_list(["a", "b"], SPACE)
    image = extend_lipschitz(lambda x: include(x, SPACE), alpha, monoid, 1.0)
    assert image == alpha


@pytest.mark.parametrize("q", [1.0, 2.0, INF])
def test_check_maximality_passes_for_wq(q, rng):
    def rho(a, b):
        return wasserstein_value(a, b, q)

    report = check_maximality(SPACE, rho, 1.0, max_size=2, rng=rng)
    assert report.status == "pass"


def test_check_maximality_rejects_oversized(rng):
    def rho(a, b):
        return 2.0 * wasserstein_value(a, b, 1.0)

    report = check_maximality(SPACE, rho, 1.0, max_size=2, rng=rng)
    assert report.status == "precondition_failed"
    assert "1-Lipschitz" in report.witness["reason"]


def test_check_maximality_rejects_non_subadditive(rng):
    def rho(a, b):
        # Squared W_1: 1-Lipschitz on singletons (all ground distances are
        # <= 2 here) but grows superadditively under disjoint unions.
        return 0.5 * wasserstein_value(a, b, 1.0) ** 2

    report = check_maximality(SPACE, rho, 1.0, max_size=2, rng=rng,
                              subadditivity_samples=500)
    assert report.status == "precondition_failed"
    assert "subadditive" in report.witness["reason"]


def test_restriction_trichotomy_on_strengthened_space():
    strong = p_strengthen(SPACE, INF)
    report = check_restriction_trichotomy(strong, INF, SPACE.labels)
    assert report.ok
    assert report.witness["strengthened"] is True
    assert report.witness["restriction_equals"] is True


def test_restriction_trichotomy_on_raw_space():
    wide = FiniteSpace(
        ["o", "a", "b"],
        [
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 10.0],
            [1.0, 10.0, 0.0],
        ],
        "o",
    )
    report = check_restriction_trichotomy(wide, INF)
    assert report.ok
    assert report.witness["strengthened"] is False
    assert report.witness["restriction_equals"] is False


def test_converse_stability_roundtrip(rng):
    def rho(a, b):
        return wasserstein_value(a, b, INF)

    report = converse_stability(SPACE, rho, INF, rng, sample_diagrams=25)
    assert report.status == "pass"


def test_converse_stability_rejects_non_subadditive(rng):
    def rho(a, b):
        return 3.0 * wasserstein_value(a, b, 1.0) ** 2

    report = converse_stability(SPACE, rho, 1.0, rng, sample_diagrams=25,
                                subadditivity_samples=500)
    assert report.status == "precondition_failed"


def _boosted(a, b):
    """W_1 between diagrams of at most one atom, 2 W_1 otherwise: 1-Lipschitz
    on points, so only the comparison with W_1 itself can reject it."""
    value = wasserstein_value(a, b, 1.0)
    return value if a.size <= 1 and b.size <= 1 else 2.0 * value


def pinned_reports() -> list[dict]:
    """The reports of the three universality checks on seeded inputs: every
    status each can give, with its witness."""
    reports = []
    for seed in (5, 6):
        space = random_finite_space(random.Random(seed), size=4)
        for p in (1.0, 2.0, INF):
            for candidate in (space, p_strengthen(space, p)):
                reports.append(check_restriction_trichotomy(candidate, p, space.labels))
        rhos = [
            (lambda a, b: wasserstein_value(a, b, INF), {}),
            (lambda a, b: 2.0 * wasserstein_value(a, b, 1.0), {}),
            (lambda a, b: 0.5 * wasserstein_value(a, b, 1.0) ** 2,
             {"subadditivity_samples": 500}),
            (_boosted, {"subadditivity_samples": 0}),
        ]
        for rho, options in rhos:
            reports.append(check_maximality(space, rho, 1.0, max_size=2,
                                            rng=random.Random(seed), **options))
            reports.append(converse_stability(space, rho, 1.0, random.Random(seed),
                                              sample_diagrams=12, **options))
    return [report.as_dict() for report in reports]


PINNED_REPORTS = Path(__file__).parent / "golden" / "universality-reports.json"


def test_universality_reports_match_their_pin():
    # Every status of each check, with its witness; a failing check names
    # its bound "wasserstein" (maximality) or "bound" (converse stability).
    assert pinned_reports() == json.loads(PINNED_REPORTS.read_text())
