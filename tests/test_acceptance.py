"""Acceptance gate: the headline guarantees at full sample sizes.

Each criterion records one PASS/FAIL line (echoed after the pytest summary)
and asserts.  Everything runs off the suites' default seed, so reruns are
reproducible.
"""

import time

import pytest

import conftest
from pdmetric.diagram import diagram_from_list
from pdmetric.kr_duality import kr_certificate, mcshane_extend, support_function
from pdmetric.metric_core import INF
from pdmetric.spaces import anagram_distance, halfplane_quotient
from pdmetric.verify import (
    DEFAULT_SEED,
    _rng,
    converse_stability_suite,
    duality_suite,
    metric_axioms_suite,
    monotonicity_suite,
    oracle_suite,
    padding_suite,
    quotient_reduced_suite,
    random_diagram,
    strengthening_suite,
    subadditivity_suite,
    universality_suite,
    word_metric_suite,
)

SEED = DEFAULT_SEED


def record(num: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d} [{title}]: {verdict}{suffix}")


def failing(report: dict) -> list[str]:
    return [c["property"] for c in report["checks"] if c["status"] != "pass"]


def test_criterion_01_worked_anagram_numbers():
    start = time.perf_counter()
    zero = anagram_distance("manifold", "mind loaf")
    three = anagram_distance("mathematics", "cat asthma")
    elapsed = time.perf_counter() - start
    ok = zero == 0 and three == 3 and elapsed < 0.010
    record(1, "worked anagram numbers", ok,
           f"d=({zero},{three}), {elapsed * 1000:.2f} ms")
    assert zero == 0 and three == 3
    assert elapsed < 0.010


def test_criterion_02_solver_matches_brute_force():
    start = time.perf_counter()
    report = oracle_suite(SEED, instances=500, max_size=4)
    elapsed = time.perf_counter() - start
    ok = report["passed"] and elapsed < 30.0
    record(2, "solver vs brute force", ok,
           f"500 instances per exponent, {elapsed:.1f} s")
    assert report["passed"], failing(report)
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def axioms_report():
    return metric_axioms_suite(SEED, triples=1000)


def test_criterion_03_metric_axioms_and_padding(axioms_report):
    padding = padding_suite(SEED, instances=500)
    ok = axioms_report["passed"] and padding["passed"]
    record(3, "metric axioms and padding", ok,
           "1000 triples per exponent pair, padding exact")
    assert axioms_report["passed"], failing(axioms_report)
    assert padding["passed"], failing(padding)


def test_criterion_04_order_structure():
    monotone = monotonicity_suite(SEED, pairs=500)
    invariance = strengthening_suite(SEED, pairs=500)
    ok = monotone["passed"] and invariance["passed"]
    record(4, "exponent order structure", ok,
           "monotone in p, strengthening invariant, singleton ratios exact")
    assert monotone["passed"], failing(monotone)
    assert invariance["passed"], failing(invariance)


def test_criterion_05_subadditivity():
    report = subadditivity_suite(SEED, quadruples=500)
    record(5, "subadditivity on sums", report["passed"], "500 quadruples")
    assert report["passed"], failing(report)


def test_criterion_06_quotient_reduction():
    report = quotient_reduced_suite(SEED, pairs=200)
    record(6, "quotient-reduced formulation", report["passed"],
           "200 pairs per exponent pair")
    assert report["passed"], failing(report)


def test_criterion_07_kr_duality():
    report = duality_suite(SEED, instances=200, candidates_per_instance=100)

    # Independent recount of the McShane Lipschitz bound: at least 1000
    # sampled pairs, violation at noise level.
    space = halfplane_quotient(INF, 1.0)
    rng = _rng(SEED, "acceptance/mcshane")
    pairs = 0
    worst = 0.0
    while pairs < 1000:
        alpha = random_diagram(space, rng, 4, min_size=1)
        beta = random_diagram(space, rng, 4)
        cert = kr_certificate(alpha, beta)
        h = support_function(cert)
        probes = [space.sample_point(rng) for _ in range(6)] + list(h.order)
        values = [mcshane_extend(h, x) for x in probes]
        for x, hx in zip(probes, values):
            for y, hy in zip(probes, values):
                worst = max(worst, abs(hx - hy) - space.dist(x, y))
                pairs += 1
    ok = report["passed"] and worst <= 1e-12
    record(7, "Kantorovich-Rubinstein duality", ok,
           f"200 instances, 100 candidates each, {pairs} Lipschitz pairs")
    assert report["passed"], failing(report)
    assert worst <= 1e-12


def test_criterion_08_universal_extension():
    report = universality_suite(SEED, pairs=200)
    record(8, "universal extension bounds", report["passed"],
           "norm bound, attainment, maximality")
    assert report["passed"], failing(report)


def test_criterion_09_converse_stability():
    report = converse_stability_suite(SEED, pairs=500)
    record(9, "interleaving converse stability", report["passed"],
           "500 interval pairs, 500 diagram pairs")
    assert report["passed"], failing(report)


def test_criterion_10_word_metric():
    report = word_metric_suite(SEED, max_order=12)
    record(10, "word metric via matching", report["passed"],
           "cyclic groups to order 12 plus Klein four, exhaustive")
    assert report["passed"], failing(report)


def test_criterion_11_quotient_and_equivalence_bounds(axioms_report):
    quotient_checks = [c for c in axioms_report["checks"]
                       if c["property"].startswith(("quotient-strengthened",
                                                    "subset-dist-compatible"))
                       or c["property"] == "axioms[finite-quotient]"]
    bounds = strengthening_suite(SEED, pairs=1000)
    ok = (bool(quotient_checks)
          and all(c["status"] == "pass" for c in quotient_checks)
          and bounds["passed"])
    record(11, "quotient and equivalence bounds", ok,
           f"{len(quotient_checks)} quotient checks, 1000 sampled pairs")
    assert quotient_checks
    assert all(c["status"] == "pass" for c in quotient_checks)
    assert bounds["passed"], failing(bounds)
