import hashlib
import importlib
import json
import math
import random
from pathlib import Path

import pytest

from pdmetric import verify
from pdmetric.io import dump_json, json_ready
from pdmetric.metric_core import INF
from pdmetric.spaces import HalfPlane, halfplane_quotient
from pdmetric.verify import (
    SUITES,
    _Worst,
    _random_lipschitz_candidate,
    duality_suite,
    metric_axioms_suite,
    oracle_suite,
    random_diagram,
    run_suite,
    word_metric_suite,
)

wasserstein_module = importlib.import_module("pdmetric.wasserstein")

# Small instance counts keep the whole module quick; the acceptance tests
# run the full-size counterparts.
SMALL = {
    "metric-axioms": 20,
    "padding": 20,
    "subadditivity": 20,
    "monotonicity": 20,
    "oracle": 20,
    "duality": 8,
    "strengthening": 20,
    "quotient-reduced": 12,
    "universality": 15,
    "converse-stability": 15,
    "word-metric": 6,
}


# The reports of test_each_suite_passes, one per suite in SUITES order.  A
# passing check carries only its name and status, so the file pins which
# checks each suite runs and in what order.
GOLDEN_SMALL = Path(__file__).parent / "golden" / "verify-small.json"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    report = run_suite(name, seed=4, samples=SMALL[name])
    assert report["suite"] == name
    assert report["passed"], [c for c in report["checks"] if c["status"] != "pass"]
    assert report["seed"] == 4
    assert report["checks"]
    [expected] = [r for r in json.loads(GOLDEN_SMALL.read_text()) if r["suite"] == name]
    assert json.loads(dump_json(report)) == expected


# sha256 over (p, value) of every W_p solve each suite makes at
# test_each_suite_passes's seed and sizes, values rounded as dump_json rounds
# them.  A passing check shows only its status, so this pins the instances a
# suite draws and the values it reads, which the report cannot show.
SOLVED_VALUE_DIGESTS = {
    "converse-stability": "a79c0fa554ae17bc0de5137eded7a112db0b54e83f7bdbafeb61c7baf9ad9eef",
    "duality": "a9292dff7e640507d800f23d1ed1ffb059ede69019a0c3676dc4397d74ad16ad",
    "metric-axioms": "bb08ccbae21ddf6c6cd3e5fb9f9b0c1bd6ce0f9b9451a40673f97cd42dcadd34",
    "monotonicity": "4b73ee22f23f3456069fa5046e01298f702bf3cb0cf0dba6207a680a7f3cac5f",
    "oracle": "14caffc07a066a02b1c4def3d023de3ebabd381c69e8ac780dab2119565f8169",
    "padding": "b45a9358091f36a34674cc1b7aa222971173f5303162a7f4f57b36af7998acf9",
    "quotient-reduced": "e34647fdd2e8472854adb9350d5705c7f87b21ab20f994cafd3850bc9dcf51ef",
    "strengthening": "af6b88df032a09bd00fc16c4e794a255e2863649e31c154175addddf263a07be",
    "subadditivity": "8406e2f7c9ea6e49f77e7c333a15e50be1493c5d051e1983a0d179fcd07cfaba",
    "universality": "6b2d9d319aadc28995b9c00365a24003e58538404a0088ab6f09f09f63c1438e",
    "word-metric": "e372fd2c24df0db95425f34d030bc223dc82df7afe9cbacc5ef13098930c4d01",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_solves_its_pinned_values(monkeypatch, name):
    digest = hashlib.sha256()
    solve_one = wasserstein_module._solve

    def recording(costs, p):
        solved = solve_one(costs, p)
        digest.update(repr(json_ready((p, solved.value))).encode())
        return solved

    monkeypatch.setattr(wasserstein_module, "_solve", recording)
    run_suite(name, seed=4, samples=SMALL[name])
    assert digest.hexdigest() == SOLVED_VALUE_DIGESTS[name]


def test_reports_are_deterministic():
    first = run_suite("subadditivity", seed=99, samples=30)
    second = run_suite("subadditivity", seed=99, samples=30)
    assert first == second


def test_different_seeds_change_witness_sampling():
    # Same structure, same verdict; the point is only that the seed is used.
    first = metric_axioms_suite(1, triples=10, axiom_triples=10)
    second = metric_axioms_suite(2, triples=10, axiom_triples=10)
    assert first["seed"] != second["seed"]
    assert first["passed"] and second["passed"]


def test_unknown_suite_name():
    # A plain ValueError is a usage error, which the CLI exits 2 on.
    with pytest.raises(ValueError, match="unknown suite 'nonsense'") as raised:
        run_suite("nonsense", seed=1)
    assert raised.type is ValueError


def test_run_all_aggregates():
    report = run_suite("all", seed=3, samples=6)
    assert report["suite"] == "all"
    assert report["passed"]
    assert sorted(r["suite"] for r in report["suites"]) == sorted(SUITES)


def test_oracle_suite_counts_scale():
    report = oracle_suite(5, instances=10)
    names = [c["property"] for c in report["checks"]]
    assert any("oracle" in name for name in names)


def test_duality_suite_reports_certificate_checks():
    report = duality_suite(5, instances=5, candidates_per_instance=5)
    names = [c["property"] for c in report["checks"]]
    assert any("gap" in n for n in names)
    assert any("feasib" in n for n in names)
    assert any("lipschitz" in n.lower() for n in names)
    assert any("weak-duality" in n for n in names)


def test_lipschitz_candidates_from_the_table_match_sampled_points():
    # The duality report only names failing witnesses, so pin the candidates
    # and the rng state they leave against drawing anchors as points.
    space = halfplane_quotient(INF, 1.0)
    rng = random.Random(31)
    for _ in range(40):
        alpha = random_diagram(space, rng, 4)
        beta = random_diagram(space, rng, 4)
        support = sorted(set(alpha.expand()) | set(beta.expand())
                         | {space.basepoint}, key=space.sort_key)
        dists = [[space.dist(x, y) for y in support] for x in support]
        ours, ref = random.Random(rng.random()), random.Random()
        ref.setstate(ours.getstate())
        for _ in range(10):
            anchors = ref.sample(support, ref.randint(1, len(support)))
            values = [ref.uniform(-2.0, 2.0) for _ in anchors]
            expected = {x: max(v - space.dist(x, a) for a, v in zip(anchors, values))
                        for x in support}
            assert _random_lipschitz_candidate(support, dists, ours) == expected
            assert ours.getstate() == ref.getstate()


def test_word_metric_suite_covers_small_groups():
    report = word_metric_suite(4, max_order=6)
    assert report["passed"]
    names = [c["property"] for c in report["checks"]]
    assert names == ["cyclic[2]", "cyclic[3]", "cyclic[4]", "cyclic[5]",
                     "cyclic[6]", "klein-four"]


def test_worst_builds_a_witness_only_for_a_new_worst_or_nan():
    built = []

    def witness(tag):
        def build():
            built.append(tag)
            return {"tag": tag}
        return build

    worst = _Worst()
    assert worst.check("empty", 0.0).ok
    for tag, margin in enumerate([0.5, 0.25, 0.5, 2.0, 1.0]):
        worst.see(margin, witness(tag))
    assert (worst.margin, worst.witness, built) == (2.0, {"tag": 3}, [0, 3])
    failed = worst.check("too-big", 1.0)
    assert not failed.ok and failed.witness == {"tag": 3}
    assert worst.check("loose", 2.0).witness is None
    assert worst.check("own-witness", 1.0, {"gap": 2.0}).witness == {"gap": 2.0}

    worst.see(math.nan, witness("nan"))
    worst.see(5.0, witness("after"))
    assert built[-1] == "nan" and worst.witness == {"tag": "nan"}
    assert not worst.check("nan", INF).ok


NAN_MARGIN_SUITES = ["padding", "subadditivity", "monotonicity", "quotient-reduced",
                     "strengthening", "oracle"]


@pytest.mark.parametrize("name", NAN_MARGIN_SUITES)
def test_nan_margin_fails_every_margin_check(monkeypatch, name):
    # A solver that answers NaN must fail the suites that compare its values.
    monkeypatch.setattr(verify, "wasserstein_value", lambda a, b, p: math.nan)
    report = run_suite(name, seed=3, samples=8)
    assert report["passed"] is False


# The witness keys of each margin check: a failing check names its worst
# instance with exactly these.
WITNESS_KEYS = {
    "subadditivity": {"a", "b", "c", "d", "joint", "split"},
    "oracle": {"alpha", "beta", "solver", "brute"},
    "assignment-duals": {"n", "slack", "drift", "total", "exhaustive"},
    "anagram-closed-form": {"s", "t", "closed", "solved"},
    "quotient-reduced": {"alpha", "beta", "direct", "reduced"},
    "monotone-in-p": {"alpha", "beta", "p", "q", "W_p", "W_q"},
    "singleton-ratio": {"n", "p", "q", "ratio", "expected"},
}


@pytest.mark.parametrize("name", ["subadditivity", "oracle", "quotient-reduced",
                                  "monotonicity"])
def test_failing_checks_keep_their_witnesses(monkeypatch, name):
    solve = verify.wasserstein_value

    def perturbed(a, b, p):
        value = solve(a, b, p)
        return 1.5 * value + 0.25 if len(a) > len(b) else value

    monkeypatch.setattr(verify, "wasserstein_value", perturbed)
    report = run_suite(name, seed=7, samples=12)
    failed = [c for c in report["checks"] if c["status"] != "pass"]
    assert failed
    for check in failed:
        keys = WITNESS_KEYS[check["property"].split("[")[0]]
        assert isinstance(check["witness"], dict)
        assert set(check["witness"]) == keys, check


def test_failing_padding_check_names_its_first_instance(monkeypatch):
    # Every solve answers a new value, so every instance fails; each check's
    # witness is still the first instance it drew, whose plain value is the
    # check's first solve.  padding[empty] makes the one last solve.
    calls = []
    monkeypatch.setattr(verify, "wasserstein_value",
                        lambda a, b, p: calls.append(p) or float(len(calls) - 1))
    report = run_suite("padding", seed=5, samples=8)
    checks = report["checks"][:-1]
    assert len(checks) == 16 and all(c["status"] == "fail" for c in checks)
    per_check = (len(calls) - 1) // len(checks)
    assert [(c["witness"]["plain"], c["witness"]["padded"]) for c in checks] == [
        (per_check * k, per_check * k + 1.0) for k in range(16)]


# The suites whose instances live on the half-plane, at reduced samples.
SCALED_SUITES = {
    "metric-axioms": {"triples": 8, "axiom_triples": 30},
    "subadditivity": {"quadruples": 16},
    "oracle": {"instances": 16},
    "quotient-reduced": {"pairs": 6},
    "duality": {"instances": 6},
    "monotonicity": {"pairs": 10},
    "strengthening": {"pairs": 10},
    "universality": {"pairs": 10},
}


def statuses_at_scale(monkeypatch, k: int, fault: bool) -> dict:
    """Every check's status with half-plane samples scaled by 2^k, the
    solver's values multiplied by 1.01 where fault is set."""
    factor = 2.0 ** k
    sample = HalfPlane.sample_point
    monkeypatch.setattr(HalfPlane, "sample_point",
                        lambda self, rng: tuple(factor * c for c in sample(self, rng)))
    if fault:
        solve = verify.wasserstein_value
        monkeypatch.setattr(verify, "wasserstein_value", lambda a, b, p: 1.01 * solve(a, b, p))
    try:
        return {(name, check["property"]): check["status"]
                for name, sizes in SCALED_SUITES.items()
                for check in SUITES[name](4, **sizes)["checks"]}
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("fault", [False, True])
def test_every_check_reads_the_same_at_every_scale(monkeypatch, fault):
    # Scaling by a power of two is exact, and the solver is exactly
    # equivariant, so a scale-free check must not move: a correct solver
    # passes everywhere, and a 1% fault fails the same checks everywhere.
    at_one = statuses_at_scale(monkeypatch, 0, fault)
    failing = {key for key, status in at_one.items() if status != "pass"}
    if fault:
        assert ("oracle", "oracle[halfplane-q2,p=1]") in failing
        assert ("quotient-reduced", "quotient-reduced[p=2,q=2]") in failing
    else:
        assert not failing
    for k in (-40, 40):
        assert statuses_at_scale(monkeypatch, k, fault) == at_one, k
