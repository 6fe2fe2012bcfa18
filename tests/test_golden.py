"""Golden outputs: wasserstein() over a fixed seeded instance set, and the
duality suite against the pinned verify report.

The digest below was computed with the earlier (e-maxx Hungarian) assignment
kernel; any change to a returned matching or its value changes it.  The
instances mix the three kinds of padded matrix the solver meets: distinct
float points, integer points with exact ties and repeated atoms, and
extended half-plane points whose infinite deaths forbid entries.
"""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from pdmetric import cli
from pdmetric.diagram import diagram_from_list
from pdmetric.io import dump_json
from pdmetric.metric_core import INF
from pdmetric.spaces import HalfPlaneSpace
from pdmetric.verify import DEFAULT_SEED, duality_suite
from pdmetric.wasserstein import wasserstein, wasserstein_value

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_REPORT = GOLDEN / "verify-all.json"

P_VALUES = (1.0, 2.0, 3.5, INF)
KINDS = ("random", "ties", "extended")
PER_CASE = 60
GOLDEN_SHA256 = "e52418ab2c9c05b1246eee8199b1b7c8a80f503383b52b251c50927ba6c12142"


def _points(rng, kind, immortal):
    """Up to 7 finite points, plus `immortal` points that die at infinity."""
    if kind == "ties":
        births = [rng.randint(0, 3) for _ in range(rng.randint(0, 7))]
        return [(float(b), float(b + rng.randint(0, 3))) for b in births]
    births = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(0, 7))]
    points = [(b, b + rng.uniform(0.0, 6.0)) for b in births]
    return points + [(rng.uniform(-5.0, 5.0), INF) for _ in range(immortal)]


def golden_instances():
    rng = random.Random(20240)
    for kind in KINDS:
        for p in P_VALUES:
            space = HalfPlaneSpace(INF, p, extended=kind == "extended")
            for _ in range(PER_CASE):
                # Equal counts of immortal points keep most extended
                # instances feasible; the rest have total inf.
                left_k = right_k = 0
                if kind == "extended":
                    left_k = rng.randint(0, 2)
                    right_k = left_k if rng.random() < 0.75 else rng.randint(0, 2)
                left = _points(rng, kind, left_k)
                right = _points(rng, kind, right_k)
                yield p, diagram_from_list(left, space), diagram_from_list(right, space)


def test_wasserstein_pairs_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for p, alpha, beta in golden_instances():
        value, matching = wasserstein(alpha, beta, p)
        digest.update(repr((value, [tuple(pair) for pair in matching.pairs])).encode())
        assert math.isclose(wasserstein_value(alpha, beta, p), value, rel_tol=1e-12)
        count += 1
    assert count == len(KINDS) * len(P_VALUES) * PER_CASE
    assert digest.hexdigest() == GOLDEN_SHA256


def test_duality_suite_matches_golden_report():
    # The same check as CI's cmp of the whole report, for the suite that
    # reads a per-instance distance table.  The entry names witnesses only
    # for failing checks, so test_verify pins the candidates' rng use.
    golden = json.loads(GOLDEN_REPORT.read_text())
    [expected] = [r for r in golden["suites"] if r["suite"] == "duality"]
    assert json.loads(dump_json(duality_suite(DEFAULT_SEED))) == expected


def test_bottleneck_matching_at_size_matches_golden_output(capsys):
    # Two diagrams of 40 distinct integer-grid atoms (73 and 69 with
    # multiplicity), so the threshold graph is full of ties; CI runs the
    # same command and diffs it against the same file.
    code = cli.main(["distance", str(GOLDEN / "grid40-left.json"),
                     str(GOLDEN / "grid40-right.json"), "--space", "halfplane",
                     "--q", "inf", "--p", "inf", "--matching"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "grid40-bottleneck-matching.json").read_text()


def test_compact_matching_with_ties_matches_golden_output(capsys):
    # The grid40 pair at p = 2 is solved compactly, and its integer grid
    # leaves many optima, so the tie-break picks among atoms and the
    # diagonal.  CI runs the same command and diffs it against the same file.
    code = cli.main(["distance", str(GOLDEN / "grid40-left.json"),
                     str(GOLDEN / "grid40-right.json"), "--space", "halfplane",
                     "--q", "inf", "--p", "2", "--matching"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "grid40-p2-matching.json").read_text()


# Extended half-plane diagrams of 40 and 37 integer-grid atoms with
# multiplicity (20 and 22 distinct), 4 of them immortal on each side, and
# the empty diagram: (left, right, p, pinned stdout).  CI diffs the same
# commands against the same files.
IMMORTAL_PINS = [
    ("immortal-left.json", "immortal-right.json", "1", "immortal-p1-matching.json"),
    ("immortal-left.json", "immortal-right.json", "2", "immortal-p2-matching.json"),
    ("immortal-left.json", "immortal-right.json", "3.5", "immortal-p3.5-matching.json"),
    ("immortal-left.json", "empty.json", "2", "immortal-left-empty-p2-matching.json"),
    ("empty.json", "immortal-right.json", "1", "empty-immortal-right-p1-matching.json"),
    # The threshold route: immortal rows cannot take the diagonal, and
    # immortal columns must be covered by atom rows.
    ("immortal-left.json", "immortal-right.json", "inf", "immortal-pinf-matching.json"),
]


@pytest.mark.parametrize("left, right, p, pinned", IMMORTAL_PINS,
                         ids=[pin[-1].removesuffix("-matching.json") for pin in IMMORTAL_PINS])
def test_immortal_matching_at_size_matches_golden_output(capsys, left, right, p, pinned):
    code = cli.main(["distance", str(GOLDEN / left), str(GOLDEN / right), "--space",
                     "halfplane", "--q", "2", "--extended", "--matching", "--p", p])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / pinned).read_text()


# W_1 values, some with their matchings, and their Kantorovich-Rubinstein
# certificates: the immortal pair takes the square solve, the grid40 pair the
# compact one, whose pad potentials are 0.  Without --matching the value is
# the solve's own; against the immortal diagram the primal is inf and there
# are no potentials; two empty diagrams give an empty certificate.  CI diffs
# the same commands against the same files.
CERTIFICATE_PINS = [
    ("immortal-left.json", "immortal-right.json", ["--q", "2", "--extended", "--matching"],
     "immortal-p1-certificate.json"),
    ("grid40-left.json", "grid40-right.json", ["--q", "inf", "--matching"],
     "grid40-p1-certificate.json"),
    ("grid40-left.json", "grid40-right.json", ["--q", "inf"],
     "grid40-p1-value-certificate.json"),
    ("empty.json", "immortal-right.json", ["--q", "2", "--extended"],
     "empty-immortal-right-p1-certificate.json"),
    ("empty.json", "empty.json", ["--q", "2", "--matching"], "empty-empty-p1-certificate.json"),
]


@pytest.mark.parametrize("left, right, flags, pinned", CERTIFICATE_PINS,
                         ids=[pin[-1].removesuffix(".json") for pin in CERTIFICATE_PINS])
def test_certificate_matches_golden_output(capsys, left, right, flags, pinned):
    code = cli.main(["distance", str(GOLDEN / left), str(GOLDEN / right), "--space",
                     "halfplane", *flags, "--p", "1", "--certificate"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / pinned).read_text()


# W_p matchings at large p: the grid40 pair stays on the compact solve, the
# immortal pair takes the bottleneck bound and the square solve.  Without
# --matching the CLI prints the solve's own value, read off its costs: the
# bare values at p = 1, 2 and inf cover the compact, square and threshold
# routes.  CI diffs the same commands against the same files.
LARGE_P_CLI_PINS = [
    ("grid40-left.json", "grid40-right.json", ["--q", "inf", "--matching"], p,
     f"grid40-p{p}-matching.json")
    for p in ("7", "64")
] + [
    ("immortal-left.json", "immortal-right.json", ["--q", "2", "--extended", "--matching"], p,
     f"immortal-p{p}-matching.json")
    for p in ("7", "64")
]
VALUE_PINS = [
    ("grid40-left.json", "grid40-right.json", ["--q", "inf"], p, f"grid40-p{p}-value.json")
    for p in ("1", "2", "inf")
] + [
    ("immortal-left.json", "immortal-right.json", ["--q", "2", "--extended"], p,
     f"immortal-p{p}-value.json")
    for p in ("1", "2", "inf")
]


@pytest.mark.parametrize("left, right, flags, p, pinned", LARGE_P_CLI_PINS + VALUE_PINS,
                         ids=[pin[-1].removesuffix(".json").removesuffix("-matching")
                              for pin in LARGE_P_CLI_PINS + VALUE_PINS])
def test_large_p_matching_matches_golden_output(capsys, left, right, flags, p, pinned):
    code = cli.main(["distance", str(GOLDEN / left), str(GOLDEN / right), "--space",
                     "halfplane", *flags, "--p", p])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / pinned).read_text()

LARGE_P_VALUES = (5.0, 7.0, 10.0, 16.0, 64.0)
LARGE_P_KINDS = ("float", "grid", "immortal")
LARGE_P_PER_CASE = 4
LARGE_P_PIN = GOLDEN / "large-p-matchings.json"


def large_p_instances():
    """Seeded half-plane pairs of 10 to 30 atoms a side at large p.

    Float points mostly solve compactly, integer-grid points have exact ties
    that make the compact solve decline at larger p, and the immortal pairs
    (grid points plus 1 to 3 immortal atoms a side, equal counts) take the
    square solve.
    """
    rng = random.Random(4096)
    for kind in LARGE_P_KINDS:
        for p in LARGE_P_VALUES:
            space = HalfPlaneSpace(2.0, p, extended=kind == "immortal")
            for _ in range(LARGE_P_PER_CASE):
                immortal = rng.randint(1, 3) if kind == "immortal" else 0
                sides = []
                for _ in range(2):
                    size = rng.randint(10, 30) - immortal
                    if kind == "float":
                        births = [rng.uniform(-5.0, 5.0) for _ in range(size)]
                        points = [(b, b + rng.uniform(0.0, 6.0)) for b in births]
                    else:
                        births = [rng.randint(0, 4) for _ in range(size)]
                        points = [(float(b), float(b + rng.randint(1, 4))) for b in births]
                    points += [(float(rng.randint(0, 4)), INF) for _ in range(immortal)]
                    sides.append(diagram_from_list(points, space))
                yield kind, p, *sides


def large_p_entries() -> list[dict]:
    """For each large-p pair: repr of wasserstein_value, repr of the
    wasserstein() value and its pairs, as the pin stores them."""
    entries = []
    for kind, p, alpha, beta in large_p_instances():
        value, matching = wasserstein(alpha, beta, p)
        entries.append({"kind": kind, "p": p, "value": repr(wasserstein_value(alpha, beta, p)),
                        "wasserstein": repr(value),
                        "pairs": [list(pair) for pair in matching.pairs]})
    return entries


def test_large_p_matchings_match_golden_pin():
    # The golden digest stops at p = 3.5; this pin holds the values and
    # matchings of all three finite-p routes at p up to 64.
    assert large_p_entries() == json.loads(LARGE_P_PIN.read_text())
