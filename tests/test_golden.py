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


# The CLI pins, by group: each is a pinned stdout and the command that
# prints it, run in tests/golden.  CI diffs the same commands against the
# same files, reading the same manifest.
PIN_MANIFEST = GOLDEN / "cli-pins.txt"


def cli_pins() -> dict[str, list[tuple[str, list[str]]]]:
    """group -> [(pinned file, CLI arguments)] from the manifest, where a
    "[group]" line starts a group and "#" a comment."""
    groups: dict = {}
    for line in PIN_MANIFEST.read_text().splitlines():
        if line.startswith("["):
            pins = groups.setdefault(line.strip("[]"), [])
        elif line.strip() and not line.startswith("#"):
            pinned, *args = line.split()
            pins.append((pinned, args))
    return groups


CLI_PINS = cli_pins()


def cli_pin_group(group: str):
    pins = CLI_PINS[group]
    return pytest.mark.parametrize(
        "pinned, args", pins,
        ids=[pinned.removesuffix(".json").removesuffix("-matching") for pinned, _ in pins])


def check_cli_pin(capsys, monkeypatch, pinned: str, args: list[str]) -> None:
    monkeypatch.chdir(GOLDEN)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / pinned).read_text()


def test_cli_pin_manifest_is_run_whole():
    # Every group is one test below, and every pinned file is distinct.
    assert sorted(CLI_PINS) == ["bottleneck", "certificate", "compact-ties", "immortal",
                                "large-p", "overflow"]
    pinned = [name for pins in CLI_PINS.values() for name, _ in pins]
    assert len(set(pinned)) == len(pinned)
    assert all((GOLDEN / name).is_file() for name in pinned)


def test_bottleneck_matching_at_size_matches_golden_output(capsys, monkeypatch):
    [(pinned, args)] = CLI_PINS["bottleneck"]
    check_cli_pin(capsys, monkeypatch, pinned, args)


def test_compact_matching_with_ties_matches_golden_output(capsys, monkeypatch):
    [(pinned, args)] = CLI_PINS["compact-ties"]
    check_cli_pin(capsys, monkeypatch, pinned, args)


@cli_pin_group("immortal")
def test_immortal_matching_at_size_matches_golden_output(capsys, monkeypatch, pinned, args):
    check_cli_pin(capsys, monkeypatch, pinned, args)


@cli_pin_group("certificate")
def test_certificate_matches_golden_output(capsys, monkeypatch, pinned, args):
    check_cli_pin(capsys, monkeypatch, pinned, args)


@cli_pin_group("large-p")
def test_large_p_matching_matches_golden_output(capsys, monkeypatch, pinned, args):
    check_cli_pin(capsys, monkeypatch, pinned, args)


def test_bare_and_matched_immortal_p64_values_agree():
    # The bare value is the square solve's own, read off its costs; the
    # matched one is the lp norm of the tie-broken matching's costs.
    bare, matched = (json.loads((GOLDEN / f"immortal-p64-{kind}.json").read_text())["value"]
                     for kind in ("value", "matching"))
    assert math.isclose(bare, matched, rel_tol=1e-9)


@cli_pin_group("overflow")
def test_overflowing_persistence_matches_golden_output(capsys, monkeypatch, pinned, args):
    check_cli_pin(capsys, monkeypatch, pinned, args)


LARGE_P_VALUES = (5.0, 7.0, 10.0, 16.0, 64.0)
LARGE_P_KINDS = ("float", "grid", "immortal")
LARGE_P_PER_CASE = 4
LARGE_P_PIN = GOLDEN / "large-p-matchings.json"


def large_p_instances():
    """Seeded half-plane pairs of 10 to 30 atoms a side at large p.

    Float points mostly solve compactly, integer-grid points have exact ties
    that make the compact solve decline at larger p, and so do the immortal
    pairs (grid points plus 1 to 3 immortal atoms a side, equal counts),
    which the compact solve takes otherwise.
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
