import json
import math

import pytest

from pdmetric.diagram import diagram_from_list
from pdmetric.errors import DomainError, SizeLimitError
from pdmetric.io import (
    MAX_DIAGRAM_ATOMS,
    SPACES,
    diagram_from_json,
    diagram_to_json,
    dump_json,
    finite_space_from_json,
    finite_space_to_json,
    json_ready,
    load_diagram,
    matching_to_json,
    parse_exponent_text,
    parse_float,
    space_from_spec,
)
from pdmetric.kr_duality import kr_certificate, support_function
from pdmetric.io import certificate_to_json
from pdmetric.metric_core import INF, FiniteSpace
from pdmetric.spaces import (
    AnagramSpace,
    HalfPlaneSpace,
    Interval,
    IntervalSpace,
    StarGraphSpace,
    halfplane_quotient,
    word_diagram,
)
from pdmetric.wasserstein import wasserstein


def test_parse_float_handles_inf_literals():
    assert parse_float("inf") == INF
    assert parse_float("-inf") == -INF
    assert parse_float("2.5") == 2.5
    assert parse_float(3) == 3.0
    with pytest.raises(ValueError):
        parse_float("two")


def test_parse_exponent_text():
    assert parse_exponent_text("inf") == INF
    assert parse_exponent_text("2") == 2.0
    with pytest.raises(Exception):
        parse_exponent_text("0.5")


def test_json_ready_rounds_and_encodes_inf():
    data = {"a": 1 / 3, "b": INF, "c": [-INF, True, None, "s"], "d": -0.0}
    out = json_ready(data)
    assert out["a"] == float(f"{1/3:.12g}")
    assert out["b"] == "inf"
    assert out["c"] == ["-inf", True, None, "s"]
    assert out["d"] == 0.0 and math.copysign(1.0, out["d"]) == 1.0
    with pytest.raises(TypeError):
        json_ready(object())


def test_dump_json_round_floats_flag():
    raw = dump_json({"x": 0.1234567890123456789}, round_floats=False)
    assert "0.12345678901234568" in raw
    rounded = dump_json({"x": 0.1234567890123456789})
    assert json.loads(rounded)["x"] == 0.123456789012


def test_diagram_round_trip_halfplane():
    space = halfplane_quotient(INF, 1.0)
    diagram = diagram_from_list([(0.0, 2.0), (0.0, 2.0), (3.0, 4.0)], space)
    payload = diagram_to_json(diagram)
    assert payload["space"] == "halfplane"
    back = diagram_from_json(payload, space)
    assert back == diagram


def test_diagram_round_trip_extended_halfplane():
    space = halfplane_quotient(2.0, 2.0, extended=True)
    diagram = diagram_from_list([(0.0, INF), (1.0, 3.0)], space)
    encoded = json.loads(dump_json(diagram_to_json(diagram), round_floats=False))
    back = diagram_from_json(encoded, space)
    assert back == diagram


def test_diagram_round_trip_all_space_kinds():
    cases = [
        (IntervalSpace(), [Interval(0.0, 3.0), Interval(1.0, 2.0, False, True)]),
        (AnagramSpace(), list("abba")),
        (StarGraphSpace([(1, 0), (0, 1)], (0, 0)), [(1, 0), (1, 0), (0, 1)]),
    ]
    for space, points in cases:
        diagram = diagram_from_list(points, space)
        encoded = json.loads(dump_json(diagram_to_json(diagram), round_floats=False))
        assert diagram_from_json(encoded, space) == diagram


def test_diagram_json_drops_basepoint_atoms():
    space = halfplane_quotient(INF, 1.0)
    diagram = diagram_from_list([(1.0, 1.0), (0.0, 2.0)], space)
    payload = diagram_to_json(diagram)
    assert len(payload["atoms"]) == 1


def test_diagram_space_mismatch_is_domain_error():
    space = halfplane_quotient(INF, 1.0)
    payload = {"space": "anagram", "atoms": []}
    with pytest.raises(DomainError):
        diagram_from_json(payload, space)


def test_diagram_undeclared_space_is_accepted():
    space = halfplane_quotient(INF, 1.0)
    diagram = diagram_from_json({"atoms": [[[0.0, 2.0], 1]]}, space)
    assert diagram.size == 1


def test_malformed_diagram_payload_is_value_error():
    space = halfplane_quotient(INF, 1.0)
    for payload in (
        {},
        {"atoms": [[[0.0, 2.0]]]},
        {"atoms": [[[0.0, 2.0], "many"]]},
        {"atoms": [[[0.0], 1]]},
    ):
        with pytest.raises(ValueError):
            diagram_from_json(payload, space)


def test_non_integral_or_boolean_count_is_value_error():
    space = halfplane_quotient(INF, 1.0)
    for count in (2.5, True, False, "2", float("inf"), float("nan")):
        with pytest.raises(ValueError, match="malformed"):
            diagram_from_json({"atoms": [[[0.0, 2.0], count]]}, space)
    # An integral float is an integer multiplicity.
    assert diagram_from_json({"atoms": [[[0.0, 2.0], 2.0]]}, space).size == 2


def test_nonpositive_count_is_domain_error():
    space = halfplane_quotient(INF, 1.0)
    with pytest.raises(DomainError):
        diagram_from_json({"atoms": [[[0.0, 2.0], 0]]}, space)


def test_total_multiplicity_is_bounded():
    # The bound is on the total over all atoms, checked as the counts are
    # read: the last atom's count passes it before any expansion.
    space = halfplane_quotient(INF, 1.0)
    first = [[0.0, 2.0], MAX_DIAGRAM_ATOMS - 1]
    assert diagram_from_json({"atoms": [first, [[1.0, 3.0], 1]]}, space).size == MAX_DIAGRAM_ATOMS
    for last in (2, 10 ** 100):
        with pytest.raises(SizeLimitError, match=f"at most {MAX_DIAGRAM_ATOMS} atoms"):
            diagram_from_json({"atoms": [first, [[1.0, 3.0], last]]}, space)


def test_load_diagram_from_file(tmp_path):
    space = halfplane_quotient(INF, 1.0)
    diagram = diagram_from_list([(0.0, 2.0), (3.0, 4.0)], space)
    path = tmp_path / "d.json"
    path.write_text(dump_json(diagram_to_json(diagram), round_floats=False))
    assert load_diagram(str(path), space) == diagram


def test_finite_space_round_trip():
    space = FiniteSpace(["o", "a", "b"],
                        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]],
                        "o")
    payload = json.loads(dump_json(finite_space_to_json(space), round_floats=False))
    back = finite_space_from_json(payload)
    assert back.labels == space.labels
    assert back.basepoint == space.basepoint
    for x in space.labels:
        for y in space.labels:
            assert back.dist(x, y) == space.dist(x, y)


def test_finite_space_malformed_payload():
    with pytest.raises(DomainError):
        finite_space_from_json({"labels": ["o"]})


def test_space_from_spec_dispatch():
    assert isinstance(space_from_spec({"id": "halfplane"}), HalfPlaneSpace)
    assert space_from_spec({"id": "halfplane", "q": "inf", "p": 2}).q == INF
    assert isinstance(space_from_spec({"id": "intervals"}), IntervalSpace)
    assert isinstance(space_from_spec({"id": "anagram", "alphabet": " ab"}), AnagramSpace)
    star = space_from_spec({"id": "stargraph", "generators": [[1, 0], [0, 1]],
                            "zero": [0, 0]})
    assert isinstance(star, StarGraphSpace)
    finite = space_from_spec({"id": "finite", "labels": ["o", "a"],
                              "matrix": [[0, 1], [1, 0]], "basepoint": "o"})
    assert isinstance(finite, FiniteSpace)
    with pytest.raises(DomainError):
        space_from_spec({"id": "torus"})


def test_matching_to_json_shape():
    space = halfplane_quotient(INF, 1.0)
    alpha = diagram_from_list([(0.0, 2.0)], space)
    beta = diagram_from_list([(0.0, 4.0)], space)
    _, matching = wasserstein(alpha, beta, 1.0)
    payload = json_ready(matching_to_json(matching))
    assert payload["p"] == 1.0
    assert payload["total"] == 2.0
    assert all(set(pair) == {"left", "right", "cost"} for pair in payload["pairs"])


def test_certificate_to_json_shape():
    space = halfplane_quotient(INF, 1.0)
    alpha = diagram_from_list([(0.0, 2.0), (3.0, 4.0)], space)
    beta = diagram_from_list([(0.0, 4.0)], space)
    cert = kr_certificate(alpha, beta)
    # (0, 2) -> (0, 4) costs 2, (3, 4) retires to the diagonal for 0.5.
    payload = json_ready(certificate_to_json(cert, support_function(cert)))
    assert payload["primal"] == pytest.approx(2.5)
    assert payload["dual"] == pytest.approx(2.5)
    assert len(payload["y"]) == 2 * cert.r
    assert any(entry[0] == "basepoint" for entry in payload["h"])


def test_anagram_word_diagram_matches_json_route():
    space = AnagramSpace()
    diagram = word_diagram("listen", space)
    payload = diagram_to_json(diagram)
    assert diagram_from_json(payload, space) == diagram
    assert diagram == word_diagram("silent", space)


def test_space_table_lists_each_id_with_its_params():
    assert {sid: params for sid, (params, _) in SPACES.items()} == {
        "halfplane": ["q", "p", "extended"],
        "intervals": ["metric_kind"],
        "anagram": ["alphabet"],
        "stargraph": ["generators", "zero"],
        "finite": ["labels", "matrix", "basepoint"],
    }


def test_dump_json_writes_nan_as_a_string():
    def reject(name):
        raise ValueError(f"bare {name} in the output")

    text = dump_json({"x": math.nan, "y": [math.inf, -math.inf]})
    assert json.loads(text, parse_constant=reject) == {"x": "nan", "y": ["inf", "-inf"]}
    assert math.isnan(parse_float("nan"))
