"""JSON encoding of spaces, diagrams, matchings, and certificates.

JSON has no inf or NaN literal, so these values travel as the strings
"inf", "-inf" and "nan" in both directions.  Result payloads round floats
to 12 significant digits; diagram atom coordinates round-trip at full
precision.
"""

from __future__ import annotations

import json
import math

from .diagram import Diagram
from .errors import DomainError, SizeLimitError
from .kr_duality import DualCertificate, SupportFunction
from .metric_core import INF, FiniteSpace, PointedSpace, as_exponent, parse_float
from .spaces import (
    DEFAULT_ALPHABET,
    AnagramSpace,
    HalfPlaneSpace,
    IntervalSpace,
    StarGraphSpace,
)
from .wasserstein import Matching

SIGNIFICANT_DIGITS = 12

# The most atoms, counted with multiplicity, that one diagram payload may
# hold.  Far above any input the tests and benchmarks read (n <= 200), and
# checked as the counts are read, before any atom is expanded: the dense
# solve holds n x m costs, and 1,000 atoms a side already take seconds.
MAX_DIAGRAM_ATOMS = 10_000


def parse_exponent_text(text: str) -> float:
    return as_exponent(parse_float(text))


def _round_sig(value: float) -> float:
    if value == 0.0:
        return 0.0  # never emit -0.0
    return float(f"{value:.{SIGNIFICANT_DIGITS}g}")


def json_ready(obj, round_floats: bool = True):
    """Recursively convert to JSON-safe data; floats may be rounded."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return str(obj)  # "inf", "-inf" or "nan"
        return _round_sig(obj) if round_floats else obj
    if isinstance(obj, dict):
        return {k: json_ready(v, round_floats) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v, round_floats) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, round_floats: bool = True) -> str:
    return json.dumps(json_ready(obj, round_floats), indent=2)


# -- spaces -----------------------------------------------------------------


def finite_space_from_json(data: dict) -> FiniteSpace:
    try:
        labels = data["labels"]
        matrix = [[parse_float(v) for v in row] for row in data["matrix"]]
        basepoint = data["basepoint"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed finite space payload: {exc}") from None
    return FiniteSpace(labels, matrix, basepoint)


def finite_space_to_json(space: FiniteSpace) -> dict:
    return {
        "labels": list(space.labels),
        "basepoint": space.basepoint,
        "matrix": [[v for v in row] for row in space.matrix],
    }


def _json_point(value):
    """A stargraph point from JSON, where tuples travel as lists."""
    return tuple(value) if isinstance(value, list) else value


# Each space id with the spec parameters its reader takes, and the reader.
# The half-plane quotient needs the Wasserstein exponent p at construction
# time, since its ground metric depends on it.
SPACES = {
    "halfplane": (["q", "p", "extended"], lambda spec: HalfPlaneSpace(
        parse_float(spec.get("q", INF)),
        parse_float(spec.get("p", 1.0)),
        spec.get("extended", False),
    )),
    "intervals": (["metric_kind"], lambda spec: IntervalSpace(
        spec.get("metric_kind", "hausdorff"),
    )),
    "anagram": (["alphabet"], lambda spec: AnagramSpace(spec.get("alphabet") or DEFAULT_ALPHABET)),
    "stargraph": (["generators", "zero"], lambda spec: StarGraphSpace(
        map(_json_point, spec["generators"]),
        _json_point(spec.get("zero", 0)),
    )),
    "finite": (["labels", "matrix", "basepoint"], finite_space_from_json),
}
SPACE_IDS = tuple(SPACES)


def space_from_spec(spec: dict) -> PointedSpace:
    """Build a pointed space from an id plus the parameters SPACES lists.

    A spec whose parameters have the wrong shape is a domain error.
    """
    kind = spec.get("id")
    if kind not in SPACE_IDS:  # a tuple, so an unhashable id is simply unknown
        raise DomainError(f"unknown space id {kind!r}; known: {', '.join(SPACE_IDS)}")
    try:
        return SPACES[kind][1](spec)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed {kind} space spec: {exc}") from None


# -- diagrams ---------------------------------------------------------------


def diagram_to_json(diagram: Diagram) -> dict:
    space = diagram.space
    return {
        "space": getattr(space, "space_id", "custom"),
        "atoms": [[space.point_to_json(x), count] for x, count in diagram.atoms],
    }


def diagram_from_json(data: dict, space: PointedSpace) -> Diagram:
    """The diagram a JSON payload encodes over space.

    A payload of more than MAX_DIAGRAM_ATOMS atoms, counted with
    multiplicity, is a SizeLimitError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"malformed diagram payload: {type(data).__name__} is not an object")
    declared = data.get("space")
    space_id = getattr(space, "space_id", "custom")
    if declared is not None and declared != space_id:
        raise DomainError(
            f"diagram declares space {declared!r} but {space_id!r} was supplied"
        )
    points, total = [], 0
    try:
        for encoded, count in data["atoms"]:
            if isinstance(count, bool) or int(count) != count:
                raise ValueError(f"atom count {count!r} is not an integer")
            if count < 1:
                raise DomainError("atom counts must be positive")
            total += int(count)
            if total > MAX_DIAGRAM_ATOMS:
                raise SizeLimitError(f"a diagram may hold at most {MAX_DIAGRAM_ATOMS} atoms "
                                     "counted with multiplicity")
            points.extend([space.point_from_json(encoded)] * int(count))
    except (DomainError, SizeLimitError):
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        # Structural problems are parse errors, not domain errors.
        raise ValueError(f"malformed diagram payload: {exc}") from None
    return Diagram.from_points(points, space)


def load_json(path: str):
    """A JSON file's contents; nesting too deep to parse is a ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def load_diagram(path: str, space: PointedSpace) -> Diagram:
    return diagram_from_json(load_json(path), space)


# -- results ----------------------------------------------------------------


def matching_to_json(matching: Matching) -> dict:
    return {
        "p": matching.p,
        "total": matching.total,
        "pairs": [
            {"left": pair.left, "right": pair.right, "cost": pair.cost}
            for pair in matching.pairs
        ],
    }


def _support_point_json(space, point):
    if point == space.basepoint:
        return "basepoint"
    return space.point_to_json(point)


def certificate_to_json(cert: DualCertificate, h: SupportFunction | None) -> dict:
    out: dict = {"primal": cert.primal_value, "dual": cert.dual_value}
    if cert.has_certificate:
        out["y"] = list(cert.y)
        if h is not None:
            out["h"] = [
                [_support_point_json(cert.space, point), value]
                for point, value in h.items()
            ]
    return out
