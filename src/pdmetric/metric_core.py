"""Pointed extended-pseudometric spaces and the constructions on them.

Distances live in [0, inf].  The extended value is math.inf, and IEEE
arithmetic already saturates the way extended reals require (inf + x == inf,
inf ** p == inf, comparisons treat inf as maximal), so distances are plain
floats throughout.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DomainError

INF = math.inf

PASS = "pass"
FAIL = "fail"
PRECONDITION_FAILED = "precondition_failed"


@dataclass(frozen=True)
class Report:
    """Outcome of a named check: pass, fail, or precondition_failed."""

    name: str
    status: str
    witness: object = None

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def as_dict(self) -> dict:
        out = {"property": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def as_exponent(p) -> float:
    """Validate and normalize an lp exponent: a real >= 1, or math.inf."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"lp exponent must be a real >= 1 or inf, got {p!r}")
    return p


def parse_float(obj) -> float:
    """A float from JSON, where "inf" and "-inf" stand for +-inf; a bool is no number."""
    if isinstance(obj, bool):
        raise TypeError(f"{obj!r} is not a number")
    if obj == "inf":
        return INF
    if obj == "-inf":
        return -INF
    return float(obj)


def ext_fsum(values: Sequence[float]) -> float:
    """math.fsum of a sequence of extended reals, a total past the float range read as +-inf.

    fsum raises OverflowError once a partial sum overflows, even where terms
    of the other sign would bring the total back in range.  The finite terms
    are then summed exactly, as fractions: a total in range is the float
    fsum rounds to, and one past it the inf of its sign.  An inf term
    decides the total, as in fsum.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        pass
    infinite = [v for v in values if math.isinf(v)]
    if infinite:
        return math.fsum(infinite)
    from fractions import Fraction  # imported only once a partial sum overflows
    exact = sum(map(Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        return INF if exact > 0 else -INF


# Bounds on relative_excess, each a share of the instance's scale.
SOLVE_TOL = 1e-9       # values from independent solves or summation orders
ROUNDING_TOL = 1e-12   # a closed form against its own rounding


def relative_excess(lhs: float, rhs: float, *inputs: float) -> float:
    """How far lhs exceeds rhs, as a share of the instance's scale.

    The scale is the largest finite magnitude among lhs, rhs and inputs,
    the quantities the two were computed from; pass those that cancel, such
    as potentials summed into a dual objective.  Equal sides, inf against
    inf included, read 0; an infinite side reads +-inf, and NaN reads inf,
    so no bound passes it.  The result is <= 0 exactly where lhs <= rhs, so
    abs() of it bounds a two-sided gap.
    """
    if lhs == rhs:
        return 0.0
    if math.isnan(lhs) or math.isnan(rhs):
        return INF
    if math.isinf(lhs) or math.isinf(rhs):
        return lhs - rhs
    return (lhs - rhs) / max(abs(v) for v in (lhs, rhs, *inputs) if math.isfinite(v))


def lp_norm(values: Iterable[float], p) -> float:
    """lp norm of a finite sequence of nonnegative extended reals.

    Empty input gives 0, any inf entry gives inf, and a norm past the float
    range inf.  The finite-p branch is scaled by the maximum entry so that
    large exponents neither overflow nor lose the leading term to underflow.
    """
    p = as_exponent(p)
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    top = max(vals)
    if min(vals) < 0.0:
        raise DomainError("lp_norm arguments must be nonnegative")
    if top == 0.0 or math.isinf(top) or p == INF:
        return top
    if p == 1.0:
        return ext_fsum(vals)
    return top * math.fsum((v / top) ** p for v in vals) ** (1.0 / p)


class MetricSpace(ABC):
    """A set with an extended pseudometric.

    Beyond dist, concrete spaces provide the hooks the rest of the toolkit
    needs: membership, a deterministic total order on points (for canonical
    multiset form), and seeded sampling.
    """

    @property
    @abstractmethod
    def signature(self) -> tuple:
        """Structural identity; equal signatures mean interchangeable spaces."""

    @abstractmethod
    def dist(self, x, y) -> float: ...

    @abstractmethod
    def contains(self, x) -> bool: ...

    @abstractmethod
    def sort_key(self, x): ...

    @abstractmethod
    def sample_point(self, rng):
        """A seeded random point of the space, in normal form (see canonical)."""

    def canonical(self, x):
        """Normal form of a point; the identity unless the space identifies points."""
        return x

    def point_to_json(self, x):
        raise NotImplementedError(f"{type(self).__name__} has no point serialization")

    def point_from_json(self, obj):
        raise NotImplementedError(f"{type(self).__name__} has no point serialization")


class PointedSpace(MetricSpace):
    """A metric space with a distinguished basepoint (set by subclasses)."""

    basepoint: object

    def pairwise(self, xs: Sequence, ys: Sequence) -> tuple:
        """(rows, xs_base, ys_base): rows[i][j] = dist(xs[i], ys[j]) and each
        point's dist to the basepoint, as floats in fresh lists."""
        dist = self.dist
        x0 = self.basepoint
        rows = [[float(dist(x, y)) for y in ys] for x in xs]
        return rows, [float(dist(x, x0)) for x in xs], [float(dist(y, x0)) for y in ys]


@dataclass(frozen=True)
class CollapsedClass:
    """Token standing for a subset collapsed to a single point of a quotient."""

    label: str = "A"

    def __repr__(self) -> str:
        return f"<{self.label}>"


class FiniteSpace(PointedSpace):
    """Finite pointed space backed by an explicit symmetric distance matrix.

    The matrix must be square, symmetric, nonnegative, with zero diagonal.
    The triangle inequality is *not* enforced here; check_metric_axioms
    reports on it so that non-examples stay representable.
    """

    space_id = "finite"

    def __init__(self, labels: Sequence[str], matrix, basepoint: str):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise DomainError("labels must be distinct")
        rows = tuple(tuple(float(v) for v in row) for row in matrix)
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError("matrix shape must match the label count")
        if any(math.isnan(v) for row in rows for v in row):
            raise DomainError("matrix entries must not be NaN")
        for i in range(n):
            if rows[i][i] != 0.0:
                raise DomainError("matrix diagonal must be zero")
            for j in range(n):
                if rows[i][j] < 0.0:
                    raise DomainError("distances must be nonnegative")
                if rows[i][j] != rows[j][i]:
                    raise DomainError("matrix must be symmetric")
        if basepoint not in labels:
            raise DomainError(f"basepoint {basepoint!r} is not a label")
        self.labels = labels
        self.matrix = rows
        self.basepoint = basepoint
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def signature(self) -> tuple:
        return ("finite", self.labels, self.basepoint, self.matrix)

    def dist(self, x, y) -> float:
        try:
            return self.matrix[self._index[x]][self._index[y]]
        except KeyError as exc:
            raise DomainError(f"unknown label {exc.args[0]!r}") from None

    def contains(self, x) -> bool:
        return x in self._index

    def sort_key(self, x):
        return self._index[x]

    def sample_point(self, rng):
        return self.labels[rng.randrange(len(self.labels))]

    def point_to_json(self, x):
        return x

    def point_from_json(self, obj):
        if obj not in self._index:
            raise DomainError(f"unknown label {obj!r}")
        return obj


class QuotientSpace(PointedSpace):
    """X/A with the exponent-p quotient metric.

    Off the collapsed class the distance is min(d(x, y), ||(sd(x), sd(y))||_p)
    where sd is the distance-to-subset function; sd itself gives the distance
    to the new basepoint.  sd must be compatible with d in the sense
    sd(x) <= d(x, y) + sd(y), which makes the result a pseudometric again.
    A point at sd 0 is the basepoint class, so dist evaluates sd once per
    point (pairwise once per listed point) and needs no canonical form;
    canonical maps such a point to the class and any other to the ambient's
    normal form.  With A = {x0} this is the p-strengthening (p_strengthen).

    The signature names the subset distance by subset_key, which defaults to
    the callable itself, so quotients by different callables never compare
    equal.  A subclass or constructor whose subset distance is fixed by the
    ambient's signature passes a structural key instead.
    """

    def __init__(self, ambient: MetricSpace, subset_dist: Callable, p, *,
                 label: str = "A", space_id: str = "quotient", subset_key=None):
        self.ambient = ambient
        self.subset_dist = subset_dist
        self.subset_key = subset_dist if subset_key is None else subset_key
        self.p = as_exponent(p)
        self.basepoint = CollapsedClass(label)
        self.space_id = space_id

    @property
    def signature(self) -> tuple:
        return ("quotient", self.ambient.signature, self.p, self.basepoint.label,
                self.subset_key)

    # Only a CollapsedClass equals the basepoint, so each basepoint test checks
    # the type first and calls its __eq__ on no ambient point.
    def canonical(self, x):
        if type(x) is CollapsedClass and x == self.basepoint:
            return self.basepoint
        if self.ambient.contains(x) and self.subset_dist(x) == 0.0:
            return self.basepoint
        return self.ambient.canonical(x)

    def contains(self, x) -> bool:
        return type(x) is CollapsedClass and x == self.basepoint or self.ambient.contains(x)

    def _sd(self, x) -> float:
        if type(x) is CollapsedClass and x == self.basepoint:
            return 0.0
        return float(self.subset_dist(x))

    def _joined(self, x, y, sx: float, sy: float) -> float:
        """dist(x, y) given sx = sd(x) and sy = sd(y)."""
        if sx == 0.0:
            return sy
        if sy == 0.0:
            return sx
        return min(float(self.ambient.dist(x, y)), lp_norm((sx, sy), self.p))

    def dist(self, x, y) -> float:
        return self._joined(x, y, self._sd(x), self._sd(y))

    def pairwise(self, xs, ys):
        xs_base = [self._sd(x) for x in xs]
        ys_base = [self._sd(y) for y in ys]
        joined = self._joined
        rows = [[joined(x, y, sx, sy) for y, sy in zip(ys, ys_base)]
                for x, sx in zip(xs, xs_base)]
        return rows, xs_base, ys_base

    def sort_key(self, x):
        if type(x) is CollapsedClass and x == self.basepoint:
            return (0,)
        return (1, self.ambient.sort_key(x))

    def sample_point(self, rng):
        return self.canonical(self.ambient.sample_point(rng))

    def point_to_json(self, x):
        return self.ambient.point_to_json(x)

    def point_from_json(self, obj):
        return self.canonical(self.ambient.point_from_json(obj))


class ProductSpace(PointedSpace):
    """Pairs (x, y) with D_p((x, y), (x', y')) = ||(d_X(x, x'), d_Y(y, y'))||_p.

    Pointed at (x0, y0) when both factors are pointed, else reading the
    basepoint is a DomainError; canonical coordinatewise.
    """

    def __init__(self, left: MetricSpace, right: MetricSpace, p):
        self.left = left
        self.right = right
        self.p = as_exponent(p)

    @property
    def basepoint(self):
        for factor in (self.left, self.right):
            if not isinstance(factor, PointedSpace):
                raise DomainError(f"product factor {factor.signature!r} is not pointed")
        return (self.left.basepoint, self.right.basepoint)

    @property
    def signature(self) -> tuple:
        return ("product", self.left.signature, self.right.signature, self.p)

    def dist(self, x, y) -> float:
        return lp_norm(
            (self.left.dist(x[0], y[0]), self.right.dist(x[1], y[1])), self.p
        )

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and self.left.contains(x[0])
            and self.right.contains(x[1])
        )

    def canonical(self, x):
        return (self.left.canonical(x[0]), self.right.canonical(x[1]))

    def sort_key(self, x):
        return (self.left.sort_key(x[0]), self.right.sort_key(x[1]))

    def sample_point(self, rng):
        return (self.left.sample_point(rng), self.right.sample_point(rng))


class RemetrizedSpace(PointedSpace):
    """The base space's points under another distance (a pullback, a raw ambient metric).

    The signature holds dist_fn itself, so spaces under different callables
    never compare equal.
    """

    def __init__(self, base: PointedSpace, dist_fn: Callable, label: str = "remetrized"):
        self.base = base
        self.basepoint = base.basepoint
        self._dist = dist_fn
        self.label = label

    @property
    def signature(self) -> tuple:
        return ("remetrized", self.base.signature, self.label, self._dist)

    def dist(self, x, y) -> float:
        return float(self._dist(x, y))

    def contains(self, x) -> bool:
        return self.base.contains(x)

    def canonical(self, x):
        return self.base.canonical(x)

    def sort_key(self, x):
        return self.base.sort_key(x)

    def sample_point(self, rng):
        return self.base.sample_point(rng)

    def point_to_json(self, x):
        return self.base.point_to_json(x)

    def point_from_json(self, obj):
        return self.base.point_from_json(obj)


def quotient_metric(space: MetricSpace, subset_dist: Callable, p, *,
                    label: str = "A") -> QuotientSpace:
    """Collapse the zero set of subset_dist to a basepoint, exponent p.

    subset_dist(x) is the distance from x to the collapsed subset; it must
    satisfy subset_dist(x) <= d(x, y) + subset_dist(y).
    """
    return QuotientSpace(space, subset_dist, p, label=label)


def p_strengthen(space: PointedSpace, p) -> QuotientSpace:
    """The quotient by the basepoint: distances capped by the lp route through it.

    min(d(x, y), ||(d(x, x0), d(x0, y))||_p) is the quotient metric with
    A = {x0}, so its basepoint is the collapsed class, which every point at
    distance 0 from x0 joins.  The class is labelled "basepoint", and the
    subset distance, fixed by the base's signature, is keyed "basepoint" too,
    so two strengthenings of one base compare equal while a quotient by any
    callable differs from them.
    """
    x0 = space.basepoint
    return QuotientSpace(space, lambda x: space.dist(x, x0), p, label="basepoint",
                         subset_key="basepoint")


def pullback_metric(f: Callable, target) -> Callable:
    """Distance (x, x') -> d(f(x), f(x')); target is a space or a callable."""
    dist = target.dist if isinstance(target, MetricSpace) else target
    return lambda x, y: dist(f(x), f(y))


def product_metric(left: MetricSpace, right: MetricSpace, p) -> ProductSpace:
    return ProductSpace(left, right, p)


def remetrize(space: PointedSpace, dist_fn: Callable, label: str = "remetrized") -> RemetrizedSpace:
    return RemetrizedSpace(space, dist_fn, label)


@dataclass(frozen=True)
class AxiomReport:
    """Which pseudometric axioms a finite space satisfies, checked exhaustively."""

    point_equality: bool
    symmetry: bool
    triangle: bool
    separation: bool
    finiteness: bool

    @property
    def is_extended_pseudometric(self) -> bool:
        return self.point_equality and self.symmetry and self.triangle

    def as_dict(self) -> dict:
        return {
            "point_equality": self.point_equality,
            "symmetry": self.symmetry,
            "triangle": self.triangle,
            "separation": self.separation,
            "finiteness": self.finiteness,
        }


def check_metric_axioms(space: FiniteSpace) -> AxiomReport:
    """Exhaustive axiom check on a finite space's matrix."""
    m = space.matrix
    n = len(m)
    point_equality = all(m[i][i] == 0.0 for i in range(n))
    symmetry = all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
    triangle = all(relative_excess(m[i][j], m[i][k] + m[k][j]) <= ROUNDING_TOL
                   for i in range(n) for j in range(n) for k in range(n))
    separation = all(m[i][j] > 0.0 for i in range(n) for j in range(n) if i != j)
    finiteness = all(not math.isinf(m[i][j]) for i in range(n) for j in range(n))
    return AxiomReport(point_equality, symmetry, triangle, separation, finiteness)


def check_axioms_sampled(space: MetricSpace, rng, triples: int = 1000) -> Report:
    """Point equality, symmetry, and triangle on seeded random triples."""
    for _ in range(triples):
        x = space.sample_point(rng)
        y = space.sample_point(rng)
        z = space.sample_point(rng)
        if space.dist(x, x) != 0.0:
            return Report("metric-axioms", FAIL, {"axiom": "point_equality", "x": repr(x)})
        dxy = space.dist(x, y)
        if dxy != space.dist(y, x):
            return Report("metric-axioms", FAIL, {"axiom": "symmetry", "x": repr(x), "y": repr(y)})
        rhs = space.dist(x, z) + space.dist(z, y)
        if relative_excess(dxy, rhs) > ROUNDING_TOL:
            return Report(
                "metric-axioms", FAIL,
                {"axiom": "triangle", "x": repr(x), "y": repr(y), "z": repr(z),
                 "lhs": dxy, "rhs": rhs},
            )
    return Report("metric-axioms", PASS)


def check_p_strengthened(space: PointedSpace, p, sample_pairs) -> bool:
    """Does d(x, y) <= ||(d(x, x0), d(x0, y))||_p, that is d <= d_p, hold on the pairs?"""
    strengthened = p_strengthen(space, p).dist
    return all(relative_excess(space.dist(x, y), strengthened(x, y)) <= ROUNDING_TOL
               for x, y in sample_pairs)


def check_subset_dist_compatible(space: MetricSpace, subset_dist: Callable,
                                 sample_pairs) -> bool:
    """Does sd(x) <= d(x, y) + sd(y) hold on the given pairs?"""
    return all(relative_excess(subset_dist(x), space.dist(x, y) + subset_dist(y)) <= ROUNDING_TOL
               for x, y in sample_pairs)
