"""Concrete ground spaces: half-plane, intervals, anagrams, star graphs.

Extended endpoints follow the usual saturating conventions: inf - a = inf
for finite a, |+-inf| = inf, and the absolute difference of two equal
infinite values is 0 (forced by d(x, x) = 0).
"""

from __future__ import annotations

import itertools
import math
import string
from collections import Counter, deque
from dataclasses import dataclass

from .diagram import diagram_from_list
from .errors import DomainError, PreconditionError
from .metric_core import (
    INF,
    MetricSpace,
    PointedSpace,
    QuotientSpace,
    as_exponent,
    lp_norm,
    parse_float,
)


def ext_abs_diff(a: float, b: float) -> float:
    """|a - b| on the extended line; equal values give 0 even at +-inf."""
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return INF
    return abs(a - b)


# ---------------------------------------------------------------------------
# Half-plane of birth/death pairs
# ---------------------------------------------------------------------------


class HalfPlane(MetricSpace):
    """Points (b, d) with b <= d under the lq metric; no basepoint yet."""

    def __init__(self, q, extended: bool = False):
        if not isinstance(extended, bool):
            raise TypeError(f"extended must be true or false, got {extended!r}")
        self.q = as_exponent(q)
        self.extended = extended
        # The diagonal distance's factor 2**(1/q - 1), where 1/inf reads as 0.
        self._diag_scale = 2.0 ** ((0.0 if self.q == INF else 1.0 / self.q) - 1.0)

    @property
    def signature(self) -> tuple:
        return ("halfplane-ambient", self.q, self.extended)

    def dist(self, x, y) -> float:
        return halfplane_dist(x, y, self.q)

    def diag_dist(self, x) -> float:
        """halfplane_diag_dist(x, q).  When finite b and d are too far apart
        for d - b, the scaled endpoints are subtracted instead, so the value
        stays finite when it can be."""
        b, d = float(x[0]), float(x[1])
        persistence = ext_abs_diff(d, b)
        if persistence == INF and math.isfinite(b) and math.isfinite(d):
            return abs(self._diag_scale * d - self._diag_scale * b)
        return self._diag_scale * persistence

    def contains(self, x) -> bool:
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        try:
            b, d = float(x[0]), float(x[1])
        except (TypeError, ValueError):
            return False
        # b <= d is false when either is NaN.
        return b <= d and (self.extended or (-INF < b and d < INF))

    def sort_key(self, x):
        return (float(x[0]), float(x[1]))

    def sample_point(self, rng):
        b = rng.uniform(-5.0, 5.0)
        if self.extended and rng.random() < 0.1:
            return (b, INF)
        return (b, b + rng.uniform(0.0, 6.0))

    def point_to_json(self, x):
        return [x[0], x[1]]

    def point_from_json(self, obj):
        if not (isinstance(obj, list) and len(obj) == 2):
            raise ValueError(f"half-plane point {obj!r} is not a [birth, death] array")
        point = (parse_float(obj[0]), parse_float(obj[1]))
        if not self.contains(point):
            raise DomainError(f"{obj!r} is not a half-plane point")
        return point


def halfplane_dist(x, y, q) -> float:
    """lq distance between birth/death pairs, extended-endpoint aware."""
    return lp_norm(
        (ext_abs_diff(float(x[0]), float(y[0])), ext_abs_diff(float(x[1]), float(y[1]))),
        q,
    )


def halfplane_diag_dist(x, q) -> float:
    """lq distance from (b, d) to the diagonal: 2**(1/q - 1) * (d - b).

    The minimizing diagonal point is the midpoint for every q (for q = 1
    any point of [b, d] works), which collapses all cases into the single
    closed form; 1/inf reads as 0.
    """
    return HalfPlane(q).diag_dist(x)


class HalfPlaneSpace(QuotientSpace):
    """The half-plane with the diagonal collapsed to the basepoint.

    Ground distance is min(lq distance, lp combination of the two diagonal
    distances); p is the same exponent later used for W_p.  q and extended,
    which the ambient's signature holds, fix the diagonal distance, so it is
    keyed structurally and two equal constructions compare equal.
    """

    def __init__(self, q, p, extended: bool = False):
        ambient = HalfPlane(q, extended)
        super().__init__(
            ambient, ambient.diag_dist, p, label="diagonal", space_id="halfplane",
            subset_key="diagonal",
        )
        self.q = ambient.q
        self.extended = ambient.extended


def halfplane_quotient(q, p, extended: bool = False) -> HalfPlaneSpace:
    return HalfPlaneSpace(q, p, extended)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """An interval of the extended line with explicit endpoint closedness.

    Atom identity is exact structural equality, so [0, 1) and [0, 1] are
    different atoms even though several metrics cannot tell them apart.
    """

    left: float
    right: float
    left_closed: bool = True
    right_closed: bool = True

    @property
    def is_empty(self) -> bool:
        if self.left > self.right:
            return True
        return self.left == self.right and not (self.left_closed and self.right_closed)

    @property
    def length(self) -> float:
        if self.is_empty:
            return 0.0
        return ext_abs_diff(self.right, self.left)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval(empty)"
        lo = "[" if self.left_closed else "("
        hi = "]" if self.right_closed else ")"
        return f"Interval{lo}{self.left}, {self.right}{hi}"


EMPTY_INTERVAL = Interval(0.0, 0.0, False, False)


def hausdorff(i: Interval, j: Interval) -> float:
    """Hausdorff distance between intervals.

    Closedness never matters (the distance to a set equals the distance to
    its closure), so this reduces to the endpoint formula.  Against the
    empty interval the value is inf: no thickening of the empty set is
    nonempty.
    """
    if i.is_empty and j.is_empty:
        return 0.0
    if i.is_empty or j.is_empty:
        return INF
    return max(ext_abs_diff(i.left, j.left), ext_abs_diff(i.right, j.right))


def dissimilarity(i: Interval, j: Interval) -> float:
    """Lebesgue measure of the symmetric difference of two intervals."""
    if i.is_empty or j.is_empty:
        return i.length + j.length
    if min(i.right, j.right) >= max(i.left, j.left):
        # Overlapping or touching: the symmetric difference is the two
        # end gaps.  Covers unbounded intervals, where lengths alone would
        # collide as inf - inf.
        return ext_abs_diff(i.left, j.left) + ext_abs_diff(i.right, j.right)
    return i.length + j.length


def interval_half_length(i: Interval) -> float:
    """Half the length; the interleaving-style distance to the empty module."""
    length = i.length
    return INF if math.isinf(length) else length / 2.0


def interval_interleaving(i: Interval, j: Interval) -> float:
    """Interleaving distance between the interval modules over i and j:
    min(hausdorff, larger half-length), and half-length against emptiness."""
    if i.is_empty and j.is_empty:
        return 0.0
    if i.is_empty:
        return interval_half_length(j)
    if j.is_empty:
        return interval_half_length(i)
    return min(hausdorff(i, j), max(interval_half_length(i), interval_half_length(j)))


HAUSDORFF = "hausdorff"
DISSIMILARITY = "dissimilarity"

_INTERVAL_METRICS = {HAUSDORFF: hausdorff, DISSIMILARITY: dissimilarity}


class IntervalSpace(PointedSpace):
    """Intervals of the extended line, pointed at the empty interval."""

    space_id = "intervals"

    def __init__(self, metric_kind: str = HAUSDORFF):
        if metric_kind not in _INTERVAL_METRICS:
            raise DomainError(f"unknown interval metric {metric_kind!r}")
        self.metric_kind = metric_kind
        self._dist = _INTERVAL_METRICS[metric_kind]
        self.basepoint = EMPTY_INTERVAL

    @property
    def signature(self) -> tuple:
        return ("intervals", self.metric_kind)

    def dist(self, x, y) -> float:
        return self._dist(x, y)

    def contains(self, x) -> bool:
        return isinstance(x, Interval) and not (math.isnan(x.left) or math.isnan(x.right))

    def canonical(self, x):
        return EMPTY_INTERVAL if x.is_empty else x

    def sort_key(self, x):
        if x.is_empty:
            return (0, 0.0, 0.0, 0, 0)
        return (1, x.left, x.right, int(x.left_closed), int(x.right_closed))

    def sample_point(self, rng):
        left = rng.uniform(-5.0, 5.0)
        return self.canonical(Interval(
            left,
            left + rng.uniform(0.0, 6.0),
            rng.random() < 0.8,
            rng.random() < 0.8,
        ))

    def point_to_json(self, x):
        return [x.left, x.right, x.left_closed, x.right_closed]

    def point_from_json(self, obj):
        if not (isinstance(obj, list) and len(obj) == 4):
            raise ValueError(f"interval {obj!r} is not a [left, right, closed, closed] array")
        closed = obj[2], obj[3]
        if not all(isinstance(c, bool) for c in closed):
            raise ValueError(f"interval closedness {list(closed)!r} is not true/false")
        return Interval(parse_float(obj[0]), parse_float(obj[1]), *closed)


class IntervalModuleSpace(IntervalSpace):
    """Intervals under the interleaving distance, pointed at the empty one."""

    space_id = "intervalmodule"

    def __init__(self):
        super().__init__(HAUSDORFF)
        self.metric_kind = "interleaving"
        self._dist = interval_interleaving

    @property
    def signature(self) -> tuple:
        return ("intervals", "interleaving")


# ---------------------------------------------------------------------------
# Anagrams
# ---------------------------------------------------------------------------

DEFAULT_ALPHABET = " " + string.ascii_lowercase + string.ascii_uppercase


class AnagramSpace(PointedSpace):
    """Single characters under the discrete metric, pointed at the space."""

    space_id = "anagram"

    def __init__(self, alphabet: str = DEFAULT_ALPHABET):
        if " " not in alphabet:
            raise DomainError("alphabet must contain the blank basepoint ' '")
        if len(set(alphabet)) != len(alphabet):
            raise DomainError("alphabet characters must be distinct")
        self.alphabet = alphabet
        self._order = {ch: k for k, ch in enumerate(alphabet)}
        self.basepoint = " "

    @property
    def signature(self) -> tuple:
        return ("anagram", self.alphabet)

    def dist(self, x, y) -> float:
        self._check(x)
        self._check(y)
        return 0.0 if x == y else 1.0

    def _check(self, x) -> None:
        if x not in self._order:
            raise DomainError(f"character {x!r} is not in the alphabet")

    def contains(self, x) -> bool:
        return isinstance(x, str) and x in self._order

    def sort_key(self, x):
        return self._order[x]

    def sample_point(self, rng):
        return self.alphabet[rng.randrange(1, len(self.alphabet))]

    def point_to_json(self, x):
        return x

    def point_from_json(self, obj):
        self._check(obj)
        return obj


def word_diagram(word: str, space: AnagramSpace):
    """The multiset of letters of a word; blanks vanish into the basepoint."""
    return diagram_from_list(list(word), space)


def anagram_distance(s: str, t: str, space: AnagramSpace | None = None) -> int:
    """W_1 between letter multisets under the discrete metric, in closed
    form: max(|s|, |t|) - |multiset intersection|, blanks ignored.

    Shared letters match for free; the rest pair off at cost 1 or retire to
    the basepoint at cost 1, so only the larger count minus the overlap pays.
    """
    space = space or AnagramSpace()
    for ch in s + t:
        if not space.contains(ch):
            raise DomainError(f"character {ch!r} is not in the alphabet")
    left = Counter(s.replace(" ", ""))
    right = Counter(t.replace(" ", ""))
    shared = sum((left & right).values())
    return max(sum(left.values()), sum(right.values())) - shared


# ---------------------------------------------------------------------------
# Star graphs and word metrics on finite abelian groups
# ---------------------------------------------------------------------------


class StarGraphSpace(PointedSpace):
    """Generators arranged in a star around the identity.

    rho(a, b) is 2 for distinct generators, 1 against the identity, 0 on
    equal points: the path metric of the star graph.
    """

    space_id = "stargraph"

    def __init__(self, generators, zero):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise DomainError("generators must be distinct")
        if zero in generators:
            raise DomainError("the identity cannot be listed as a generator")
        self.generators = generators
        self.zero = zero
        self.basepoint = zero
        self._order = {g: k for k, g in enumerate(generators)}

    @property
    def signature(self) -> tuple:
        return ("stargraph", self.generators, self.zero)

    def dist(self, x, y) -> float:
        self._check(x)
        self._check(y)
        if x == y:
            return 0.0
        if x == self.zero or y == self.zero:
            return 1.0
        return 2.0

    def _check(self, x) -> None:
        if x != self.zero and x not in self._order:
            raise DomainError(f"{x!r} is neither the identity nor a generator")

    def pairwise(self, xs, ys):
        """dist over xs x ys and to the identity, each point validated once."""
        for x in (*xs, *ys):
            self._check(x)
        zero = self.zero
        rows = [[0.0 if x == y else 1.0 if x == zero or y == zero else 2.0 for y in ys]
                for x in xs]
        return rows, *([0.0 if x == zero else 1.0 for x in points] for points in (xs, ys))

    def contains(self, x) -> bool:
        return x == self.zero or x in self._order

    def sort_key(self, x):
        return (0,) if x == self.zero else (1, self._order[x])

    def sample_point(self, rng):
        return self.generators[rng.randrange(len(self.generators))]

    def point_to_json(self, x):
        return list(x) if isinstance(x, tuple) else x

    def point_from_json(self, obj):
        x = tuple(obj) if isinstance(obj, list) else obj
        self._check(x)
        return x


class FiniteAbelianGroup:
    """Z_{n1} x ... x Z_{nk}; elements are tuples, ints coerce in rank one."""

    def __init__(self, orders):
        if isinstance(orders, int):
            orders = (orders,)
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 1 for n in orders):
            raise DomainError("orders must be positive integers")
        self.orders = orders

    def coerce(self, g) -> tuple:
        if isinstance(g, int):
            g = (g,)
        g = tuple(int(c) for c in g)
        if len(g) != len(self.orders):
            raise DomainError(f"element {g!r} has wrong rank")
        return tuple(c % n for c, n in zip(g, self.orders))

    @property
    def zero(self) -> tuple:
        return (0,) * len(self.orders)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return self.add(a, self.neg(b))

    def elements(self) -> list[tuple]:
        return [tuple(e) for e in itertools.product(*(range(n) for n in self.orders))]

    def __len__(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out


def _prepare_generators(group: FiniteAbelianGroup, generators) -> list[tuple]:
    gens = [group.coerce(g) for g in generators]
    if not gens:
        raise DomainError("generator set must be nonempty")
    if len(set(gens)) != len(gens):
        raise DomainError("generators must be distinct")
    gen_set = set(gens)
    for g in gens:
        if group.neg(g) not in gen_set:
            raise DomainError(f"generator set is not symmetric: missing -{g!r}")
    return gens


def _cayley_distances(group: FiniteAbelianGroup, gens: list[tuple]) -> dict:
    dist = {group.zero: 0}
    queue = deque([group.zero])
    while queue:
        g = queue.popleft()
        for s in gens:
            h = group.add(g, s)
            if h not in dist:
                dist[h] = dist[g] + 1
                queue.append(h)
    return dist


def word_metric(group: FiniteAbelianGroup, generators, g, h) -> int:
    """Graph distance on the Cayley graph: least word length writing g - h."""
    return cayley_metric(group, generators)(g, h)


def cayley_metric(group: FiniteAbelianGroup, generators):
    """word_metric on group as a function of (g, h), its Cayley graph searched once."""
    gens = _prepare_generators(group, generators)
    dist = _cayley_distances(group, gens)
    if len(dist) != len(group):
        raise DomainError("generators do not generate the group")
    return lambda g, h: dist[group.sub(group.coerce(g), group.coerce(h))]


def _words_by_value(group: FiniteAbelianGroup, gens: list[tuple],
                    length_bound: int) -> dict:
    buckets: dict = {}
    for length in range(length_bound + 1):
        for word in itertools.combinations_with_replacement(gens, length):
            value = group.zero
            for s in word:
                value = group.add(value, s)
            buckets.setdefault(value, []).append(word)
    return buckets


def word_metric_via_wasserstein(group: FiniteAbelianGroup, generators, g, h,
                                length_bound: int) -> float:
    """The word metric realized as a minimum of W_1 over the star space.

    Minimizes W_1[rho, 0] over pairs of words (as diagrams of generators)
    evaluating to g and h, word lengths up to length_bound.  The bound must
    at least let both elements be written, otherwise the search is
    incomplete and rejected; reaching the true word metric can need words
    as long as d(g, h) + d(h, 0), so twice the group diameter always
    suffices.  One pair's search; wasserstein_word_metric builds the words
    and their diagrams once for many pairs.
    """
    return wasserstein_word_metric(group, generators, length_bound)(g, h)


def wasserstein_word_metric(group: FiniteAbelianGroup, generators, length_bound: int):
    """word_metric_via_wasserstein on group as a function of (g, h).

    The words up to length_bound, bucketed by value and shortest first, and
    their diagrams are built here once, and each pair's search reads them.
    """
    # Imported here: wasserstein builds on diagram, which this module feeds.
    from .wasserstein import wasserstein_value

    gens = _prepare_generators(group, generators)
    space = StarGraphSpace(gens, group.zero)
    words = {value: [(len(word), diagram_from_list(list(word), space))
                     for word in sorted(bucket, key=len)]
             for value, bucket in _words_by_value(group, gens, int(length_bound)).items()}

    def realize(g, h) -> float:
        g, h = group.coerce(g), group.coerce(h)
        if g not in words or h not in words:
            raise PreconditionError(
                f"length bound {length_bound} is too small: some element has no "
                "word representative; the search would be incomplete"
            )
        best = INF
        for length_g, alpha in words[g]:
            for length_h, beta in words[h]:
                # Every unmatched letter costs at least 1, so W_1 is bounded
                # below by the length difference; such pairs cannot improve.
                if abs(length_g - length_h) >= best:
                    continue
                best = min(best, wasserstein_value(alpha, beta, 1))
            if best == 0.0:
                break
        return best

    return realize
