"""Ground metric spaces, finite subset spaces, and the Hausdorff metric.

Points of a finite metric space are hashable identifiers resolved through an
explicit distance matrix; subsets of the real line are plain numbers with
``d(x, y) = |x - y|``.  Integer and ``Fraction`` inputs flow through the
subset operations without being coerced to float, so exact arithmetic is
available where it matters (lattice preservation, rational witnesses).

All operations here are pure functions of immutable values.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from fractions import Fraction

import numpy as np

DEFAULT_TOLERANCE = 1e-9
DEFAULT_ENUMERATION_CAP = 2000


def get_tolerance():
    """Comparison tolerance: the FINSET_TOLERANCE env var, else 1e-9."""
    return float(os.environ.get("FINSET_TOLERANCE", DEFAULT_TOLERANCE))


class EnumerationCapError(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""


class MatchingError(RuntimeError):
    """A matching could not be verified (bijectivity or displacement)."""


def _merge_close(items, tol):
    # items sorted ascending; only numeric values are merged
    if not isinstance(items[0], numbers.Real):
        return items
    out = [items[0]]
    for v in items[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return out


class FSet:
    """A nonempty finite subset, stored in canonical sorted form.

    Equality and hashing are structural, so two FSets are equal exactly when
    they are equal as sets.  A positive ``tol`` merges numeric elements closer
    than ``tol`` at construction time, which keeps computed sets from growing
    spurious extra points through floating-point round-off.
    """

    __slots__ = ("elements",)

    def __init__(self, elements, tol=0.0):
        items = sorted(set(elements))
        if items and tol > 0.0:
            items = _merge_close(items, tol)
        if not items:
            raise ValueError("an FSet must contain at least one point")
        self.elements = tuple(items)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __eq__(self, other):
        if isinstance(other, FSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return "FSet(%r)" % (list(self.elements),)

    def approx_equal(self, other, tol=None):
        """Set equality up to a per-point tolerance, by default ``get_tolerance()``."""
        tol = get_tolerance() if tol is None else tol
        a, b = self.elements, tuple(other)
        if len(a) != len(b):
            return False
        if a and isinstance(a[0], numbers.Real):
            return all(abs(x - y) <= tol for x, y in zip(a, b))
        return a == b


class RealLineSpace:
    """The real line, optionally carrying a finite list of reference points.

    ``points`` is the sample used by enumeration-based operations; the metric
    is ``|x - y|`` for arbitrary reals, so subsets are not restricted to the
    sample.  ``scale``, when given, declares that every listed point is an
    integer multiple of ``1/scale``.
    """

    kind = "line"

    def __init__(self, points=(), scale=None):
        pts = sorted(points)
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise ValueError("line points must be distinct")
        if scale is not None:
            if scale <= 0:
                raise ValueError("scale must be a positive integer")
            for p in pts:
                if abs(p * scale - round(p * scale)) > 1e-12:
                    raise ValueError("point %r is not a multiple of 1/%s" % (p, scale))
        self.points = list(pts)
        self.scale = scale

    @staticmethod
    def d(a, b):
        return abs(a - b)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def diameter(self):
        if len(self.points) < 2:
            return 0.0
        return self.points[-1] - self.points[0]

    def min_positive_distance(self):
        if len(self.points) < 2:
            raise ValueError("need at least two points")
        return min(b - a for a, b in zip(self.points, self.points[1:]))

    def to_json(self):
        data = {"kind": "line", "points": [float(p) for p in self.points]}
        if self.scale is not None:
            data["scale"] = self.scale
        return data


class FiniteMetricSpace:
    """A finite point set with an explicit symmetric distance matrix."""

    kind = "finite"

    def __init__(self, points, dist, validate=True):
        self.points = list(points)
        self.dist = np.array(dist, dtype=float)
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape %s does not match %d points"
                             % (self.dist.shape, n))
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != n:
            raise ValueError("point identifiers must be distinct")
        if validate:
            self.validate()

    def d(self, a, b):
        return float(self.dist[self._index[a], self._index[b]])

    def index(self, p):
        return self._index[p]

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def diameter(self):
        return float(self.dist.max()) if len(self.points) else 0.0

    def min_positive_distance(self):
        n = len(self.points)
        if n < 2:
            raise ValueError("need at least two points")
        off = self.dist[~np.eye(n, dtype=bool)]
        return float(off.min())

    def _check_pairs(self):
        """Zero diagonal and symmetry within ``get_tolerance()``, and positive
        distances between distinct points; raises ValueError."""
        tol = get_tolerance()
        D = self.dist
        n = len(self.points)
        if np.abs(np.diag(D)).max(initial=0.0) > tol:
            raise ValueError("nonzero diagonal entry in distance matrix")
        if n and np.abs(D - D.T).max() > tol:
            raise ValueError("distance matrix is not symmetric")
        if n > 1:
            off = np.where(np.eye(n, dtype=bool), np.inf, D)
            if off.min() <= 0:
                i, j = divmod(int(np.argmin(off)), n)
                raise ValueError("non-positive distance between distinct points %r, %r"
                                 % (self.points[i], self.points[j]))

    def validate(self):
        """Check the metric axioms within ``get_tolerance()``; raises ValueError."""
        self._check_pairs()
        tol = get_tolerance()
        D = self.dist
        for k in range(len(self.points)):
            slack = D - (D[:, k][:, None] + D[k, :][None, :])
            worst = slack.max()
            if worst > tol:
                i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
                raise ValueError(
                    "triangle inequality fails by %.3g on (%r, %r, %r)"
                    % (worst, self.points[i], self.points[k], self.points[j]))

    @classmethod
    def from_coords(cls, coords, validate=True):
        """Euclidean space on explicit coordinates (scalars or tuples)."""
        arr = np.asarray([c if isinstance(c, (tuple, list)) else (c,) for c in coords],
                         dtype=float)
        diff = arr[:, None, :] - arr[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        points = [tuple(float(x) for x in row) if row.size > 1 else float(row[0])
                  for row in arr]
        return cls(points, dist, validate=validate)

    def to_json(self):
        return {
            "kind": "finite",
            "points": [list(p) if isinstance(p, tuple) else p for p in self.points],
            "dist": self.dist.tolist(),
        }


def as_finite_space(space, validate=True):
    """Materialize a space as a FiniteMetricSpace on its listed points.

    Takes a FiniteMetricSpace (returned as is), a space with listed
    ``points``, or a plain sequence of coordinates.  Tuple points get
    Euclidean distances; scalar points lie on the line at distance exactly
    ``|x - y|``.
    """
    if isinstance(space, FiniteMetricSpace):
        return space
    coords = list(getattr(space, "points", space))
    if not coords:
        raise ValueError("space has no listed points")
    if any(isinstance(c, (tuple, list)) for c in coords):
        return FiniteMetricSpace.from_coords(coords, validate=validate)
    pts = [float(p) for p in coords]
    arr = np.asarray(pts)
    return FiniteMetricSpace(pts, np.abs(arr[:, None] - arr[None, :]), validate=validate)


def space_from_json(data):
    """Load a space from its JSON form (kinds: "finite", "line")."""
    kind = data.get("kind")
    if kind == "line":
        return RealLineSpace(data["points"], scale=data.get("scale"))
    if kind == "finite":
        points = [tuple(p) if isinstance(p, list) else p for p in data["points"]]
        if "dist" in data:
            return FiniteMetricSpace(points, data["dist"])
        return FiniteMetricSpace.from_coords(points)
    raise ValueError("unknown space kind: %r" % (kind,))


def _distance_fn(space):
    if space is None:
        return lambda a, b: abs(a - b)
    return space.d


def _on_line(space):
    return space is None or isinstance(space, RealLineSpace)


def _ascending(A):
    return A.elements if isinstance(A, FSet) else sorted(A)


def _check_size(pts, n):
    if len(pts) > n:
        raise ValueError("set has %d points, more than n=%d" % (len(pts), n))
    return pts


def _as_fset(A, pts):
    """A itself when it is an FSet, else the FSet of its points ``pts``."""
    return A if isinstance(A, FSet) else FSet(pts)


def _directed_line(xs, ys):
    """Largest distance from a point of xs to its nearest point of ys, with
    both sorted ascending: one merge pass, as the nearest point of ys is the
    predecessor or the successor of x."""
    last = len(ys) - 1
    j = 0
    worst = None
    for x in xs:
        while j <= last and ys[j] <= x:
            j += 1
        if j == 0:
            d = ys[0] - x
        elif j > last:
            d = x - ys[last]
        else:
            lo, hi = x - ys[j - 1], ys[j] - x
            d = hi if hi < lo else lo
        if worst is None or d > worst:
            worst = d
    return worst


def hausdorff(A, B, space=None):
    """Hausdorff distance between two nonempty finite subsets.

    With ``space=None`` or a RealLineSpace the points are numbers on the
    real line.  Each directed distance is then one merge pass over sorted
    elements (an FSet is already sorted; other iterables are sorted first),
    where other spaces scan all pairs.  The result is the scan's bit for
    bit: correctly rounded subtraction is monotone, so the nearest point of
    B to x is its predecessor or its successor in B, and the pass takes the
    same least float.  A tie keeps the predecessor, the scan's first minimum
    in ascending order, and the maximum keeps the first, as ``max`` does,
    so the type is the scan's too when all elements share one.  When every
    element of both sets is a Fraction the pass runs on Python ints: each
    element is scaled to its numerator over the least common multiple of
    all denominators, and the result is ``Fraction(h, lcm)``.
    """
    if _on_line(space):
        xs, ys = _ascending(A), _ascending(B)
        if not xs or not ys:
            raise ValueError("Hausdorff distance needs nonempty sets")
        den = None
        if all(type(p) is Fraction for p in xs) and all(type(p) is Fraction for p in ys):
            den = math.lcm(*[p.denominator for p in xs], *[p.denominator for p in ys])
            xs = [p.numerator * (den // p.denominator) for p in xs]
            ys = [p.numerator * (den // p.denominator) for p in ys]
        forward, backward = _directed_line(xs, ys), _directed_line(ys, xs)
        h = backward if backward > forward else forward
        return h if den is None else Fraction(h, den)
    a_pts, b_pts = tuple(A), tuple(B)
    if not a_pts or not b_pts:
        raise ValueError("Hausdorff distance needs nonempty sets")
    d = space.d
    forward = max(min(d(a, b) for b in b_pts) for a in a_pts)
    backward = max(min(d(a, b) for a in a_pts) for b in b_pts)
    return max(forward, backward)


def min_separation(A, n, space=None):
    """Least pairwise distance of an n-point set; 0 for smaller sets.

    This is the quantity controlling how far a set sits from the space of
    sets with fewer points; it changes by at most twice the Hausdorff
    distance between sets.  On the line it is the least gap between
    consecutive sorted elements, the same value as the least over all pairs
    by the monotonicity argument of ``hausdorff``.
    """
    pts = _check_size(tuple(A), n)
    if len(pts) < n or n == 1:
        return 0.0
    if _on_line(space):
        s = sorted(pts)
        return min(b - a for a, b in zip(s, s[1:]))
    d = space.d
    return min(d(a, b) for a, b in itertools.combinations(pts, 2))


def dist_to_lower(A, space, n, mode="within", cap=None):
    """Distance from A to the nearest subset with at most ``n - 1`` points.

    mode="within" draws candidate sets from the space's listed points.
    mode="ambient" (line spaces only) additionally allows the points of A
    and their pairwise midpoints, which realizes merging two points of A
    anywhere on the line.  Enumeration larger than ``cap`` candidate sets
    raises EnumerationCapError.
    """
    pts = _check_size(tuple(A), n)
    if len(pts) < n:
        return 0.0
    if n == 1:
        raise ValueError("there is no subset space below n=1")
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if mode == "within":
        universe = list(dict.fromkeys(space.points))
        if not universe:
            raise ValueError("space lists no points to enumerate")
    elif mode == "ambient":
        if space is not None and not isinstance(space, RealLineSpace):
            raise ValueError("ambient mode is only defined on the line")
        base = set(space.points) if space is not None else set()
        mids = {(a + b) / 2 for a, b in itertools.combinations(pts, 2)}
        universe = sorted(base | set(pts) | mids)
    else:
        raise ValueError("unknown mode %r" % (mode,))
    total = sum(math.comb(len(universe), k) for k in range(1, n))
    if total > cap:
        raise EnumerationCapError(
            "%d candidate sets exceed the cap of %d" % (total, cap))
    best = math.inf
    for k in range(1, n):
        for cand in itertools.combinations(universe, k):
            h = hausdorff(pts, cand, space)
            if h < best:
                best = h
    return best


def _sort_key(p):
    # deterministic tie-break for heterogeneous point identifiers
    return (type(p).__name__, p) if not isinstance(p, numbers.Real) else ("", p)


class Matching:
    """A bijection between two equal-size point sets, stored as pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return "Matching(%r)" % (list(self.pairs),)

    def as_dict(self):
        return dict(self.pairs)

    def max_displacement(self, space=None):
        d = _distance_fn(space)
        return max(d(a, b) for a, b in self.pairs)


def _verify_matching(pairs, a_pts, b_pts, bound, space):
    d = _distance_fn(space)
    tol = get_tolerance()
    targets = {b for _, b in pairs}
    if len(targets) != len(b_pts) or targets != set(b_pts):
        raise MatchingError("assignment is not a bijection")
    for a, b in pairs:
        if d(a, b) > bound + tol:
            raise MatchingError(
                "pair (%r, %r) displaced by %r, beyond the Hausdorff distance"
                % (a, b, d(a, b)))


def match_bijection(A, B, space=None):
    """Pair the points of two well-separated equal-size sets.

    Requires max(min_separation(A), min_separation(B)) > 2 * hausdorff(A, B);
    each point then has a unique partner within the Hausdorff distance, so
    greedy nearest-neighbour assignment is a bijection.  The result is
    verified before returning, within ``get_tolerance()``.
    """
    a_pts, b_pts = tuple(A), tuple(B)
    if len(a_pts) != len(b_pts):
        raise ValueError("sets must have equal size")
    n = len(a_pts)
    dh = hausdorff(a_pts, b_pts, space)
    da = min_separation(a_pts, n, space)
    db = min_separation(b_pts, n, space)
    if not max(da, db) > 2 * dh:
        raise ValueError("sets are not separated enough for a canonical matching")
    d = _distance_fn(space)
    if da > 2 * dh:
        pairs = tuple((x, min(b_pts, key=lambda y: (d(x, y), _sort_key(y)))) for x in a_pts)
    else:
        pairs = tuple((min(a_pts, key=lambda x: (d(x, y), _sort_key(x))), y) for y in b_pts)
        pairs = tuple(sorted(pairs, key=lambda p: _sort_key(p[0])))
    _verify_matching(pairs, a_pts, b_pts, dh, space)
    return Matching(pairs)


def match_order_preserving(A, B):
    """Order-preserving bijection between well-separated line sets.

    Same precondition as match_bijection; on the line the canonical matching
    pairs the sorted elements in order, and deleting the minima of both sets
    does not increase their Hausdorff distance.
    """
    tol = get_tolerance()
    a_pts, b_pts = tuple(sorted(A)), tuple(sorted(B))
    if len(a_pts) != len(b_pts):
        raise ValueError("sets must have equal size")
    n = len(a_pts)
    dh = hausdorff(a_pts, b_pts)
    da = min_separation(a_pts, n)
    db = min_separation(b_pts, n)
    if not max(da, db) > 2 * dh:
        raise ValueError("sets are not separated enough for a canonical matching")
    pairs = tuple(zip(a_pts, b_pts))
    for a, b in pairs:
        if abs(a - b) > dh + tol:
            raise MatchingError(
                "order-preserving pair (%r, %r) displaced beyond the Hausdorff distance"
                % (a, b))
    return Matching(pairs)


def _ordered_points(space):
    try:
        return sorted(space.points)
    except TypeError:
        return list(space.points)


def enumerate_fsets(space, n, cap=None):
    """All subsets of the space's points with 1..n elements.

    Enumeration order is canonical: sizes ascending, lexicographic within a
    size.  A cap (when given) bounds the number of subsets produced.
    """
    pts = _ordered_points(space)
    total = sum(math.comb(len(pts), k) for k in range(1, n + 1))
    if cap is not None and total > cap:
        raise EnumerationCapError("%d subsets exceed the cap of %d" % (total, cap))
    out = []
    for k in range(1, n + 1):
        for comb in itertools.combinations(pts, k):
            out.append(FSet(comb))
    return out
