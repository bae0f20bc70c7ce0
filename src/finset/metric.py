"""Ground metric spaces, finite subset spaces, and the Hausdorff metric.

Points of a finite metric space are hashable identifiers resolved through an
explicit distance matrix; subsets of the real line are plain numbers with
``d(x, y) = |x - y|``.  Integer and ``Fraction`` inputs flow through the
subset operations without being coerced to float, so exact arithmetic is
available where it matters (lattice preservation, rational witnesses).

All operations here are pure functions of immutable values.
"""

from __future__ import annotations

import inspect
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


class FSet(tuple):
    """A nonempty finite subset: the sorted tuple of its distinct points.

    Equality and hashing are the tuple's, so two FSets are equal exactly when
    they are equal as sets.  A positive ``tol`` merges numeric elements closer
    than ``tol`` at construction time, which keeps computed sets from growing
    spurious extra points through floating-point round-off.  Without one, an
    FSet argument is returned as is, as ``tuple(t)`` returns a tuple.
    """

    __slots__ = ()

    def __new__(cls, elements, tol=0.0):
        if isinstance(elements, cls) and not tol > 0.0:
            return elements
        items = sorted(set(elements))
        if items and tol > 0.0:
            items = _merge_close(items, tol)
        if not items:
            raise ValueError("an FSet must contain at least one point")
        return super().__new__(cls, items)

    @classmethod
    def _from_sorted(cls, items):
        """``FSet(items)`` for nonempty items already sorted and distinct,
        without the set and the sort that check it."""
        return tuple.__new__(cls, items)

    def __repr__(self):
        return "FSet(%r)" % (list(self),)


class RealLineSpace:
    """The real line, optionally carrying a finite list of reference points.

    ``points`` is the sample used by enumeration-based operations; the metric
    is ``|x - y|`` for arbitrary reals, so subsets are not restricted to the
    sample.
    """

    kind = "line"

    def __init__(self, points=()):
        pts = sorted(points)
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise ValueError("line points must be distinct")
        self.points = list(pts)

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
        return {"kind": "line", "points": [float(p) for p in self.points]}


_TINY = np.finfo(float).tiny
# cells of one row block, 2 MiB of floats.  With 512 KiB blocks, numpy code
# that then allocates and frees n x n arrays in a loop ran up to 4x slower at
# n = 300: glibc trims its heap after each such free unless an earlier free of
# a larger block raised its trim threshold.
_BLOCK_CELLS = 1 << 18


def _row_blocks(n, *shape):
    """Row slices covering range(n), each of about _BLOCK_CELLS cells when a
    row holds ``shape``, with a work array of (block rows, *shape) cut from
    one buffer: a pass over an n x n matrix holds one block at a time."""
    step = max(1, _BLOCK_CELLS // max(math.prod(shape), 1))
    buf = np.empty((min(step, n),) + shape)
    for i in range(0, n, step):
        s = slice(i, min(i + step, n))
        yield s, buf[:s.stop - s.start]


def _off_diagonal_min(D, over=None):
    """The least off-diagonal entry of a square matrix of two or more rows,
    or of ``over / D`` when ``over`` is given, and its first (i, j) in
    row-major order, as ``np.argmin`` finds it with the diagonal set to inf."""
    n = len(D)
    low, at = np.inf, None
    for s, block in _row_blocks(n, n):
        np.copyto(block, D[s])
        if over is not None:
            with np.errstate(invalid="ignore"):  # 0 / 0 on the diagonal, set next
                np.divide(over[s], block, out=block)
        block[np.arange(len(block)), np.arange(s.start, s.stop)] = np.inf
        k = int(np.argmin(block))
        if at is None or block.flat[k] < low:
            low, at = block.flat[k], (s.start + k // n, k % n)
    return float(low), at


def _eps_graph(D, eps):
    """The off-diagonal entries of D within eps as a scipy CSR matrix, in
    row-major order: the graph scipy would read from the dense matrix of edge
    weights.  It holds 12 bytes an edge, a float weight and an int32 column,
    which scipy's searches read without a copy; its build peaks at 20 bytes
    an edge, with the int64 edge index, once the n x n mask is freed."""
    from scipy.sparse import csr_array

    n = len(D)
    edges = D <= eps
    np.fill_diagonal(edges, False)
    flat = np.flatnonzero(edges)
    del edges
    row_starts = np.searchsorted(flat, np.arange(0, n * n + 1, n)).astype(np.int32)
    weights = D.take(flat)
    cols = np.remainder(flat, n, out=flat).astype(np.int32)
    return csr_array((weights, cols, row_starts), shape=(n, n))


def _max_asymmetry(D):
    """The largest |D[i, j] - D[j, i]| of a square matrix, 0.0 when empty:
    the largest entry of D - D.T, which holds each gap with both signs."""
    worst = 0.0
    for s, gap in _row_blocks(len(D), len(D)):
        worst = max(worst, np.subtract(D[s], D.T[s], out=gap).max())
    return worst


def _euclidean(arr):
    """The Euclidean distance matrix of the rows of arr: the square root of
    the squared coordinate gaps summed over the last axis of their (n, n, d)
    array, one row block of it at a time."""
    n, dim = arr.shape
    dist = np.empty((n, n))
    for s, gaps in _row_blocks(n, n, dim):
        block = dist[s]
        with np.errstate(over="ignore"):  # an overflowed sum is redone below
            np.square(np.subtract(arr[s, None, :], arr[None, :, :], out=gaps), out=gaps)
            np.sum(gaps, axis=-1, out=block)
        # a sum of squares that overflowed, or fell below the normal range,
        # lost its gaps; hypot scales them instead
        rows, cols = np.nonzero((block < _TINY) | (block == np.inf))
        np.sqrt(block, out=block)
        block[rows, cols] = np.hypot.reduce(arr[rows + s.start] - arr[cols], axis=1,
                                            initial=0.0)
    return dist


def _triple_slacks(D, cover):
    """Per pivot z in order, ``(peak, (i, j), z)``: the largest slack
    D[i, j] - cover(D[i, z], D[z, j]) and its first (i, j) in row-major
    order, as ``np.argmax`` finds it.

    ``cover`` is ``np.add`` for the triangle inequality, ``np.maximum`` for
    the strong one.  One n x n buffer, rewritten whole at every pivot, takes
    the cover and then the slack, so the scan allocates nothing per pivot.
    """
    n = len(D)
    buf = np.empty((n, n))
    for z in range(n):
        cover(D[:, z, None], D[z], out=buf)
        np.subtract(D, buf, out=buf)
        k = int(np.argmax(buf))  # no NaN: the pair checks passed D
        yield buf.flat[k], divmod(k, n), z


class FiniteMetricSpace:
    """A finite point set with an explicit, exactly symmetric distance matrix.

    Every construction runs the O(n^2) pair checks of ``_check_pairs``;
    ``validate``, on by default, adds the O(n^3) triangle scan ``validate()``.
    """

    kind = "finite"

    def __init__(self, points, dist, validate=True):
        self._setup(points, np.array(dist, dtype=float))
        if validate:
            self.validate()

    @classmethod
    def _adopt(cls, points, dist):
        """``cls(points, dist, validate=False)`` for a float matrix built for
        this space alone, which it keeps instead of copying."""
        space = cls.__new__(cls)
        space._setup(points, dist)
        return space

    def _setup(self, points, dist):
        self.points = list(points)
        self.dist = dist
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape %s does not match %d points"
                             % (self.dist.shape, n))
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != n:
            raise ValueError("point identifiers must be distinct")
        self._check_pairs()

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
        if len(self.points) < 2:
            raise ValueError("need at least two points")
        return _off_diagonal_min(self.dist)[0]

    def _check_pairs(self):
        """Finite entries, zero diagonal and symmetry within ``get_tolerance()``,
        and positive distances between distinct points; raises ValueError.
        A matrix that passes but is not exactly symmetric is then replaced
        by ``np.minimum(D, D.T)``; a symmetric one is not written."""
        tol = get_tolerance()
        D = self.dist
        n = len(self.points)
        # a NaN propagates to the min and the max, and an infinity is one of
        # them, so only a failing matrix builds the n x n mask naming its entry
        if not (np.isfinite(D.min(initial=0.0)) and np.isfinite(D.max(initial=0.0))):
            i, j = divmod(int(np.argmin(np.isfinite(D))), n)
            raise ValueError("non-finite distance %r between %r, %r"
                             % (float(D[i, j]), self.points[i], self.points[j]))
        if np.abs(np.diag(D)).max(initial=0.0) > tol:
            raise ValueError("nonzero diagonal entry in distance matrix")
        asymmetry = _max_asymmetry(D)
        if asymmetry > tol:
            raise ValueError("distance matrix is not symmetric")
        if n > 1:
            low, (i, j) = _off_diagonal_min(D)
            if low <= 0:
                raise ValueError("non-positive distance between distinct points %r, %r"
                                 % (self.points[i], self.points[j]))
        if asymmetry > 0:
            # one row block at a time: a later block reads columns already
            # written, and min(b, min(a, b)) is min(a, b)
            for s, low in _row_blocks(n, n):
                D[s] = np.minimum(D[s], D.T[s], out=low)

    def validate(self):
        """Scan the triangle inequality within ``get_tolerance()``; raises
        ValueError naming the first pivot whose worst slack exceeds it."""
        tol = get_tolerance()
        for worst, (i, j), k in _triple_slacks(self.dist, np.add):
            if worst > tol:
                raise ValueError(
                    "triangle inequality fails by %.3g on (%r, %r, %r)"
                    % (worst, self.points[i], self.points[k], self.points[j]))

    @classmethod
    def from_coords(cls, coords):
        """Euclidean space on explicit coordinates (scalars or tuples), with the
        pair checks only: Euclidean distances of finite coordinates are a metric,
        exactly symmetric, so the triangle scan could only fail on rounding.
        A gap whose square overflows or underflows still gets its distance."""
        rows = [c if isinstance(c, (tuple, list)) else (c,) for c in coords]
        if not rows:
            raise ValueError("space has no listed points")
        arr = np.asarray(rows, dtype=float)
        dist = _euclidean(arr)
        points = [tuple(float(x) for x in row) if row.size > 1 else float(row[0])
                  for row in arr]
        return cls._adopt(points, dist)

    def to_json(self):
        return {
            "kind": "finite",
            "points": [list(p) if isinstance(p, tuple) else p for p in self.points],
            "dist": self.dist.tolist(),
        }


def as_finite_space(space):
    """Materialize a space as a FiniteMetricSpace on its listed points.

    Takes a FiniteMetricSpace (returned as is), a space with listed
    ``points``, or a plain sequence of coordinates.  Tuple points go
    through ``from_coords``; scalar points lie on the line at distance
    exactly ``|x - y|``, which is a metric too, so only the pair checks run.
    Anything else, such as an interval union, raises ValueError.
    """
    if isinstance(space, FiniteMetricSpace):
        return space
    try:
        coords = list(getattr(space, "points", space))
    except TypeError:
        raise ValueError("%s has no listed points" % type(space).__name__) from None
    if not coords:
        raise ValueError("space has no listed points")
    if any(isinstance(c, (tuple, list)) for c in coords):
        return FiniteMetricSpace.from_coords(coords)
    pts = [float(p) for p in coords]
    dist = np.subtract.outer(pts, pts)
    return FiniteMetricSpace._adopt(pts, np.abs(dist, out=dist))


def _from_spec(kinds, spec, noun):
    """Call the function that ``kinds`` maps a JSON spec's "kind" to, with the
    spec's other keys as its arguments.  An unknown kind, a key the function
    does not take, or a missing one it needs raises ValueError naming it."""
    kind = spec.get("kind")
    if kind not in kinds:
        raise ValueError("unknown %s kind: %r" % (noun, kind))
    params = inspect.signature(kinds[kind]).parameters
    args = {k: v for k, v in spec.items() if k != "kind"}
    unknown = sorted(set(args) - set(params))
    if unknown:
        raise ValueError("unknown key %s for kind %r; accepted keys: %s"
                         % (", ".join(map(repr, unknown)), kind, ", ".join(params)))
    missing = [k for k, p in params.items() if p.default is p.empty and k not in args]
    if missing:
        raise ValueError("missing key %s for kind %r"
                         % (", ".join(map(repr, missing)), kind))
    return kinds[kind](**args)


def _distance_fn(space):
    return RealLineSpace.d if space is None else space.d


def _on_line(space):
    return space is None or isinstance(space, RealLineSpace)


def _ascending(A):
    return A if isinstance(A, FSet) else sorted(A)


def _check_size(pts, n):
    if len(pts) > n:
        raise ValueError("set has %d points, more than n=%d" % (len(pts), n))
    return pts


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
    if mode == "within":
        candidates = space
        if space is None or not space.points:
            raise ValueError("space lists no points to enumerate")
    elif mode == "ambient":
        if space is not None and not isinstance(space, RealLineSpace):
            raise ValueError("ambient mode is only defined on the line")
        base = set(space.points) if space is not None else set()
        mids = {(a + b) / 2 for a, b in itertools.combinations(pts, 2)}
        candidates = RealLineSpace(base | set(pts) | mids)
    else:
        raise ValueError("unknown mode %r" % (mode,))
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    return min(hausdorff(pts, c, space) for c in enumerate_fsets(candidates, n - 1, cap))


def _sort_key(p):
    # deterministic tie-break for heterogeneous point identifiers
    return (type(p).__name__, p) if not isinstance(p, numbers.Real) else ("", p)


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
    return pairs


def _subset_count(num_points, n):
    """The number of nonempty subsets with at most n of num_points points."""
    return sum(math.comb(num_points, k) for k in range(1, n + 1))


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
    total = _subset_count(len(pts), n)
    if cap is not None and total > cap:
        raise EnumerationCapError("%d subsets exceed the cap of %d" % (total, cap))
    return [FSet(c) for k in range(1, n + 1) for c in itertools.combinations(pts, k)]
