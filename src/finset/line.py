"""Retractions for subsets of the real line and of finite interval unions.

The basic move collapses an n-point set onto at most n-1 points by sliding
each point left proportionally to its rank; variants move points toward the
median, handle unions of disjoint compact intervals through a gap-stretching
conjugation, and delete minima on the harmonic set {0} u {1/k}.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .metric import FSet, _check_size, get_tolerance, min_separation


def signed_rank(A, x):
    """Half the count of elements above x minus the count below."""
    return sum((y > x) - (y < x) for y in A) / 2


def _slide(A, n, ranks, failure):
    """Move each x of an n-point set to ``x - delta * r``, r its entry in
    ``ranks(pts)`` and delta the minimum separation of the sorted pts, merging
    within ``get_tolerance()``; an image of more than n - 1 points raises
    ArithmeticError(failure).  Sets with fewer than n points are fixed."""
    pts = _check_size(FSet(A), n)
    delta = min_separation(pts, n)
    if delta == 0:
        return pts
    out = FSet((x - delta * r for x, r in zip(pts, ranks(pts))), tol=get_tolerance())
    if len(out) > n - 1:
        raise ArithmeticError(failure)
    return out


def line_retract(A, n):
    """Collapse the closest pair of an n-point line set by sliding left.

    Each x in A moves to ``x - delta * r``, r the number of points of A below
    x and delta the minimum separation.  Sets with fewer than n points are
    fixed, the minimum never moves, the maximum never increases, and exact
    (integer or rational) inputs give exact outputs, so additive subgroups are
    preserved.
    """
    return _slide(A, n, lambda pts: range(len(pts)),
                  "closest pair failed to collapse; input scale defeats the merge tolerance")


def median_retract(A, n):
    """Variant collapse that moves points toward the median.

    Each x moves to ``x + delta * signed_rank(A, x)``.  Landing in the smaller
    subset space has no closed-form guarantee here, so it is re-verified and a
    failure raises.  The signed rank is half-integral when |A| is even, so
    integer lattices are not preserved (unlike line_retract).
    """
    return _slide(A, n, lambda pts: [-signed_rank(pts, x) for x in pts],
                  "median variant did not land in the smaller subset space")


@dataclass(frozen=True)
class IntervalUnion:
    """A sorted union of finitely many disjoint compact intervals."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(l), float(r)) for l, r in self.intervals)
        if not ivs:
            raise ValueError("at least one interval is required")
        for l, r in ivs:
            if r < l:
                raise ValueError("interval (%g, %g) is reversed" % (l, r))
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            if not l1 > r0:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self):
        return len(self.intervals)

    @property
    def max_diameter(self):
        return max(r - l for l, r in self.intervals)

    def locate(self, x, tol=0.0):
        """Index of the interval containing x (within tol), else None."""
        for i, (l, r) in enumerate(self.intervals):
            if l - tol <= x <= r + tol:
                return i
        return None

    def contains(self, x, tol=0.0):
        return self.locate(x, tol) is not None

    def project(self, x):
        """Nearest point of the union; gap ties resolve to the left interval."""
        ivs = self.intervals
        if x <= ivs[0][0]:
            return ivs[0][0]
        if x >= ivs[-1][1]:
            return ivs[-1][1]
        for (l0, r0), (l1, _) in zip(ivs, ivs[1:]):
            if l0 <= x <= r0:
                return x
            if r0 < x < l1:
                return r0 if x - r0 <= l1 - x else l1
        return x

    def discretize(self, per_interval):
        """A small grid inside the union, handy for exhaustive checks."""
        pts = []
        for l, r in self.intervals:
            if r == l or per_interval == 1:
                pts.append(l)
                continue
            step = (r - l) / (per_interval - 1)
            pts.extend(l + k * step for k in range(per_interval))
        return pts

    def to_json(self):
        return {"kind": "interval_union", "intervals": [[l, r] for l, r in self.intervals]}


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Increasing piecewise-linear bijection of the line (slope 1 outside)."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        xs, ys = tuple(self.breakpoints), tuple(self.values)
        if len(xs) != len(ys) or not xs:
            raise ValueError("breakpoints and values must align and be nonempty")
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("breakpoints and values must be strictly increasing")
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", ys)

    def __call__(self, x):
        xs, ys = self.breakpoints, self.values
        if x <= xs[0]:
            return ys[0] + (x - xs[0])
        if x >= xs[-1]:
            return ys[-1] + (x - xs[-1])
        i = bisect_right(xs, x) - 1
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])

    def inverse(self):
        return PiecewiseLinearMap(self.values, self.breakpoints)


@dataclass(frozen=True)
class GapExpansion:
    """Gap-stretching conjugation used by the interval-union retraction.

    ``forward`` fixes the leftmost interval, keeps every interval's length,
    and stretches each gap to at least ``required_gap``.  Slopes are at least
    1 everywhere, so the inverse contracts and ``forward`` is bi-Lipschitz
    with constant ``bi_lipschitz`` (the largest slope).
    """

    forward: PiecewiseLinearMap
    source: IntervalUnion
    image: IntervalUnion
    required_gap: float
    bi_lipschitz: float

    @property
    def inverse(self):
        return self.forward.inverse()


def build_gap_expansion(X, n):
    """Expansion pushing the intervals of X at least ``3 * n * M`` apart,
    where M is the largest interval diameter."""
    need = 3.0 * n * X.max_diameter
    xs, ys, image = [], [], []
    y = X.intervals[0][0]
    worst = 1.0
    for i, (l, r) in enumerate(X.intervals):
        if i > 0:
            gap = l - X.intervals[i - 1][1]
            stretch = max(gap, need)
            worst = max(worst, stretch / gap)
            y += stretch
        xs.append(l)
        ys.append(y)
        if r > l:
            xs.append(r)
            y += r - l
            ys.append(y)
        image.append((ys[-1] - (r - l), ys[-1]))
    forward = PiecewiseLinearMap(tuple(xs), tuple(ys))
    return GapExpansion(forward, X, IntervalUnion(tuple(image)), need, worst)


def interval_union_retract(X, A, n, expansion=None):
    """Retraction of the n-point subset space over an interval union X.

    Sets that meet n distinct intervals lose their minimum; every other set
    is pushed through the gap expansion, collapsed with line_retract, and
    projected back onto X.  Passing a prebuilt ``expansion`` avoids rebuilding
    it per call.
    """
    tol = get_tolerance()
    pts = _check_size(FSet(A), n)
    homes = [X.locate(a, tol) for a in pts]
    if None in homes:
        raise ValueError("point %r lies outside the union"
                         % (pts[homes.index(None)],))
    if len(pts) < n:
        return pts
    if len(set(homes)) == n:
        return FSet(pts[1:])
    exp = expansion if expansion is not None else build_gap_expansion(X, n)
    forward = exp.forward
    inverse = exp.inverse
    inner = line_retract(FSet(forward(a) for a in pts), n)
    back = [inverse(exp.image.project(v)) for v in inner]
    out = FSet((X.project(v) for v in back), tol=tol)
    if len(out) > n - 1:
        raise ArithmeticError("projection re-split the collapsed pair")
    return out


def delete_min_retract(A, n):
    """Drop the minimum of an n-point set; smaller sets are fixed.

    On the harmonic set this map is Hoelder continuous with exponent 1/2 but
    not Lipschitz, and it moves a set by at most the square root of its
    minimum separation.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    pts = _check_size(FSet(A), n)
    return FSet._from_sorted(pts[1:]) if len(pts) == n else pts
