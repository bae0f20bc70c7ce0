"""Ultrametric spaces: validation, center families at dyadic scales,
scale-indexed retractions of subset spaces, and the subdominant ultrametric
with its disconnection constant.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .metric import (FSet, FiniteMetricSpace, _check_size, _eps_graph,
                     _off_diagonal_min, _ordered_points, _triple_slacks, as_finite_space,
                     get_tolerance)


class LevelRangeError(ValueError):
    """The center family's level range cannot resolve the request."""


@dataclass(frozen=True)
class UltraCheckReport:
    """Outcome of the strong-triangle check over all point triples."""

    is_ultrametric: bool
    violation: float
    worst_triple: tuple | None


def validate_ultrametric(space):
    """Check d(x, y) <= max(d(x, z), d(z, y)) on all triples.

    Reports the worst signed slack; the space passes when the slack is at
    most ``get_tolerance()``.  An exact ultrametric is accepted by comparing
    the matrix with its single-linkage cophenetic matrix; any other matrix
    gets the O(n^3) scan of ``_triple_slacks``, which names the first worst
    triple: the earliest pivot, then row-major order.
    """
    tol = get_tolerance()
    space = as_finite_space(space)
    D = space.dist
    n = len(space.points)
    if n < 3:
        return UltraCheckReport(True, 0.0, None)
    # a matrix is ultrametric exactly when it is its own single-linkage
    # cophenetic matrix, which takes only max and min of its entries; then
    # the worst slack is the 0 of the first triple (p0, p0, p0)
    if np.array_equal(D, _cophenetic(D)):
        p0 = space.points[0]
        return UltraCheckReport(0.0 <= tol, 0.0, (p0, p0, p0))
    worst, arg = -math.inf, None
    for peak, (i, j), z in _triple_slacks(D, np.maximum):
        if peak > worst:
            worst = float(peak)
            arg = (space.points[i], space.points[j], space.points[z])
    return UltraCheckReport(worst <= tol, worst, arg)


@dataclass(frozen=True, eq=False)
class CenterFamily:
    """Per-scale center maps: at level k, ``maps[k]`` sends each point to the
    representative of its open ball of radius ``scale(k) = 0.5 ** k``."""

    levels: tuple
    maps: dict

    def scale(self, k):
        return 0.5 ** k


def _auto_levels(space):
    diam = space.diameter()
    if diam == 0:
        return range(0, 1)
    dmin = space.min_positive_distance()
    k_low = math.floor(-math.log2(diam)) - 1
    k_high = math.ceil(-math.log2(dmin)) + 1
    return range(k_low, k_high + 1)


def _matrix(space):
    """The distance matrix of a space and the row of each of its points,
    keyed by the original identifiers (exact line points included)."""
    return (as_finite_space(space).dist,
            {p: i for i, p in enumerate(space.points)})


def build_centers(space, levels=None):
    """Greedy center family of an ultrametric space at dyadic scales.

    Per level, the first unassigned point in sorted order becomes a center
    and takes every unassigned point closer than the scale; in any metric
    this sends each point to the earliest center that covers it.  The
    default level range runs from one step above the diameter down to one
    step below the least positive distance, so the coarsest map collapses
    everything and the finest is injective.  The family's contraction, displacement, and
    separation properties are verified exhaustively before returning.
    """
    report = validate_ultrametric(space)
    if not report.is_ultrametric:
        raise ValueError("space is not ultrametric; worst triple %r fails by %.3g"
                         % (report.worst_triple, report.violation))
    if levels is None:
        levels = _auto_levels(space)
    levels = tuple(sorted(levels))
    if not levels:
        raise ValueError("at least one level is required")
    order = _ordered_points(space)
    D, row = _matrix(space)
    rows = [row[p] for p in order]
    maps = {}
    for k in levels:
        scale = 0.5 ** k
        owner = np.full(len(order), -1)
        for c in rows:
            if owner[c] < 0:
                owner[(owner < 0) & (D[c] < scale)] = c
        maps[k] = {p: space.points[c] for p, c in zip(order, owner[rows].tolist())}
    family = CenterFamily(levels, maps)
    verify_center_family(space, family)
    return family


def verify_center_family(space, family):
    """Check the three center-map properties at every level; raises on failure.

    At level k with scale s = 0.5**k: each point moves by at most s,
    distinct centers are at least s apart, and the map does not expand
    distances, each within ``get_tolerance()``.
    """
    tol = get_tolerance()
    pts = list(space.points)
    D, row = _matrix(space)
    D_tol = D + tol
    for k in family.levels:
        s = family.scale(k)
        m = family.maps[k]
        c = np.array([row[m[p]] for p in pts], dtype=np.intp)
        displaced = D[np.arange(len(pts)), c] > s + tol
        if displaced.any():
            p = pts[int(np.argmax(displaced))]
            raise ValueError("level %d: point %r displaced beyond %g" % (k, p, s))
        Dc = D.take(c, 0).take(c, 1)
        close = (c[:, None] != c[None, :]) & (Dc < s - tol)
        expands = Dc > D_tol
        # bad is symmetric with a false diagonal, as D is exactly symmetric: its
        # first pair in row-major order has i < j; "too close" comes first
        bad = close | expands
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            if close[i, j]:
                raise ValueError("level %d: centers %r, %r too close"
                                 % (k, m[pts[i]], m[pts[j]]))
            raise ValueError("level %d: map expands pair %r, %r" % (k, pts[i], pts[j]))


def generic_retract(family, A, n, m):
    """Collapse A to at most m points using the coarsest level that works.

    Given n > m >= 1 and |A| <= n, picks the largest level k whose center map
    sends A to at most m points and returns that image.  Sets with at most m
    points are fixed.  Raises LevelRangeError when the family's levels cannot
    certify the choice.
    """
    if not n > m >= 1:
        raise ValueError("need n > m >= 1, got n=%d m=%d" % (n, m))
    pts = _check_size(A if isinstance(A, tuple) else tuple(A), n)
    if len(pts) <= m:
        return FSet(pts)
    # on an ultrametric the center count of A does not increase as the level
    # gets coarser, so the levels that collapse A to m points are a prefix
    levels = family.levels
    cut = bisect.bisect_left(levels, True,
                             key=lambda k: len({family.maps[k][p] for p in pts}) > m)
    if cut == 0:
        raise LevelRangeError("no level in range collapses the set to %d points" % m)
    if cut == len(levels):
        raise LevelRangeError(
            "level range is truncated above; cannot certify the maximal level")
    return FSet({family.maps[levels[cut - 1]][p] for p in pts})


# Lipschitz bound of generic_retract, 2 L^3 / b + 1, at the contraction
# constant L = 1 and scale base b = 1/2 of every family build_centers makes
GENERIC_BOUND = 5.0


def snowflake_exponent(target_l):
    """Smallest integer a with GENERIC_BOUND ** (1/a) <= target_l (target_l > 1)."""
    if target_l <= 1:
        raise ValueError("target constant must exceed 1")
    a = max(1, math.ceil(math.log(GENERIC_BOUND) / math.log(target_l) - 1e-12))
    while GENERIC_BOUND ** (1.0 / a) > target_l * (1 + 1e-12):
        a += 1
    return a


@dataclass(frozen=True, eq=False)
class SnowflakePlan:
    """The metric to the power alpha, still ultrametric, its centers, and the
    bound GENERIC_BOUND ** (1/alpha) <= target that the power takes the
    generic constant to, for ``generic_retract(plan.family, A, n, m)``."""

    alpha: int
    space: FiniteMetricSpace
    powered: FiniteMetricSpace
    family: CenterFamily
    constant_bound: float


def build_snowflake_plan(space, target_l):
    alpha = snowflake_exponent(target_l)
    # build_centers checks the strong triangle inequality, which implies the
    # triangle inequality, as max(a, b) <= fl(a + b) for a, b >= 0
    powered = FiniteMetricSpace._adopt(space.points, space.dist ** alpha)
    family = build_centers(powered)
    return SnowflakePlan(alpha, space, powered, family, GENERIC_BOUND ** (1.0 / alpha))


def _cophenetic(D):
    """Single-linkage cophenetic matrix of a symmetric D: the minimax chain
    distance (Gower & Ross 1969)."""
    # imported here: scipy.cluster would add about 0.2 s to `import finset`
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    if len(D) < 2:
        return np.zeros(D.shape)
    return squareform(cophenet(linkage(squareform(D, checks=False), "single")))


def subdominant_ultrametric(space):
    """Largest ultrametric below the metric: the minimax chain distance,
    which is the cophenetic distance of single linkage.  Its triangle
    inequality holds by construction, as max(a, b) <= fl(a + b) for a, b >= 0,
    so it is not scanned."""
    space = as_finite_space(space)
    return FiniteMetricSpace._adopt(space.points, _cophenetic(space.dist))


@dataclass(frozen=True)
class DisconnectionReport:
    """The least ratio of chain distance to direct distance, with the pair
    attaining it and a chain realizing the minimax value."""

    constant: float
    witness: tuple | None
    chain: tuple


def disconnection_constant(space):
    """Least over point pairs of subdominant distance over distance.

    The constant lies in (0, 1], equals 1 exactly on ultrametric spaces, and
    the returned chain walks from one witness point to the other with every
    step at most ``constant * d(witness)``.
    """
    # imported here: scipy.sparse would be two thirds of `import finset`
    from scipy.sparse.csgraph import breadth_first_order

    space = as_finite_space(space)
    if len(space.points) < 2:
        return DisconnectionReport(1.0, None, tuple(space.points))
    rho = subdominant_ultrametric(space).dist
    c, (i, j) = _off_diagonal_min(space.dist, over=rho)
    bottleneck = rho[i, j]
    del rho
    # with directed=True on the symmetric graph, neighbours are visited in
    # ascending index order, so the chain is the first breadth-first path
    _, prev = breadth_first_order(_eps_graph(space.dist, bottleneck), i,
                                  directed=True, return_predecessors=True)
    if prev[j] < 0:
        raise RuntimeError("no chain realizes the subdominant distance")
    path = [j]
    while path[-1] != i:
        path.append(int(prev[path[-1]]))
    path = [space.points[u] for u in reversed(path)]
    return DisconnectionReport(c, (space.points[i], space.points[j]), tuple(path))
