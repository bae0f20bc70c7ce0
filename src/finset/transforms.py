"""Metric transforms and constructions: snowflaking and other concave
distance rewrites, rescaling, max-metric products, disjoint unions with a
constant cross-distance, and quasihomogeneous transport of subset maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _BLOCK, _pair_distances
from .metric import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    FSet,
    FiniteMetricSpace,
    _resolve_tol,
    as_finite_space,
    enumerate_fsets,
)


@dataclass(frozen=True)
class MetricTransform:
    """A nondecreasing rewrite of distances with φ(0) = 0.

    Two forms: ``power`` applies t^alpha, ``table`` interpolates a piecewise
    linear function through given knots (extended linearly past the last
    knot).  ``doubling`` optionally records a claimed constant M with
    φ(2t) ≤ M φ(t); see doubling_ratio for the empirical check.
    """

    kind: str
    alpha: float = 1.0
    table: tuple = ()
    doubling: float | None = None

    def __post_init__(self):
        if self.kind == "power":
            if not self.alpha > 0:
                raise ValueError("power transform needs alpha > 0")
        elif self.kind == "table":
            knots = tuple((float(t), float(v)) for t, v in self.table)
            if len(knots) < 2 or knots[0] != (0.0, 0.0):
                raise ValueError("table must start at (0, 0) with at least one more knot")
            ts = [t for t, _ in knots]
            vs = [v for _, v in knots]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("table abscissae must be strictly increasing")
            if any(b < a for a, b in zip(vs, vs[1:])):
                raise ValueError("table values must be nondecreasing")
            object.__setattr__(self, "table", knots)
        else:
            raise ValueError("unknown transform kind %r" % (self.kind,))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if self.kind == "power":
            out = np.power(arr, self.alpha)
        else:
            ts = np.array([k[0] for k in self.table])
            vs = np.array([k[1] for k in self.table])
            out = np.interp(arr, ts, vs)
            beyond = arr > ts[-1]
            if beyond.any():
                slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
                out = np.where(beyond, vs[-1] + slope * (arr - ts[-1]), out)
        return float(out) if np.isscalar(t) else out

    def to_json(self):
        if self.kind == "power":
            return {"kind": "power", "alpha": self.alpha}
        return {"kind": "table", "pairs": [list(k) for k in self.table]}

    @classmethod
    def from_json(cls, data):
        if data.get("kind") == "power":
            return cls("power", alpha=float(data["alpha"]))
        if data.get("kind") == "table":
            return cls("table", table=tuple(tuple(p) for p in data["pairs"]))
        raise ValueError("transform JSON needs kind power or table")


def apply_transform(space, transform, tol=None):
    """Rewrite all distances through the transform and revalidate.

    Raises when φ∘d violates the metric axioms on some triple; powers with
    alpha ≤ 1 always pass, and powers above 1 pass on ultrametric spaces.
    """
    space = as_finite_space(space)
    return FiniteMetricSpace(space.points, transform(space.dist), tol=tol)


def doubling_ratio(transform, grid):
    """Largest φ(2t)/φ(t) over the positive grid values."""
    worst = 0.0
    for t in grid:
        t = float(t)
        if t <= 0:
            continue
        base = transform(t)
        worst = math.inf if base == 0 else max(worst, transform(2 * t) / base)
    return worst


def transport_constant(transform, L, distances):
    """Least L' with φ(L t) ≤ L' φ(t) over the observed distances.

    A retraction with constant L on the original space has constant at most
    L' after the transform.
    """
    worst = 0.0
    for t in distances:
        t = float(t)
        if t <= 0:
            continue
        base = transform(t)
        worst = math.inf if base == 0 else max(worst, transform(L * t) / base)
    return worst


def rescale(space, eps):
    """Multiply every distance by eps > 0; Lipschitz constants of maps are
    unchanged when both sides are rescaled together."""
    if not eps > 0:
        raise ValueError("scale factor must be positive")
    space = as_finite_space(space)
    return FiniteMetricSpace(space.points, space.dist * float(eps), validate=False)


def product_space(space_x, space_y):
    """Max-metric product: points are (x, y) pairs, distance the larger of
    the coordinate distances."""
    X, Y = as_finite_space(space_x), as_finite_space(space_y)
    points = tuple(itertools.product(X.points, Y.points))
    D = np.maximum(X.dist[:, None, :, None], Y.dist[None, :, None, :])
    n = len(points)
    return FiniteMetricSpace(points, D.reshape(n, n), validate=False)


def disjoint_union(space_x, space_y, cross):
    """Glue two spaces with a constant cross-distance.

    Points are tagged (0, x) and (1, y).  The triangle inequality holds when
    cross is at least half of each diameter; the returned space is fully
    revalidated, so a cross-distance that is too small raises.
    """
    X, Y = as_finite_space(space_x), as_finite_space(space_y)
    points = tuple((0, p) for p in X.points) + tuple((1, q) for q in Y.points)
    a, b = len(X.points), len(Y.points)
    D = np.full((a + b, a + b), float(cross))
    D[:a, :a] = X.dist
    D[a:, a:] = Y.dist
    return FiniteMetricSpace(points, D)


def induced_subset_map(f, A):
    """Apply a point map elementwise to a subset; must stay injective on A."""
    out = FSet(f(p) for p in A)
    if len(out) != len(A):
        raise ValueError("map is not injective on %r" % (A,))
    return out


def conjugated_map(point_map, inverse_map, set_map):
    """The subset map B ↦ f(r(f⁻¹(B))) induced by conjugating r through f."""
    def apply(B):
        return induced_subset_map(point_map, set_map(induced_subset_map(inverse_map, B)))
    return apply


@dataclass(frozen=True)
class QhModulus:
    """Ratio-distortion modulus η: if d(x1,x2) ≤ t d(x3,x4) upstream then
    d(fx1,fx2) ≤ η(t) d(fx3,fx4) downstream.

    Linear and power forms cover bi-Lipschitz maps (η(t) = L²t) and
    snowflake identities (η(t) = t^alpha); the table form is an empirical
    step function, the running maximum of observed ratio pairs.
    """

    kind: str
    coefficient: float = 1.0
    exponent: float = 1.0
    table: tuple = ()

    @classmethod
    def linear(cls, c):
        return cls("linear", coefficient=float(c))

    @classmethod
    def power(cls, alpha):
        return cls("power", exponent=float(alpha))

    def __call__(self, t):
        if self.kind == "linear":
            return self.coefficient * t
        if self.kind == "power":
            return t ** self.exponent
        ts, etas = self.table
        i = int(np.searchsorted(ts, t, side="right"))
        return 0.0 if i == 0 else etas[i - 1]


def _disjoint_pairs(first, second):
    """Mask over pairs (first[a], second[b]) of index pairs, each given as
    two index arrays: True where they share no index, so that together they
    name four distinct elements."""
    (i, j), (k, m) = first, second
    i, j, k, m = i[:, None], j[:, None], k[None, :], m[None, :]
    return (i != k) & (i != m) & (j != k) & (j != m)


def estimate_qh_modulus(f, space_x, space_y, cap=None):
    """Tabulate the worst downstream ratio per upstream ratio bound.

    Scans every pair of disjoint point pairs (four distinct points), records
    (upstream ratio, downstream ratio), and returns the running-maximum step
    function as a table QhModulus.  The scan holds arrays over all pairs of
    point pairs, so more than ``cap`` point pairs (default
    DEFAULT_ENUMERATION_CAP) raise EnumerationCapError before any is built.
    """
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    X, Y = as_finite_space(space_x), as_finite_space(space_y)
    pts = X.points
    if len(pts) < 4:
        raise ValueError("need at least 4 points to form quadruples")
    pairs = math.comb(len(pts), 2)
    if pairs > cap:
        raise EnumerationCapError("%d point pairs exceed the cap of %d" % (pairs, cap))
    ii, jj = np.triu_indices(len(pts), 1)
    fidx = np.array([Y.index(f(p)) for p in pts])
    dx = X.dist[ii, jj]
    dy = Y.dist[fidx[ii], fidx[jj]]
    disjoint = _disjoint_pairs((ii, jj), (ii, jj))
    rx = (dx[:, None] / dx[None, :])[disjoint]
    ry = (dy[:, None] / dy[None, :])[disjoint]
    order = np.argsort(rx, kind="stable")
    rx, ry = rx[order], np.maximum.accumulate(ry[order])
    keep = np.r_[rx[1:] != rx[:-1], True]
    return QhModulus("table", table=(tuple(rx[keep]), tuple(ry[keep])))


@dataclass(frozen=True)
class QhCheckReport:
    """Result of checking the quadruple ratio condition on subset spaces."""

    ok: bool
    worst_excess: float
    witness: tuple | None
    quadruples: int


def check_induced_qh(f, space_x, space_y, n, eta, cap=None, tol=None):
    """Check the quadruple condition for the induced map on subsets.

    Enumerates X(n) upstream (more than ``cap`` subsets, default
    DEFAULT_ENUMERATION_CAP, raise EnumerationCapError), pushes each subset
    through f, and requires Δ_Y(B1,B2) ≤ η(t) Δ_Y(B3,B4) whenever
    Δ_X(A1,A2) ≤ t Δ_X(A3,A4), which reduces to the downstream ratio at
    t = upstream ratio.  Linear moduli use the closed form max ratio ≤
    c · min ratio over set pairs, which also ranges over set pairs that
    share a set.

    Other moduli scan the excess Δ_Y(B1,B2)/Δ_Y(B3,B4) − η(Δ_X(A1,A2)/
    Δ_X(A3,A4)) over ordered pairs (a, b) of set pairs in square tiles, so
    memory stays linear in the number of set pairs.  A Hausdorff distance
    between finite sets is a distance between two points, so the upstream
    distances take at most C(|X|, 2) distinct values; η is called once per
    ratio of two of them, on a Python float, and each tile gathers its
    bounds from that table.  More distinct distances than ``cap`` raise
    EnumerationCapError.  The report names the first pair (a, b) in
    row-major order with the largest excess, or with a NaN excess (0/0 when
    f maps two sets to one image) if there is one, as ``np.argmax`` would.

    ``quadruples`` counts what the condition ranges over in either mode: the
    ordered pairs of set pairs made of four distinct sets, C(N, 2) C(N-2, 2)
    for N sets.
    """
    tol = _resolve_tol(tol)
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    X, Y = as_finite_space(space_x), as_finite_space(space_y)
    sets = tuple(enumerate_fsets(X, n, cap=cap))
    if len(sets) < 2:
        raise ValueError("need at least two sets to form set pairs")
    images = [induced_subset_map(f, A) for A in sets]
    ii, jj = np.triu_indices(len(sets), 1)
    quadruples = math.comb(len(sets), 2) * math.comb(len(sets) - 2, 2)
    dx, dy = _pair_distances(sets, X), _pair_distances(images, Y)

    def report(worst, a, b):
        witness = (sets[ii[a]], sets[jj[a]], sets[ii[b]], sets[jj[b]])
        return QhCheckReport(worst <= tol, worst, witness, quadruples)

    if eta.kind == "linear":
        ratio = dy / dx
        worst = float(ratio.max() - eta.coefficient * ratio.min())
        return report(worst, int(np.argmax(ratio)), int(np.argmin(ratio)))
    ux, code = np.unique(dx, return_inverse=True)
    if len(ux) > cap:
        raise EnumerationCapError("%d distinct set distances exceed the cap of %d"
                                  % (len(ux), cap))
    # scalar calls: numpy's array power can differ from pow in the last bit
    table = np.array([[eta(float(p / q)) for q in ux] for p in ux], dtype=float)
    # the running pick ranks a NaN first, then the larger excess, then the
    # earlier cell; the first tile holds cell (0, 0), which is never disjoint
    best, worst = (1, math.inf, (0, 0)), -math.inf
    for a0 in range(0, len(dx), _BLOCK):
        a = slice(a0, a0 + _BLOCK)
        bounds = table[code[a]]
        for b0 in range(0, len(dx), _BLOCK):
            b = slice(b0, b0 + _BLOCK)
            excess = dy[a, None] / dy[None, b]
            excess -= bounds[:, code[b]]
            excess[~_disjoint_pairs((ii[a], jj[a]), (ii[b], jj[b]))] = -np.inf
            k = int(np.argmax(excess))
            peak = float(excess.flat[k])
            row, col = divmod(k, excess.shape[1])
            cand = (a0 + row, b0 + col)
            key = (0, 0.0, cand) if math.isnan(peak) else (1, -peak, cand)
            if key < best:
                best, worst = key, peak
    return report(worst, *best[2])
