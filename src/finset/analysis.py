"""Certification harness for maps between finite subset spaces.

Estimates Lipschitz and Hoelder constants by exhaustive or sampled pair
search, checks displacement bounds, splits, decomposes and merges sampled
set-valued paths, computes quasiconvexity obstruction constants, and builds
the exact rational chain witness showing that deleting the minimum of a
harmonic set admits no Lipschitz bound.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metric import (
    DEFAULT_ENUMERATION_CAP,
    FSet,
    FiniteMetricSpace,
    _distance_fn,
    _ordered_points,
    as_finite_space,
    enumerate_fsets,
    get_tolerance,
    hausdorff,
    match_bijection,
    min_separation,
)

_PAIR_BUDGET = 20000
# sets per block side: a 128 x 128 float64 block is 128 KiB and stays in
# cache, where 1024 x 1024 (8 MiB) does not
_BLOCK = 128


def _subset_count(num_points, n):
    return sum(math.comb(num_points, k) for k in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class SubsetDomain:
    """All nonempty subsets of a space with at most n points.

    The subsets are enumerated eagerly when their number fits under the cap;
    otherwise ``sets`` is None and searches over the domain fall back to
    seeded sampling.
    """

    space: object
    n: int
    count: int
    sets: tuple | None

    @classmethod
    def build(cls, space, n, cap=None):
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        count = _subset_count(len(space.points), n)
        sets = tuple(enumerate_fsets(space, n)) if count <= cap else None
        return cls(space, n, count, sets)

    @property
    def exhaustive(self):
        return self.sets is not None


@dataclass(frozen=True)
class ConstantReport:
    """Best observed ratio Δ(f(A), f(B)) / Δ(A, B)^β over a pair search.

    ``stop_reason`` says why the search ended: ``"exhaustive"`` after every
    pair, ``"budget"`` when a sampled search used up its pair budget, and
    ``"stale"`` when its hill climb stopped finding new pairs first.
    """

    kind: str
    exponent: float
    constant: float
    witness: tuple
    pairs_examined: int
    mode: str
    stop_reason: str


class _PackedFamily:
    """Index-packed sets over their own universe: the points they contain.

    ``idx`` is (num_sets, k) with each row the universe indices of one set,
    padded by repeating the first index (padding never changes Hausdorff
    distances).  Two minima tables, both (universe, num_sets) and
    C-contiguous, hold the distance between each universe point u and each
    set s, one per orientation of d:

    - ``fwd[u, s]`` is the min over b in s of d(u, b);
    - ``bwd[u, s]`` is the min over a in s of d(a, u).

    They are the same array when d is symmetric: for line positions, or for
    a matrix equal to its transpose.  A directed distance from one block of
    sets to another is then k contiguous row gathers of one table folded
    together by an in-place max; ``_hausdorff_block`` says which table each
    direction reads.
    """

    def __init__(self, sets, space):
        key, lookup, dist_univ = _universe(sets, space)
        k = max(len(s) for s in sets)
        idx = np.empty((len(sets), k), dtype=np.intp)
        for row, s in enumerate(sets):
            cols = [lookup[key(p)] for p in s]
            idx[row, :len(cols)] = cols
            idx[row, len(cols):] = cols[0]
        self.idx = idx
        symmetric = dist_univ.ndim == 1 or np.array_equal(dist_univ, dist_univ.T)
        self.bwd = self._minima(dist_univ)
        self.fwd = self.bwd if symmetric else self._minima(dist_univ.T)

    def _minima(self, dist_univ):
        """Table [u, s] = min over a in s of ``dist_univ[a, u]``, or of |u - a|
        for line positions, folded one column of ``idx`` at a time: packing
        peaks at the table plus one more array of its size."""
        out = np.full((len(dist_univ), len(self.idx)), np.inf)
        gap = np.empty_like(out) if dist_univ.ndim == 1 else None
        for c in self.idx.T:
            if gap is None:
                np.minimum(out, dist_univ[c].T, out=out)
            else:
                np.subtract.outer(dist_univ, dist_univ[c], out=gap)
                np.minimum(out, np.abs(gap, out=gap), out=out)
        return out


def _directed_block(table, rows, c0):
    """Directed distances from each set of ``rows`` to the block of sets
    starting at c0: the max over each row's points of their minima."""
    out = table[rows[:, 0], c0:c0 + _BLOCK]
    for c in range(1, rows.shape[1]):
        np.maximum(out, table[rows[:, c], c0:c0 + _BLOCK], out=out)
    return out


def _hausdorff_block(fam, i0, j0):
    """Hausdorff distances between the sets of the row blocks at i0 and j0.

    Entry (i, j) is the float ``hausdorff(sets[i0 + i], sets[j0 + j],
    space)`` gives.  That reads d(a, b) with a in the first set in both
    directions, so the forward direction, from the i0 block to the j0
    block, reads ``fwd`` and the backward one reads ``bwd``.  On a matrix
    that is symmetric only within tolerance the two can differ in the last
    bit.
    """
    forward = _directed_block(fam.fwd, fam.idx[i0:i0 + _BLOCK], j0)
    backward = _directed_block(fam.bwd, fam.idx[j0:j0 + _BLOCK], i0)
    return np.maximum(forward, backward.T, out=forward)


def _pair_distances(sets, space):
    """Hausdorff distances of all pairs i < j of ``sets``, in
    ``np.triu_indices(len(sets), 1)`` order, as ``_hausdorff_block`` gives
    them."""
    fam = _PackedFamily(sets, space)
    N = len(sets)
    H = np.zeros((N, N))
    for i0 in range(0, N, _BLOCK):
        for j0 in range(i0, N, _BLOCK):
            H[i0:i0 + _BLOCK, j0:j0 + _BLOCK] = _hausdorff_block(fam, i0, j0)
    return H[np.triu_indices(N, 1)]


def _universe(sets, space):
    """The distinct points of ``sets``: element key function, index lookup,
    and their distances (a square matrix, or line positions in order)."""
    if isinstance(space, FiniteMetricSpace):
        try:
            used = sorted({space._index[p] for s in sets for p in s})
        except KeyError as exc:
            raise ValueError("point %r is not in the space" % exc.args) from None
        lookup = {space.points[i]: u for u, i in enumerate(used)}
        return (lambda p: p), lookup, space.dist[np.ix_(used, used)]
    vals = sorted({float(p) for s in sets for p in s})
    return float, {v: u for u, v in enumerate(vals)}, np.array(vals)


def _exhaustive_search(sets, images, space, beta):
    dom = _PackedFamily(sets, space)
    img = _PackedFamily(images, space)
    N = len(sets)
    best = -math.inf
    arg = None
    pairs = 0
    for i0 in range(0, N, _BLOCK):
        for j0 in range(i0, N, _BLOCK):
            Hd = _hausdorff_block(dom, i0, j0)
            Hi = _hausdorff_block(img, i0, j0)
            mask = Hd > 0
            denom = Hd
            if beta == 0.5:
                denom = np.sqrt(Hd)
            elif beta != 1.0:
                denom = np.power(Hd, beta, out=np.ones_like(Hd), where=mask)
            R = np.divide(Hi, denom, out=np.full_like(Hi, -np.inf), where=mask)
            a, b = R.shape
            if i0 == j0:
                R[np.tril_indices(a)] = -np.inf
                pairs += a * (a - 1) // 2
            else:
                pairs += a * b
            peak = float(R.max()) if R.size else -math.inf
            if peak < best or peak == -math.inf:
                continue
            li, lj = np.argwhere(R == peak)[0]
            cand = (i0 + int(li), j0 + int(lj))
            if peak > best or cand < arg:
                best, arg = peak, cand
    if arg is None:
        raise ValueError("all pairs in the domain are at distance 0")
    return best, (sets[arg[0]], sets[arg[1]]), pairs


def _sampled_search(space, n, beta, seed, budget, image):
    # a set is the sorted tuple of its indices into pts, which orders exactly
    # as its elements do, so that a known pair is skipped before any FSet
    rng = random.Random(seed)
    pts = list(_ordered_points(space))
    N = len(pts)
    scored = {}
    top = []  # min-heap of the six largest (ratio, key) scored so far

    def score(a, b):
        key = (a, b) if a <= b else (b, a)
        if key in scored or a == b:
            return
        A, B = FSet(pts[i] for i in a), FSet(pts[i] for i in b)
        dd = hausdorff(A, B, space)
        r = -math.inf if dd <= 0 else hausdorff(image(A), image(B), space) / dd ** beta
        scored[key] = r
        if len(top) < 6:
            heapq.heappush(top, (r, key))
        elif (r, key) > top[0]:
            heapq.heapreplace(top, (r, key))

    def random_subset():
        k = rng.randint(1, min(n, N))
        return tuple(sorted(rng.sample(range(N), k)))

    def mutate(a):
        roll = rng.random()
        if roll < 0.4 and len(a) > 1:
            drop = rng.choice(a)
            return tuple(i for i in a if i != drop)
        if roll < 0.75:
            i = rng.choice(a)
            for _ in range(4):
                j = min(N - 1, max(0, i + rng.choice((-3, -2, -1, 1, 2, 3))))
                if j not in a:
                    return tuple(sorted(j if q == i else q for q in a))
            return random_subset()
        if len(a) < n:
            anchor = rng.choice(a)
            lo, hi = max(0, anchor - 4), min(N, anchor + 5)
            j = rng.randrange(lo, hi) if rng.random() < 0.5 else rng.randrange(N)
            if j not in a:
                return tuple(sorted(a + (j,)))
        return random_subset()

    def neighbors(a, b):
        for s, other, flipped in ((a, b, False), (b, a, True)):
            for slot, i in enumerate(s):
                for off in (-2, -1, 1, 2):
                    j = i + off
                    if 0 <= j < N and j not in s:
                        moved = tuple(sorted(s[:slot] + (j,) + s[slot + 1:]))
                        yield (other, moved) if flipped else (moved, other)
        for s, flipped in ((a, False), (b, True)):
            if len(s) > 1:
                for i in s:
                    dropped = tuple(q for q in s if q != i)
                    yield (dropped, s) if flipped else (s, dropped)

    # fewer distinct pairs than half the budget would never end the loop
    explore = min(budget // 2, math.comb(_subset_count(N, n), 2))
    while len(scored) < explore:
        a = random_subset()
        b = mutate(a) if rng.random() < 0.7 else random_subset()
        score(a, b)
    stale = 0
    while len(scored) < budget and stale < 40:
        before = len(scored)
        for _, (a, b) in sorted(top, reverse=True):
            for pair in neighbors(a, b):
                score(*pair)
                if len(scored) >= budget:
                    break
            if len(scored) >= budget:
                break
        stale = stale + 1 if len(scored) == before else 0
    peak = max(scored.values(), default=-math.inf)
    if peak == -math.inf:
        raise ValueError("all sampled pairs are at distance 0")
    a, b = min(key for key, r in scored.items() if r == peak)
    stop = "budget" if len(scored) >= budget else "stale"
    return peak, (FSet(pts[i] for i in a), FSet(pts[i] for i in b)), len(scored), stop


def estimate_constant(f, domain, hoelder_exponent=1.0, space=None, seed=0,
                      pair_budget=_PAIR_BUDGET):
    """Estimate the best constant C with Δ(f(A), f(B)) ≤ C Δ(A, B)^β.

    ``domain`` is either a SubsetDomain or an explicit sequence of FSets
    (searched exhaustively; pass the ambient ``space`` unless it is a subset
    of the real line).  Exhaustive mode reports a true maximum with a
    deterministic witness; sampled mode reports a lower bound found by
    seeded random pairs plus hill climbing on the best witnesses, and is
    deterministic under a fixed seed.
    """
    beta = float(hoelder_exponent)
    if not 0.0 < beta <= 1.0:
        raise ValueError("Hoelder exponent must lie in (0, 1]")
    kind = "lipschitz" if beta == 1.0 else "hoelder"
    cache = {}

    def image(A):
        out = cache.get(A)
        if out is None:
            out = f(A)
            cache[A] = out
        return out

    if isinstance(domain, SubsetDomain):
        space = domain.space
        if not domain.exhaustive:
            c, w, p, stop = _sampled_search(space, domain.n, beta, seed, pair_budget, image)
            return ConstantReport(kind, beta, c, w, p, "sampled", stop)
        sets = domain.sets
    else:
        sets = tuple(domain)
    if len(sets) < 2:
        raise ValueError("domain must contain at least two subsets")
    images = [image(A) for A in sets]
    c, w, p = _exhaustive_search(sets, images, space, beta)
    return ConstantReport(kind, beta, c, w, p, "exhaustive", "exhaustive")


@dataclass(frozen=True)
class DisplacementReport:
    """Worst ratio of Δ(f(A), A) against factor * δ_n(A) over a domain."""

    ok: bool
    factor: float
    max_ratio: float
    worst: FSet | None
    worst_displacement: float


def check_displacement(f, domain, L, n, space=None, factor=None):
    """Verify the displacement bound Δ(f(A), A) ≤ (L + 1) δ_n(A) on a domain.

    Sets with fewer than n points have zero separation, so the bound forces
    f to fix them; that, and the bound itself, is checked within
    ``get_tolerance()``.  Pass ``factor`` to test a different multiple of
    δ_n, e.g. n − 1 for the line retraction.
    """
    tol = get_tolerance()
    if isinstance(domain, SubsetDomain):
        if not domain.exhaustive:
            raise ValueError("displacement check needs an enumerated domain")
        space, sets = domain.space, domain.sets
    else:
        sets = tuple(domain)
    c = float(L) + 1.0 if factor is None else float(factor)
    ok = True
    ratio = 0.0
    worst = None
    worst_disp = 0.0
    for A in sets:
        disp = hausdorff(f(A), A, space)
        sep = min_separation(A, n, space)
        if sep == 0:
            bad = disp > tol
            r = math.inf if bad else 0.0
        else:
            r = disp / (c * sep)
            bad = r > 1.0 + tol
        if r > ratio:
            ratio, worst, worst_disp = r, A, disp
        if bad:
            ok = False
    return DisplacementReport(ok, c, ratio, worst, worst_disp)


def _set_diameter(A, space):
    d = _distance_fn(space)
    pts = tuple(A)
    if len(pts) < 2:
        return 0.0
    return max(d(p, q) for p, q in itertools.combinations(pts, 2))


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A map from a finite parameter grid into a subset space.

    ``lipschitz`` is the best constant on consecutive samples, a lower bound
    for the constant of any underlying continuous path.
    """

    grid: tuple
    values: tuple
    lipschitz: float

    def __post_init__(self):
        if len(self.grid) != len(self.values) or not self.grid:
            raise ValueError("grid and values must be nonempty and aligned")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")

    @classmethod
    def from_samples(cls, grid, values, space=None):
        grid = tuple(float(t) for t in grid)
        values = tuple(v if isinstance(v, FSet) else FSet(v) for v in values)
        L = 0.0
        for (t0, A), (t1, B) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            L = max(L, hausdorff(A, B, space) / (t1 - t0))
        return cls(grid, values, L)

    def span(self):
        return self.grid[-1] - self.grid[0]

    def max_step(self, space=None):
        return max((hausdorff(a, b, space)
                    for a, b in zip(self.values, self.values[1:])), default=0.0)

    def cardinalities(self):
        return {len(v) for v in self.values}


def split_gh(f, z0, E, L=None, D=None, space=None):
    """Split a wide path f into two disjoint sub-paths g and h.

    E is a maximal well-separated subset of f(z0): its diameter is at most
    3LD(|E| - 1) and adding any other point of f(z0) pushes the diameter past
    3LD|E|.  Given diam f(z0) > 3(n-1)LD, the points within LD of E form
    g(z), the rest h(z); both halves are nonempty everywhere and inherit the
    Lipschitz constant.  Every bound is checked within ``get_tolerance()``.
    """
    tol = get_tolerance()
    L = f.lipschitz if L is None else float(L)
    D = f.span() if D is None else float(D)
    d = _distance_fn(space)
    try:
        i0 = f.grid.index(z0)
    except ValueError:
        raise ValueError("z0 must be one of the grid parameters") from None
    base = f.values[i0]
    E = E if isinstance(E, FSet) else FSet(E)
    if any(e not in base for e in E):
        raise ValueError("E must be a subset of f(z0)")
    n = max(len(v) for v in f.values)
    if not _set_diameter(base, space) > 3 * (n - 1) * L * D:
        raise ValueError("diam f(z0) must exceed 3(n-1)LD")
    if _set_diameter(E, space) > 3 * L * D * (len(E) - 1) + tol:
        raise ValueError("E is too spread out: diam E must be at most 3LD(|E|-1)")
    for x in base:
        if x in E:
            continue
        if _set_diameter(FSet(tuple(E) + (x,)), space) <= 3 * L * D * len(E) + tol:
            raise ValueError("E is not maximal: %r can be added" % (x,))
    g_vals, h_vals = [], []
    for z, val in zip(f.grid, f.values):
        near = [x for x in val if min(d(x, e) for e in E) <= L * D + tol]
        far = [x for x in val if x not in near]
        if not near or not far:
            raise ArithmeticError("split degenerates at parameter %r" % (z,))
        g_vals.append(FSet(near))
        h_vals.append(FSet(far))
    g = SampledPath.from_samples(f.grid, g_vals, space)
    h = SampledPath.from_samples(f.grid, h_vals, space)
    for part, name in ((g, "g"), (h, "h")):
        if part.lipschitz > L + tol:
            raise ArithmeticError("%s is not %g-Lipschitz on the sample" % (name, L))
    return g, h


def decompose_path(f, space=None):
    """Split a constant-cardinality path into individually Lipschitz branches.

    Requires every sample to have exactly n points and every grid step to be
    shorter than δ_min / (3 L (n - 1)), which keeps consecutive samples close
    enough for nearest-neighbor matching to be a bijection.  Returns n paths
    with singleton values whose union recovers f exactly.
    """
    cards = f.cardinalities()
    if len(cards) != 1:
        raise ValueError("cardinality drop detected: sizes %s" % sorted(cards))
    n = cards.pop()
    if n == 1:
        return (f,)
    L = f.lipschitz
    delta_min = min(min_separation(v, n, space) for v in f.values)
    limit = delta_min / (3.0 * L * (n - 1)) if L > 0 else math.inf
    step = max(b - a for a, b in zip(f.grid, f.grid[1:]))
    if step >= limit:
        raise ValueError("step too coarse: %g, need below %g" % (step, limit))
    rows = [[p] for p in f.values[0]]
    current = [p for p in f.values[0]]
    for A, B in zip(f.values, f.values[1:]):
        link = match_bijection(A, B, space).as_dict()
        current = [link[p] for p in current]
        for row, p in zip(rows, current):
            row.append(p)
    return tuple(SampledPath.from_samples(f.grid, [FSet((p,)) for p in row], space)
                 for row in rows)


@dataclass(frozen=True)
class MergedCurve:
    """A sampled curve joining the two initial points of a collapsing pair
    path, with its length and the path length it is bounded against."""

    points: tuple
    length: float
    gamma_length: float


def merge_curve(gamma, space=None):
    """Join the two points of Γ(t_0) by a curve of length at most 2ℓ.

    ℓ is the sampled length of Γ up to its first singleton value.  The two
    trajectories are tracked with the pairing of smaller maximal displacement
    at each step and concatenated back to back through the collapse point.
    """
    d = _distance_fn(space)
    sizes = [len(v) for v in gamma.values]
    if any(s > 2 for s in sizes):
        raise ValueError("merge_curve expects values with at most two points")
    try:
        stop = sizes.index(1)
    except ValueError:
        raise ValueError("no singleton reached along the path") from None
    first = tuple(gamma.values[0])
    if stop == 0:
        return MergedCurve((first[0],), 0.0, 0.0)
    length_gamma = sum(hausdorff(a, b, space)
                       for a, b in zip(gamma.values[:stop], gamma.values[1:stop + 1]))
    u, v = first
    path_u, path_v = [u], [v]
    for val in gamma.values[1:stop + 1]:
        pts = tuple(val)
        a, b = pts if len(pts) == 2 else (pts[0], pts[0])
        straight = max(d(u, a), d(v, b))
        crossed = max(d(u, b), d(v, a))
        if crossed < straight:
            a, b = b, a
        path_u.append(a)
        path_v.append(b)
        u, v = a, b
    curve = path_u + path_v[::-1][1:]
    cleaned = [curve[0]]
    for p in curve[1:]:
        if p != cleaned[-1]:
            cleaned.append(p)
    length = sum(d(a, b) for a, b in zip(cleaned, cleaned[1:]))
    return MergedCurve(tuple(cleaned), length, length_gamma)


@dataclass(frozen=True)
class QcBounds:
    """Radius and constant pair for the quasiconvexity obstruction: no
    L-Lipschitz retraction exists once short curves are forced to be longer
    than M times the distance at scale r."""

    L: float
    r: float
    M: float


def qc_bounds(L):
    if L < 1:
        raise ValueError("L must be at least 1")
    return QcBounds(float(L), 1.0 / (48 * (L + 1) ** 5),
                    float(4 * L * L * (L + 1) ** 2))


@dataclass(frozen=True)
class QuasiconvexityReport:
    """Worst ratio of shortest ε-graph path length to distance."""

    constant: float
    witness: tuple | None
    connected: bool
    eps: float


def quasiconvexity_constant(space, eps):
    """Discrete quasiconvexity constant at neighbor radius eps.

    Builds the graph joining samples at distance at most eps, weights edges
    by distance, and returns the largest ratio of graph distance to metric
    distance.  A disconnected graph yields an infinite constant and the
    closest disconnected pair as witness.
    """
    # imported here: scipy.sparse would be two thirds of `import finset`
    from scipy.sparse.csgraph import shortest_path

    space = as_finite_space(space)
    N = len(space.points)
    if N == 0:
        raise ValueError("space is empty")
    if N == 1:
        return QuasiconvexityReport(1.0, None, True, float(eps))
    D = space.dist
    adj = np.where(D <= eps, D, 0.0)
    np.fill_diagonal(adj, 0.0)
    lengths = shortest_path(adj, method="D", directed=False)
    off = ~np.eye(N, dtype=bool)
    if np.isinf(lengths[off]).any():
        cut = np.where(np.isinf(lengths) & off, D, np.inf)
        i, j = np.unravel_index(int(np.argmin(cut)), cut.shape)
        return QuasiconvexityReport(math.inf,
                                    (space.points[i], space.points[j]),
                                    False, float(eps))
    ratios = np.where(off, lengths / np.where(off, D, 1.0), 0.0)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return QuasiconvexityReport(float(ratios[i, j]),
                                (space.points[i], space.points[j]),
                                True, float(eps))


@dataclass(frozen=True)
class ChainWitness:
    """Exact rational certificate that no L-Lipschitz map can delete the
    minimum on the harmonic set.

    The sets A = {0, y, z} and B = {0, x, y, z} are joined by a chain whose
    Hausdorff steps never exceed x², yet any L-Lipschitz deletion map would
    have to move mass by more than the displacement bound allows.
    """

    L: Fraction
    k: int
    x: Fraction
    y: Fraction
    z: Fraction
    A: FSet
    B: FSet
    chain: tuple
    max_step: Fraction


def _witness_parameters(L):
    k = 2
    while True:
        x = Fraction(1, k ** 3)
        y = Fraction(1, k ** 2 + 1)
        z = Fraction(1, k ** 2)
        if 2 * x < y and 2 * L * x * x < y * y and 2 * (L + 1) * (z - y) < x:
            return k, x, y, z
        k += 1


def lipschitz_obstruction_witness(L):
    """Chain witness against an L-Lipschitz minimum-deleting retraction.

    Picks the least k making x = 1/k³, y = 1/(k²+1), z = 1/k² satisfy
    2x < y, 2Lx² < y², and 2(L+1)(z−y) < x, then walks a fourth point from 0
    up to x through set elements in maximal steps of at most x².  All
    arithmetic is exact.
    """
    L = Fraction(L)
    if L < 1:
        raise ValueError("L must be at least 1")
    k, x, y, z = _witness_parameters(L)
    zero = Fraction(0)
    xx = x * x
    A = FSet((zero, y, z))
    chain = [A]
    w = zero
    while w < x:
        m = max(k ** 3, math.ceil(1 / (w + xx)))
        w = Fraction(1, m)
        chain.append(FSet((zero, w, y, z)))
    B = chain[-1]
    steps = (hausdorff(a, b) for a, b in zip(chain, chain[1:]))
    return ChainWitness(L, k, x, y, z, A, B, tuple(chain), max(steps))


def validate_obstruction_witness(w):
    """Independent exact check of every invariant of a ChainWitness.

    Verifies the three defining inequalities, the displacement contradiction
    (L+1)(z−y) < x/2, the chain endpoints, membership of every chain element
    in {0} ∪ {1/m}, and the step bound Δ ≤ x² on consecutive sets.  Raises
    ValueError naming the first failure; returns True otherwise.
    """
    L, x, y, z = w.L, w.x, w.y, w.z
    if not (isinstance(x, Fraction) and isinstance(y, Fraction)
            and isinstance(z, Fraction)):
        raise ValueError("witness parameters must be exact rationals")
    if not 0 < 2 * x < y < z:
        raise ValueError("ordering 0 < 2x < y < z fails")
    if not 2 * L * x * x < y * y:
        raise ValueError("inequality 2Lx^2 < y^2 fails")
    if not (L + 1) * (z - y) < x / 2:
        raise ValueError("inequality (L+1)(z-y) < x/2 fails")
    if w.chain[0] != FSet((Fraction(0), y, z)) or w.A != w.chain[0]:
        raise ValueError("chain must start at {0, y, z}")
    if w.chain[-1] != FSet((Fraction(0), x, y, z)) or w.B != w.chain[-1]:
        raise ValueError("chain must end at {0, x, y, z}")
    xx = x * x
    worst = Fraction(0)
    for S in w.chain:
        if len(S) > 4:
            raise ValueError("chain set %r has more than 4 points" % (S,))
        for e in S:
            e = Fraction(e)
            if e != 0 and e.numerator != 1:
                raise ValueError("element %r is not 0 or a unit fraction" % (e,))
    for a, b in zip(w.chain, w.chain[1:]):
        step = hausdorff(a, b)
        if step > xx:
            raise ValueError("chain step %r exceeds x^2" % (step,))
        worst = max(worst, step)
    if worst != w.max_step:
        raise ValueError("recorded max step %r disagrees with %r" % (w.max_step, worst))
    return True
