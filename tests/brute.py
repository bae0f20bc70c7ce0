"""Slow pure-Python references that the fast paths are tested against."""

import functools
import heapq
import itertools
import math
import random

import numpy as np

from finset import (FSet, FiniteMetricSpace, analysis, get_tolerance, hausdorff,
                    subdominant_ultrametric)
from finset.metric import _ordered_points, _subset_count, as_finite_space


def brute_minimax(D, i, j):
    # reference subdominant distance: minimize the largest step over all
    # simple paths from i to j
    n = D.shape[0]
    rest = [k for k in range(n) if k not in (i, j)]
    best = D[i, j]
    for size in range(len(rest) + 1):
        for mid in itertools.permutations(rest, size):
            path = (i,) + mid + (j,)
            best = min(best, max(D[a, b] for a, b in zip(path, path[1:])))
    return best


def reference_pair_checks(points, D):
    """The pair step of ``FiniteMetricSpace.validate`` before the triangle
    scan, on a bare matrix: raises ValueError with its message."""
    tol = get_tolerance()
    n = len(points)
    finite = np.isfinite(D)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), n)
        raise ValueError("non-finite distance %r between %r, %r"
                         % (float(D[i, j]), points[i], points[j]))
    if np.abs(np.diag(D)).max(initial=0.0) > tol:
        raise ValueError("nonzero diagonal entry in distance matrix")
    if n and np.abs(D - D.T).max() > tol:
        raise ValueError("distance matrix is not symmetric")
    if n > 1:
        off = np.where(np.eye(n, dtype=bool), np.inf, D)
        if off.min() <= 0:
            i, j = divmod(int(np.argmin(off)), n)
            raise ValueError("non-positive distance between distinct points %r, %r"
                             % (points[i], points[j]))


def reference_from_coords_dist(coords):
    """The distance matrix of ``FiniteMetricSpace.from_coords`` as one
    (n, n, d) difference array, squared and summed over its last axis."""
    arr = np.asarray([c if isinstance(c, (tuple, list)) else (c,) for c in coords],
                     dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def reference_dendrogram_dist(tree):
    """The matrix of ``dendrogram_space``, one (p, q, height) entry per leaf
    pair, gathered in a Python list and written entry by entry."""
    leaves, entries = [], []

    def collect(node):
        if "children" not in node:
            leaves.append(node["point"])
            return [node["point"]]
        h = float(node["merge_height"])
        groups = [collect(child) for child in node["children"]]
        for gi, gj in itertools.combinations(range(len(groups)), 2):
            entries.extend((p, q, h) for p in groups[gi] for q in groups[gj])
        return [p for g in groups for p in g]

    collect(tree)
    index = {p: i for i, p in enumerate(leaves)}
    D = np.zeros((len(leaves), len(leaves)))
    for p, q, h in entries:
        D[index[p], index[q]] = D[index[q], index[p]] = h
    return D


def reference_quasiconvexity(space, eps):
    """``(repr(constant), witness, connected)`` of ``quasiconvexity_constant``
    from a dense weight matrix of the eps-graph, ratios over a masked copy."""
    from scipy.sparse.csgraph import shortest_path
    D, N = space.dist, len(space.points)
    adj = np.where(D <= eps, D, 0.0)
    np.fill_diagonal(adj, 0.0)
    lengths = shortest_path(adj, method="D", directed=False)
    off = ~np.eye(N, dtype=bool)
    if np.isinf(lengths[off]).any():
        cut = np.where(np.isinf(lengths) & off, D, np.inf)
        i, j = np.unravel_index(int(np.argmin(cut)), cut.shape)
        return repr(math.inf), (space.points[i], space.points[j]), False
    ratios = np.where(off, lengths / np.where(off, D, 1.0), 0.0)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return repr(float(ratios[i, j])), (space.points[i], space.points[j]), True


def reference_disconnection(space):
    """``(repr(constant), witness, chain)`` of ``disconnection_constant``
    from the dense matrix of rho / d over a masked copy, and a breadth-first
    search on the dense boolean graph of the pairs within the bottleneck."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
    D, n = space.dist, len(space.points)
    rho = subdominant_ultrametric(space).dist
    off = ~np.eye(n, dtype=bool)
    ratios = np.where(off, rho / np.where(off, D, 1.0), np.inf)
    i, j = np.unravel_index(int(np.argmin(ratios)), ratios.shape)
    _, prev = breadth_first_order(csr_matrix((D <= rho[i, j]) & off), i,
                                  directed=True, return_predecessors=True)
    path = [j]
    while path[-1] != i:
        path.append(int(prev[path[-1]]))
    chain = tuple(space.points[u] for u in reversed(path))
    return repr(float(ratios[i, j])), (space.points[i], space.points[j]), chain


def reference_center_check(space, family):
    """The message ``verify_center_family`` raises, or None, with the failing
    pairs masked to i < j before the first is taken in row-major order."""
    tol = get_tolerance()
    pts = list(space.points)
    D = as_finite_space(space).dist
    row = {p: i for i, p in enumerate(pts)}
    upper = np.triu(np.ones(D.shape, dtype=bool), 1)
    for k in family.levels:
        s = family.scale(k)
        m = family.maps[k]
        c = np.array([row[m[p]] for p in pts], dtype=np.intp)
        displaced = D[np.arange(len(pts)), c] > s + tol
        if displaced.any():
            p = pts[int(np.argmax(displaced))]
            return "level %d: point %r displaced beyond %g" % (k, p, s)
        Dc = D[np.ix_(c, c)]
        close = (c[:, None] != c[None, :]) & (Dc < s - tol)
        expands = Dc > D + tol
        bad = (close | expands) & upper
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            if close[i, j]:
                return "level %d: centers %r, %r too close" % (k, m[pts[i]], m[pts[j]])
            return "level %d: map expands pair %r, %r" % (k, pts[i], pts[j])
    return None


def strong_triangle(space):
    """Reference strong-triangle check as (passes, worst slack, triple).

    Every triple (x, y, z) in the order pivot z, then x, then y; the worst
    slack d(x, y) - max(d(x, z), d(z, y)) is the first largest.  Fewer than
    three points pass with slack 0 and no triple.
    """
    D, pts = space.dist, space.points
    if len(pts) < 3:
        return (True, 0.0, None)
    worst, arg = -math.inf, None
    for z, i, j in itertools.product(range(len(pts)), repeat=3):
        slack = float(D[i, j] - np.maximum(D[i, z], D[z, j]))
        if slack > worst:
            worst, arg = slack, (pts[i], pts[j], pts[z])
    return (worst <= get_tolerance(), worst, arg)


class FamilyTable:
    """The packed family before it was split into row blocks: each set's
    point indices padded with its first, and one minima table over all the
    family's points, (points, sets): ``table[u, s]`` is the min over b in s
    of d(u, b)."""

    def __init__(self, sets, space):
        if isinstance(space, FiniteMetricSpace):
            used = sorted({space._index[p] for s in sets for p in s})
            index = {space.points[i]: u for u, i in enumerate(used)}
            D = space.dist[np.ix_(used, used)]
        else:
            vals = sorted({float(p) for s in sets for p in s})
            index = {v: u for u, v in enumerate(vals)}
            D = np.abs(np.subtract.outer(vals, vals))
            sets = [[float(p) for p in s] for s in sets]
        k = max(len(s) for s in sets)
        self.idx = np.array([[index[p] for p in s] + [index[next(iter(s))]] * (k - len(s))
                             for s in sets])
        self.table = np.stack([D[:, cols].min(axis=1) for cols in self.idx], axis=1)


def family_table_block(fam, i0, j0):
    """Hausdorff distances between the row blocks at i0 and j0 of a
    ``FamilyTable``, read as ``analysis._hausdorff_block`` reads them."""
    size = analysis._BLOCK
    forward = fam.table[:, j0:j0 + size][fam.idx[i0:i0 + size]].max(axis=1)
    backward = fam.table[:, i0:i0 + size][fam.idx[j0:j0 + size]].max(axis=1)
    return np.maximum(forward, backward.T)


def reference_sampled_search(space, n, beta, seed, budget, f):
    """``analysis._sampled_search`` scoring one pair at a time as it is
    proposed: two FSets and two ``hausdorff`` calls per pair, a heap of the
    six best, and a climb that re-expands its top pairs until 40 sweeps in a
    row score nothing.  Returns (constant, witness, pairs, stop reason)."""
    image = functools.cache(f)
    rng = random.Random(seed)
    pts = list(_ordered_points(space))
    N = len(pts)
    scored = {}
    top = []

    def score(a, b):
        key = (a, b) if a <= b else (b, a)
        if key in scored or a == b:
            return
        A, B = FSet(pts[i] for i in a), FSet(pts[i] for i in b)
        dd = hausdorff(A, B, space)
        denom = float(analysis._power(float(dd), beta))
        r = -math.inf if dd <= 0 else hausdorff(image(A), image(B), space) / denom
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

    pairs = math.comb(_subset_count(N, n), 2)
    explore = min(budget // 2, pairs)
    if explore == pairs:
        sets = [t for k in range(1, n + 1) for t in itertools.combinations(range(N), k)]
        for a, b in itertools.combinations(sets, 2):
            score(a, b)
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
    (_, a), (_, b) = min(sorted((len(t), t) for t in k) for k, r in scored.items() if r == peak)
    stop = "budget" if len(scored) >= budget else "stale"
    return peak, (FSet(pts[i] for i in a), FSet(pts[i] for i in b)), len(scored), stop


def reference_transport_constant(transform, L, distances):
    """``transforms.transport_constant`` with φ called on one distance at a
    time, in order."""
    worst = 0.0
    for t in distances:
        t = float(t)
        if t <= 0:
            continue
        base = transform(t)
        worst = math.inf if base == 0 else max(worst, transform(L * t) / base)
    return worst
