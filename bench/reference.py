"""Reference computations for the certificate benchmark.

Everything here is written apart from finset: exact ``Fraction`` Hausdorff
distances on the line, index-based Hausdorff distances on a distance matrix,
the plain maps the retractions are meant to compute, scipy's single-linkage
cophenetic matrix, a numpy recheck of center families, a numpy
Floyd-Warshall, and a ratio check on a seeded sample of set pairs.  The
benchmark checks finset's certificates against these, never against a saved
copy of finset's output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import pdist, squareform


def exact(x):
    """The exact rational value of a float, int or Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def hausdorff_line(A, B):
    """Exact Hausdorff distance between two finite sets of reals."""
    a = [exact(x) for x in A]
    b = [exact(y) for y in B]
    forward = max(min(abs(x - y) for y in b) for x in a)
    backward = max(min(abs(x - y) for x in a) for y in b)
    return max(forward, backward)


def hausdorff_matrix(D, a, b):
    """Hausdorff distance between two index sets under the matrix D.

    Only entries of D are selected, so the result is exact.
    """
    block = D[np.ix_(list(a), list(b))]
    return float(max(block.min(axis=1).max(), block.min(axis=0).max()))


def delete_min(A, n):
    """Drop the least point of an n-point set; smaller sets are fixed."""
    pts = sorted(A)
    return pts[1:] if len(pts) == n else pts


def line_collapse(A, n):
    """Exact rank-shift collapse: x -> x - delta * rank(x) on n-point sets,
    delta the least gap; smaller sets are fixed."""
    pts = sorted({exact(x) for x in A})
    if len(pts) < n:
        return pts
    delta = min(b - a for a, b in zip(pts, pts[1:]))
    return sorted({x - delta * i for i, x in enumerate(pts)})


def generic_collapse(maps, levels, A, m):
    """Image of A under the coarsest center map that leaves at most m points;
    sets with at most m points are fixed."""
    if len(A) <= m:
        return set(A)
    for k in sorted(levels, reverse=True):
        image = {maps[k][p] for p in A}
        if len(image) <= m:
            return image
    raise ValueError("no level collapses %r to %d points" % (A, m))


def pair_ratio(A, B, image, dist, beta):
    """dist(image(A), image(B)) / dist(A, B) ** beta.

    For beta = 1 the quotient is formed exactly and rounded once, so exact
    distances give the correctly rounded ratio.
    """
    den = dist(A, B)
    num = dist(image(A), image(B))
    if beta == 1.0:
        return float(exact(num) / exact(den))
    return float(num) / float(den) ** beta


def max_sampled_ratio(sets, image, dist, beta, rng, count):
    """Largest pair_ratio over ``count`` distinct pairs drawn by ``rng``."""
    worst = -math.inf
    for _ in range(count):
        A, B = rng.sample(sets, 2)
        worst = max(worst, pair_ratio(A, B, image, dist, beta))
    return worst


def cophenetic(coords):
    """Single-linkage cophenetic matrix of Euclidean points, from scipy."""
    return squareform(cophenet(linkage(pdist(coords), "single")))


def ultrametric_slack(D):
    """Largest d(x, y) - max(d(x, z), d(z, y)) over all triples."""
    worst = -math.inf
    for z in range(len(D)):
        worst = max(worst, float((D - np.maximum(D[:, z, None], D[None, z, :])).max()))
    return worst


def center_family_faults(D, index, maps, levels):
    """Numpy recheck of a center family on the distance matrix D.

    At level k with s = 2**-k, every point moves by at most s, distinct
    centers are at least s apart, centers are fixed, and no pair of points
    is moved further apart.  Returns one line per failed level.
    """
    faults = []
    n = len(D)
    rows = np.arange(n)
    for k in levels:
        s = 2.0 ** -k
        c = np.array([index[maps[k][p]] for p in sorted(index, key=index.get)])
        centers = np.unique(c)
        between = D[np.ix_(centers, centers)][~np.eye(len(centers), dtype=bool)]
        if (D[rows, c] > s).any():
            faults.append("level %d: a point moves by more than %g" % (k, s))
        if (between < s).any():
            faults.append("level %d: two centers are closer than %g" % (k, s))
        if (c[c] != c).any():
            faults.append("level %d: a center is not fixed" % k)
        if (D[np.ix_(c, c)] > D).any():
            faults.append("level %d: the map expands a pair" % k)
    return faults


def floyd_warshall(W):
    """All-pairs shortest path lengths; W holds inf where there is no edge."""
    G = np.array(W, dtype=float)
    np.fill_diagonal(G, 0.0)
    for k in range(len(G)):
        np.minimum(G, G[:, k, None] + G[None, k, :], out=G)
    return G


def path_ratios(D, eps):
    """Ratios of eps-graph path length to distance for all pairs.

    The eps-graph joins points at distance at most eps.  The diagonal is 0;
    pairs the graph does not join get inf.
    """
    G = floyd_warshall(np.where(D <= eps, D, np.inf))
    off = ~np.eye(len(D), dtype=bool)
    return np.where(off, G / np.where(off, D, 1.0), 0.0)
