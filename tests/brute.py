"""Slow pure-Python references that the fast paths are tested against."""

import itertools
import math

import numpy as np

from finset import get_tolerance


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


def strong_triangle(space):
    """Reference strong-triangle check as (passes, worst slack, triple).

    Every triple (x, y, z) in the order pivot z, then x, then y; the worst
    slack d(x, y) - max(d(x, z), d(z, y)) is the first largest, a NaN slack
    outranking every number.  Fewer than three points pass with slack 0 and
    no triple.
    """
    D, pts = space.dist, space.points
    if len(pts) < 3:
        return (True, 0.0, None)
    worst, arg = -math.inf, None
    for z, i, j in itertools.product(range(len(pts)), repeat=3):
        slack = float(D[i, j] - np.maximum(D[i, z], D[z, j]))
        if math.isnan(slack):
            return (False, slack, (pts[i], pts[j], pts[z]))
        if slack > worst:
            worst, arg = slack, (pts[i], pts[j], pts[z])
    return (worst <= get_tolerance(), worst, arg)
