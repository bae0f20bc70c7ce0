"""Deterministic example spaces: harmonic sets, Cantor dusts, snowflaked
grids, parabola and lattice-of-lines samples, Rickman's rug, and dendrogram
ultrametrics, plus the JSON spec dispatcher used by the command line.
"""

from __future__ import annotations

import itertools
import math
import operator
import random

import numpy as np

from .line import IntervalUnion
from .metric import FiniteMetricSpace, RealLineSpace, _from_spec
from .transforms import product_space


def _count(name, value):
    """A count parameter as an int.  An integral float such as 6.0 passes;
    6.5, or anything else that is not an integer, raises ValueError naming
    the parameter, where ``int`` would truncate it to a space nobody named."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None


def harmonic_space(K):
    """{0} ∪ {1/k : 1 ≤ k ≤ K} on the real line."""
    K = _count("K", K)
    if K < 1:
        raise ValueError("K must be at least 1")
    return RealLineSpace([0.0] + [1.0 / k for k in range(K, 0, -1)])


def cantor_points(ratio=1.0 / 3.0, depth=2):
    """Left endpoints of the surviving intervals of a Cantor construction.

    Each interval [a, b] is replaced by its two end pieces of length
    ratio * (b - a); after ``depth`` rounds the 2^depth left endpoints are
    returned in increasing order.
    """
    if not 0 < ratio < 0.5:
        raise ValueError("ratio must lie strictly between 0 and 1/2")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            w = (b - a) * ratio
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        intervals = nxt
    return [a for a, _ in intervals]


def cantor_space(ratio=1.0 / 3.0, depth=2):
    return RealLineSpace(cantor_points(float(ratio), _count("depth", depth)))


def snowflake_interval(alpha=0.5, per_side=9):
    """Uniform grid on [0, 1] with the snowflaked metric |x - y|^alpha.

    alpha = 1 gives the plain grid.
    """
    alpha, per_side = float(alpha), _count("per_side", per_side)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if per_side < 2:
        raise ValueError("need at least 2 grid points")
    xs = np.linspace(0.0, 1.0, per_side)
    points = tuple(float(x) for x in xs)
    D = np.abs(xs[:, None] - xs[None, :]) ** alpha
    return FiniteMetricSpace._adopt(points, D)


def parabola_space(T=1.0, N=17):
    """N evenly spaced samples of {(x, x²) : |x| ≤ T} with planar distances."""
    T, N = float(T), _count("N", N)
    if T <= 0 or N < 2:
        raise ValueError("need T > 0 and at least 2 samples")
    xs = np.linspace(-T, T, N)
    return FiniteMetricSpace.from_coords([(float(x), float(x) ** 2) for x in xs])


def lattice_lines_space(window=2.0, step=0.5):
    """Euclidean samples of ℝ × ℤ: horizontal lines at integer heights,
    discretized at the given step over [-window, window]."""
    window, step = float(window), float(step)
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    num = int(round(2 * window / step)) + 1
    xs = np.linspace(-window, window, num)
    ys = range(-math.floor(window), math.floor(window) + 1)
    return FiniteMetricSpace.from_coords(
        [(float(x), float(y)) for y in ys for x in xs])


def rickman_rug(per_side=9, alpha=0.5):
    """Product of a grid interval with a snowflaked grid interval under the
    max metric; the standard fractal surface."""
    plain = snowflake_interval(1.0, per_side)
    fuzzy = snowflake_interval(alpha, per_side)
    return product_space(plain, fuzzy)


def _tree_height(node):
    return node["merge_height"] if "children" in node else 0.0


def _collect_leaves(node, out, blocks):
    """Append the leaves under node to out, and to blocks, for each pair of
    its children, their index ranges in out and the height they merge at;
    returns the range of node's own leaves."""
    start = len(out)
    if "children" not in node:
        out.append(node["point"])
        return start, start + 1
    h = float(node["merge_height"])
    if h <= 0:
        raise ValueError("merge heights must be positive")
    ranges = []
    for child in node["children"]:
        if _tree_height(child) > h:
            raise ValueError("child merge height exceeds parent height %g" % h)
        ranges.append(_collect_leaves(child, out, blocks))
    blocks.extend((a, b, h) for a, b in itertools.combinations(ranges, 2))
    return start, len(out)


def dendrogram_space(tree):
    """Ultrametric space of a nested merge tree.

    Nodes are {"merge_height": h, "children": [...]} with leaves
    {"point": id}; two leaves sit at the height of their lowest common
    ancestor.  Heights must not increase toward the leaves.
    """
    leaves = []
    blocks = []
    _collect_leaves(tree, leaves, blocks)
    if len(set(leaves)) != len(leaves):
        raise ValueError("duplicate leaf ids in dendrogram")
    D = np.zeros((len(leaves), len(leaves)))
    for (a0, a1), (b0, b1), h in blocks:
        D[a0:a1, b0:b1] = D[b0:b1, a0:a1] = h
    return FiniteMetricSpace._adopt(tuple(leaves), D)


def random_dendrogram(num_leaves, seed=0):
    """Random binary merge tree over integer leaves with sorted uniform
    heights; deterministic for a fixed seed."""
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    rng = random.Random(seed)
    forest = [{"point": i} for i in range(num_leaves)]
    heights = sorted(rng.uniform(0.0, 1.0) for _ in range(num_leaves - 1))
    for h in heights:
        i, j = rng.sample(range(len(forest)), 2)
        merged = {"merge_height": h, "children": [forest[i], forest[j]]}
        forest = [t for k, t in enumerate(forest) if k not in (i, j)]
        forest.append(merged)
    return forest[0]


def _dendrogram(tree=None, leaves=None, seed=None):
    """The "dendrogram" kind: an explicit merge ``tree``, or a
    ``random_dendrogram`` of ``leaves`` leaves, from ``seed`` if given."""
    if (tree is None) == (leaves is None) or seed is not None and leaves is None:
        raise ValueError('a dendrogram spec takes "tree", or "leaves" and an optional "seed"')
    if tree is None:
        tree = random_dendrogram(_count("leaves", leaves),
                                 *(() if seed is None else (_count("seed", seed),)))
    return dendrogram_space(tree)


def _finite(points, dist=None):
    """The "finite" kind: ``points`` with the distance matrix ``dist``, or,
    without one, as coordinates; a list point is read as a tuple."""
    points = [tuple(p) if isinstance(p, list) else p for p in points]
    if dist is None:
        return FiniteMetricSpace.from_coords(points)
    return FiniteMetricSpace(points, dist)


# kind -> generator function; a spec's keys other than "kind" are its parameters
_KINDS = {
    "harmonic": harmonic_space,
    "cantor": cantor_space,
    "snowflake": snowflake_interval,
    "parabola": parabola_space,
    "lattice_lines": lattice_lines_space,
    "rug": rickman_rug,
    "dendrogram": _dendrogram,
    "interval_union": lambda intervals: IntervalUnion(tuple(tuple(p) for p in intervals)),
    "product": lambda x, y: product_space(generate(x), generate(y)),
    "line": lambda points: RealLineSpace(points),
    "finite": _finite,
}


def generate(spec):
    """Build the space a generator spec dict describes through the function
    ``_KINDS`` holds for its kind.  A key the kind does not read, or a
    missing one it needs, raises ValueError."""
    return _from_spec(_KINDS, spec, "space")
