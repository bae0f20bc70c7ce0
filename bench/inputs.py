"""Seeded inputs of the four benchmark workloads.

``setup(workload, seed)`` is the set-up phase that ``setup_s`` times: the
generator calls and ``SubsetDomain.build`` calls that make a workload's
inputs.  The same seed always gives the same inputs.  The sizes below are
fixed, so that the work of a round does not depend on the seed; the seed
moves only the positions of points, the random merge trees and the seeds of
the sampled searches.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
from scipy.sparse.csgraph import shortest_path

from finset import analysis, generators, metric

# harmonic-exhaustive: delete-min on {0} u {1/k : k <= K} in X(n), and the
# rank-shift retraction on a seeded grid with unequal gaps.
HARMONIC_K = 16
HARMONIC_N = 4
GRID_POINTS = 14
GRID_GAPS = (0.05, 1.5)

# ultra-certify: a planar cloud of jittered lattice points in a few seeded
# clusters (the lattice keeps the least distance, and so the number of
# levels, nearly the same for every seed), and merge trees with seeded
# heights in a bounded range, which bounds their number of levels too.
CLOUD_CLUSTERS = 5
CLOUD_PER_CLUSTER = 60
CLOUD_CELL = 0.1
TREES = 2
TREE_LEAVES = 20
TREE_HEIGHTS = (0.05, 1.0)
TREE_N = 3
SNOW_TARGET = 1.25

# obstruction-cli: the README commands, scaled up.  The witness at L = 6
# (a chain of 3,250 sets) leaves room for about five rounds per run; one
# at L = 10 takes 5 s or more and swung by half between rounds.
WITNESS_L = "6"
SAMPLED_SPACE = {"kind": "harmonic", "K": 160}
SAMPLED_N = 4
# The work of one sampled search swings with its seed (its hill climb stops
# when it finds nothing new), so each round runs several seeds at a smaller
# budget; their sum varies far less from one run seed to the next.
SAMPLED_BUDGET = 5000
SAMPLED_SEEDS = 4
PARABOLA = {"kind": "parabola", "T": 16, "N": 257}
RUG = {"kind": "rug", "per_side": 17}

# qh-transport: shortest-path perturbations of seeded line sets, stretched
# by factors in [1, STRETCH], and the snowflake identity on a small set.
PERTURBATIONS = 4
LINE_POINTS = 10
STRETCH = 1.2
QH_N = 3
SNOW_POINTS = 7
SNOW_ALPHA = 0.5


def _harmonic(seed):
    rng = random.Random(seed)
    grid = [0.0]
    for _ in range(GRID_POINTS - 1):
        grid.append(round(grid[-1] + rng.uniform(*GRID_GAPS), 2))
    space = generators.harmonic_space(HARMONIC_K)
    grid_space = metric.RealLineSpace(grid)
    return SimpleNamespace(
        K=HARMONIC_K, n=HARMONIC_N, seed=seed,
        domain=analysis.SubsetDomain.build(space, HARMONIC_N, cap=10 ** 5),
        grid_domain=analysis.SubsetDomain.build(grid_space, HARMONIC_N, cap=10 ** 5))


def _cloud(rng):
    # each cluster fills a 12x12 block of the lattice; the blocks sit in
    # distinct slots of a 7x7 grid with a gap of two nodes, so the cloud has
    # exactly CLOUD_CLUSTERS * CLOUD_PER_CLUSTER points, and jitter below a
    # quarter cell leaves every pair at least half a cell apart
    side, stride, slots = 12, 14, 7
    nodes = []
    for slot in rng.choice(slots * slots, size=CLOUD_CLUSTERS, replace=False):
        corner = stride * np.array(divmod(int(slot), slots))
        cells = rng.choice(side * side, size=CLOUD_PER_CLUSTER, replace=False)
        nodes.extend(corner + np.stack([cells // side, cells % side], axis=1))
    nodes = np.array(nodes)
    return CLOUD_CELL * (nodes + rng.uniform(-0.25, 0.25, size=nodes.shape))


def _tree(seed):
    """``generators.random_dendrogram`` with its heights mapped from [0, 1]
    onto TREE_HEIGHTS, which keeps every merge height away from 0."""
    lo, hi = TREE_HEIGHTS

    def rescale(node):
        if "children" not in node:
            return node
        return {"merge_height": lo + (hi - lo) * node["merge_height"],
                "children": [rescale(child) for child in node["children"]]}
    return rescale(generators.random_dendrogram(TREE_LEAVES, seed))


def _ultra(seed):
    coords = _cloud(np.random.default_rng(seed))
    cloud = metric.FiniteMetricSpace.from_coords([tuple(p) for p in coords])
    trees = [generators.dendrogram_space(_tree(TREES * seed + t)) for t in range(TREES)]
    return SimpleNamespace(
        seed=seed, n=TREE_N, snow_target=SNOW_TARGET,
        coords=np.array(cloud.points), cloud=cloud, trees=trees,
        domains=[analysis.SubsetDomain.build(t, TREE_N) for t in trees])


def _cli(seed):
    parabola = generators.generate(PARABOLA)
    steps = parabola.dist[np.arange(len(parabola) - 1), np.arange(1, len(parabola))]
    rug_step = (1.0 / (RUG["per_side"] - 1)) ** 0.5
    return SimpleNamespace(
        seed=seed, witness_L=WITNESS_L, sampled_space=SAMPLED_SPACE,
        sampled_points=generators.generate(SAMPLED_SPACE).points,
        sampled_n=SAMPLED_N, budget=SAMPLED_BUDGET,
        sampled_seeds=[SAMPLED_SEEDS * seed + i for i in range(SAMPLED_SEEDS)],
        qc=(("parabola", PARABOLA, parabola, 1.01 * float(steps.max())),
            ("rug", RUG, generators.generate(RUG), 1.01 * rug_step)))


def _line_points(rng, count):
    """Distinct points of [0, 10] on a grid of step 1/1000, ascending."""
    return [float(x) / 1000 for x in np.sort(rng.choice(10001, size=count, replace=False))]


def _perturbation(rng):
    pts = _line_points(rng, LINE_POINTS)
    DX = np.abs(np.subtract.outer(pts, pts))
    W = np.triu(DX * rng.uniform(1.0, STRETCH, size=DX.shape), 1)
    X = generators.generate({"kind": "line", "points": pts})
    Y = generators.generate({"kind": "finite", "points": pts,
                             "dist": shortest_path(W + W.T, method="D", directed=False)})
    return SimpleNamespace(X=X, Y=Y,
                           X_domain=analysis.SubsetDomain.build(X, QH_N),
                           Y_domain=analysis.SubsetDomain.build(Y, QH_N))


def _qh(seed):
    rng = np.random.default_rng(seed)
    perturbations = [_perturbation(rng) for _ in range(PERTURBATIONS)]
    snow = metric.as_finite_space(
        generators.generate({"kind": "line", "points": _line_points(rng, SNOW_POINTS)}))
    return SimpleNamespace(seed=seed, L=STRETCH, n=QH_N, alpha=SNOW_ALPHA,
                           perturbations=perturbations, snow=snow)


SETUP = {
    "harmonic-exhaustive": _harmonic,
    "ultra-certify": _ultra,
    "obstruction-cli": _cli,
    "qh-transport": _qh,
}


def setup(workload, seed):
    """Build the inputs of one workload from its seed."""
    return SETUP[workload](seed)
