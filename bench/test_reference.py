"""Hand-computed checks of the benchmark's reference computations.

Every expected value below is worked out by hand, not taken from finset.
Run from the repository root with:

    python3 -m pytest bench/test_reference.py
"""

import math
import random
from fractions import Fraction as F

import numpy as np

import reference


def test_hausdorff_line_is_exact():
    assert reference.hausdorff_line([0, 1], [0, F(1, 2), 1]) == F(1, 2)
    assert reference.hausdorff_line([0], [3]) == 3
    assert reference.hausdorff_line([0, F(1, 3)], [F(1, 3)]) == F(1, 3)
    # the exact gap between the doubles nearest 0.1 and 0.2, not 0.1
    assert reference.hausdorff_line([0.1], [0.2]) == F(0.2) - F(0.1)


def test_hausdorff_matrix():
    pts = np.array([0.0, 1.0, 3.0])
    D = np.abs(pts[:, None] - pts[None, :])
    # 0 is 1 from {1, 3}, but 3 is 3 from {0}
    assert reference.hausdorff_matrix(D, [0], [1, 2]) == 3.0
    assert reference.hausdorff_matrix(D, [0, 2], [1, 2]) == 1.0


def test_maps():
    assert reference.delete_min([3, 1, 2], 3) == [2, 3]
    assert reference.delete_min([1, 2], 3) == [1, 2]
    # delta = 1: 0 -> 0, 1 -> 0, 3 -> 1
    assert reference.line_collapse([0, 1, 3], 3) == [0, 1]
    assert reference.line_collapse([0, 5], 3) == [0, 5]
    maps = {0: {"a": "a", "b": "a", "c": "a"}, 1: {"a": "a", "b": "a", "c": "c"}}
    assert reference.generic_collapse(maps, (0, 1), {"a", "b", "c"}, 2) == {"a", "c"}
    assert reference.generic_collapse(maps, (0, 1), {"a", "b", "c"}, 1) == {"a"}
    assert reference.generic_collapse(maps, (0, 1), {"b"}, 1) == {"b"}


def test_harmonic_lipschitz_pair_has_ratio_k_minus_1():
    # K = 5: A = {0, 1/5, 1/3}, B = A + {1/4}.  H(A, B) = 1/4 - 1/5 = 1/20;
    # deleting the minimum of B gives {1/5, 1/4, 1/3}, which is 1/5 from A
    A = (F(0), F(1, 5), F(1, 3))
    B = A + (F(1, 4),)

    def delete_min(S):
        return reference.delete_min(S, 4)

    assert reference.pair_ratio(A, B, delete_min, reference.hausdorff_line, 1.0) == 4.0
    hoelder = reference.pair_ratio(A, B, delete_min, reference.hausdorff_line, 0.5)
    assert math.isclose(hoelder, 0.2 * math.sqrt(20), rel_tol=1e-15)


def test_max_sampled_ratio():
    sets = [(0,), (1,), (0, 1), (2, 5)]
    ident = reference.max_sampled_ratio(sets, lambda S: S, reference.hausdorff_line, 1.0,
                                        random.Random(0), 50)
    assert ident == 1.0
    doubled = reference.max_sampled_ratio(sets, lambda S: [2 * x for x in S],
                                          reference.hausdorff_line, 1.0,
                                          random.Random(0), 50)
    assert doubled == 2.0


def test_cophenetic_and_slack():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [7.0, 0.0]])
    # single linkage merges at 1, then 2, then 4
    expected = np.array([[0, 1, 2, 4], [1, 0, 2, 4], [2, 2, 0, 4], [4, 4, 4, 0]], float)
    rho = reference.cophenetic(coords)
    assert np.array_equal(rho, expected)
    assert reference.ultrametric_slack(rho) == 0.0
    D = np.abs(coords[:, None, 0] - coords[None, :, 0])
    # d(0, 7) = 7 against max(d(0, 3), d(3, 7)) = 4
    assert reference.ultrametric_slack(D) == 3.0


def test_center_family_faults():
    # ultrametric on a, b, c: d(a, b) = 1/4, d(a, c) = d(b, c) = 1
    index = {"a": 0, "b": 1, "c": 2}
    D = np.array([[0, 0.25, 1], [0.25, 0, 1], [1, 1, 0]])
    ident = {"a": "a", "b": "b", "c": "c"}
    pair = {"a": "a", "b": "a", "c": "c"}
    good = {-1: {"a": "a", "b": "a", "c": "a"}, 0: pair, 1: pair, 2: ident, 3: ident}
    assert reference.center_family_faults(D, index, good, sorted(good)) == []
    # at s = 1/2, c moved onto a travels 1
    moved = {**good, 1: {"a": "a", "b": "a", "c": "a"}}
    assert len(reference.center_family_faults(D, index, moved, sorted(moved))) == 1
    # at s = 1, keeping a and b apart leaves two centers 1/4 apart
    close = {**good, 0: ident}
    faults = reference.center_family_faults(D, index, close, sorted(close))
    assert faults == ["level 0: two centers are closer than 1"]


def test_floyd_warshall_and_path_ratios():
    inf = np.inf
    W = np.array([[0, 1, inf, inf], [1, 0, 2, inf], [inf, 2, 0, 3], [inf, inf, 3, 0]])
    G = reference.floyd_warshall(W)
    assert G[0, 3] == 6 and G[1, 3] == 5 and G[0, 2] == 3
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    D = np.sqrt(((square[:, None] - square[None, :]) ** 2).sum(-1))
    ratios = reference.path_ratios(D, 1.0)
    # opposite corners: path 2 against diagonal sqrt(2)
    assert math.isclose(ratios.max(), math.sqrt(2), rel_tol=1e-15)
    assert ratios[0, 1] == 1.0
    far = reference.path_ratios(np.array([[0.0, 2.0], [2.0, 0.0]]), 1.0)
    assert far[0, 1] == inf
