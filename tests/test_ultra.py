"""Ultrametric machinery: center families, snowflaking, subdominant metric."""

import itertools
import os
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

from finset import (
    CenterFamily,
    FSet,
    FiniteMetricSpace,
    LevelRangeError,
    RealLineSpace,
    build_centers,
    build_snowflake_plan,
    disconnection_constant,
    generic_retract,
    generic_retract_bound,
    snowflake_exponent,
    snowflake_retract,
    subdominant_ultrametric,
    validate_ultrametric,
    verify_center_family,
)
from finset.generators import cantor_space, dendrogram_space, random_dendrogram


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


def brute_validate(space):
    # reference strong-triangle check: every triple, worst slack first found
    D, pts = space.dist, space.points
    worst, arg = -np.inf, None
    for z in range(len(pts)):
        for i in range(len(pts)):
            for j in range(len(pts)):
                slack = float(D[i, j] - max(D[i, z], D[z, j]))
                if slack > worst:
                    worst, arg = slack, (pts[i], pts[j], pts[z])
    return (worst <= 1e-9, worst, arg)


def lattice_cloud():
    # a 3x2 grid with unequal spacings, so that many distances tie
    return FiniteMetricSpace.from_coords(
        [(0.3 * x, 0.7 * y) for x in range(3) for y in range(2)])


def random_clouds(count, size, seed=7):
    rng = np.random.default_rng(seed)
    return [FiniteMetricSpace.from_coords([tuple(p) for p in rng.uniform(0, 1, size=(size, 2))])
            for _ in range(count)]


def plain_greedy(space, k):
    # reference center map: each point, in sorted order, goes to the first
    # earlier center within the scale, else becomes a center itself
    centers, out = [], {}
    for p in sorted(space.points):
        c = next((c for c in centers if space.d(p, c) < 0.5 ** k), p)
        if c == p:
            centers.append(p)
        out[p] = c
    return out


def plain_bfs_chain(space, a, b, bottleneck):
    # reference chain: breadth-first search from a over steps of at most the
    # bottleneck, neighbours taken in the order of space.points
    pts = list(space.points)
    prev = {a: None}
    queue = [a]
    for u in queue:
        for v in pts:
            if v not in prev and space.d(u, v) <= bottleneck:
                prev[v] = u
                queue.append(v)
    chain = [b]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    return tuple(reversed(chain))


def test_import_leaves_scipy_cluster_and_spatial_unloaded():
    # scipy.cluster, scipy.spatial and scipy.sparse are imported lazily;
    # loading them would slow every `import finset`
    import finset
    src = os.path.dirname(os.path.dirname(os.path.abspath(finset.__file__)))
    code = ("import sys, finset; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.cluster', 'scipy.spatial', 'scipy.sparse'))))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestValidate:
    def test_line_is_not_ultrametric(self):
        report = validate_ultrametric(RealLineSpace([0.0, 1.0, 3.0, 7.0]))
        assert not report.is_ultrametric
        assert report.violation > 0
        x, y, z = report.worst_triple
        sp = RealLineSpace.d
        assert sp(x, y) - max(sp(x, z), sp(z, y)) == pytest.approx(report.violation)

    def test_dendrogram_spaces_are_ultrametric(self):
        for seed in range(5):
            sp = dendrogram_space(random_dendrogram(8, seed=seed))
            assert validate_ultrametric(sp).is_ultrametric

    def test_two_points_trivially_pass(self):
        assert validate_ultrametric(RealLineSpace([0.0, 5.0])).is_ultrametric

    def test_reports_match_the_triple_scan(self):
        # ultrametrics take the cophenetic fast accept, the rest the scan
        ultra = [dendrogram_space(random_dendrogram(9, seed=seed)) for seed in range(4)]
        ultra += [subdominant_ultrametric(sp) for sp in random_clouds(3, 15)]
        ultra.append(subdominant_ultrametric(lattice_cloud()))
        for sp in ultra:
            report = astuple(validate_ultrametric(sp))
            assert report == brute_validate(sp) == (True, 0.0, (sp.points[0],) * 3)
        others = random_clouds(3, 15) + [lattice_cloud()]
        for sp in ultra[:4]:
            # one distance raised a hair above an ultrametric: a pass within
            # tolerance with a positive slack, then a clear failure
            for bump in (1e-12, 0.1):
                D = sp.dist.copy()
                D[0, 1] = D[1, 0] = D[0, 1] + bump
                others.append(FiniteMetricSpace(sp.points, D, validate=False))
        for sp in others:
            report = astuple(validate_ultrametric(sp))
            assert report == brute_validate(sp)
            assert report[1] > 0
        assert [validate_ultrametric(sp).is_ultrametric for sp in others[-8:]] == [True, False] * 4


class TestCenterFamily:
    def test_two_point_collapse_level(self):
        # points at distance 2**-3 first share a center at level 2, where the
        # scale 2**-2 exceeds their distance
        sp = RealLineSpace([0.0, 0.125])
        fam = build_centers(sp)
        assert fam.levels == (2, 3, 4)
        assert fam.tau_set(2, (0.0, 0.125)) == FSet((0.0,))
        assert fam.tau_set(3, (0.0, 0.125)) == FSet((0.0, 0.125))

    def test_family_properties_on_dendrograms(self):
        spaces = [dendrogram_space(random_dendrogram(6, seed=seed)) for seed in (0, 1, 2)]
        spaces += [subdominant_ultrametric(random_clouds(1, 12)[0]),
                   subdominant_ultrametric(lattice_cloud())]
        for sp in spaces:
            fam = build_centers(sp)
            verify_center_family(sp, fam)
            for k in fam.levels:
                assert fam.maps[k] == plain_greedy(sp, k)
            coarsest, finest = fam.levels[0], fam.levels[-1]
            assert len(set(fam.maps[coarsest].values())) == 1
            assert len(set(fam.maps[finest].values())) == len(sp.points)

    def test_rejects_non_ultrametric(self):
        with pytest.raises(ValueError, match="not ultrametric"):
            build_centers(RealLineSpace([0.0, 1.0, 3.0]))

    def test_verify_catches_tampering(self):
        sp = dendrogram_space(random_dendrogram(5, seed=3))
        fam = build_centers(sp)
        k = fam.levels[len(fam.levels) // 2]
        bad_maps = dict(fam.maps)
        far = max(sp.points, key=lambda q: sp.d(sp.points[0], q))
        bad_maps[k] = {p: far for p in sp.points}
        cases = [(sp, CenterFamily(fam.levels, bad_maps), "point 1 displaced beyond")]
        # at scale 2 on the integer points 0, 1, 3 each check fails alone
        line = RealLineSpace([0, 1, 3])
        for tau, message in (({0: 3, 1: 1, 3: 3}, "level -1: point 0 displaced beyond 2"),
                             ({0: 0, 1: 1, 3: 3}, "level -1: centers 0, 1 too close"),
                             ({0: 0, 1: 3, 3: 3}, "level -1: map expands pair 0, 1")):
            cases.append((line, CenterFamily((-1,), {-1: tau}), message))
        for space, bad, message in cases:
            with pytest.raises(ValueError, match=message):
                verify_center_family(space, bad)


class TestGenericRetract:
    def test_collapses_to_m_points(self):
        sp = RealLineSpace([0.0, 0.125])
        fam = build_centers(sp)
        assert generic_retract(fam, FSet((0.0, 0.125)), 2, 1) == FSet((0.0,))

    def test_small_sets_fixed(self):
        sp = dendrogram_space(random_dendrogram(6, seed=0))
        fam = build_centers(sp)
        A = FSet(sp.points[:2])
        assert generic_retract(fam, A, 3, 2) is A

    def test_truncated_above_raises(self):
        sp = RealLineSpace([0.0, 0.125])
        fam = build_centers(sp, levels=[2])
        with pytest.raises(LevelRangeError, match="truncated"):
            generic_retract(fam, FSet((0.0, 0.125)), 2, 1)

    def test_no_coarse_enough_level_raises(self):
        sp = RealLineSpace([0.0, 0.125])
        fam = build_centers(sp, levels=[3, 4])
        with pytest.raises(LevelRangeError):
            generic_retract(fam, FSet((0.0, 0.125)), 2, 1)

    def test_argument_validation(self):
        sp = RealLineSpace([0.0, 0.125])
        fam = build_centers(sp)
        with pytest.raises(ValueError):
            generic_retract(fam, FSet((0.0,)), 2, 2)
        with pytest.raises(ValueError):
            generic_retract(fam, FSet((0.0, 0.125)), 1, 1)

    def test_default_bound(self):
        assert generic_retract_bound() == 5.0
        assert generic_retract_bound(lipschitz=2.0, base=0.5) == 33.0


class TestSnowflake:
    def test_exponent_frozen(self):
        assert snowflake_exponent(1.25) == 8
        assert snowflake_exponent(5.0) == 1
        assert snowflake_exponent(5.0 ** 0.5) == 2

    def test_exponent_requires_expansion(self):
        with pytest.raises(ValueError):
            snowflake_exponent(1.0)

    def test_plan_bound_meets_target(self):
        sp = dendrogram_space(random_dendrogram(8, seed=0))
        plan = build_snowflake_plan(sp, 1.25)
        assert plan.alpha == 8
        assert plan.constant_bound <= 1.25
        assert np.allclose(plan.powered.dist, sp.dist ** 8)

    def test_powered_space_is_ultrametric(self):
        sp = dendrogram_space(random_dendrogram(8, seed=1))
        plan = build_snowflake_plan(sp, 1.5)
        assert validate_ultrametric(plan.powered).is_ultrametric

    def test_retract_lands_in_smaller_space(self):
        sp = dendrogram_space(random_dendrogram(6, seed=2))
        plan = build_snowflake_plan(sp, 1.25)
        A = FSet(sp.points[:3])
        out = snowflake_retract(sp, A, 3, 2, 1.25, plan=plan)
        assert len(out) <= 2
        assert set(out) <= set(sp.points)


class TestSubdominant:
    def test_line_frozen(self):
        sp = RealLineSpace([0.0, 1.0, 3.0, 7.0])
        rho = subdominant_ultrametric(sp)
        assert list(rho.dist[0]) == [0.0, 1.0, 2.0, 4.0]

    def test_matches_brute_minimax(self):
        for sp in random_clouds(5, 6) + [lattice_cloud()]:
            rho = subdominant_ultrametric(sp)
            n = len(sp.points)
            for i in range(n):
                for j in range(n):
                    expected = 0.0 if i == j else brute_minimax(sp.dist, i, j)
                    assert rho.dist[i, j] == expected

    def test_output_is_ultrametric_and_below(self):
        pts = [0.0, 0.3, 1.1, 2.0, 5.0]
        rho = subdominant_ultrametric(RealLineSpace(pts))
        assert validate_ultrametric(rho).is_ultrametric
        direct = np.abs(np.subtract.outer(pts, pts))
        assert np.all(rho.dist <= direct + 1e-12)

    def test_fixes_ultrametric_input(self):
        sp = dendrogram_space(random_dendrogram(7, seed=4))
        rho = subdominant_ultrametric(sp)
        assert np.allclose(rho.dist, sp.dist)


def test_subdominant_keeps_the_pair_checks():
    # distinct points at distance 0 stay at 0 under single linkage
    D = np.array([[0, 0, 2, 2], [0, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0.]])
    space = FiniteMetricSpace(["a", "b", "c", "d"], D, validate=False)
    for f in (subdominant_ultrametric, disconnection_constant):
        with pytest.raises(ValueError,
                           match="non-positive distance between distinct points 'a', 'b'"):
            f(space)


@pytest.mark.filterwarnings("error")
def test_pair_checks_name_the_pair_at_distance_zero():
    # the only zero lies between c and d, after the first two points
    D = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 0], [2, 2, 0, 0.]])
    space = FiniteMetricSpace(["a", "b", "c", "d"], D, validate=False)
    for f in (subdominant_ultrametric, disconnection_constant,
              FiniteMetricSpace.validate):
        with pytest.raises(ValueError,
                           match="non-positive distance between distinct points 'c', 'd'"):
            f(space)


class TestDisconnection:
    def test_cantor_depth2_frozen(self):
        report = disconnection_constant(cantor_space(1 / 3, 2))
        assert report.constant == pytest.approx(0.5)
        assert report.witness[0] == 0.0
        assert report.witness[1] == pytest.approx(8 / 9)

    def test_cantor_depth4_frozen(self):
        report = disconnection_constant(cantor_space(1 / 3, 4))
        assert report.constant == pytest.approx(7 / 20)

    def test_chain_realizes_bottleneck(self):
        spaces = [RealLineSpace([0.0, 1.0, 3.0, 7.0]), lattice_cloud(),
                  cantor_space(1 / 3, 3)] + random_clouds(3, 15, seed=11)
        for sp in spaces:
            report = disconnection_constant(sp)
            a, b = report.witness
            assert report.chain[0] == a and report.chain[-1] == b
            bottleneck = subdominant_ultrametric(sp).d(a, b)
            assert report.chain == plain_bfs_chain(sp, a, b, bottleneck)
            for u, v in zip(report.chain, report.chain[1:]):
                assert sp.d(u, v) <= bottleneck

    def test_ultrametric_space_has_constant_one(self):
        sp = dendrogram_space(random_dendrogram(6, seed=5))
        assert disconnection_constant(sp).constant == pytest.approx(1.0)

    def test_single_point(self):
        report = disconnection_constant(RealLineSpace([2.0]))
        assert report.constant == 1.0 and report.witness is None
