"""Ultrametric machinery: center families, snowflaking, subdominant metric."""

import os
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

from finset import (
    GENERIC_BOUND,
    CenterFamily,
    FSet,
    FiniteMetricSpace,
    LevelRangeError,
    RealLineSpace,
    build_centers,
    build_snowflake_plan,
    disconnection_constant,
    enumerate_fsets,
    generic_retract,
    snowflake_exponent,
    subdominant_ultrametric,
    validate_ultrametric,
    verify_center_family,
)
from finset.generators import cantor_space, dendrogram_space, random_dendrogram

from brute import (brute_minimax, reference_center_check, reference_disconnection,
                   reference_pair_checks, strong_triangle)


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
            assert report == strong_triangle(sp) == (True, 0.0, (sp.points[0],) * 3)
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
            assert report == strong_triangle(sp)
            assert report[1] > 0
        assert [validate_ultrametric(sp).is_ultrametric for sp in others[-8:]] == [True, False] * 4


class TestCenterFamily:
    def test_two_point_collapse_level(self):
        # points at distance 2**-3 first share a center at level 2, where the
        # scale 2**-2 exceeds their distance
        sp = RealLineSpace([0.0, 0.125])
        fam = build_centers(sp)
        assert fam.levels == (2, 3, 4)
        assert fam.maps[2] == {0.0: 0.0, 0.125: 0.0}
        assert fam.maps[3] == {0.0: 0.0, 0.125: 0.125}

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

    @pytest.mark.parametrize("seed", range(4))
    def test_refined_balls_match_the_greedy_over_every_point(self, seed):
        # each level refines the balls of the level before it; heights moved
        # onto dyadic scales put distances exactly at a scale, where "<" bites,
        # and sparse levels skip scales between refinements
        tree = dendrogram_space(random_dendrogram(40, seed=seed))
        D = tree.dist
        D = np.where(D > 0, np.exp2(np.round(np.log2(np.where(D > 0, D, 1.0)))), 0.0)
        snapped = FiniteMetricSpace(list(tree.points), D.tolist())
        for sp, levels in ((tree, None), (snapped, None), (snapped, [1, 3, 7])):
            fam = build_centers(sp, levels)
            assert all(fam.maps[k] == plain_greedy(sp, k) for k in fam.levels)

    def test_tolerance_ultrametric_gets_the_greedy_over_every_point(self):
        # ultrametric only within the tolerance, so its balls need not nest:
        # at level 32, c is within the scale of b but was not in b's ball at
        # level 31, and refining that ball would leave c its own center
        D = [[0.0, 3.3664873108085995e-10, 8.1485728400713e-10, 3.1464883446059927e-09,
              3.692791921377546e-09],
             [3.3664873108085995e-10, 0.0, 6.970695865287357e-11, 3.625805701745393e-09,
              2.786923483663498e-09],
             [8.1485728400713e-10, 6.970695865287357e-11, 0.0, 3.4666573255871105e-09,
              3.2886550714411007e-09],
             [3.1464883446059927e-09, 3.625805701745393e-09, 3.4666573255871105e-09, 0.0,
              3.4508702378816706e-09],
             [3.692791921377546e-09, 2.786923483663498e-09, 3.2886550714411007e-09,
              3.4508702378816706e-09, 0.0]]
        sp = FiniteMetricSpace(list("abcde"), D)
        assert validate_ultrametric(sp).violation > 0
        fam = build_centers(sp)
        assert fam.maps[32]["c"] == "b"
        assert all(fam.maps[k] == plain_greedy(sp, k) for k in fam.levels)

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

    def test_verify_names_the_first_pair_the_upper_triangle_names(self):
        # at scale 2 on 0, 0.5, 1.5: centers too close, a map that expands,
        # and both on the pair 0, 0.5 when it goes to 0, 1.5
        line = RealLineSpace([0, 0.5, 1.5])
        cases = [(line, {0: 0, 0.5: 0.5, 1.5: 1.5}, "level -1: centers 0, 0.5 too close"),
                 (RealLineSpace([0, 1, 3]), {0: 0, 1: 3, 3: 3},
                  "level -1: map expands pair 0, 1"),
                 (line, {0: 0, 0.5: 1.5, 1.5: 1.5}, "level -1: centers 0, 1.5 too close")]
        cases = [(sp, CenterFamily((-1,), {-1: tau}), message) for sp, tau, message in cases]
        # one point of a level's map sent to another point
        rng = np.random.default_rng(0)
        for seed in range(60):
            sp = dendrogram_space(random_dendrogram(7, seed=seed))
            fam = build_centers(sp)
            k = fam.levels[seed % len(fam.levels)]
            tau = dict(fam.maps[k])
            p, q = (sp.points[i] for i in rng.choice(len(sp.points), 2))
            tau[p] = q
            cases.append((sp, CenterFamily((k,), {k: tau}), None))
        outcomes = []
        for space, family, message in cases:
            want = reference_center_check(space, family)
            assert message is None or want == message
            try:
                verify_center_family(space, family)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
            assert outcomes[-1] == want
        kinds = {o and o.split()[2] for o in outcomes}
        assert kinds == {None, "point", "centers", "map"}


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

    def test_reads_its_set_once(self):
        sp = dendrogram_space(random_dendrogram(6, seed=0))
        fam = build_centers(sp)
        p = sp.points[0]
        assert generic_retract(fam, iter([p]), 3, 2) == FSet([p])
        A = sp.points[:3]
        assert generic_retract(fam, iter(A), 3, 2) == generic_retract(fam, FSet(A), 3, 2)
        # the size check counts raw entries, repeats included
        for raw in ([p] * 4, iter(sp.points[:4])):
            with pytest.raises(ValueError, match="^set has 4 points, more than n=3$"):
                generic_retract(fam, raw, 3, 2)

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
        # 2 L^3 / b + 1 at the contraction constant 1 and scale base 1/2
        assert GENERIC_BOUND == 2 * 1.0 ** 3 / 0.5 + 1 == 5.0


def reference_generic_retract(family, A, n, m):
    # generic_retract before it counted centers: an FSet at every level
    pts = tuple(A)
    if len(pts) <= m:
        return A
    top = family.levels[-1]
    for k in reversed(family.levels):
        img = FSet(family.maps[k][p] for p in pts)
        if len(img) <= m:
            if k == top:
                raise LevelRangeError(
                    "level range is truncated above; cannot certify the maximal level")
            return img
    raise LevelRangeError("no level in range collapses the set to %d points" % m)


@pytest.mark.parametrize("seed", range(10))
def test_generic_retract_matches_the_per_level_fset_scan(seed):
    # trees of 10 to 40 leaves; X(4) on the small ones, X(3) or X(2) on the
    # large ones keeps the test to a few seconds
    leaves = 10 + 30 * seed // 9
    sp = dendrogram_space(random_dendrogram(leaves, seed=seed))
    fam = build_centers(sp)
    families = [fam, build_snowflake_plan(sp, 1.25).family,
                # the finest level already collapses, or no level ever does
                CenterFamily(fam.levels[:1], fam.maps), CenterFamily(fam.levels[-1:], fam.maps)]
    top_n = 4 if leaves <= 16 else 3 if leaves <= 26 else 2
    sets = enumerate_fsets(sp, top_n)
    errors = set()
    for family in families:
        for n in range(2, top_n + 1):
            for A in sets:
                if len(A) > n:
                    break
                for m in range(1, n):
                    outcomes = []
                    for retract in (generic_retract, reference_generic_retract):
                        try:
                            outcomes.append(retract(family, A, n, m))
                        except LevelRangeError as exc:
                            outcomes.append(str(exc))
                    assert outcomes[0] == outcomes[1], (A, n, m)
                    if isinstance(outcomes[0], str):
                        errors.add(outcomes[0].split(";")[0])
    assert errors == {"level range is truncated above"} | {
        "no level in range collapses the set to %d points" % m for m in range(1, top_n)}


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

    def test_power_of_a_non_ultrametric_fails_the_strong_triangle_check(self):
        # 0, 1, 2 to the power 8 breaks the triangle inequality as well; only
        # the strong one is checked
        sp = FiniteMetricSpace.from_coords([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="^space is not ultrametric; "):
            build_snowflake_plan(sp, 1.25)

    def test_powered_space_is_ultrametric(self):
        sp = dendrogram_space(random_dendrogram(8, seed=1))
        plan = build_snowflake_plan(sp, 1.5)
        assert validate_ultrametric(plan.powered).is_ultrametric

    def test_retract_lands_in_smaller_space(self):
        sp = dendrogram_space(random_dendrogram(6, seed=2))
        plan = build_snowflake_plan(sp, 1.25)
        A = FSet(sp.points[:3])
        out = generic_retract(plan.family, A, 3, 2)
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


def assert_pair_checks_reject(D, message):
    # the construction, with or without the triangle scan, raises the
    # message of the reference pair step
    points = ["a", "b", "c", "d"]
    with pytest.raises(ValueError, match="^%s$" % message):
        reference_pair_checks(points, D)
    for validate in (True, False):
        with pytest.raises(ValueError, match="^%s$" % message):
            FiniteMetricSpace(points, D, validate=validate)


def test_subdominant_keeps_the_pair_checks():
    # distinct points at distance 0 would stay at 0 under single linkage;
    # no such matrix reaches subdominant_ultrametric or disconnection_constant
    D = np.array([[0, 0, 2, 2], [0, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0.]])
    assert_pair_checks_reject(D, "non-positive distance between distinct points 'a', 'b'")


@pytest.mark.filterwarnings("error")
def test_pair_checks_name_the_pair_at_distance_zero():
    # the only zero lies between c and d, after the first two points
    D = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 0], [2, 2, 0, 0.]])
    assert_pair_checks_reject(D, "non-positive distance between distinct points 'c', 'd'")


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

    def test_chain_stays_under_the_bottleneck_on_skewed_clouds(self):
        # each entry below the diagonal one ulp larger than its mirror, as
        # two summation orders give; the space keeps the smaller, so the
        # report is the cloud's own, and the chain never needs the larger.
        # Both match the reference's dense ratio matrix and dense graph.
        for seed in range(200):
            cloud = random_clouds(1, 12, seed=seed)[0]
            D = cloud.dist.copy()
            lower = np.tril_indices(12, -1)
            D[lower] = np.nextafter(D[lower], np.inf)
            sp = FiniteMetricSpace(cloud.points, D)
            report = disconnection_constant(sp)
            assert astuple(report) == astuple(disconnection_constant(cloud))
            for space in (cloud, sp):
                assert reference_disconnection(space) == (
                    repr(report.constant), report.witness, report.chain)
            a, b = report.witness
            bottleneck = subdominant_ultrametric(sp).d(a, b)
            assert report.chain[0] == a and report.chain[-1] == b
            for u, v in zip(report.chain, report.chain[1:]):
                assert sp.d(u, v) <= bottleneck

    def test_ultrametric_space_has_constant_one(self):
        sp = dendrogram_space(random_dendrogram(6, seed=5))
        assert disconnection_constant(sp).constant == pytest.approx(1.0)

    def test_single_point(self):
        report = disconnection_constant(RealLineSpace([2.0]))
        assert report.constant == 1.0 and report.witness is None
