"""Constant estimation, path machinery, and the exact obstruction witness."""

import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from finset import (
    FSet,
    FiniteMetricSpace,
    RealLineSpace,
    SampledPath,
    SubsetDomain,
    build_centers,
    check_displacement,
    decompose_path,
    delete_min_retract,
    enumerate_fsets,
    estimate_constant,
    generic_retract,
    hausdorff,
    line_retract,
    lipschitz_obstruction_witness,
    merge_curve,
    min_separation,
    qc_bounds,
    quasiconvexity_constant,
    split_gh,
    validate_obstruction_witness,
)
from finset import analysis
from finset.generators import (dendrogram_space, harmonic_space, parabola_space,
                               random_dendrogram)


def brute_best_ratio(f, sets, beta=1.0, d=None):
    # reference search: max ratio over all unordered pairs, first witness in
    # lexicographic order among the maximizers
    best, arg = -math.inf, None
    for A, B in itertools.combinations(sets, 2):
        dom = hausdorff(A, B) if d is None else hausdorff(A, B, d)
        if dom == 0:
            continue
        img = hausdorff(f(A), f(B)) if d is None else hausdorff(f(A), f(B), d)
        ratio = img / dom ** beta
        key = (tuple(A), tuple(B))
        if ratio > best + 1e-15 or (abs(ratio - best) <= 1e-15 and key < arg):
            best, arg = ratio, key
    return best, arg


class TestEstimateConstant:
    def test_matches_bruteforce_including_witness(self):
        sp = RealLineSpace([0.0, 0.3, 1.0, 2.2])
        dom = SubsetDomain.build(sp, 3)
        f = lambda A: line_retract(A, 3)
        for beta in (1.0, 0.5):
            rep = estimate_constant(f, dom, hoelder_exponent=beta)
            best, arg = brute_best_ratio(f, dom.sets, beta)
            assert rep.constant == pytest.approx(best, rel=1e-12)
            assert (tuple(rep.witness[0]), tuple(rep.witness[1])) == arg
            assert rep.mode == "exhaustive"
            assert rep.pairs_examined == len(dom.sets) * (len(dom.sets) - 1) // 2

    def test_truncated_harmonic_frozen(self):
        dom = SubsetDomain.build(harmonic_space(10), 4)
        rep = estimate_constant(lambda A: delete_min_retract(A, 4), dom)
        assert rep.kind == "lipschitz"
        assert rep.constant == pytest.approx(9.0, rel=1e-9)
        assert rep.stop_reason == "exhaustive"
        sqrt_rep = estimate_constant(lambda A: delete_min_retract(A, 4), dom,
                                     hoelder_exponent=0.5)
        assert sqrt_rep.kind == "hoelder"
        assert sqrt_rep.constant == pytest.approx(1.0, rel=1e-9)

    def test_finite_space_domain(self):
        sp = FiniteMetricSpace.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        dom = SubsetDomain.build(sp, 2)
        rep = estimate_constant(lambda A: A, dom)
        assert rep.constant == pytest.approx(1.0)

    def test_explicit_sequence_domain(self):
        sets = [FSet((0.0, 1.0)), FSet((0.0, 2.0)), FSet((5.0,))]
        rep = estimate_constant(lambda A: FSet(2 * x for x in A), sets)
        assert rep.constant == pytest.approx(2.0)

    def test_sampled_mode_is_deterministic_lower_bound(self):
        sp = harmonic_space(10)
        small = SubsetDomain.build(sp, 4, cap=10)  # forces sampling
        assert not small.exhaustive
        f = lambda A: delete_min_retract(A, 4)
        rep1 = estimate_constant(f, small, seed=5, pair_budget=3000)
        rep2 = estimate_constant(f, small, seed=5, pair_budget=3000)
        assert rep1.mode == "sampled"
        assert rep1.constant == rep2.constant and rep1.witness == rep2.witness
        # the hill climb runs out of new pairs at 1,631 of 3,000
        assert (rep1.pairs_examined, rep1.stop_reason) == (1631, "stale")
        assert rep1.constant <= 9.0 + 1e-9

    def test_sampled_finds_extremal_pair_here(self):
        small = SubsetDomain.build(harmonic_space(10), 4, cap=10)
        rep = estimate_constant(lambda A: delete_min_retract(A, 4), small,
                                seed=0, pair_budget=4000)
        assert rep.constant == pytest.approx(9.0, rel=1e-6)

    def test_sampled_on_tuple_points(self):
        # a 6 x 5 lattice: points are coordinate tuples, sorted as tuples
        lattice = FiniteMetricSpace.from_coords(
            [(float(x), float(y)) for x in range(6) for y in range(5)])
        dom = SubsetDomain.build(lattice, 3, cap=10)
        rep = estimate_constant(lambda A: delete_min_retract(A, 3), dom,
                                seed=1, pair_budget=3000)
        assert repr(rep.constant) == "5.656854249492381"
        assert rep.witness == (FSet([(0.0, 0.0), (4.0, 3.0)]),
                               FSet([(0.0, 0.0), (4.0, 4.0), (5.0, 3.0)]))
        assert (rep.pairs_examined, rep.stop_reason) == (1796, "stale")

    def test_sampled_on_integer_points(self):
        # a 40-leaf dendrogram lists its integer leaves in tree order
        tree = dendrogram_space(random_dendrogram(40, seed=5))
        family = build_centers(tree)
        dom = SubsetDomain.build(tree, 3, cap=10)
        rep = estimate_constant(lambda A: generic_retract(family, A, 3, 2), dom,
                                hoelder_exponent=0.5, seed=3, pair_budget=3000)
        assert repr(rep.constant) == "1.2834355260239558"
        assert rep.witness == (FSet([11, 33, 37]), FSet([11, 37]))
        assert (rep.pairs_examined, rep.stop_reason) == (1740, "stale")

    def test_invalid_exponent(self):
        dom = SubsetDomain.build(RealLineSpace([0.0, 1.0]), 2)
        for beta in (0.0, 1.5, -1.0):
            with pytest.raises(ValueError):
                estimate_constant(lambda A: A, dom, hoelder_exponent=beta)

    def test_degenerate_domain(self):
        with pytest.raises(ValueError):
            estimate_constant(lambda A: A, [FSet((0.0,))])
        with pytest.raises(ValueError, match="distance 0"):
            estimate_constant(lambda A: A, [FSet((0.0,)), FSet((0.0,))])


def assert_kernel_matches_brute(f, sets, beta, space=None):
    # in lexicographic order the kernel's least (i, j) and the reference's
    # least (A, B) name the same witness among tied ratios
    sets = sorted(sets, key=lambda S: S.elements)
    rep = estimate_constant(f, sets, hoelder_exponent=beta, space=space)
    best, arg = brute_best_ratio(functools.lru_cache(maxsize=None)(f), sets, beta, space)
    assert rep.mode == "exhaustive"
    assert rep.constant == pytest.approx(best, rel=1e-12)
    assert (tuple(rep.witness[0]), tuple(rep.witness[1])) == arg
    assert rep.pairs_examined == len(sets) * (len(sets) - 1) // 2


@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
class TestExhaustiveKernel:
    """The blocked Hausdorff kernel against pair-by-pair brute force.

    Every domain mixes set sizes 1 to 3, so padded rows are exercised.
    """

    def test_fraction_points_within_one_block(self, beta):
        sp = RealLineSpace([Fraction(0)] + [Fraction(1, k) for k in range(1, 8)])
        sets = enumerate_fsets(sp, 3)
        assert len(sets) == 92
        assert_kernel_matches_brute(lambda A: delete_min_retract(A, 3), sets, beta)

    def test_several_blocks_with_ties_across_blocks(self, beta):
        # 298 = 2 * 128 + 42 sets; at beta = 1 the constant 5 is attained by
        # 53 pairs spread over five pairs of blocks
        sp = RealLineSpace([k / 8 for k in range(12)])
        sets = enumerate_fsets(sp, 3)
        assert len(sets) == 298
        assert_kernel_matches_brute(lambda A: line_retract(A, 3), sets, beta)

    def test_lattice_space_one_set_past_a_block(self, beta):
        sp = FiniteMetricSpace.from_coords([(x, y) for x in range(3) for y in range(3)])
        sets = enumerate_fsets(sp, 3)
        assert len(sets) == 129
        shift = dict(zip(sp.points, sp.points[3:] + sp.points[:3]))
        assert_kernel_matches_brute(lambda A: FSet(list(A)[:2]), sets, beta, sp)
        assert_kernel_matches_brute(lambda A: FSet(shift[p] for p in A), sets, beta, sp)


def skewed_lattice():
    # a matrix symmetric only within tolerance, as shortest paths summed in
    # two orders give: d(a, b) is one ulp larger when a comes first
    lattice = FiniteMetricSpace.from_coords([(x, y) for x in range(3) for y in range(3)])
    D = lattice.dist.copy()
    upper = np.triu_indices(len(D), 1)
    D[upper] = np.nextafter(D[upper], np.inf)
    return FiniteMetricSpace(lattice.points, D)


def test_pair_distances_keep_the_orientation_of_hausdorff():
    sp = skewed_lattice()
    sets = enumerate_fsets(sp, 3)
    assert len(sets) == 129
    got = analysis._pair_distances(sets, sp)
    assert got.tolist() == [hausdorff(A, B, sp) for A, B in itertools.combinations(sets, 2)]


@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("shape", ["first-two", "row-shift"])
def test_exhaustive_search_keeps_the_orientation_of_hausdorff(shape, beta):
    # exact reference: scalar hausdorff ratios, and the first maximum in
    # combinations order as the witness; a one-ulp difference must show
    sp = skewed_lattice()
    sets = enumerate_fsets(sp, 3)
    shift = dict(zip(sp.points, sp.points[3:] + sp.points[:3]))
    f = {"first-two": lambda A: FSet(list(A)[:2]),
         "row-shift": lambda A: FSet(shift[p] for p in A)}[shape]
    best, arg = -math.inf, None
    for A, B in itertools.combinations(sets, 2):
        r = hausdorff(f(A), f(B), sp) / hausdorff(A, B, sp) ** beta
        if r > best:
            best, arg = r, (A, B)
    rep = estimate_constant(f, sets, hoelder_exponent=beta, space=sp)
    assert rep.constant == best
    assert rep.witness == arg


def first_max_ratio(f, sets, beta, space):
    # exact reference: scalar hausdorff ratios, and the first maximum in
    # combinations order as the witness
    best, arg = -math.inf, None
    for A, B in itertools.combinations(sets, 2):
        r = hausdorff(f(A), f(B), space) / hausdorff(A, B, space) ** beta
        if r > best:
            best, arg = r, (A, B)
    return best, arg


def unequal_grid():
    # 14 points with gaps drawn in [0.05, 1.5], rounded to 0.01
    rng = random.Random(41)
    grid = [0.0]
    for _ in range(13):
        grid.append(round(grid[-1] + rng.uniform(0.05, 1.5), 2))
    return RealLineSpace(grid)


class TestPackedFamily:
    """Each family is packed over its own points, so the domain's minima
    table does not grow with the points its images land on."""

    def grid_families(self):
        sets = enumerate_fsets(unequal_grid(), 4)
        return sets, [line_retract(A, 4) for A in sets]

    def test_each_family_has_a_row_per_own_point(self):
        sets, images = self.grid_families()
        image_points = {float(p) for B in images for p in B}
        assert len(image_points) > 14  # the images fall off the grid
        dom = analysis._PackedFamily(sets, None)
        img = analysis._PackedFamily(images, None)
        assert dom.bwd.shape == (14, len(sets))
        assert img.bwd.shape == (len(image_points), len(images))

    def test_packing_peaks_near_two_tables(self):
        _, images = self.grid_families()
        tracemalloc.start()
        try:
            fam = analysis._PackedFamily(images, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * fam.bwd.nbytes

    def test_line_retract_on_the_grid_matches_scalar_hausdorff(self):
        # n = 3 keeps the scalar reference near a second (n = 4 takes ten)
        sets = enumerate_fsets(unequal_grid(), 3)
        f = functools.lru_cache(maxsize=None)(lambda A: line_retract(A, 3))
        assert {float(p) for A in sets for p in f(A)} - set(unequal_grid().points)
        best, arg = first_max_ratio(f, sets, 1.0, None)
        rep = estimate_constant(f, sets)
        assert rep.constant == best
        assert rep.witness == arg

    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_images_on_points_no_domain_set_uses(self, beta):
        # the domain uses the first two rows of the lattice and its images
        # the last two, so the two families are packed over different points
        sp = skewed_lattice()
        sets = [A for A in enumerate_fsets(sp, 3) if set(A) <= set(sp.points[:6])]
        shift = dict(zip(sp.points, sp.points[3:] + sp.points[:3]))
        f = lambda A: FSet(shift[p] for p in A)
        best, arg = first_max_ratio(f, sets, beta, sp)
        rep = estimate_constant(f, sets, hoelder_exponent=beta, space=sp)
        assert rep.constant == best
        assert rep.witness == arg


class _MaskedPowerNumpy:
    """numpy, but with the square root taken by the masked power that the
    exhaustive kernel used for every beta < 1 before it used np.sqrt."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sqrt(x):
        return np.power(x, 0.5, out=np.ones_like(x), where=x > 0)


@pytest.mark.parametrize("case", ["harmonic", "skewed-lattice"])
def test_square_root_kernel_matches_the_masked_power(case, monkeypatch):
    if case == "harmonic":
        sp, sets = None, enumerate_fsets(harmonic_space(16), 4)
        f = lambda A: delete_min_retract(A, 4)
    else:
        sp = skewed_lattice()
        sets = enumerate_fsets(sp, 3)
        f = lambda A: FSet(list(A)[:2])
    fast = estimate_constant(f, sets, hoelder_exponent=0.5, space=sp)
    monkeypatch.setattr(analysis, "np", _MaskedPowerNumpy())
    slow = estimate_constant(f, sets, hoelder_exponent=0.5, space=sp)
    assert repr(fast.constant) == repr(slow.constant)
    assert fast.witness == slow.witness
    assert fast.pairs_examined == slow.pairs_examined


class TestCheckDisplacement:
    def test_line_retract_obeys_tight_factor(self):
        dom = SubsetDomain.build(RealLineSpace([0.0, 0.5, 1.7, 3.0]), 3)
        rep = check_displacement(lambda A: line_retract(A, 3), dom, 1, 3, factor=2)
        assert rep.ok
        assert rep.max_ratio <= 1.0 + 1e-12
        assert rep.factor == 2.0

    def test_identity_has_zero_ratio(self):
        dom = SubsetDomain.build(RealLineSpace([0.0, 1.0, 2.0]), 2)
        rep = check_displacement(lambda A: A, dom, 1, 2)
        assert rep.ok and rep.max_ratio == 0.0

    def test_translation_fails_on_small_sets(self):
        dom = SubsetDomain.build(RealLineSpace([0.0, 1.0, 2.0]), 2)
        rep = check_displacement(lambda A: FSet(x + 1 for x in A), dom, 1, 2)
        assert not rep.ok
        assert rep.max_ratio == math.inf
        assert len(rep.worst) < 2  # a zero-separation set moved

    def test_needs_enumerated_domain(self):
        big = SubsetDomain.build(harmonic_space(40), 4, cap=10)
        with pytest.raises(ValueError):
            check_displacement(lambda A: A, big, 1, 4)


class TestSampledPath:
    def test_from_samples_lipschitz(self):
        p = SampledPath.from_samples((0.0, 1.0, 2.0),
                                     [FSet((0.0,)), FSet((2.0,)), FSet((3.0,))])
        assert p.lipschitz == 2.0
        assert p.span() == 2.0
        assert p.max_step() == 2.0
        assert p.cardinalities() == {1}

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledPath((0.0, 0.0), (FSet((1.0,)), FSet((2.0,))), 1.0)
        with pytest.raises(ValueError):
            SampledPath((0.0,), (), 1.0)


def two_cluster_path(drift=0.02, gap=10.0, steps=10):
    # two tight clusters moving rigidly; the path is (2 * drift)-Lipschitz
    grid = tuple(i / steps for i in range(steps + 1))
    values = [FSet((0.0 + drift * t, 0.1 + drift * t,
                    gap - drift * t, gap + 0.1 - drift * t)) for t in grid]
    return SampledPath.from_samples(grid, values)


class TestSplitGH:
    def test_reproduces_and_inherits_lipschitz(self):
        # L is the hypothesis constant; it may exceed the sampled one
        f = two_cluster_path()
        g, h = split_gh(f, 0.0, FSet((0.0, 0.1)), L=0.2)
        for gv, hv, fv in zip(g.values, h.values, f.values):
            assert FSet(tuple(gv) + tuple(hv)) == fv
        assert g.lipschitz <= 0.2 + 1e-12
        assert h.lipschitz <= 0.2 + 1e-12

    def test_bad_anchor_parameter(self):
        f = two_cluster_path()
        with pytest.raises(ValueError, match="grid"):
            split_gh(f, 0.123, FSet((0.0, 0.1)))

    def test_e_not_subset(self):
        f = two_cluster_path()
        with pytest.raises(ValueError, match="subset"):
            split_gh(f, 0.0, FSet((7.0,)))

    def test_e_not_maximal(self):
        # the other point of the near cluster could still be added to E
        f = two_cluster_path()
        with pytest.raises(ValueError, match="maximal"):
            split_gh(f, 0.0, FSet((0.0,)), L=0.2)

    def test_diameter_precondition(self):
        grid = (0.0, 1.0)
        values = [FSet((0.0, 0.1)), FSet((0.5, 0.6))]
        f = SampledPath.from_samples(grid, values)
        with pytest.raises(ValueError, match="diam"):
            split_gh(f, 0.0, FSet((0.0,)))


class TestDecomposePath:
    def test_recovers_branches_exactly(self):
        grid = tuple(i / 100 for i in range(101))
        branch_a = [float(t) for t in grid]
        branch_b = [5.0 - 2.0 * t for t in grid]
        f = SampledPath.from_samples(grid, [FSet((a, b)) for a, b in
                                            zip(branch_a, branch_b)])
        parts = decompose_path(f)
        assert len(parts) == 2
        recovered = sorted(tuple(p.values[i])[0] for p in parts for i in (0,))
        assert recovered == sorted((branch_a[0], branch_b[0]))
        for p in parts:
            vals = [tuple(v)[0] for v in p.values]
            assert vals == branch_a or vals == branch_b

    def test_singleton_path_passes_through(self):
        f = SampledPath.from_samples((0.0, 1.0), [FSet((0.0,)), FSet((1.0,))])
        assert decompose_path(f) == (f,)

    def test_cardinality_drop_detected(self):
        f = SampledPath.from_samples((0.0, 1.0), [FSet((0.0, 1.0)), FSet((0.5,))])
        with pytest.raises(ValueError, match="cardinality"):
            decompose_path(f)

    def test_coarse_step_detected(self):
        f = SampledPath.from_samples((0.0, 1.0),
                                     [FSet((0.0, 1.0)), FSet((0.4, 1.4))])
        with pytest.raises(ValueError, match="step"):
            decompose_path(f)


class TestMergeCurve:
    def test_tight_pair_is_exactly_twice(self):
        grid = tuple(i / 8 for i in range(9))
        gamma = SampledPath.from_samples(grid, [FSet((-1.0 + t, 1.0 - t))
                                                for t in grid])
        out = merge_curve(gamma)
        assert out.gamma_length == pytest.approx(1.0, abs=1e-12)
        assert out.length == pytest.approx(2.0 * out.gamma_length, abs=1e-9)
        assert out.points[0] == -1.0 and out.points[-1] == 1.0

    def test_random_collapsing_pairs_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            steps = 12
            u, v = -1.0, 1.0
            vals = [FSet((u, v))]
            for i in range(steps):
                if i == steps - 1:
                    u = v = 0.5 * (u + v)
                else:
                    u += rng.uniform(-0.1, 0.1)
                    v += rng.uniform(-0.1, 0.1)
                    if abs(u - v) < 1e-6:
                        v = u
                vals.append(FSet((u, v)))
            gamma = SampledPath.from_samples([i / steps for i in range(steps + 1)],
                                             vals)
            out = merge_curve(gamma)
            assert out.length <= 2.0 * out.gamma_length + 1e-9

    def test_initial_singleton_is_trivial(self):
        gamma = SampledPath.from_samples((0.0, 1.0), [FSet((3.0,)), FSet((4.0,))])
        out = merge_curve(gamma)
        assert out.length == 0.0 and out.points == (3.0,)

    def test_no_collapse_raises(self):
        gamma = SampledPath.from_samples((0.0, 1.0),
                                         [FSet((0.0, 1.0)), FSet((0.2, 1.2))])
        with pytest.raises(ValueError, match="singleton"):
            merge_curve(gamma)

    def test_triples_rejected(self):
        gamma = SampledPath.from_samples((0.0, 1.0),
                                         [FSet((0.0, 1.0, 2.0)), FSet((0.0,))])
        with pytest.raises(ValueError, match="two"):
            merge_curve(gamma)


class TestQcBounds:
    def test_frozen_at_one(self):
        b = qc_bounds(1)
        assert b.r == 1.0 / 1536
        assert b.M == 16.0

    def test_frozen_at_two(self):
        b = qc_bounds(2)
        assert b.r == 1.0 / (48 * 3 ** 5)
        assert b.M == 144.0

    def test_monotonicity(self):
        rs = [qc_bounds(L).r for L in (1, 2, 3, 5, 8)]
        ms = [qc_bounds(L).M for L in (1, 2, 3, 5, 8)]
        assert all(b < a for a, b in zip(rs, rs[1:]))
        assert all(b > a for a, b in zip(ms, ms[1:]))

    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            qc_bounds(0.5)


class TestQuasiconvexity:
    def test_segment_is_exactly_convex(self):
        sp = RealLineSpace([i / 10 for i in range(11)])
        rep = quasiconvexity_constant(sp, 0.15)
        assert rep.constant == pytest.approx(1.0, abs=1e-12)
        assert rep.connected

    def test_parabola_frozen(self):
        values = {}
        for T, N in ((1, 17), (2, 33)):
            sp = parabola_space(T, N)
            step = max(sp.dist[i, i + 1] for i in range(N - 1))
            values[T] = quasiconvexity_constant(sp, 1.01 * step).constant
        assert values[1] == pytest.approx(1.475999, abs=1e-5)
        assert values[2] == pytest.approx(2.316175, abs=1e-5)
        assert values[2] > values[1]

    def test_disconnection_reports_gap_pair(self):
        pts = [0.0, 0.05, 0.1, 0.5, 0.55, 0.6]
        rep = quasiconvexity_constant(RealLineSpace(pts), 0.07)
        assert not rep.connected and rep.constant == math.inf
        assert rep.witness == (0.1, 0.5)

    def test_single_point(self):
        rep = quasiconvexity_constant(RealLineSpace([1.0]), 0.5)
        assert rep.constant == 1.0 and rep.connected


class TestObstructionWitness:
    FROZEN = {1: (4, 77), 2: (6, 257), 5: (12, 2047)}

    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_frozen_parameters(self, L):
        w = lipschitz_obstruction_witness(L)
        k, chain_len = self.FROZEN[L]
        assert w.k == k
        assert len(w.chain) == chain_len
        assert w.x == Fraction(1, k ** 3)
        assert w.y == Fraction(1, k ** 2 + 1)
        assert w.z == Fraction(1, k ** 2)
        assert w.max_step == w.x ** 2

    @pytest.mark.parametrize("L", [1, 2, 5, Fraction(3, 2)])
    def test_validator_passes(self, L):
        assert validate_obstruction_witness(lipschitz_obstruction_witness(L))

    def test_fractional_l(self):
        w = lipschitz_obstruction_witness(Fraction(3, 2))
        assert w.k == 5 and len(w.chain) == 149

    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            lipschitz_obstruction_witness(Fraction(1, 2))

    def test_validator_catches_wrong_max_step(self):
        w = lipschitz_obstruction_witness(1)
        bad = dataclasses.replace(w, max_step=w.max_step / 2)
        with pytest.raises(ValueError, match="max step"):
            validate_obstruction_witness(bad)

    def test_validator_catches_truncated_chain(self):
        w = lipschitz_obstruction_witness(1)
        bad = dataclasses.replace(w, chain=w.chain[:-1])
        with pytest.raises(ValueError, match="end"):
            validate_obstruction_witness(bad)

    def test_validator_catches_oversized_jump(self):
        w = lipschitz_obstruction_witness(1)
        thinned = w.chain[:1] + w.chain[2:]  # drop one interior set
        bad = dataclasses.replace(w, chain=thinned)
        with pytest.raises(ValueError):
            validate_obstruction_witness(bad)

    def test_validator_requires_exact_arithmetic(self):
        w = lipschitz_obstruction_witness(1)
        bad = dataclasses.replace(w, x=float(w.x))
        with pytest.raises(ValueError, match="rational"):
            validate_obstruction_witness(bad)
