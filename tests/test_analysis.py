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
    median_retract,
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

from brute import (FamilyTable, family_table_block, reference_quasiconvexity,
                   reference_sampled_search)


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
        # earlier set first, in enumerate_fsets order, as the kernel reports it
        assert rep.witness == (FSet([11, 37]), FSet([11, 33, 37]))
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
        # a sampled search that could score no pair says why
        one = SubsetDomain.build(RealLineSpace([0.0]), 1, cap=0)
        with pytest.raises(ValueError, match="^domain must contain at least two subsets$"):
            estimate_constant(lambda A: A, one)
        dom = SubsetDomain.build(harmonic_space(40), 4)
        assert not dom.exhaustive
        for budget in (1, 0, -5):
            with pytest.raises(ValueError, match="^pair budget must be at least 2, got %d$"
                               % budget):
                estimate_constant(lambda A: delete_min_retract(A, 4), dom,
                                  pair_budget=budget)
        # exhaustive mode ignores the budget
        small = SubsetDomain.build(RealLineSpace([0.0, 1.0]), 1)
        assert estimate_constant(lambda A: A, small, pair_budget=0).constant == 1.0


def logged(f, log):
    """f, appending each set it is called on to ``log``."""
    def g(A):
        log.append(A)
        return f(A)
    return g


def tree_case(seed):
    tree = dendrogram_space(random_dendrogram(7, seed=seed))
    family = build_centers(tree)
    return tree, 3, lambda A: generic_retract(family, A, 3, 2)


def uniform_case(seed):
    points = np.round(np.random.default_rng(seed).uniform(0, 1, 7), 3).tolist()
    return RealLineSpace(points), 3, lambda A: line_retract(A, 3)


# domains whose sampled search, at a budget of a million pairs, scores them all
COMPLETE_SEARCHES = {
    "harmonic6-delete-min": lambda: (harmonic_space(6), 3, lambda A: delete_min_retract(A, 3)),
    "harmonic5-line": lambda: (harmonic_space(5), 3, lambda A: line_retract(A, 3)),
    "range6-line": lambda: (RealLineSpace(range(6)), 3, lambda A: line_retract(A, 3)),
    "range6-median": lambda: (RealLineSpace(range(6)), 3, lambda A: median_retract(A, 3)),
    "range5-identity": lambda: (RealLineSpace(range(5)), 2, lambda A: A),
    **{"uniform%d-line" % s: functools.partial(uniform_case, s) for s in range(6)},
    **{"tree%d-generic" % s: functools.partial(tree_case, s) for s in range(6)},
    # a float's ** puts each pair an ulp from the kernel: 9.26 ** 0.5 against
    # sqrt(9.26), and on AVX-512 CPUs 1.85 ** 0.75 against np.power(1.85, 0.75)
    "two-points-9.26": lambda: (RealLineSpace([0, 9.26]), 1, lambda A: line_retract(A, 1)),
    "two-points-1.85": lambda: (RealLineSpace([0, 1.85]), 1, lambda A: line_retract(A, 1)),
    # exact points that are not all floats: both searches round each exact
    # gap once, where rounding the points first put delete-min's constant on
    # the Fraction harmonic set at 7.0000000000000036 for the exact 7
    "fraction-harmonic8-delete-min": lambda: (
        RealLineSpace([Fraction(0)] + [Fraction(1, k) for k in range(1, 9)]), 3,
        lambda A: delete_min_retract(A, 3)),
    "thirds-median-n2": lambda: (
        RealLineSpace([Fraction(k, 3) for k in range(7)]), 2, lambda A: median_retract(A, 2)),
    "thirds-line-n3": lambda: (
        RealLineSpace([Fraction(k, 3) for k in range(7)]), 3, lambda A: line_retract(A, 3)),
    "mixed-line": lambda: (
        RealLineSpace([Fraction(k, 7) for k in range(0, 20, 3)] + [0.5, 1.5]), 3,
        lambda A: line_retract(A, 3)),
}


@pytest.mark.parametrize("case, beta", [
    (case, beta) for case in COMPLETE_SEARCHES if not case.startswith("two-points")
    for beta in (1.0, 0.5, 0.75, 0.3)] + [("two-points-9.26", 0.5), ("two-points-1.85", 0.75)])
def test_complete_sampled_search_reports_the_exhaustive_certificate(case, beta):
    # one pair rule: both searches divide by analysis._power, and among tied
    # pairs both name the least in enumerate_fsets order, earlier set first.
    # A covered budget runs the exhaustive kernel, so the pair-by-pair
    # reference, which scores every pair with hausdorff, is the other side
    space, n, f = COMPLETE_SEARCHES[case]()
    calls, ref_calls = [], []
    exhaustive = estimate_constant(f, SubsetDomain.build(space, n), hoelder_exponent=beta)
    sampled = estimate_constant(logged(f, calls), SubsetDomain.build(space, n, cap=1),
                                hoelder_exponent=beta, pair_budget=10 ** 6)
    c, w, pairs, stop = reference_sampled_search(space, n, beta, 0, 10 ** 6,
                                                 logged(f, ref_calls))
    assert (sampled.mode, exhaustive.mode) == ("sampled", "exhaustive")
    assert sampled.pairs_examined == exhaustive.pairs_examined == pairs
    assert repr(sampled.constant) == repr(exhaustive.constant) == repr(c)
    assert sampled.witness == exhaustive.witness == w
    assert sampled.stop_reason == stop == "stale"
    assert calls == ref_calls


@pytest.mark.parametrize("spare", [0, 1])
def test_covered_budget_scores_each_pair_once_whatever_the_seed(spare):
    # a budget of at least twice the 105 pairs covers the domain: the search
    # scores each pair once, maps the sets in enumerate_fsets order, and
    # draws nothing
    f = lambda A: delete_min_retract(A, 2)
    domain = SubsetDomain.build(harmonic_space(4), 2, cap=1)
    exhaustive = estimate_constant(f, SubsetDomain.build(harmonic_space(4), 2))
    calls = [[], []]
    reports = [estimate_constant(logged(f, log), domain, seed=seed, pair_budget=2 * 105 + spare)
               for seed, log in zip((0, 3), calls)]
    assert exhaustive.pairs_examined == 105
    assert calls[0] == calls[1] == enumerate_fsets(harmonic_space(4), 2)
    for rep in reports:
        assert rep.mode == "sampled"
        assert rep.pairs_examined == 105
        assert repr(rep.constant) == repr(exhaustive.constant)
        assert rep.witness == exhaustive.witness
    assert reports[0].stop_reason == reports[1].stop_reason


def dendrogram_case():
    tree = dendrogram_space(random_dendrogram(40, seed=5))
    family = build_centers(tree)
    return tree, 3, lambda A: generic_retract(family, A, 3, 2), 3, 1500


# (space, n, map, seed, budget) of searches whose points are not all floats,
# or that read a distance matrix.  On the Fraction harmonic set a scorer that
# turns points into floats reports other constants at all three exponents.
# The last two draw their sets from both of sample's branches: the bench's
# input from its rejection set, and n = 6 on 40 points from its pool at k = 6.
BATCH_SEARCHES = {
    "fraction-harmonic": lambda: (
        RealLineSpace([Fraction(0)] + [Fraction(1, k) for k in range(1, 11)]), 4,
        lambda A: delete_min_retract(A, 4), 1, 1000),
    "int": lambda: (RealLineSpace([0, 1, 3, 4, 9, 10, 15, 22, 23, 30, 41, 42]), 3,
                    lambda A: line_retract(A, 3), 2, 800),
    "mixed": lambda: (
        RealLineSpace([Fraction(k, 7) for k in range(0, 40, 3)] + [0.5 + k for k in range(6)]),
        3, lambda A: line_retract(A, 3), 4, 800),
    "lattice": lambda: (
        FiniteMetricSpace.from_coords([(float(x), float(y)) for x in range(6) for y in range(5)]),
        3, lambda A: delete_min_retract(A, 3), 1, 1500),
    "dendrogram": dendrogram_case,
    "harmonic160": lambda: (harmonic_space(160), 4, lambda A: delete_min_retract(A, 4),
                            166, 2000),
    "line40-n6": lambda: (RealLineSpace([k / 40 for k in range(40)]), 6,
                          lambda A: line_retract(A, 6), 7, 1500),
}


def test_draws_are_those_of_random_random():
    # N = 21, 22 and 85, 86 sit on either side of sample's switch from its
    # pool to its rejection set, at k <= 5 and at k = 6, where the switch moves
    branches = set()
    for seed in range(200):
        rng, draw = random.Random(seed), analysis._Draws(seed)
        for N in (1, 2, 13, 21, 22, 40, 85, 86, 161):
            seq = tuple(range(100, 100 + N))
            for k in range(1, min(8, N) + 1):
                setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
                branches.add((k > 5, N <= setsize))
                assert draw.sample(N, k) == rng.sample(range(N), k)
                assert 1 + draw.below(k) == rng.randint(1, k)
                assert seq[draw.below(N)] == rng.choice(seq)
                assert N // 3 + draw.below(N - N // 3) == rng.randrange(N // 3, N)
                assert draw.below(N) == rng.randrange(N)
                assert draw.random() == rng.random()
    assert branches == {(big, pool) for big in (False, True) for pool in (False, True)}


@pytest.mark.parametrize("beta", [1.0, 0.5, 0.75])
@pytest.mark.parametrize("case", sorted(BATCH_SEARCHES))
def test_batch_scoring_reports_what_pair_by_pair_scoring_does(case, beta):
    space, n, f, seed, budget = BATCH_SEARCHES[case]()
    calls, ref_calls = [], []
    rep = estimate_constant(logged(f, calls), SubsetDomain.build(space, n, cap=1),
                            hoelder_exponent=beta, seed=seed, pair_budget=budget)
    c, w, pairs, stop = reference_sampled_search(space, n, beta, seed, budget,
                                                 logged(f, ref_calls))
    assert (repr(rep.constant), rep.witness, rep.pairs_examined, rep.stop_reason) == \
        (repr(c), w, pairs, stop)
    # the map sees each set once, in the order the pair-by-pair search first needs it
    assert calls == ref_calls


def test_batch_scoring_raises_the_first_error_of_the_map():
    # the search stops at the first set whose image the map cannot give,
    # after the same calls as a pair-by-pair search
    def f(log):
        def g(A):
            log.append(A)
            if len(A) == 3 and A[1] > 0.3:
                raise RuntimeError("no image of %r" % (A,))
            return A
        return g

    space = harmonic_space(20)
    for seed in range(3):
        calls, ref_calls = [], []
        with pytest.raises(RuntimeError) as err:
            estimate_constant(f(calls), SubsetDomain.build(space, 3, cap=1), seed=seed,
                              pair_budget=400)
        with pytest.raises(RuntimeError) as ref_err:
            reference_sampled_search(space, 3, 1.0, seed, 400, f(ref_calls))
        assert str(err.value) == str(ref_err.value)
        assert calls == ref_calls


def lattice_with_stray_image():
    space = FiniteMetricSpace.from_coords([(float(x), float(y)) for x in range(3) for y in range(2)])
    return (space, FSet(space.points[1:3]), FSet([(9.0, 9.0)]), ValueError,
            "point (9.0, 9.0) is not in the space")


def line_with_empty_image():
    space = harmonic_space(8)
    return (space, FSet(space.points[2:4]), (), ValueError,
            "Hausdorff distance needs nonempty sets")


@pytest.mark.parametrize("case", [lattice_with_stray_image, line_with_empty_image])
def test_batch_scoring_raises_what_an_image_with_no_coordinates_raises(case):
    # one set maps off the lattice, or to no points on the line, and every
    # other set onto itself: the first pair that needs that image raises
    # hausdorff's error for it, with the image of its partner, after the
    # same calls as a pair-by-pair search
    space, odd, image, error, message = case()

    def f(log):
        def g(A):
            log.append(A)
            return image if A == odd else A
        return g

    for seed in range(4):
        calls, ref_calls = [], []
        with pytest.raises(error) as err:
            estimate_constant(f(calls), SubsetDomain.build(space, 2, cap=1), seed=seed,
                              pair_budget=300)
        with pytest.raises(error) as ref_err:
            reference_sampled_search(space, 2, 1.0, seed, 300, f(ref_calls))
        assert str(err.value) == str(ref_err.value) == message
        assert calls == ref_calls and odd in calls


def line_case(image):
    return (RealLineSpace([0.0, 0.5, 1.0, 2.0]), image,
            "Hausdorff distance needs nonempty sets")


def plane_case():
    space = FiniteMetricSpace.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    return (space, lambda A: FSet([(9.0, 9.0)]) if A == FSet([(1.0, 0.0)]) else A,
            "point (9.0, 9.0) is not in the space")


# (space, map, message) of maps with an image that no search can read.  Read
# as the next set's first point, an empty image would give the first case
# 2.0 at ({0.0}, {0.5}) and the second an IndexError
UNREADABLE_IMAGES = {
    "one-empty": lambda: line_case(lambda A: () if A == FSet((0.5,)) else A),
    "all-empty": lambda: line_case(lambda A: ()),
    "off-the-plane": plane_case,
}


# each space has 4 points, so at n = 2 the domain has 10 sets and 45 pairs
@pytest.mark.parametrize("cap, budget", [(None, 2), (1, 90), (1, 89)],
                         ids=["enumerated", "covered", "uncovered"])
@pytest.mark.parametrize("case", sorted(UNREADABLE_IMAGES))
def test_every_search_rejects_an_unreadable_image_by_one_rule(case, cap, budget):
    space, f, message = UNREADABLE_IMAGES[case]()
    domain = SubsetDomain.build(space, 2, cap=cap)
    assert domain.exhaustive == (cap is None)
    with pytest.raises(ValueError) as err:
        estimate_constant(f, domain, pair_budget=budget)
    assert str(err.value) == message


@pytest.mark.parametrize("values, exact", [
    ([0.0, 0.5, 1e300], True),
    ([np.float64(0.25), 1.0], True),
    ([0, 3, 2 ** 53], True),
    ([0.5, Fraction(1, 4), 7], True),
    ([0.5, Fraction(1, 3)], False),
    ([0, 2 ** 53 + 1], False),
    ([0, 10 ** 400], False),
])
def test_line_array_is_float64_only_where_every_point_is_a_float_exactly(values, exact):
    # one rule for line points in both searches: float64 when every value is
    # a float exactly, else Python's exact arithmetic in an object array
    arr = analysis._line_array(values)
    assert arr.dtype == (np.float64 if exact else object)
    assert arr.tolist() == values


def assert_kernel_matches_brute(f, sets, beta, space=None):
    # in lexicographic order the kernel's least (i, j) and the reference's
    # least (A, B) name the same witness among tied ratios
    sets = sorted(sets)
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


def skewed_lattice(side=3):
    # a matrix symmetric only within tolerance, as shortest paths summed in
    # two orders give: d(a, b) is one ulp larger when a comes first; the
    # space keeps the smaller of the two
    lattice = FiniteMetricSpace.from_coords([(x, y) for x in range(side) for y in range(side)])
    D = lattice.dist.copy()
    upper = np.triu_indices(len(D), 1)
    D[upper] = np.nextafter(D[upper], np.inf)
    sp = FiniteMetricSpace(lattice.points, D)
    assert not np.array_equal(D, D.T)
    assert sp.dist.tobytes() == np.minimum(D, D.T).tobytes()
    return sp


def test_pair_distances_keep_the_orientation_of_hausdorff():
    # the kernel reads each pair in one orientation, hausdorff in both
    sp = skewed_lattice()
    sets = enumerate_fsets(sp, 3)
    assert len(sets) == 129
    got = analysis._pair_distances(sets, sp)
    assert got.tolist() == [hausdorff(A, B, sp) for A, B in itertools.combinations(sets, 2)]
    assert got.tolist() == [hausdorff(B, A, sp) for A, B in itertools.combinations(sets, 2)]


@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("shape", ["first-two", "row-shift"])
def test_exhaustive_search_keeps_the_orientation_of_hausdorff(shape, beta):
    # exact reference: scalar hausdorff ratios, and the first maximum in
    # combinations order as the witness, on a matrix made symmetric
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
    # combinations order as the witness; a pair at distance 0, a set and
    # its repeat, has no ratio
    best, arg = -math.inf, None
    for A, B in itertools.combinations(sets, 2):
        d = hausdorff(A, B, space)
        if d > 0:
            r = hausdorff(f(A), f(B), space) / d ** beta
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
    table does not grow with the points its images land on.  A family over
    more than ``_BLOCK`` points, as the images here, keeps no table over
    all its sets, only each row block's own points."""

    def grid_families(self):
        sets = enumerate_fsets(unequal_grid(), 4)
        return sets, [line_retract(A, 4) for A in sets]

    def test_each_family_has_a_row_per_own_point(self):
        sets, images = self.grid_families()
        image_points = {float(p) for B in images for p in B}
        assert len(image_points) > analysis._BLOCK  # the images fall off the grid
        dom = analysis._PackedFamily(sets, None)
        img = analysis._PackedFamily(images, None)
        assert dom.table.shape == (14, len(sets)) and dom.blocks is None
        assert img.dist.tolist() == sorted(image_points)
        assert img.table is None
        assert len(img.blocks) == math.ceil(len(images) / analysis._BLOCK)
        for r0, (pts, rows) in zip(range(0, len(images), analysis._BLOCK), img.blocks):
            block = img.idx[r0:r0 + analysis._BLOCK]
            assert pts.tolist() == sorted(set(block.flat))
            assert (pts[rows] == block).all()

    def test_packing_peaks_near_two_tables(self):
        # a table over all 7,546 sets of harmonic K = 20 at n = 4 takes two
        # tables to build; in one-byte codes it is an eighth of the float64
        # table, and packing peaks within three float64 tables, what
        # building that table in floats did.  Row blocks build none, and pack
        # below the table that one block pair reads, (block points, _BLOCK)
        _, images = self.grid_families()
        for family in (enumerate_fsets(harmonic_space(20), 4), images):
            tracemalloc.start()
            try:
                fam = analysis._PackedFamily(family, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if fam.blocks is None:
                assert fam.table.dtype == np.uint8
                assert peak <= 3 * fam.table.size * 8
            else:
                assert peak <= max(len(pts) for pts, _ in fam.blocks) * analysis._BLOCK * 8

    def test_median_search_peaks_below_one_family_table(self):
        # the images of harmonic K = 16 at n = 4 land on 1,002 points: one
        # minima table over them and the 3,213 sets would be 25.7 MB
        sets = enumerate_fsets(harmonic_space(16), 4)
        tracemalloc.start()
        try:
            rep = estimate_constant(lambda A: median_retract(A, 4), sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(rep.constant) == "3.4999999999999996"
        assert peak < 1002 * 3213 * 8

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


def family_table_constant(f, sets, beta, space, monkeypatch):
    # the exhaustive search on the reference kernel: one minima table per
    # family over all its points and sets
    with monkeypatch.context() as m:
        m.setattr(analysis, "_PackedFamily", FamilyTable)
        m.setattr(analysis, "_hausdorff_block", family_table_block)
        return estimate_constant(f, sets, hoelder_exponent=beta, space=space)


def assert_same_report(fast, slow):
    assert (repr(fast.constant), fast.witness, fast.pairs_examined) == \
        (repr(slow.constant), slow.witness, slow.pairs_examined)


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("retract", [line_retract, median_retract])
@pytest.mark.parametrize("case", ["grid-3", "grid-4", "harmonic-12"])
def test_row_blocks_match_the_family_table_off_sample(case, retract, beta, monkeypatch):
    # every image family here lands on more than _BLOCK points; the scalar
    # reference takes about a second at n = 3 and ten at n = 4
    space, n = {"grid-3": (unequal_grid(), 3), "grid-4": (unequal_grid(), 4),
                "harmonic-12": (harmonic_space(12), 4)}[case]
    sets = enumerate_fsets(space, n)
    f = functools.cache(lambda A: retract(A, n))
    assert analysis._PackedFamily([f(A) for A in sets], None).blocks is not None
    fast = estimate_constant(f, sets, hoelder_exponent=beta)
    assert_same_report(fast, family_table_constant(f, sets, beta, None, monkeypatch))
    if n == 3:
        assert (fast.constant, fast.witness) == first_max_ratio(f, sets, beta, None)


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("shape", ["first-point", "row-shift"])
@pytest.mark.parametrize("skew", [False, True])
def test_row_blocks_match_the_family_table_on_a_finite_space(skew, shape, beta, monkeypatch):
    # 144 lattice points at n = 2: the singletons, and the neighbouring pairs
    # (diagonals included) whose first point has x < 2; two blocks of sets
    # over more than _BLOCK points
    sp = skewed_lattice(12)
    if not skew:
        sp = FiniteMetricSpace.from_coords(sp.points)
    sets = [A for A in enumerate_fsets(sp, 2)
            if len(A) == 1 or A[0][0] < 2 and sp.d(*A) < 1.5]
    assert len(sets) == 234
    shift = dict(zip(sp.points, sp.points[12:] + sp.points[:12]))
    f = {"first-point": lambda A: FSet(list(A)[:1]),
         "row-shift": lambda A: FSet(shift[p] for p in A)}[shape]
    assert analysis._PackedFamily(sets, sp).blocks is not None
    fast = estimate_constant(f, sets, hoelder_exponent=beta, space=sp)
    assert_same_report(fast, family_table_constant(f, sets, beta, sp, monkeypatch))
    assert (fast.constant, fast.witness) == first_max_ratio(f, sets, beta, sp)


def spread_line():
    # 24 points whose 276 gaps are all distinct: with the zero, 277 codes
    rng = random.Random(29)
    return RealLineSpace(sorted(round(rng.uniform(0, 100), 3) for _ in range(24)))


def repeated_set_domain():
    # an explicit domain holding one set twice: that pair is at distance 0
    sets = list(enumerate_fsets(harmonic_space(5), 2))
    sets.insert(4, sets[9])
    return None, sets, lambda A: delete_min_retract(A, 2)


def coded_case(space, n, f):
    return space, enumerate_fsets(space, n), f


CODED_CASES = {
    "uint16-line": lambda: coded_case(spread_line(), 2, lambda A: delete_min_retract(A, 2)),
    "fraction-line": lambda: coded_case(
        RealLineSpace([Fraction(k, 3) for k in range(7)] + [Fraction(1, 7)]), 3,
        lambda A: line_retract(A, 3)),
    "skewed-lattice": lambda: (lambda sp: (
        sp, enumerate_fsets(sp, 3),
        lambda A: FSet(dict(zip(sp.points, sp.points[3:] + sp.points[:3]))[p] for p in A)))(
        skewed_lattice()),
    # every ratio ties, at 1 for beta = 1 and at 0 for every beta: the skip
    # must keep the first pair
    "identity": lambda: coded_case(harmonic_space(8), 2, lambda A: A),
    "constant": lambda: coded_case(harmonic_space(8), 2, lambda A: FSet([0.0])),
    "repeated-set": repeated_set_domain,
}


@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("case", list(CODED_CASES))
def test_coded_kernel_matches_the_float_table_and_scalar_hausdorff(case, beta, monkeypatch):
    # the search on rank codes, ratios by lookup and the block skip, against
    # the float minima table with no skip, and against scalar hausdorff
    space, sets, f = CODED_CASES[case]()
    f = functools.cache(f)
    dom = analysis._PackedFamily(sets, space)
    assert dom.blocks is None and dom.vals[0] == 0.0
    if case == "uint16-line":
        assert len(dom.vals) == 277 and dom.table.dtype == np.uint16
    else:
        assert dom.table.dtype == np.uint8
    if case == "fraction-line":
        assert dom.dist.dtype == object
    fast = estimate_constant(f, sets, hoelder_exponent=beta, space=space)
    assert_same_report(fast, family_table_constant(f, sets, beta, space, monkeypatch))
    assert (fast.constant, fast.witness) == first_max_ratio(f, sets, beta, space)
    if case == "constant" or case == "identity" and beta == 1.0:
        assert fast.witness == (sets[0], sets[1])


@pytest.mark.parametrize("case", ["uint16-line", "fraction-line", "skewed-lattice"])
def test_pair_distances_read_codes_back_as_the_float_table(case):
    # the codes read through vals are the float table's distances, byte for byte
    space, sets, _ = CODED_CASES[case]()
    fam = FamilyTable(sets, space)
    forward = fam.table[fam.idx].max(axis=1)
    want = np.maximum(forward, forward.T)[np.triu_indices(len(sets), 1)]
    got = analysis._pair_distances(sets, space)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_thresholds_are_the_least_image_codes_that_reach_the_incumbent():
    # a scan of every (domain code, image code) pair for the least image code
    # whose ratio is at least best; code 0, the distance 0, is never reached
    rng = np.random.default_rng(3)
    for _ in range(40):
        vals = np.unique(rng.uniform(0, 3, rng.integers(1, 40)))
        pd = np.unique(np.concatenate([[0.0], rng.uniform(0.01, 2, 30)]))
        best = float(rng.choice(vals) / rng.choice(pd[1:]))
        thr = analysis._thresholds(vals, pd, best)
        for d, p in enumerate(pd):
            passing = [c for c in range(len(vals)) if d > 0 and vals[c] / p >= best]
            assert thr[d] == (passing[0] if passing else len(vals))


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

    def test_sparse_graph_matches_the_dense_one(self):
        # the parabola and the rug at five radii, the rug's at its own tied
        # edge lengths, and 20 random 60-point clouds at three radii
        from finset.generators import rickman_rug
        rug = rickman_rug(9)
        cases = [(parabola_space(1, 17), eps) for eps in (0.1, 0.13, 0.2, 0.3, 1.0)]
        cases += [(rug, eps) for eps in (0.125, 0.2, float(rug.dist[0, 1]), 0.4, 1.0)]
        rng = np.random.default_rng(3)
        for _ in range(20):
            cloud = FiniteMetricSpace.from_coords(rng.uniform(size=(60, 2)).tolist())
            cases += [(cloud, eps) for eps in (0.15, 0.2, 0.3)]
        connected = 0
        for sp, eps in cases:
            rep = quasiconvexity_constant(sp, eps)
            assert (repr(rep.constant), rep.witness, rep.connected) == (
                reference_quasiconvexity(sp, eps)), eps
            connected += rep.connected
        assert (len(cases), connected) == (70, 34)


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

    @staticmethod
    def walk_chain(L):
        # the chain as it was first built: w steps to 1/ceil(1/(w + x^2)),
        # each set through FSet's hash and sort
        L = Fraction(L)
        k, x, y, z = analysis._witness_parameters(L)
        zero = Fraction(0)
        xx = x * x
        chain = [FSet((zero, y, z))]
        w = zero
        while w < x:
            m = max(k ** 3, math.ceil(1 / (w + xx)))
            w = Fraction(1, m)
            chain.append(FSet((zero, w, y, z)))
        return chain

    @pytest.mark.parametrize("L", [1, 2, Fraction(3, 2), 5, 6])
    def test_chain_walked_in_integers_is_the_fraction_walk(self, L):
        w = lipschitz_obstruction_witness(L)
        chain = self.walk_chain(L)
        assert w.chain == tuple(chain)
        assert all(type(S) is FSet and all(type(e) is Fraction for e in S) for S in w.chain)
        assert (w.A, w.B) == (chain[0], chain[-1])
        assert w.max_step == max(hausdorff(a, b) for a, b in zip(chain, chain[1:]))

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
