"""Metric transforms, products, gluings, and quasihomogeneous moduli."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from finset import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    FSet,
    FiniteMetricSpace,
    MetricTransform,
    QhModulus,
    RealLineSpace,
    SubsetDomain,
    apply_transform,
    check_induced_qh,
    delete_min_retract,
    enumerate_fsets,
    estimate_constant,
    estimate_qh_modulus,
    hausdorff,
    induced_subset_map,
    product_space,
    rescale,
    transforms,
    transport_constant,
)

from brute import reference_transport_constant


class TestMetricTransform:
    def test_power_call(self):
        phi = MetricTransform("power", alpha=0.5)
        assert phi(4.0) == 2.0
        assert np.allclose(phi(np.array([1.0, 9.0])), [1.0, 3.0])

    def test_power_validation(self):
        with pytest.raises(ValueError):
            MetricTransform("power", alpha=0.0)

    def test_table_interpolation_and_extension(self):
        phi = MetricTransform("table", table=((0, 0), (1, 2), (2, 3)))
        assert phi(0.5) == 1.0
        assert phi(1.5) == 2.5
        assert phi(3.0) == 4.0  # linear continuation with the last slope

    def test_table_validation(self):
        with pytest.raises(ValueError, match="start"):
            MetricTransform("table", table=((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="increasing"):
            MetricTransform("table", table=((0, 0), (1, 1), (1, 2)))
        with pytest.raises(ValueError, match="nondecreasing"):
            MetricTransform("table", table=((0, 0), (1, 2), (2, 1)))
        with pytest.raises(ValueError, match="kind"):
            MetricTransform("sigmoid")

    def test_json_roundtrip(self):
        for phi in (MetricTransform("power", alpha=0.25),
                    MetricTransform("table", table=((0, 0), (2, 5)))):
            assert MetricTransform.from_json(phi.to_json()) == phi

    def test_from_json_names_an_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown transform kind: 'log'$"):
            MetricTransform.from_json({"kind": "log"})

    def test_constructor_names_an_unknown_kind_as_from_json_does(self):
        with pytest.raises(ValueError, match="^unknown transform kind: 'sigmoid'$"):
            MetricTransform("sigmoid")

    def test_apply_snowflake_frozen(self):
        sp = RealLineSpace([0.0, 1.0, 4.0])
        out = apply_transform(sp, MetricTransform("power", alpha=0.5))
        assert sorted(set(out.dist[out.dist > 0])) == pytest.approx(
            [1.0, math.sqrt(3), 2.0])

    def test_apply_rejects_convex_power_on_line(self):
        sp = RealLineSpace([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="triangle"):
            apply_transform(sp, MetricTransform("power", alpha=2.0))

    def test_doubling_ratio_of_power(self):
        phi = MetricTransform("power", alpha=0.5)
        assert transport_constant(phi, 2, [0.1, 1.0, 7.0]) == pytest.approx(math.sqrt(2))

    def test_transport_constant_of_power(self):
        # sqrt transform turns a 2-Lipschitz bound into sqrt(2)
        phi = MetricTransform("power", alpha=0.5)
        assert transport_constant(phi, 2.0, [0.5, 1.0, 3.0]) == pytest.approx(
            math.sqrt(2))

    def test_transport_constant_table(self):
        phi = MetricTransform("table", table=((0, 0), (1, 1), (10, 1.5)))
        got = transport_constant(phi, 10.0, [1.0])
        assert got == pytest.approx(1.5)


# power and table transforms; the table's distances run past its last knot
TRANSPORT_PHIS = {
    "power-0.5": MetricTransform("power", alpha=0.5),
    "power-0.37": MetricTransform("power", alpha=0.37),
    "table": MetricTransform("table", table=((0, 0), (0.2, 0.5), (0.6, 0.8))),
}


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("phi", sorted(TRANSPORT_PHIS))
def test_transport_constant_on_the_array_is_the_loop_over_distances(phi, L):
    pts = np.random.default_rng(3).uniform(0, 1, (60, 2))
    space = FiniteMetricSpace.from_coords([tuple(p) for p in pts])
    d = space.dist[np.triu_indices(60, 1)]
    phi = TRANSPORT_PHIS[phi]
    assert repr(transport_constant(phi, L, d)) == repr(reference_transport_constant(phi, L, d))


def test_transport_constant_edge_cases_match_the_loop():
    flat = MetricTransform("table", table=((0, 0), (0.5, 0), (1, 1)))
    root = MetricTransform("power", alpha=0.5)
    for phi, distances, want in ((flat, [2.0, 0.3, 0.0], math.inf), (root, [0.0, 0.0], 0.0),
                                 (root, [], 0.0), (root, [-1.0, 4.0], math.sqrt(2))):
        got = transport_constant(phi, 2, distances)
        assert repr(got) == repr(reference_transport_constant(phi, 2, distances)) == repr(want)


class TestRescale:
    def test_scales_distances(self):
        sp = RealLineSpace([0.0, 1.0, 3.0])
        out = rescale(sp, 0.5)
        assert out.d(0.0, 3.0) == 1.5

    def test_rejects_nonpositive(self):
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                rescale(RealLineSpace([0.0, 1.0]), eps)
        # a distance that underflows to 0 fails the pair checks
        with pytest.raises(ValueError,
                           match="^non-positive distance between distinct points 0.0, 0.4$"):
            rescale(RealLineSpace([0.0, 0.4]), 5e-324)

    def test_lipschitz_constant_invariant(self):
        sp = RealLineSpace([0.0, 0.3, 1.0, 2.0])
        f = lambda A: delete_min_retract(A, 3)
        base = estimate_constant(f, SubsetDomain.build(sp, 3))
        scaled_space = rescale(sp, 7.0)
        scaled = estimate_constant(
            lambda A: FSet(scaled_space.points[sp.points.index(p)] for p in f(A)),
            SubsetDomain.build(scaled_space, 3), space=scaled_space)
        assert scaled.constant == pytest.approx(base.constant, rel=1e-9)


class TestProductAndUnion:
    def test_product_max_metric(self):
        X = RealLineSpace([0.0, 1.0])
        Y = RealLineSpace([0.0, 2.0])
        P = product_space(X, Y)
        assert len(P.points) == 4
        assert P.d((0.0, 0.0), (1.0, 2.0)) == 2.0
        assert P.d((0.0, 0.0), (1.0, 0.0)) == 1.0

    def test_product_slices_are_isometric(self):
        X = RealLineSpace([0.0, 0.7, 1.5])
        Y = RealLineSpace([0.0, 4.0])
        P = product_space(X, Y)
        for y in Y.points:
            for a, b in itertools.combinations(X.points, 2):
                assert P.d((a, y), (b, y)) == X.d(a, b)

    def test_product_satisfies_triangle(self):
        P = product_space(RealLineSpace([0.0, 1.0, 2.5]),
                          RealLineSpace([0.0, 0.3]))
        FiniteMetricSpace(P.points, P.dist)  # revalidates



class TestInducedMaps:
    def test_elementwise_application(self):
        out = induced_subset_map(lambda x: 2 * x, FSet((1.0, 3.0)))
        assert out == FSet((2.0, 6.0))

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError, match="injective"):
            induced_subset_map(lambda x: 0.0, FSet((1.0, 2.0)))



class TestQhModulus:
    def test_linear_and_power(self):
        assert QhModulus.linear(3.0)(2.0) == 6.0
        assert QhModulus.power(0.5)(4.0) == 2.0

    def test_table_steps(self):
        eta = QhModulus("table", table=((1.0, 2.0, 4.0), (1.5, 3.0, 5.0)))
        assert eta(0.5) == 0.0  # below the first recorded ratio
        assert eta(1.0) == 1.5
        assert eta(3.0) == 3.0
        assert eta(100.0) == 5.0

    def test_table_lookup_matches_searchsorted(self):
        # distinct values name the knot each lookup lands on
        X = RealLineSpace([0.0, 1.0, 2.5, 4.0, 7.0, 7.5])
        ts = estimate_qh_modulus(lambda x: x, X, X).table[0]
        eta = QhModulus("table", table=(ts, tuple(float(v) for v in range(1, len(ts) + 1))))
        mids = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
        probes = [*ts, *mids, ts[0] / 2, -1.0, ts[-1] * 2, math.inf, -math.inf, math.nan]
        for t in probes:
            i = int(np.searchsorted(np.array(ts), t, side="right"))
            assert eta(t) == (0.0 if i == 0 else eta.table[1][i - 1]), t


def brute_modulus_pairs(f, X, Y):
    # reference quadruple scan: (upstream ratio, downstream ratio) records
    out = []
    for (a, b), (c, d) in itertools.product(
            itertools.combinations(X.points, 2), repeat=2):
        if len({a, b, c, d}) < 4:
            continue
        out.append((X.d(a, b) / X.d(c, d), Y.d(f(a), f(b)) / Y.d(f(c), f(d))))
    return out


class TestEstimateQhModulus:
    def test_isometry_gives_identity_knots(self):
        sp = RealLineSpace([0.0, 1.0, 2.5, 4.0])
        eta = estimate_qh_modulus(lambda x: x, sp, sp)
        ts, vs = eta.table
        assert vs == ts  # running max of equal ratios is the ratio itself

    def test_matches_brute_quadruple_scan(self):
        X = RealLineSpace([1.0, 2.0, 3.0, 4.0])
        f = lambda x: x ** 3
        Y = RealLineSpace(sorted(f(x) for x in X.points))
        eta = estimate_qh_modulus(f, X, Y)
        for rx, ry in brute_modulus_pairs(f, X, Y):
            assert ry <= eta(rx) + 1e-12
        # a map that leaves Y fails by the space's own rule for a point
        with pytest.raises(ValueError, match=r"^point 4\.0 is not in the space$"):
            estimate_qh_modulus(lambda x: x ** 2, X, Y)

    def test_snowflake_identity_is_sqrt(self):
        X = RealLineSpace([0.0, 1.0, 2.0, 4.0, 8.0])
        Y = apply_transform(X, MetricTransform("power", alpha=0.5))
        eta = estimate_qh_modulus(lambda x: x, X, Y)
        ts, vs = eta.table
        assert np.allclose(vs, np.sqrt(ts))

    def test_needs_four_points(self):
        sp = RealLineSpace([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_qh_modulus(lambda x: x, sp, sp)

    def test_point_pairs_over_the_cap_raise_before_allocating(self):
        # 64 points make 2,016 point pairs; the scan would hold arrays of
        # 2,016^2 cells (32 MB as floats)
        sp = RealLineSpace([float(i) for i in range(64)])
        assert math.comb(64, 2) > DEFAULT_ENUMERATION_CAP
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="^2016 point pairs exceed the cap of 2000$"):
                estimate_qh_modulus(lambda x: x, sp, sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestCheckInducedQh:
    def build_pair(self, stretch):
        # piecewise-stretched copy of a 5-point line; bi-Lipschitz with
        # constant max(stretch, 1/stretch)
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        f = lambda x: x if x < 2.5 else 2.5 + stretch * (x - 2.5)
        X = RealLineSpace(xs)
        Y = RealLineSpace([f(x) for x in xs])
        return f, X, Y

    def test_bilipschitz_passes_linear_eta(self):
        f, X, Y = self.build_pair(1.5)
        L = 1.5
        rep = check_induced_qh(f, X, Y, 2, QhModulus.linear(L * L))
        assert rep.ok
        assert rep.worst_excess <= 0.0 + 1e-9

    def test_identity_claim_fails(self):
        f, X, Y = self.build_pair(3.0)
        rep = check_induced_qh(f, X, Y, 2, QhModulus.linear(1.0))
        assert not rep.ok
        assert rep.worst_excess > 0
        assert len(rep.witness) == 4

    def test_general_path_agrees_with_inline_oracle(self):
        f, X, Y = self.build_pair(2.0)
        eta = QhModulus.power(1.0)  # identity modulus via the general path
        rep = check_induced_qh(f, X, Y, 2, eta)
        sets = tuple(enumerate_fsets(X, 2))
        images = [induced_subset_map(f, A) for A in sets]
        worst = -math.inf
        pairs = list(itertools.combinations(range(len(sets)), 2))
        for (i, j), (k, l) in itertools.product(pairs, repeat=2):
            if len({i, j, k, l}) < 4:
                continue
            rx = hausdorff(sets[i], sets[j]) / hausdorff(sets[k], sets[l])
            ry = (hausdorff(images[i], images[j], Y)
                  / hausdorff(images[k], images[l], Y))
            worst = max(worst, ry - eta(rx))
        assert rep.worst_excess == pytest.approx(worst, rel=1e-9)
        assert rep.ok == (worst <= 1e-9)

    def test_snowflaked_identity_passes_power_eta(self):
        X = RealLineSpace([0.0, 1.0, 2.0, 4.0])
        Y = apply_transform(X, MetricTransform("power", alpha=0.5))
        rep = check_induced_qh(lambda x: x, X, Y, 2, QhModulus.power(0.5))
        assert rep.ok

    def test_both_modes_count_quadruples_of_distinct_sets(self):
        # 6 points and n = 3 give N = 41 sets and P = 820 set pairs; the
        # ordered pairs of set pairs with four distinct sets number
        # P^2 - P - N(N-1)(N-2) = 607,620
        X = RealLineSpace([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        for eta in (QhModulus.linear(1.0), QhModulus.power(1.0)):
            assert check_induced_qh(lambda x: x, X, X, 3, eta).quadruples == 607_620

    def test_default_cap_on_sets(self):
        # 23 points give 2,047 sets of at most 3 points
        X = RealLineSpace([float(i) for i in range(23)])
        with pytest.raises(EnumerationCapError, match="2047 subsets"):
            check_induced_qh(lambda x: x, X, X, 3, QhModulus.power(0.5))
        with pytest.raises(EnumerationCapError, match="2047 subsets"):
            check_induced_qh(lambda x: x, X, X, 3, QhModulus.linear(1.0))

    def test_cap_on_distinct_distances(self):
        # singletons of 64 generic points have 2,016 distinct distances, so
        # the table of eta over their ratios would be 2,016 x 2,016
        X = RealLineSpace(sorted(np.random.default_rng(0).random(64).tolist()))
        with pytest.raises(EnumerationCapError, match="2016 distinct"):
            check_induced_qh(lambda x: x, X, X, 1, QhModulus.power(0.5))
        assert check_induced_qh(lambda x: x, X, X, 1, QhModulus.linear(1.0)).ok


def _divide(x, y):
    # IEEE division of distances (x, y >= 0), as numpy arrays divide
    if y == 0:
        return math.nan if x == 0 else math.inf
    return x / y


def brute_check_induced_qh(f, X, Y, n, eta):
    """Pure-Python quadruple scan: scalar hausdorff per set pair, scalar eta
    per quadruple, and the first pair (a, b) of set pairs in row-major order
    that has a NaN excess, else the largest one."""
    sets = enumerate_fsets(X, n)
    images = [induced_subset_map(f, A) for A in sets]
    pairs = list(itertools.combinations(range(len(sets)), 2))
    dx = [hausdorff(sets[i], sets[j], X) for i, j in pairs]
    dy = [hausdorff(images[i], images[j], Y) for i, j in pairs]

    def witness(a, b):
        return tuple(sets[s] for s in pairs[a] + pairs[b])

    if eta.kind == "linear":
        ratio = [y / x for x, y in zip(dx, dy)]
        hi, lo = ratio.index(max(ratio)), ratio.index(min(ratio))
        return ratio[hi] - eta.coefficient * ratio[lo], witness(hi, lo)
    best, arg = -math.inf, (0, 0)
    for a, (i, j) in enumerate(pairs):
        for b, (k, m) in enumerate(pairs):
            if len({i, j, k, m}) < 4:
                continue
            excess = _divide(dy[a], dy[b]) - float(eta(dx[a] / dx[b]))
            if excess != excess:
                return excess, witness(a, b)
            if excess > best:
                best, arg = excess, (a, b)
    return best, witness(*arg)


def _six_points(seed):
    rng = np.random.default_rng(seed)
    return RealLineSpace([float(x) / 1000 for x in
                          np.sort(rng.choice(10001, size=6, replace=False))])


def _snowflake_case(X, alpha):
    Y = apply_transform(X, MetricTransform("power", alpha=alpha))
    return (lambda x: x), X, Y, 3, QhModulus.power(alpha)


def _stretch_case(eta_of, points=6):
    # 6 points, n = 3: 41 sets, 820 set pairs, so the scan crosses tiles
    xs = [float(x) for x in range(points)]
    f = lambda x: x if x < 2.5 else 2.5 + 1.7 * (x - 2.5)
    X, Y = RealLineSpace(xs), RealLineSpace([f(x) for x in xs])
    return f, X, Y, 3, eta_of(f, X, Y)


def _collapse_case(eta):
    # n = 1 and f sends 0, 1 to 0 and 3, 4 to 3: the images of {0}, {1}
    # coincide, so some downstream ratios are x/0 = inf and 0/0 = NaN
    X = RealLineSpace([0.0, 1.0, 2.0, 3.0, 4.0, 6.0])
    f = {0.0: 0.0, 1.0: 0.0, 2.0: 2.0, 3.0: 3.0, 4.0: 3.0, 6.0: 6.0}.get
    return f, X, RealLineSpace([0.0, 2.0, 3.0, 6.0]), 1, eta


QH_CASES = {
    "linear": lambda: _stretch_case(lambda f, X, Y: QhModulus.linear(2.0)),
    # 5 points: the table's lookups make the reference slow
    "table": lambda: _stretch_case(lambda f, X, Y: estimate_qh_modulus(f, X, Y), points=5),
    # numpy's SIMD array power differs from pow in the last bit on some
    # cells here (AVX-512 builds), and would pick another witness
    "power-0.37": lambda: _snowflake_case(_six_points(13), 0.37),
    # equally spaced points: many quadruples tie at the largest excess
    "power-0.5-ties": lambda: _snowflake_case(RealLineSpace([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 0.5),
    "collapse-linear": lambda: _collapse_case(QhModulus.linear(1.0)),
    "collapse-power": lambda: _collapse_case(QhModulus.power(0.5)),
}


@pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(QH_CASES))
def test_check_induced_qh_matches_pure_python_reference(case, monkeypatch):
    f, X, Y, n, eta = QH_CASES[case]()
    worst, witness = brute_check_induced_qh(f, X, Y, n, eta)
    for tile in (transforms._BLOCK, 8):
        # small tiles put tile edges and ties across tiles near any witness
        monkeypatch.setattr(transforms, "_BLOCK", tile)
        rep = check_induced_qh(f, X, Y, n, eta)
        assert repr(rep.worst_excess) == repr(worst)
        assert rep.witness == witness
        assert rep.ok == (worst <= 1e-9)
