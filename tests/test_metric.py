"""Ground metric layer: FSet, Hausdorff distance, separation, matchings."""

import dataclasses
import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finset import (
    EnumerationCapError,
    FSet,
    FiniteMetricSpace,
    MatchingError,
    RealLineSpace,
    dist_to_lower,
    enumerate_fsets,
    get_tolerance,
    hausdorff,
    match_bijection,
    min_separation,
)
from finset import metric
from finset.generators import generate
from finset.line import IntervalUnion
from finset.metric import as_finite_space

from brute import reference_from_coords_dist, reference_pair_checks, strong_triangle


def brute_hausdorff(A, B, d=None):
    # independent reference: literal max of the two directed sup-inf distances
    d = d or (lambda x, y: abs(x - y))
    ab = max(min(d(a, b) for b in B) for a in A)
    ba = max(min(d(a, b) for a in A) for b in B)
    return max(ab, ba)


small_sets = st.sets(st.integers(min_value=-50, max_value=50), min_size=1, max_size=5)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
big_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20))
# small multiples of 1/4 in three types: every difference is exact, so the
# pair scan's first minimum and first maximum fix the type of the result
exact_mixed = st.one_of(st.integers(-20, 20),
                        st.integers(-40, 40).map(lambda k: k / 2),
                        st.integers(-80, 80).map(lambda k: Fraction(k, 4)))


def assert_same(got, want):
    assert got == want and type(got) is type(want), (got, want)


class TestFSet:
    def test_sorts_and_dedups(self):
        assert tuple(FSet((3, 1, 2, 1))) == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FSet(())

    def test_tolerance_merge(self):
        assert tuple(FSet((0.0, 1e-10, 1.0), tol=1e-9)) == (0.0, 1.0)

    def test_tolerance_merge_keeps_first_representative(self):
        # merging compares against the last kept point, it does not chain
        s = FSet((0.0, 1e-10, 2e-10, 1.0), tol=1.5e-10)
        assert tuple(s) == (0.0, 2e-10, 1.0)

    def test_no_merge_without_tolerance(self):
        assert len(FSet((0.0, 1e-10))) == 2

    def test_equality_and_hash(self):
        assert FSet((1, 2)) == FSet((2, 1))
        assert hash(FSet((1, 2))) == hash(FSet((2, 1)))
        assert FSet((1, 2)) != FSet((1, 3))

    def test_is_the_sorted_tuple_of_its_distinct_points(self):
        A = FSet((1.0, 0.0, 1.0))
        assert isinstance(A, tuple) and A == (0.0, 1.0)
        assert FSet(A) is A
        # merging still runs on an FSet argument
        assert FSet(FSet((0.0, 1e-12)), tol=1e-9) == (0.0,)


    @pytest.mark.parametrize("items", [
        (0.0,), (0.0, 0.25, 1.0), [Fraction(0), Fraction(1, 3), 2],
        ((0.0, 1.0), (0.0, 2.0), (1.0, 0.0)), ("a", "b", "c")])
    def test_from_sorted_is_the_fset_of_sorted_distinct_points(self, items):
        A = FSet._from_sorted(items)
        assert type(A) is FSet
        assert A == FSet(items) and hash(A) == hash(FSet(items))
        assert tuple(A) == tuple(FSet(items)) == tuple(items)


class TestHausdorff:
    def test_frozen_value(self):
        assert hausdorff(FSet((0, 2)), FSet((0, 1, 2))) == 1

    def test_exact_on_fractions(self):
        a = FSet((Fraction(0), Fraction(1, 3)))
        b = FSet((Fraction(0), Fraction(1, 2)))
        assert hausdorff(a, b) == Fraction(1, 6)

    @settings(max_examples=150)
    @given(small_sets, small_sets)
    def test_matches_bruteforce(self, a, b):
        assert_same(hausdorff(FSet(a), FSet(b)), brute_hausdorff(a, b))

    @settings(max_examples=150)
    @given(small_sets, small_sets, small_sets)
    def test_metric_axioms(self, a, b, c):
        A, B, C = FSet(a), FSet(b), FSet(c)
        assert hausdorff(A, B) == hausdorff(B, A)
        assert (hausdorff(A, B) == 0) == (A == B)
        assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C)

    @settings(max_examples=300)
    @given(st.lists(finite_floats, min_size=1, max_size=7),
           st.lists(finite_floats, min_size=1, max_size=7))
    def test_line_path_matches_pair_scan_on_floats(self, a, b):
        assert_same(hausdorff(FSet(a), FSet(b)), brute_hausdorff(FSet(a), FSet(b)))

    @settings(max_examples=300)
    @given(st.lists(big_fractions, min_size=1, max_size=6),
           st.lists(big_fractions, min_size=1, max_size=6))
    def test_line_path_matches_pair_scan_on_fractions(self, a, b):
        assert_same(hausdorff(FSet(a), FSet(b)), brute_hausdorff(a, b))

    @settings(max_examples=300)
    @given(st.lists(exact_mixed, min_size=1, max_size=6),
           st.lists(exact_mixed, min_size=1, max_size=6))
    def test_line_path_keeps_the_pair_scan_type_on_mixed_sets(self, a, b):
        # ints, floats and Fractions side by side; only all-Fraction sets
        # may take the integer path
        assert_same(hausdorff(FSet(a), FSet(b)), brute_hausdorff(FSet(a), FSet(b)))

    def test_ties_keep_the_predecessor_and_the_first_maximum(self):
        # 1 is as far from the int 0 as from the float 2.0: the scan takes
        # the first, and so the int distance
        assert_same(hausdorff(FSet((1,)), FSet((0, 2.0))), 1)
        assert_same(hausdorff(FSet((0, 4.0)), FSet((2,))), 2)
        assert_same(hausdorff(FSet((1, 3)), FSet((Fraction(0), 2))), Fraction(1))
        # both directions reach 2, forward as an int: max keeps the first
        assert_same(hausdorff(FSet((0.0, 4)), FSet((1.5, 2))), 2)

    def test_rounding_ties_at_large_magnitude(self):
        # 1e16 - 0.5 rounds to 1e16, so both candidates tie
        for a, b in (((1e16,), (0.0, 0.5)), ((0.0, 0.5), (1e16,)),
                     ((1e16, 1e16 + 2), (0.0, 0.5, 2e16)), ((-1e16,), (0.0, 0.5, 1e300))):
            assert_same(hausdorff(FSet(a), FSet(b)), brute_hausdorff(a, b))

    def test_unsorted_iterables_with_duplicates(self):
        cases = [([3.0, 1.0, 3.0, -2.0], (0.5, 0.5, 7.0)),
                 ([5, 5, 1], [2, 9, 2]),
                 ((Fraction(2, 7), Fraction(1, 3), Fraction(2, 7)), [Fraction(5, 11)])]
        for a, b in cases:
            assert_same(hausdorff(a, b), brute_hausdorff(a, b))
            assert_same(hausdorff(iter(a), iter(b)), brute_hausdorff(a, b))

    def test_whole_witness_chain(self):
        from finset import lipschitz_obstruction_witness
        chain = lipschitz_obstruction_witness(6).chain
        assert len(chain) == 3250
        for a, b in zip(chain, chain[1:]):
            assert_same(hausdorff(a, b), brute_hausdorff(a, b))

    def test_line_space_matches_none(self):
        sp = RealLineSpace([0.0, 1.0])
        for a, b in (((0.25, 3.0), (1.0,)), ((1, 4), (2,)),
                     ((Fraction(1, 3),), (Fraction(1, 2), Fraction(5, 2)))):
            assert_same(hausdorff(FSet(a), FSet(b), sp), hausdorff(FSet(a), FSet(b)))

    def test_empty_input_raises(self):
        for space in (None, RealLineSpace([0.0])):
            for a, b in (([], [1.0]), ([1.0], ())):
                with pytest.raises(ValueError, match="nonempty"):
                    hausdorff(a, b, space)

    def test_uses_space_metric(self):
        sp = FiniteMetricSpace(("a", "b", "c"),
                               np.array([[0, 1, 5], [1, 0, 5], [5, 5, 0.0]]))
        assert hausdorff(FSet(("a",)), FSet(("c",)), sp) == 5


class TestMinSeparation:
    def test_frozen_value(self):
        assert min_separation(FSet((0, 1, 5)), 3) == 1

    def test_small_sets_have_zero(self):
        assert min_separation(FSet((0, 7)), 3) == 0.0

    def test_too_large_raises(self):
        with pytest.raises(ValueError):
            min_separation(FSet((0, 1, 2)), 2)

    def test_exact_arithmetic(self):
        sep = min_separation(FSet((Fraction(0), Fraction(1, 3), Fraction(1, 2))), 3)
        assert sep == Fraction(1, 6) and isinstance(sep, Fraction)

    @settings(max_examples=300)
    @given(st.one_of(st.lists(finite_floats, min_size=2, max_size=6),
                     st.lists(big_fractions, min_size=2, max_size=6),
                     st.lists(exact_mixed, min_size=2, max_size=6)))
    def test_line_gaps_match_pair_scan(self, pts):
        # as given, duplicates and order included
        want = min(abs(a - b) for a, b in itertools.combinations(pts, 2))
        for space in (None, RealLineSpace()):
            got = min_separation(pts, len(pts), space)
            assert got == want
            if len({type(p) for p in pts}) == 1:
                assert type(got) is type(want)

    def test_counts_the_input_as_given(self):
        with pytest.raises(ValueError, match="3 points"):
            min_separation([1.0, 1.0, 2.0], 2)

    @settings(max_examples=150)
    @given(small_sets, small_sets)
    def test_two_lipschitz(self, a, b):
        n = max(len(a), len(b))
        A, B = FSet(a), FSet(b)
        gap = abs(min_separation(A, n) - min_separation(B, n))
        assert gap <= 2 * hausdorff(A, B)


class TestDistToLower:
    def test_frozen_within_and_ambient(self):
        sp = RealLineSpace([0.0, 1.0, 2.0])
        A = FSet((0.0, 1.0, 2.0))
        assert dist_to_lower(A, sp, 3, mode="within") == 1.0
        assert dist_to_lower(A, sp, 3, mode="ambient") == 0.5

    def test_small_set_is_zero(self):
        sp = RealLineSpace([0.0, 1.0, 2.0])
        assert dist_to_lower(FSet((0.0, 1.0)), sp, 3) == 0.0

    def test_sandwich_exhaustive(self):
        sp = RealLineSpace([0.0, 0.7, 1.1, 2.0, 3.5])
        for n in (2, 3):
            for A in enumerate_fsets(sp, n):
                if len(A) < n:
                    continue
                sep = min_separation(A, n)
                for mode in ("within", "ambient"):
                    d = dist_to_lower(A, sp, n, mode=mode)
                    assert sep / 2 - 1e-12 <= d <= sep + 1e-12

    def test_cap(self):
        sp = RealLineSpace([float(i) for i in range(12)])
        with pytest.raises(EnumerationCapError):
            dist_to_lower(FSet((0.0, 1.0, 2.0, 3.0)), sp, 4, cap=10)

    def test_within_needs_a_space(self):
        with pytest.raises(ValueError, match="^space lists no points to enumerate$"):
            dist_to_lower(FSet((0.0, 1.0)), None, 2)


class TestMatchings:
    def test_bijection_close_pairs(self):
        A = FSet((0.0, 10.0, 20.0))
        B = FSet((0.1, 9.8, 20.3))
        m = match_bijection(A, B)
        assert max(abs(a - b) for a, b in m) == pytest.approx(hausdorff(A, B), abs=1e-12)
        assert sorted(b for _, b in m) == sorted(B)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="^sets must have equal size$"):
            match_bijection(FSet((0.0, 1.0)), FSet((0.5,)))

    def test_precondition_violation(self):
        # neither set is separated by more than twice the Hausdorff distance
        with pytest.raises(ValueError, match="^sets are not separated enough for a "
                                             "canonical matching$"):
            match_bijection(FSet((0.0, 1.0)), FSet((0.5, 0.6)))

    def test_bijection_from_the_separated_side(self):
        # only B is separated by more than twice the Hausdorff distance 0.3:
        # each point of B picks its partner, and the pairs come back in A's order
        A = FSet((0.3, 0.7))
        B = FSet((0.0, 1.0))
        assert match_bijection(A, B) == ((0.3, 0.0), (0.7, 1.0))


class TestSpaces:
    def test_finite_space_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace((0, 1), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_finite_space_rejects_triangle_violation(self):
        D = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace((0, 1, 2), D)

    def test_finite_space_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace((0, 0), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_from_coords_euclidean(self):
        sp = FiniteMetricSpace.from_coords([(0.0, 0.0), (3.0, 4.0)])
        assert sp.d((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_as_finite_space_inputs(self):
        fsp = FiniteMetricSpace.from_coords([(0.0, 0.0), (3.0, 4.0)])
        assert as_finite_space(fsp) is fsp
        planar = as_finite_space([(0.0, 0.0), (3.0, 4.0)])
        assert planar.d((0.0, 0.0), (3.0, 4.0)) == 5.0
        # scalar points, raw or listed by a line space, sit at exactly |x - y|
        for source in ([0.1, 0.7, 3.0], RealLineSpace([Fraction(1, 10), Fraction(7, 10), 3])):
            sp = as_finite_space(source)
            assert sp.points == [0.1, 0.7, 3.0]
            assert sp.d(0.1, 0.7) == abs(0.1 - 0.7) and sp.d(0.7, 3.0) == 3.0 - 0.7
        with pytest.raises(ValueError, match="no listed points"):
            as_finite_space(RealLineSpace([]))

    def test_coordinates_build_without_the_triangle_scan(self):
        # collinear points whose float distances miss the triangle inequality
        # by 3.73e-09, above the default tolerance: rounding that the scan
        # of an explicit matrix reports, and coordinates never see
        from finset import quasiconvexity_constant
        pts = [1683698.9, 12782720.4, 26100304.7]
        D = np.abs(np.subtract.outer(pts, pts))
        with pytest.raises(ValueError, match="^triangle inequality fails by 3.73e-09 "):
            FiniteMetricSpace(pts, D)
        for source in (RealLineSpace(pts), [(p, 0.0) for p in pts]):
            assert np.array_equal(as_finite_space(source).dist, D)
        report = quasiconvexity_constant(RealLineSpace(pts), 2e7)
        assert report.connected and report.witness == (pts[0], pts[1])
        assert report.constant == pytest.approx(1.0)

    def test_line_space_sorts_and_rejects_duplicates(self):
        assert RealLineSpace([1.0, 0.0]).points == [0.0, 1.0]
        with pytest.raises(ValueError):
            RealLineSpace([0.0, 0.0])

    @pytest.mark.parametrize("space", [
        RealLineSpace([0.0, 1.0, 2.5]),
        FiniteMetricSpace(["a", "b", "c"], [[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]]),
        FiniteMetricSpace.from_coords([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]),
        IntervalUnion(((0, 1), (5, 5))),
    ], ids=["line", "finite-matrix", "finite-coordinates", "interval-union"])
    def test_json_roundtrip(self, space):
        back = generate(space.to_json())
        assert type(back) is type(space) and back.to_json() == space.to_json()

    def test_diameter_and_min_distance(self):
        sp = RealLineSpace([0.0, 0.25, 1.0])
        assert sp.diameter() == 1.0
        assert sp.min_positive_distance() == 0.25


class TestEnumeration:
    def test_count_and_order(self):
        sp = RealLineSpace([0.0, 1.0, 2.0, 3.0])
        sets = list(enumerate_fsets(sp, 2))
        assert len(sets) == 4 + 6
        sizes = [len(s) for s in sets]
        assert sizes == sorted(sizes)
        assert sets[0] == FSet((0.0,))

    def test_cap(self):
        sp = RealLineSpace([float(i) for i in range(30)])
        with pytest.raises(EnumerationCapError):
            list(enumerate_fsets(sp, 4, cap=100))


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("FINSET_TOLERANCE", "1e-3")
    assert get_tolerance() == 1e-3
    monkeypatch.delenv("FINSET_TOLERANCE")
    assert get_tolerance() == 1e-9


def _public_signatures():
    import finset
    for name in finset.__all__:
        obj = getattr(finset, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(name + "." + m, getattr(obj, m)) for m in vars(obj)
                        if not m.startswith("_")]
        for label, member in members:
            try:
                yield label, inspect.signature(member).parameters
            except (TypeError, ValueError):  # modules, exception classes
                continue


def test_one_global_tolerance_and_no_dead_knobs():
    # the comparison tolerance is FINSET_TOLERANCE alone; these three take a
    # tol of another meaning (merge distance or membership slack)
    with_tol = {label for label, params in _public_signatures() if "tol" in params}
    assert with_tol == {"FSet", "IntervalUnion.locate", "IntervalUnion.contains"}
    params = dict(_public_signatures())
    for name in ("subdominant_ultrametric", "disconnection_constant",
                 "FiniteMetricSpace.from_coords"):
        assert "validate" not in params[name]
    assert "validate" not in inspect.signature(as_finite_space).parameters
    from finset import CenterFamily
    assert [f.name for f in dataclasses.fields(CenterFamily)] == ["levels", "maps"]
    # no pure wrapper, uncalled method or unset parameter; the generic
    # Lipschitz bound is one constant
    import finset
    assert {"Matching", "generic_retract_bound"}.isdisjoint(finset.__all__)
    # public names no certificate reached are gone
    assert {"match_order_preserving", "disjoint_union", "conjugated_map", "rank_below",
            "signed_rank", "HarmonicSet"}.isdisjoint(finset.__all__)
    assert not hasattr(finset.line, "rank_below")
    assert "D" not in params["split_gh"]
    assert finset.GENERIC_BOUND == 5.0
    # the cap of the quadruple checks is DEFAULT_ENUMERATION_CAP alone
    assert "cap" not in params["check_induced_qh"]
    assert "cap" not in params["estimate_qh_modulus"]


def test_tolerance_moves_the_verdicts(monkeypatch):
    from finset import QhModulus, check_induced_qh, validate_ultrametric
    # d(b, c) exceeds max(d(b, a), d(a, c)) by about 1e-6
    D = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0 + 1e-6], [1.0, 1.0 + 1e-6, 0.0]]
    almost_ultra = FiniteMetricSpace(["a", "b", "c"], D)
    # the identity onto a copy of 0, 1, 2, 3 with its last point moved by
    # 1e-6: ratios of set distances move by at most about 1e-6
    X = RealLineSpace([0.0, 1.0, 2.0, 3.0])
    coords = np.array([0.0, 1.0, 2.0, 3.0 + 1e-6])
    Y = FiniteMetricSpace(X.points, np.abs(coords[:, None] - coords[None, :]))

    def verdicts():
        return [validate_ultrametric(almost_ultra).is_ultrametric,
                check_induced_qh(lambda p: p, X, Y, 1, QhModulus.linear(1.0)).ok,
                check_induced_qh(lambda p: p, X, Y, 1, QhModulus.power(1.0)).ok]

    assert verdicts() == [False, False, False]
    monkeypatch.setenv("FINSET_TOLERANCE", "1e-5")
    assert verdicts() == [True, True, True]
    monkeypatch.setenv("FINSET_TOLERANCE", "1e-7")
    assert verdicts() == [False, False, False]


def reference_validate(points, D):
    # FiniteMetricSpace.validate before the shared triple scan: the pair
    # step, then two fresh n x n arrays per pivot, argmax only at the
    # failing pivot
    reference_pair_checks(points, D)
    tol = get_tolerance()
    for k in range(len(points)):
        slack = D - (D[:, k][:, None] + D[k, :][None, :])
        worst = slack.max()
        if worst > tol:
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            raise ValueError(
                "triangle inequality fails by %.3g on (%r, %r, %r)"
                % (worst, points[i], points[k], points[j]))


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _slack_matrices():
    """Matrices for the triple-scan differential: metrics, small integer
    non-metrics whose slacks tie within and across pivots, asymmetric ones,
    and copies holding NaN, inf and signed zeros."""
    rng = np.random.default_rng(7)
    out = [np.zeros((n, n)) for n in range(4)]
    out += [np.array([[0.0, 2.0], [2.0, 0.0]]), np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0.0]])]
    for n in (3, 5, 8, 12):
        pts = rng.normal(size=(n, 2))
        out.append(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)))
    for n in (3, 4, 5, 6, 7, 9):
        for _ in range(6):
            D = rng.integers(1, 6, size=(n, n)).astype(float)
            D = np.triu(D, 1) + np.triu(D, 1).T
            out.append(D)
            out.append(D + np.triu(rng.integers(0, 2, size=(n, n)), 1))
    spiked = []
    for D in out[-12:]:
        n = len(D)
        for value in (math.nan, math.inf, -math.inf):
            E = D.copy()
            i, j = rng.integers(0, n, size=2)
            E[i, j] = E[j, i] = value
            spiked.append(E)
        E = D.copy()
        E[np.diag_indices(n)] = -0.0
        E[0, n - 1] = -1.0
        spiked.append(E)
    return out + spiked


def test_non_finite_distances_fail_both_checks():
    # every construction names the first non-finite entry, with or without
    # the triangle scan, so no check downstream ever sees one
    nan, inf = math.nan, math.inf
    cases = [([[0, nan, 1], [nan, 0, 1], [1, 1, 0]], "nan between 'a', 'b'"),
             ([[nan, 5, 1], [5, 0, 1], [1, 1, 0]], "nan between 'a', 'a'"),
             ([[0, 1, inf], [1, 0, 1], [inf, 1, 0]], "inf between 'a', 'c'")]
    for D, named in cases:
        message = "non-finite distance %s" % named
        assert _outcome(reference_pair_checks, ["a", "b", "c"], np.array(D, float)) == message
        for validate in (True, False):
            with pytest.raises(ValueError, match="^%s$" % message):
                FiniteMetricSpace(["a", "b", "c"], D, validate=validate)


def test_triple_scan_matches_the_per_pivot_loops():
    # the pair-check or first failing pivot message of construction, and the
    # whole validate_ultrametric report of every matrix that builds, as before
    from finset import validate_ultrametric
    several = rejected = 0
    for D in _slack_matrices():
        points = ["p%d" % i for i in range(len(D))]
        pair_step = _outcome(reference_pair_checks, points, D)
        expected = _outcome(reference_validate, points, D)
        assert _outcome(FiniteMetricSpace, points, D) == expected, D
        assert _outcome(FiniteMetricSpace, points, D, False) == pair_step, D
        if pair_step is not None:
            rejected += 1
            continue
        space = FiniteMetricSpace(points, D, validate=False)
        report = validate_ultrametric(space)
        ok, worst, triple = strong_triangle(space)
        assert (report.is_ultrametric, repr(report.violation), report.worst_triple) == (
            ok, repr(worst), triple), D
        fails = [(D - (D[:, k, None] + D[k])).max() > get_tolerance() for k in range(len(D))]
        several += sum(fails) > 1
    # the zero, asymmetric and spiked matrices fail the pair checks; most
    # integer matrices fail the triangle inequality at several pivots
    assert rejected > 80
    assert several > 20


@pytest.mark.parametrize("cells", [metric._BLOCK_CELLS, 50])
def test_from_coords_keeps_the_bits_of_the_summed_difference_array(cells, monkeypatch):
    # 1 to 20 axes, coordinates from 1e-3 to 1e3 in size; 50 cells make
    # blocks of one row, the default one block of all rows
    monkeypatch.setattr(metric, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(11)
    for dim in range(1, 21):
        n = 200 if dim <= 3 else 30
        coords = rng.uniform(-1, 1, (n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, dim))
        points = [tuple(p) for p in coords.tolist()] if dim > 1 else coords[:, 0].tolist()
        dist = FiniteMetricSpace.from_coords(points).dist
        assert dist.tobytes() == reference_from_coords_dist(points).tobytes(), dim


@pytest.mark.parametrize("far, gap", [((1e200, 0.0), 1e200), ((1e-200, 0.0), 1e-200),
                                      ((3e-160, 4e-160), 5e-160), (-1e200, 1e200)])
def test_from_coords_keeps_gaps_whose_squares_leave_the_float_range(far, gap):
    # squared, these gaps overflow, underflow to 0 and go subnormal
    origin = (0.0, 0.0) if isinstance(far, tuple) else 0.0
    sp = FiniteMetricSpace.from_coords([origin, far])
    assert sp.dist.tolist() == [[0.0, gap], [gap, 0.0]]


def test_from_coords_names_an_empty_point_list():
    with pytest.raises(ValueError, match="space has no listed points"):
        FiniteMetricSpace.from_coords([])


def _pair_check_matrices():
    """Matrices for the pair-check differential: a non-finite entry, a
    diagonal entry off zero, asymmetry, and non-positive entries whose
    least value ties, in more than one row block."""
    rng = np.random.default_rng(5)
    base = []
    for n in (2, 3, 7, 40):
        pts = rng.normal(size=(n, 2))
        base.append(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)))
    tol = get_tolerance()
    out = list(base)
    for D in base:
        n = len(D)
        for i, j in ((0, n - 1), (n - 1, 0), (n // 2, n // 2)):
            for value in (math.nan, math.inf, -math.inf):
                E = D.copy()
                E[i, j] = value
                out.append(E)
            for delta in (tol / 2, 2 * tol, 1.0):
                E = D.copy()
                E[i, j] += delta
                out.append(E)
        for values in ([0.0, 0.0], [-0.0, 0.0], [-1.0, -1.0], [-1.0, -2.0, -2.0], [0.0, -0.0]):
            E = D.copy()
            spots = rng.choice([k for k in range(n * n) if k // n != k % n],
                               size=min(len(values), n * n - n), replace=False)
            for k, v in zip(spots, values):
                i, j = divmod(int(k), n)
                E[i, j] = E[j, i] = v
            out.append(E)
        E = D.copy()
        np.fill_diagonal(E, -0.0)
        E[0, 1] = E[1, 0] = 0.0
        out.append(E)
    return out


@pytest.mark.parametrize("cells", [metric._BLOCK_CELLS, 5])
def test_pair_checks_name_what_the_whole_matrix_checks_name(cells, monkeypatch):
    # every message and its first offender, with one row per block or all
    monkeypatch.setattr(metric, "_BLOCK_CELLS", cells)
    messages = set()
    for D in _pair_check_matrices():
        points = ["p%d" % i for i in range(len(D))]
        expected = _outcome(reference_pair_checks, points, D)
        assert _outcome(FiniteMetricSpace, points, D, False) == expected, D
        messages.add(expected and expected.split(" between")[0])
        if expected is None:
            sp = FiniteMetricSpace(points, D, False)
            assert sp.dist.tobytes() == np.minimum(D, D.T).tobytes()
            off = D[~np.eye(len(D), dtype=bool)]
            assert sp.min_positive_distance() == off.min()
    assert messages == {None, "non-finite distance nan", "non-finite distance inf",
                        "non-finite distance -inf", "nonzero diagonal entry in distance matrix",
                        "distance matrix is not symmetric", "non-positive distance"}


def test_only_an_asymmetric_matrix_is_written():
    # an exactly symmetric matrix is kept as it is, unwritten; one that is
    # symmetric within tolerance takes the smaller entry of each pair
    D = FiniteMetricSpace.from_coords([(0.0, 0.0), (1.0, 0.0), (0.3, 0.8)]).dist.copy()
    D.setflags(write=False)
    assert FiniteMetricSpace._adopt("abc", D).dist is D
    skewed = D.copy()
    skewed[1, 0] = np.nextafter(D[1, 0], np.inf)
    skewed.setflags(write=False)
    with pytest.raises(ValueError, match="read-only"):
        FiniteMetricSpace._adopt("abc", skewed)
    assert FiniteMetricSpace("abc", skewed).dist.tobytes() == D.tobytes()
    assert skewed[1, 0] > skewed[0, 1]
