"""Line retractions: closest-pair collapse, interval unions, delete-min."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finset import (
    FSet,
    GapExpansion,
    IntervalUnion,
    PiecewiseLinearMap,
    build_gap_expansion,
    delete_min_retract,
    get_tolerance,
    hausdorff,
    interval_union_retract,
    line_retract,
    median_retract,
    min_separation,
)
from finset.line import signed_rank
from finset.metric import _check_size


int_grids = st.sets(st.integers(min_value=-30, max_value=30), min_size=2, max_size=6)


class TestRanks:
    def test_signed_rank(self):
        assert [signed_rank((0, 1, 3), x) for x in (0, 1, 3)] == [1.0, 0.0, -1.0]
        assert signed_rank((1, 2), 1) == 0.5


class TestLineRetract:
    def test_frozen_value(self):
        assert line_retract(FSet((0, 1, 3)), 3) == FSet((0, 1))

    def test_exact_rationals(self):
        out = line_retract(FSet((Fraction(0), Fraction(1, 3), Fraction(1))), 3)
        assert out == FSet((Fraction(0), Fraction(1, 3)))
        assert all(isinstance(x, Fraction) for x in out)

    def test_small_sets_fixed(self):
        A = FSet((0, 5))
        assert line_retract(A, 3) is A

    def test_oversize_raises(self):
        with pytest.raises(ValueError):
            line_retract(FSet((0, 1, 2)), 2)

    @settings(max_examples=200)
    @given(int_grids)
    def test_integer_lattice_preserved(self, grid):
        n = len(grid)
        out = line_retract(FSet(grid), n)
        assert len(out) <= n - 1
        assert all(isinstance(x, int) for x in out)

    @settings(max_examples=200)
    @given(int_grids)
    def test_min_fixed_max_bounded_displacement(self, grid):
        A = FSet(grid)
        n = len(A)
        out = line_retract(A, n)
        assert min(out) == min(A)
        assert max(out) <= max(A)
        assert hausdorff(out, A) <= (n - 1) * min_separation(A, n)


class TestMedianRetract:
    def test_frozen_even(self):
        assert median_retract(FSet((1.0, 2.0)), 2) == FSet((1.5,))

    def test_frozen_odd(self):
        assert median_retract(FSet((0, 1, 3)), 3) == FSet((1.0, 2.0))

    def test_small_sets_fixed(self):
        A = FSet((0.0, 7.0))
        assert median_retract(A, 5) is A

    @settings(max_examples=200)
    @given(int_grids)
    def test_collapses_and_stays_centered(self, grid):
        A = FSet(grid)
        n = len(A)
        out = median_retract(A, n)
        assert len(out) <= n - 1
        assert min(A) <= min(out) and max(out) <= max(A)


def _distinct_sorted(A, n):
    """The distinct points of A in ascending order; more than n raise."""
    return _check_size(tuple(A) if isinstance(A, FSet) else tuple(sorted(set(A))), n)


def _as_fset(A, pts):
    """A itself when it is an FSet, else the FSet of its points ``pts``."""
    return A if isinstance(A, FSet) else FSet(pts)


def parent_line_retract(A, n):
    # line_retract before the shared slide, verbatim
    pts = _distinct_sorted(A, n)
    delta = min_separation(pts, n)
    if delta == 0:
        return _as_fset(A, pts)
    moved = [x - delta * i for i, x in enumerate(pts)]
    out = FSet(moved, tol=get_tolerance())
    if len(out) > n - 1:
        raise ArithmeticError("closest pair failed to collapse; "
                              "input scale defeats the merge tolerance")
    return out


def parent_median_retract(A, n):
    # median_retract before the shared slide, verbatim
    pts = _distinct_sorted(A, n)
    delta = min_separation(pts, n)
    if delta == 0:
        return _as_fset(A, pts)
    moved = [x + delta * signed_rank(pts, x) for x in pts]
    out = FSet(moved, tol=get_tolerance())
    if len(out) > n - 1:
        raise ArithmeticError("median variant did not land in the smaller subset space")
    return out


def outcome(f, A, n):
    """The repr of every output element, or the ArithmeticError message."""
    try:
        return [repr(x) for x in f(A, n)]
    except ArithmeticError as exc:
        return "ArithmeticError: %s" % exc


# signed zeros, and magnitudes up to 1e15 where the slide's rounding can
# exceed the merge tolerance
slide_points = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1e15, 1e15]),
                                  st.floats(-1e15, 1e15)), min_size=1, max_size=6)


class TestSlide:
    # the closest pair of the first example straddles 0, where its gap rounds
    @settings(max_examples=500)
    @given(slide_points, st.integers(0, 1), st.booleans())
    @example([-(1e15 + 0.125), 1e15], 0, False)
    @example([-0.0, 1.0, 3.0], 0, True)
    def test_matches_the_parent_bodies(self, points, extra, as_fset):
        A = FSet(points) if as_fset else points
        n = len(set(points)) + extra
        for f, parent in ((line_retract, parent_line_retract),
                          (median_retract, parent_median_retract)):
            assert outcome(f, A, n) == outcome(parent, A, n)

    def test_large_magnitude_failures(self):
        A = [-(1e15 + 0.125), 1e15]
        assert outcome(line_retract, A, 2) == (
            "ArithmeticError: closest pair failed to collapse; "
            "input scale defeats the merge tolerance")
        assert outcome(median_retract, A, 2) == (
            "ArithmeticError: median variant did not land in the smaller subset space")
        assert outcome(line_retract, [-0.0, 1.0, 3.0], 3) == ["-0.0", "1.0"]


class TestIntervalUnion:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalUnion(())
        with pytest.raises(ValueError):
            IntervalUnion(((0, 1), (1, 2)))  # touching, not disjoint
        with pytest.raises(ValueError):
            IntervalUnion(((2, 1),))

    def test_locate_and_contains(self):
        X = IntervalUnion(((0, 1), (5, 5)))
        assert X.locate(0.5) == 0
        assert X.locate(5) == 1
        assert X.locate(2) is None
        assert X.contains(1.0000001, tol=1e-6)

    def test_project_interior_and_ends(self):
        X = IntervalUnion(((0, 1), (3, 4)))
        assert X.project(0.7) == 0.7
        assert X.project(-2) == 0
        assert X.project(9) == 4

    def test_project_gap_ties_left(self):
        X = IntervalUnion(((0, 1), (3, 4)))
        assert X.project(2.0) == 1.0
        assert X.project(2.2) == 3.0

    def test_discretize(self):
        X = IntervalUnion(((0, 1), (5, 5)))
        pts = X.discretize(3)
        assert pts == [0.0, 0.5, 1.0, 5.0]

    def test_max_diameter(self):
        assert IntervalUnion(((0, 1), (4, 6))).max_diameter == 2


class TestPiecewiseLinearMap:
    def test_interpolation_and_extension(self):
        f = PiecewiseLinearMap((0.0, 1.0), (0.0, 3.0))
        assert f(0.5) == 1.5
        assert f(-1.0) == -1.0  # slope 1 below the first breakpoint
        assert f(2.0) == 4.0

    def test_inverse_roundtrip(self):
        f = PiecewiseLinearMap((0.0, 1.0, 2.0), (0.0, 5.0, 6.0))
        g = f.inverse()
        for x in (-0.5, 0.0, 0.3, 1.0, 1.7, 2.0, 4.0):
            assert g(f(x)) == pytest.approx(x, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0,), (0.0, 1.0))


class TestGapExpansion:
    def test_frozen_example(self):
        X = IntervalUnion(((0, 1), (2, 3), (10, 10)))
        exp = build_gap_expansion(X, 3)
        assert exp.required_gap == 9.0
        assert exp.bi_lipschitz == 9.0
        assert exp.image.intervals == ((0.0, 1.0), (10.0, 11.0), (20.0, 20.0))

    def test_fixes_leftmost_and_preserves_lengths(self):
        X = IntervalUnion(((-2, 1), (4, 5)))
        exp = build_gap_expansion(X, 2)
        assert exp.forward(-2) == -2 and exp.forward(1) == 1
        lengths = [r - l for l, r in exp.image.intervals]
        assert lengths == [3.0, 1.0]

    def test_image_gaps_meet_requirement(self):
        X = IntervalUnion(((0, 2), (3, 4), (5, 7)))
        exp = build_gap_expansion(X, 4)
        ivs = exp.image.intervals
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            assert l1 - r0 >= exp.required_gap - 1e-12

    def test_inverse_roundtrip(self):
        X = IntervalUnion(((0, 1), (2, 3)))
        exp = build_gap_expansion(X, 3)
        for x in (0.0, 0.5, 1.0, 2.0, 2.25, 3.0):
            assert exp.inverse(exp.forward(x)) == pytest.approx(x, abs=1e-12)


class TestIntervalUnionRetract:
    def test_frozen_conjugated_case(self):
        X = IntervalUnion(((0, 1), (5, 5)))
        out = interval_union_retract(X, FSet((0.0, 0.4, 1.0)), 3)
        assert out == pytest.approx((0.0, 0.2), abs=1e-9)

    def test_frozen_spread_case(self):
        # the set meets n distinct intervals, so its minimum is dropped
        X = IntervalUnion(((0, 0), (2, 3), (5, 5)))
        out = interval_union_retract(X, FSet((0.0, 2.5, 5.0)), 3)
        assert out == FSet((2.5, 5.0))

    def test_point_outside_raises(self):
        X = IntervalUnion(((0, 1),))
        with pytest.raises(ValueError, match="outside"):
            interval_union_retract(X, FSet((0.0, 2.0)), 2)

    def test_small_sets_fixed_and_image_inside(self):
        X = IntervalUnion(((0, 1), (5, 6)))
        A = FSet((0.0, 5.5))
        assert interval_union_retract(X, A, 3) is A
        exp = build_gap_expansion(X, 3)
        for A in (FSet((0.0, 0.3, 0.6)), FSet((0.1, 0.2, 5.0)), FSet((1.0, 5.0, 6.0))):
            out = interval_union_retract(X, A, 3, expansion=exp)
            assert len(out) <= 2
            assert all(X.contains(v, tol=1e-9) for v in out)

    def test_retracts_already_small_exactly(self):
        X = IntervalUnion(((0, 1), (5, 6)))
        exp = build_gap_expansion(X, 3)
        A = FSet((0.25, 5.75))
        assert interval_union_retract(X, A, 3, expansion=exp) is A


class TestDeleteMinRetract:
    def test_drops_minimum(self):
        assert delete_min_retract(FSet((0.0, 0.5, 1.0)), 3) == FSet((0.5, 1.0))

    def test_small_sets_fixed(self):
        A = FSet((0.0, 1.0))
        assert delete_min_retract(A, 3) is A

    def test_validation(self):
        with pytest.raises(ValueError):
            delete_min_retract(FSet((0.0,)), 1)
        with pytest.raises(ValueError):
            delete_min_retract(FSet((0.0, 1.0, 2.0)), 2)
