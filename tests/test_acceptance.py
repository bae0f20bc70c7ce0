"""Acceptance battery: one test per certified property, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Budget note: the exhaustive truncated-harmonic search enumerates 36k subsets
and dominates the runtime of the whole suite (about two minutes).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import shortest_path

from finset import (
    FSet,
    FiniteMetricSpace,
    IntervalUnion,
    QhModulus,
    RealLineSpace,
    SampledPath,
    SubsetDomain,
    build_centers,
    build_gap_expansion,
    build_snowflake_plan,
    check_displacement,
    check_induced_qh,
    decompose_path,
    delete_min_retract,
    disconnection_constant,
    dist_to_lower,
    enumerate_fsets,
    estimate_constant,
    generic_retract,
    hausdorff,
    interval_union_retract,
    line_retract,
    lipschitz_obstruction_witness,
    merge_curve,
    min_separation,
    qc_bounds,
    quasiconvexity_constant,
    split_gh,
    subdominant_ultrametric,
    validate_obstruction_witness,
    validate_ultrametric,
)
from finset.generators import (
    dendrogram_space,
    harmonic_space,
    parabola_space,
    random_dendrogram,
    rickman_rug,
)

from brute import brute_minimax

EQUAL_GRID = [float(i) for i in range(10)]
UNEQUAL_GRID = [0.0, 0.07, 0.3, 1.1, 1.7, 2.0, 3.5, 5.1, 7.9, 9.0]


def verdict(num, label, ok, detail):
    line = "[%02d] %-28s %s  (%s)" % (num, label, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_c01_line_retraction_constant():
    grids = (EQUAL_GRID, UNEQUAL_GRID, EQUAL_GRID[:5], UNEQUAL_GRID[:7])
    ok = True
    configs = 0
    worst = ""
    worst_margin = -math.inf
    for grid in grids:
        sp = RealLineSpace(grid)
        for n in (2, 3, 4):
            start = time.time()
            dom = SubsetDomain.build(sp, n)
            rep = estimate_constant(lambda A: line_retract(A, n), dom)
            elapsed = time.time() - start
            bound = 4 * n - 3
            configs += 1
            ok = ok and rep.constant <= bound + 1e-6 and elapsed < 30.0
            if rep.constant - bound > worst_margin:
                worst_margin = rep.constant - bound
                worst = "%.4f<=%d at n=%d,|X|=%d in %.1fs" % (
                    rep.constant, bound, n, len(grid), elapsed)
    verdict(1, "line retraction constant", ok,
            "%d grid configs, tightest %s" % (configs, worst))


def test_c02_retraction_axioms():
    checks = []

    def axioms(f, domain, m, inside):
        for A in domain:
            out = f(A)
            if len(A) <= m:
                if out != A:
                    return False
            if len(out) > m or not inside(out):
                return False
        return True

    sp = RealLineSpace([0.0, 0.4, 1.0, 2.3, 3.1, 4.0])
    dom = tuple(enumerate_fsets(sp, 3))
    checks.append(axioms(lambda A: line_retract(A, 3), dom, 2, lambda B: True))

    X = IntervalUnion(((0.0, 1.0), (5.0, 6.0)))
    exp = build_gap_expansion(X, 3)
    grid = RealLineSpace(X.discretize(4))
    dom = tuple(enumerate_fsets(grid, 3))
    checks.append(axioms(
        lambda A: interval_union_retract(X, A, 3, expansion=exp),
        dom, 2, lambda B: all(X.contains(v, tol=1e-9) for v in B)))

    usp = dendrogram_space(random_dendrogram(8, seed=0))
    fam = build_centers(usp)
    dom = tuple(enumerate_fsets(usp, 3))
    checks.append(axioms(lambda A: generic_retract(fam, A, 3, 2),
                         dom, 2, lambda B: set(B) <= set(usp.points)))

    hsp = harmonic_space(8)
    dom = tuple(enumerate_fsets(hsp, 3))
    checks.append(axioms(lambda A: delete_min_retract(A, 3), dom, 2,
                         lambda B: all(v in hsp.points for v in B)))

    verdict(2, "retraction axioms", all(checks),
            "line/interval-union/generic/delete-min fix and land in X(m)")


def test_c03_displacement_bounds():
    ok = True
    for grid in (EQUAL_GRID[:8], UNEQUAL_GRID[:8]):
        sp = RealLineSpace(grid)
        for n in (2, 3, 4):
            dom = SubsetDomain.build(sp, n)
            rep = check_displacement(lambda A: line_retract(A, n), dom, 1, n,
                                     factor=n - 1)
            ok = ok and rep.ok
    for seed in range(3):
        usp = dendrogram_space(random_dendrogram(8, seed=seed))
        fam = build_centers(usp)
        dom = SubsetDomain.build(usp, 3)
        rep = check_displacement(lambda A: generic_retract(fam, A, 3, 2),
                                 dom, 1, 3)
        ok = ok and rep.ok and rep.factor == 2.0
    verdict(3, "displacement bounds", ok,
            "line <= (n-1)*sep; generic <= (L+1)*sep on 3 dendrograms")


def test_c04_separation_lipschitz_and_sandwich():
    spaces = (RealLineSpace(UNEQUAL_GRID[:8]),
              FiniteMetricSpace.from_coords(
                  [(0.0, 0.0), (1.0, 0.2), (2.5, 1.0), (3.0, 3.0),
                   (0.5, 2.0), (4.1, 0.7), (2.0, 2.2)]))
    ok = True
    pairs = 0
    for sp in spaces:
        for n in (2, 3, 4):
            sets = tuple(enumerate_fsets(sp, n))
            seps = [min_separation(A, n, sp) for A in sets]
            for (A, sa), (B, sb) in itertools.combinations(zip(sets, seps), 2):
                pairs += 1
                if abs(sa - sb) > 2 * hausdorff(A, B, sp) + 1e-12:
                    ok = False
            for A, sa in zip(sets, seps):
                if len(A) < n:
                    continue
                modes = ("within", "ambient") if isinstance(sp, RealLineSpace) \
                    else ("within",)
                for mode in modes:
                    d = dist_to_lower(A, sp, n, mode=mode, cap=100000)
                    if not sa / 2 - 1e-12 <= d <= sa + 1e-12:
                        ok = False
    verdict(4, "separation properties", ok,
            "2-Lipschitz over %d pairs; sandwich holds in both modes" % pairs)


def test_c05_ultrametric_constants():
    start = time.time()
    worst_generic = 0.0
    worst_snow = 0.0
    for seed in range(20):
        sp = dendrogram_space(random_dendrogram(8, seed=seed))
        dom = SubsetDomain.build(sp, 3)
        fam = build_centers(sp)
        rep = estimate_constant(lambda A: generic_retract(fam, A, 3, 2), dom)
        worst_generic = max(worst_generic, rep.constant)
        plan = build_snowflake_plan(sp, 1.25)
        rep = estimate_constant(lambda A: generic_retract(plan.family, A, 3, 2), dom)
        worst_snow = max(worst_snow, rep.constant)
    elapsed = time.time() - start
    ok = worst_generic <= 5.0 + 1e-9 and worst_snow <= 1.25 + 1e-9 \
        and elapsed < 60.0
    verdict(5, "ultrametric constants", ok,
            "generic %.3f<=5, snowflake %.4f<=1.25, 20 spaces in %.1fs"
            % (worst_generic, worst_snow, elapsed))


def test_c06_subdominant_ultrametric():
    rng = np.random.default_rng(3)
    spaces = [FiniteMetricSpace.from_coords(
        [tuple(p) for p in rng.uniform(0, 1, size=(k, 2))])
        for k in (5, 6, 7)]
    spaces.append(FiniteMetricSpace.from_coords([0.0, 2 / 9, 2 / 3, 8 / 9]))
    spaces.append(FiniteMetricSpace.from_coords(UNEQUAL_GRID[:6]))
    ok = True
    for sp in spaces:
        rho = subdominant_ultrametric(sp)
        N = len(sp.points)
        for i in range(N):
            for j in range(i + 1, N):
                if rho.dist[i, j] != brute_minimax(sp.dist, i, j):
                    ok = False
        if not validate_ultrametric(rho).is_ultrametric:
            ok = False
        c = disconnection_constant(sp).constant
        off = ~np.eye(N, dtype=bool)
        if not (np.all(rho.dist[off] <= sp.dist[off])
                and np.all(c * sp.dist[off] <= rho.dist[off] + 1e-15)):
            ok = False
    verdict(6, "subdominant ultrametric", ok,
            "equals chain minimax on %d spaces; c*d <= rho <= d" % len(spaces))


def test_c07_delete_min_hoelder():
    start = time.time()
    dom30 = SubsetDomain.build(harmonic_space(30), 4, cap=40000)
    assert dom30.exhaustive
    rep = estimate_constant(lambda A: delete_min_retract(A, 4), dom30,
                            hoelder_exponent=0.5)
    hoelder_ok = rep.constant <= 4.0 + 1e-6
    lips = {}
    for K, cap in ((10, 2000), (20, 10000), (40, 10), (80, 10)):
        dom = SubsetDomain.build(harmonic_space(K), 4, cap=cap)
        lips[K] = estimate_constant(lambda A: delete_min_retract(A, 4),
                                    dom).constant
    seq = [lips[K] for K in (10, 20, 40, 80)]
    increasing = all(b > a + 1e-6 for a, b in zip(seq, seq[1:]))
    elapsed = time.time() - start
    verdict(7, "delete-min Hoelder", hoelder_ok and increasing,
            "K=30 sqrt-constant %.3f<=4 over %d pairs; best-fit Lipschitz "
            "%s strictly increasing; %.0fs"
            % (rep.constant, rep.pairs_examined,
               "/".join("%.1f" % v for v in seq), elapsed))


def test_c08_obstruction_witness():
    parts = []
    ok = True
    for L in (1, 2, 5):
        w = lipschitz_obstruction_witness(L)
        try:
            validate_obstruction_witness(w)
        except ValueError:
            ok = False
        if not (isinstance(w.x, Fraction) and isinstance(w.max_step, Fraction)):
            ok = False
        if not (w.L + 1) * (w.z - w.y) < w.x / 2:
            ok = False
        parts.append("L=%d:k=%d,chain=%d" % (L, w.k, len(w.chain)))
    verdict(8, "obstruction witness", ok, "; ".join(parts))


def test_c09_path_machinery():
    rng = np.random.default_rng(0)
    split_ok = 0
    for _ in range(100):
        gap = rng.uniform(5.0, 10.0)
        w1, w2 = rng.uniform(0.02, 0.2, size=2)
        a, b = rng.uniform(-0.3, 0.3, size=2)
        grid = tuple(i / 8 for i in range(9))
        vals = [FSet((a * t, w1 + a * t, gap + b * t, gap + w2 + b * t))
                for t in grid]
        f = SampledPath.from_samples(grid, vals)
        g, h = split_gh(f, 0.0, FSet((0.0, w1)), L=0.5)
        if all(FSet(tuple(gv) + tuple(hv)) == fv
               for gv, hv, fv in zip(g.values, h.values, f.values)) \
                and g.lipschitz <= 0.5 + 1e-9 and h.lipschitz <= 0.5 + 1e-9:
            split_ok += 1

    grid = tuple(i / 50 for i in range(51))
    branches = ([-2.0 + t for t in grid],
                [0.5 * math.sin(t) for t in grid],
                [3.0 + 0.5 * t for t in grid])
    f = SampledPath.from_samples(grid, [FSet(col) for col in zip(*branches)])
    parts = decompose_path(f)
    got = sorted(tuple(tuple(v)[0] for v in p.values) for p in parts)
    decompose_ok = got == sorted(tuple(b) for b in branches)

    tight_grid = tuple(i / 8 for i in range(9))
    tight = SampledPath.from_samples(
        tight_grid, [FSet((-1.0 + t, 1.0 - t)) for t in tight_grid])
    out = merge_curve(tight)
    merge_ok = abs(out.length - 2.0 * out.gamma_length) <= 1e-9
    for _ in range(50):
        steps = 10
        u, v = -1.0, 1.0
        vals = [FSet((u, v))]
        for i in range(steps):
            if i == steps - 1:
                u = v = 0.5 * (u + v)
            else:
                u += rng.uniform(-0.1, 0.1)
                v += rng.uniform(-0.1, 0.1)
            vals.append(FSet((u, v)))
        gamma = SampledPath.from_samples(
            [i / steps for i in range(steps + 1)], vals)
        out = merge_curve(gamma)
        if out.length > 2.0 * out.gamma_length + 1e-9:
            merge_ok = False
    verdict(9, "path machinery", split_ok == 100 and decompose_ok and merge_ok,
            "split 100/100; decompose exact; merge <= 2*len, tight case exact")


def test_c10_obstruction_probes():
    parab = []
    for T in (1, 2, 4, 8):
        N = 16 * T + 1
        sp = parabola_space(T, N)
        step = max(sp.dist[i, i + 1] for i in range(N - 1))
        parab.append(quasiconvexity_constant(sp, 1.01 * step).constant)
    parab_ok = all(b > a for a, b in zip(parab, parab[1:]))

    eps = 0.1
    left = [round(-1.0 + 0.05 * i, 10) for i in range(21)]
    right = [round(eps + 0.05 * i, 10) for i in range(19)]
    rep = quasiconvexity_constant(RealLineSpace(left + right), 0.075)
    gap_ok = not rep.connected and rep.witness == (0.0, eps)

    rug = []
    for per in (9, 17, 33):
        step = (1.0 / (per - 1)) ** 0.5
        rug.append(quasiconvexity_constant(rickman_rug(per),
                                           1.01 * step).constant)
    rug_ok = all(b > a for a, b in zip(rug, rug[1:]))

    verdict(10, "obstruction probes", parab_ok and gap_ok and rug_ok,
            "parabola %s; gap witness %s; rug %s"
            % ("/".join("%.2f" % v for v in parab), rep.witness,
               "/".join("%.2f" % v for v in rug)))


def test_c11_qc_bounds_exact():
    b = qc_bounds(1)
    ok = b.r == 1.0 / 1536 and b.M == 16.0
    verdict(11, "quasiconvexity bounds", ok, "r=1/1536, M=16 at L=1")


def test_c12_quasihomogeneous_transport():
    L = 1.2
    eta = QhModulus.linear(L * L)
    ok = True
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        pts = [float(x) for x in sorted(rng.uniform(0.0, 10.0, size=6))]
        X = RealLineSpace(pts)
        DX = np.abs(np.subtract.outer(pts, pts))
        W = DX * rng.uniform(1.0, L, size=DX.shape)
        W = np.triu(W, 1) + np.triu(W, 1).T
        DY = shortest_path(W, method="D", directed=False)
        Y = FiniteMetricSpace(pts, DY)

        rep = check_induced_qh(lambda x: x, X, Y, 3, eta)
        if not rep.ok:
            ok = False

        def r(A):
            return delete_min_retract(A, 3)

        lip_x = estimate_constant(r, SubsetDomain.build(X, 3)).constant
        lip_y = estimate_constant(r, SubsetDomain.build(Y, 3)).constant
        bound = eta(lip_x)
        worst = max(worst, lip_y / bound)
        if lip_y > bound + 1e-9:
            ok = False
    verdict(12, "quasihomogeneous transport", ok,
            "20 shortest-path perturbations; eta(t)=%.2ft; ratio <= %.3f"
            % (L * L, worst))
