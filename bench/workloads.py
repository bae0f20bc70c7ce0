"""Certificates of the four benchmark workloads, each produced by finset and
checked against the reference computations or against a property the
method guarantees.

``certificates(workload, inputs, wrap, out_dir)`` returns a list of
(name, thunk) pairs; one round of a run calls every thunk once.  A thunk
produces one certificate through finset's public API or ``finset.cli.run``
and checks it, raising ``CheckFailed`` when the certificate is wrong.  The
checks run inside ``with checking:``, so that a run can tell how much of a
certificate's time is the benchmark's own reference work.
``wrap(f, name)`` is how the traced run times the retraction passed as
``f``; the untraced run passes the map through unchanged.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from fractions import Fraction

import numpy as np

import reference
from finset import analysis, cli, line, transforms, ultra

# Relative slack for comparisons of a float computed by finset with the same
# quantity from a reference that adds or rounds in another order.
REL = 1e-9
# Set pairs (or point quadruples) drawn per ratio check.
PAIR_SAMPLE = 1000


class CheckFailed(Exception):
    """A certificate came out but lacks a property the method guarantees."""


class CheckClock:
    """Adds up the wall time spent inside ``with`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start


checking = CheckClock()


def require(ok, message, *args):
    if not ok:
        raise CheckFailed(message % args)


def close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def matrix_distance(D, index):
    """Reference Hausdorff distance of sets of points under the matrix D."""
    return lambda A, B: reference.hausdorff_matrix(
        D, [index[p] for p in A], [index[p] for p in B])


def check_exhaustive(rep, sets, image, dist, beta, seed):
    """Checks of an exhaustive constant: every pair was examined, the constant
    is the reference ratio of its own witness, and no pair of a seeded
    sample has a larger ratio."""
    N = len(sets)
    require(rep.mode == "exhaustive" and rep.pairs_examined == N * (N - 1) // 2,
            "%s search examined %d of %d pairs", rep.mode, rep.pairs_examined,
            N * (N - 1) // 2)
    A, B = rep.witness
    own = reference.pair_ratio(A, B, image, dist, beta)
    require(close(rep.constant, own), "constant %r, but its witness has ratio %r",
            rep.constant, own)
    worst = reference.max_sampled_ratio(sets, image, dist, beta,
                                        random.Random(seed), PAIR_SAMPLE)
    require(worst <= rep.constant * (1 + REL),
            "a sampled pair has ratio %r above the constant %r", worst, rep.constant)


def harmonic_exhaustive(inp, wrap, out_dir):
    n, K = inp.n, inp.K

    def delete_min(A):
        return reference.delete_min(A, n)

    def delete_min_constant(beta):
        def certify():
            f = wrap(lambda A: line.delete_min_retract(A, n), "line.map")
            rep = analysis.estimate_constant(f, inp.domain, hoelder_exponent=beta)
            with checking:
                check_exhaustive(rep, inp.domain.sets, delete_min,
                                 reference.hausdorff_line, beta, inp.seed)
                if beta == 1.0:
                    # {0, 1/K, 1/(K-2)} against the same set with 1/(K-1)
                    # added has ratio exactly K - 1 in exact arithmetic
                    A = (0.0, 1.0 / K, 1.0 / (K - 2))
                    low = reference.pair_ratio(A, A + (1.0 / (K - 1),), delete_min,
                                               reference.hausdorff_line, 1.0)
                    require(close(low, K - 1) and rep.constant >= low * (1 - REL),
                            "Lipschitz constant %r is below K-1 = %d", rep.constant, K - 1)
                else:
                    require(1 - REL <= rep.constant <= 4 * (1 + REL),
                            "Hoelder constant %r is outside [1, 4]", rep.constant)
        return certify

    def line_constant():
        f = wrap(lambda A: line.line_retract(A, n), "line.map")
        rep = analysis.estimate_constant(f, inp.grid_domain)
        with checking:
            require(rep.constant <= (4 * n - 3) * (1 + REL),
                    "line retraction constant %r exceeds 4n-3 = %d", rep.constant, 4 * n - 3)
            check_exhaustive(rep, inp.grid_domain.sets,
                             lambda A: reference.line_collapse(A, n),
                             reference.hausdorff_line, 1.0, inp.seed)

    return [("delete-min-hoelder", delete_min_constant(0.5)),
            ("delete-min-lipschitz", delete_min_constant(1.0)),
            ("line-retract", line_constant)]


def ultra_certify(inp, wrap, out_dir):
    cloud, D = inp.cloud, inp.cloud.dist
    index = {p: i for i, p in enumerate(cloud.points)}
    off = ~np.eye(len(D), dtype=bool)
    # as in `finset ultra-build`, the centers are built on the subdominant
    # metric that the certificate before them produced
    pipeline = {}

    def validate():
        rep = ultra.validate_ultrametric(cloud)
        with checking:
            slack = reference.ultrametric_slack(D)
            require(not rep.is_ultrametric and close(rep.violation, slack),
                    "violation %r, reference slack %r", rep.violation, slack)
            i, j, z = (index[p] for p in rep.worst_triple)
            require(close(D[i, j] - max(D[i, z], D[z, j]), rep.violation),
                    "the worst triple does not fail by the reported violation")

    def subdominant():
        sub = ultra.subdominant_ultrametric(cloud)
        with checking:
            rho = reference.cophenetic(inp.coords)
            require(np.allclose(sub.dist, rho, rtol=REL, atol=0.0),
                    "subdominant ultrametric differs from single linkage by %r",
                    float(np.abs(sub.dist - rho).max()))
            require((sub.dist <= D).all() and reference.ultrametric_slack(sub.dist) <= 0.0,
                    "subdominant is not an ultrametric below d")
        pipeline["sub"] = sub

    def disconnection():
        rep = ultra.disconnection_constant(cloud)
        with checking:
            rho = reference.cophenetic(inp.coords)
            c = rep.constant
            require(0 < c <= 1 and close(c, float((rho[off] / D[off]).min())),
                    "disconnection constant %r is not min rho/d", c)
            require((c * D[off] <= rho[off] * (1 + REL)).all()
                    and (rho[off] <= D[off] * (1 + REL)).all(), "c*d <= rho <= d fails")
            i, j = (index[p] for p in rep.witness)
            chain = [index[p] for p in rep.chain]
            require(chain[0] == i and chain[-1] == j, "chain does not join the witness")
            steps = D[chain[:-1], chain[1:]]
            require((steps <= rho[i, j] * (1 + REL)).all(),
                    "a chain step %r exceeds the bottleneck %r", float(steps.max()), rho[i, j])

    def centers():
        sub = pipeline.pop("sub")
        fam = ultra.build_centers(sub)
        with checking:
            faults = reference.center_family_faults(sub.dist, index, fam.maps, fam.levels)
            require(not faults, "; ".join(faults))
            require(len(set(fam.maps[fam.levels[0]].values())) == 1,
                    "the coarsest level keeps more than one center")
            require(len(set(fam.maps[fam.levels[-1]].values())) == len(index),
                    "the finest level is not injective")

    def tree_constant(t, snowflake):
        tree, domain, m = inp.trees[t], inp.domains[t], inp.n - 1
        tree_index = {p: i for i, p in enumerate(tree.points)}

        def certify():
            if snowflake:
                plan = ultra.build_snowflake_plan(tree, inp.snow_target)
                family, bound, D_fam = plan.family, inp.snow_target, plan.powered.dist
            else:
                family, bound, D_fam = ultra.build_centers(tree), 5.0, tree.dist
            f = wrap(lambda A: ultra.generic_retract(family, A, inp.n, m), "ultra.map")
            rep = analysis.estimate_constant(f, domain)
            with checking:
                require(not snowflake or plan.constant_bound <= bound,
                        "snowflake plan misses its target")
                faults = reference.center_family_faults(D_fam, tree_index, family.maps,
                                                        family.levels)
                require(not faults, "; ".join(faults))
                require(rep.constant <= bound * (1 + REL),
                        "retraction constant %r exceeds %r", rep.constant, bound)
                check_exhaustive(
                    rep, domain.sets,
                    lambda A: reference.generic_collapse(family.maps, family.levels, A, m),
                    matrix_distance(tree.dist, tree_index), 1.0, inp.seed)
        return certify

    certs = [("cloud-validate", validate), ("cloud-subdominant", subdominant),
             ("cloud-disconnection", disconnection), ("cloud-centers", centers)]
    for t in range(len(inp.trees)):
        certs.append(("tree%d-generic" % t, tree_constant(t, False)))
        certs.append(("tree%d-snowflake" % t, tree_constant(t, True)))
    return certs


def obstruction_cli(inp, wrap, out_dir):
    out = os.path.join(out_dir, "report.json")

    def run_cli(argv):
        code = cli.run(argv + ["--out", out])
        with checking:
            require(code == 0, "finset %s exited with %d", argv[0], code)
            with open(out) as fh:
                return json.load(fh)

    def witness():
        rep = run_cli(["witness", "--L", inp.witness_L, "--full-chain"])
        with checking:
            L, x, y, z = (Fraction(rep[k]) for k in ("L", "x", "y", "z"))
            require(rep["validated"] is True, "the CLI did not validate its witness")
            require(L == Fraction(inp.witness_L) and 0 < 2 * x < y < z
                    and 2 * L * x * x < y * y and (L + 1) * (z - y) < x / 2,
                    "witness inequalities fail for x=%s y=%s z=%s", x, y, z)
            chain = [[Fraction(v) for v in S] for S in rep["chain"]]
            require(len(chain) == rep["chain_length"] and all(len(S) <= 4 for S in chain),
                    "chain length or set size is wrong")
            require(sorted(chain[0]) == [0, y, z] and sorted(chain[-1]) == [0, x, y, z],
                    "chain does not run from {0, y, z} to {0, x, y, z}")
            top = max(reference.hausdorff_line(a, b) for a, b in zip(chain, chain[1:]))
            require(top <= x * x and top == Fraction(rep["max_step"]),
                    "largest chain step %s, reported %s, bound x^2 = %s",
                    top, rep["max_step"], x * x)

    points = set(inp.sampled_points)

    def sampled(beta, seed):
        def certify():
            rep = run_cli(["estimate-lip", "--space", json.dumps(inp.sampled_space),
                           "--map", "delete-min", "--n", str(inp.sampled_n),
                           "--exponent", repr(beta), "--seed", str(seed),
                           "--budget", str(inp.budget)])
            with checking:
                require(rep["mode"] == "sampled" and 0 < rep["pairs_examined"] <= inp.budget,
                        "%s search over %d pairs", rep["mode"], rep["pairs_examined"])
                A, B = rep["witness"]
                require(A != B and set(A) | set(B) <= points
                        and max(len(A), len(B)) <= inp.sampled_n,
                        "witness %r, %r is not a pair of the domain", A, B)
                own = reference.pair_ratio(A, B, lambda S: reference.delete_min(S, inp.sampled_n),
                                           reference.hausdorff_line, beta)
                require(close(rep["constant"], own), "constant %r, but its witness has ratio %r",
                        rep["constant"], own)
                require(beta == 1.0 or rep["constant"] <= 4 * (1 + REL),
                        "Hoelder constant %r exceeds 4", rep["constant"])
        return certify

    def quasiconvexity(spec, space, eps):
        index = {p: i for i, p in enumerate(space.points)}

        def certify():
            rep = run_cli(["quasiconvexity", "--space", json.dumps(spec), "--eps", repr(eps)])
            with checking:
                ratios = reference.path_ratios(space.dist, eps)
                top = float(ratios.max())
                require(rep["connected"] is True and np.isfinite(top) and top >= 1.0,
                        "the eps-graph is not connected")
                require(close(rep["constant"], top),
                        "constant %r, Floyd-Warshall gives %r", rep["constant"], top)
                a, b = (index[tuple(p)] for p in rep["witness"])
                require(close(float(ratios[a, b]), top), "the witness pair does not attain it")
        return certify

    certs = [("witness", witness)]
    for beta in (1.0, 0.5):
        for seed in inp.sampled_seeds:
            certs.append(("estimate-lip-beta%g-seed%d" % (beta, seed), sampled(beta, seed)))
    for label, spec, space, eps in inp.qc:
        certs.append(("quasiconvexity-" + label, quasiconvexity(spec, space, eps)))
    return certs


def qh_transport(inp, wrap, out_dir):
    n, L, alpha = inp.n, inp.L, inp.alpha
    eta = transforms.QhModulus.linear(L * L)

    def identity(p):
        return p

    def delete_min(A):
        return reference.delete_min(A, n)

    def check_witness_excess(rep, excess):
        """The reported witness quadruple must have the reported excess."""
        own = excess(*rep.witness)
        require(close(own, rep.worst_excess),
                "witness quadruple has excess %r, reported %r", own, rep.worst_excess)

    def set_pairs(points, seed):
        sets = [S for k in range(1, n + 1) for S in itertools.combinations(points, k)]
        rng = random.Random(seed)
        return [rng.sample(sets, 2) for _ in range(PAIR_SAMPLE)]

    def perturbation_certs(t, pert):
        index = {p: i for i, p in enumerate(pert.X.points)}
        pts = np.array(pert.X.points)
        DX = np.abs(pts[:, None] - pts[None, :])
        hx, hy = matrix_distance(DX, index), matrix_distance(pert.Y.dist, index)

        def qh_linear():
            rep = transforms.check_induced_qh(identity, pert.X, pert.Y, n, eta)
            with checking:
                require(rep.ok, "quadruple condition fails by %r", rep.worst_excess)
                # linear moduli compare the largest and least stretch of set pairs
                check_witness_excess(rep, lambda A1, A2, A3, A4: hy(A1, A2) / hx(A1, A2)
                                     - L * L * hy(A3, A4) / hx(A3, A4))
                # X -> Y is L-bi-Lipschitz, hence so is the induced map on X(n)
                for A, B in set_pairs(pert.X.points, inp.seed + t):
                    r = hy(A, B) / hx(A, B)
                    require(1 - REL <= r <= L * (1 + REL),
                            "set pair stretched by %r, outside [1, %r]", r, L)

        def transport():
            f = wrap(lambda A: line.delete_min_retract(A, n), "line.map")
            lip_x = analysis.estimate_constant(f, pert.X_domain)
            lip_y = analysis.estimate_constant(f, pert.Y_domain)
            with checking:
                require(lip_y.constant <= eta(lip_x.constant) * (1 + REL),
                        "lip_Y %r exceeds L^2 lip_X = %r", lip_y.constant, eta(lip_x.constant))
                check_exhaustive(lip_x, pert.X_domain.sets, delete_min,
                                 reference.hausdorff_line, 1.0, inp.seed + t)
                check_exhaustive(lip_y, pert.Y_domain.sets, delete_min, hy, 1.0, inp.seed + t)

        def modulus():
            mod = transforms.estimate_qh_modulus(identity, pert.X, pert.Y)
            with checking:
                ts, etas = mod.table
                require(all(e <= eta(s) * (1 + REL) for s, e in zip(ts, etas)),
                        "empirical modulus exceeds L^2 t")
                DY = pert.Y.dist
                rng = random.Random(inp.seed + t)
                for _ in range(PAIR_SAMPLE):
                    a, b, c, d = rng.sample(range(len(pts)), 4)
                    rx, ry = DX[a, b] / DX[c, d], DY[a, b] / DY[c, d]
                    require(ry <= mod(rx * (1 + REL)) * (1 + REL),
                            "quadruple ratio %r above the modulus at %r", ry, rx)

        return [("qh-linear-%d" % t, qh_linear), ("transport-%d" % t, transport),
                ("modulus-%d" % t, modulus)]

    def snowflake():
        X = inp.snow
        Y = transforms.apply_transform(X, transforms.MetricTransform("power", alpha=alpha))
        power = transforms.QhModulus.power(alpha)
        rep = transforms.check_induced_qh(identity, X, Y, n, power)
        with checking:
            require(np.allclose(Y.dist, X.dist ** alpha, rtol=REL, atol=0.0),
                    "apply_transform is not d ** alpha")
            require(rep.ok, "quadruple condition fails by %r", rep.worst_excess)
            index = {p: i for i, p in enumerate(X.points)}
            hx, hy = matrix_distance(X.dist, index), matrix_distance(X.dist ** alpha, index)
            check_witness_excess(rep, lambda A1, A2, A3, A4: hy(A1, A2) / hy(A3, A4)
                                 - power(hx(A1, A2) / hx(A3, A4)))
            # t -> t**alpha is increasing, so the Hausdorff distance of the
            # snowflaked metric is the snowflaked Hausdorff distance
            for A, B in set_pairs(X.points, inp.seed):
                require(close(hy(A, B), hx(A, B) ** alpha),
                        "Hausdorff distance does not snowflake on %r, %r", A, B)

    certs = []
    for t, pert in enumerate(inp.perturbations):
        certs.extend(perturbation_certs(t, pert))
    certs.append(("snowflake-identity", snowflake))
    return certs


WORKLOADS = {
    "harmonic-exhaustive": harmonic_exhaustive,
    "ultra-certify": ultra_certify,
    "obstruction-cli": obstruction_cli,
    "qh-transport": qh_transport,
}


def certificates(workload, inputs, wrap, out_dir):
    return WORKLOADS[workload](inputs, wrap, out_dir)
