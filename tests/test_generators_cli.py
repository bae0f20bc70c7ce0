"""Example space generators and the command-line front end."""

import argparse
import csv
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from finset import (FiniteMetricSpace, IntervalUnion, MetricTransform, RealLineSpace,
                    cli, ultra)
from finset.generators import (
    cantor_points,
    cantor_space,
    dendrogram_space,
    generate,
    harmonic_space,
    lattice_lines_space,
    parabola_space,
    random_dendrogram,
    rickman_rug,
    snowflake_interval,
)
from finset.metric import as_finite_space

from brute import reference_dendrogram_dist


class TestGenerators:
    def test_harmonic(self):
        sp = harmonic_space(3)
        assert sp.points == [0.0, 1 / 3, 0.5, 1.0]

    def test_harmonic_needs_a_point(self):
        with pytest.raises(ValueError, match="K must be at least 1"):
            harmonic_space(0)

    def test_cantor_frozen(self):
        assert cantor_points(1 / 3, 2) == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9])
        assert cantor_points(depth=0) == [0.0]
        assert isinstance(cantor_space(1 / 3, 2), RealLineSpace)

    def test_cantor_validation(self):
        with pytest.raises(ValueError):
            cantor_points(0.5, 2)
        with pytest.raises(ValueError):
            cantor_points(1 / 3, -1)

    def test_snowflake_interval(self):
        sp = snowflake_interval(0.5, 3)
        assert sp.points == [0.0, 0.5, 1.0]
        assert sp.d(0.0, 0.5) == pytest.approx(0.5 ** 0.5)
        assert snowflake_interval(1.0, 3).d(0.0, 0.5) == 0.5
        with pytest.raises(ValueError):
            snowflake_interval(1.5, 3)
        with pytest.raises(ValueError):
            snowflake_interval(0.5, 1)

    def test_parabola_frozen(self):
        sp = parabola_space(2, 5)
        assert sp.points == [(-2.0, 4.0), (-1.0, 1.0), (0.0, 0.0),
                             (1.0, 1.0), (2.0, 4.0)]
        with pytest.raises(ValueError):
            parabola_space(0, 5)

    def test_lattice_lines(self):
        sp = lattice_lines_space(1.0, 0.5)
        assert len(sp.points) == 15
        assert sp.d((0.0, 0.0), (0.0, 1.0)) == 1.0
        with pytest.raises(ValueError):
            lattice_lines_space(0, 0.5)

    def test_rickman_rug(self):
        sp = rickman_rug(3)
        assert len(sp.points) == 9
        # plain direction keeps lengths, snowflaked direction stretches
        assert sp.d((0.0, 0.0), (0.5, 0.0)) == 0.5
        assert sp.d((0.0, 0.0), (0.0, 0.5)) == pytest.approx(0.5 ** 0.5)

    def test_dendrogram_frozen(self):
        tree = {"merge_height": 1.0, "children": [
            {"merge_height": 0.5, "children": [{"point": "a"}, {"point": "b"}]},
            {"point": "c"}]}
        sp = dendrogram_space(tree)
        assert sp.d("a", "b") == 0.5
        assert sp.d("a", "c") == 1.0 and sp.d("b", "c") == 1.0

    def test_dendrogram_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            dendrogram_space({"merge_height": 0.5, "children": [
                {"merge_height": 1.0, "children": [{"point": 0}, {"point": 1}]},
                {"point": 2}]})
        with pytest.raises(ValueError, match="duplicate"):
            dendrogram_space({"merge_height": 1.0,
                              "children": [{"point": 0}, {"point": 0}]})
        with pytest.raises(ValueError, match="positive"):
            dendrogram_space({"merge_height": 0.0,
                              "children": [{"point": 0}, {"point": 1}]})

    def test_dendrogram_blocks_match_the_pair_list(self):
        # binary random trees, and trees of two to four children per node
        # with string leaves and heights that tie between levels
        rng = np.random.default_rng(2)

        def wide_tree(leaves, height):
            if len(leaves) == 1:
                return {"point": leaves[0]}
            fan = min(int(rng.integers(2, 5)), len(leaves))
            cuts = [0, *sorted(rng.choice(range(1, len(leaves)), fan - 1, replace=False)),
                    len(leaves)]
            below = max(0.1, round(height - rng.choice([0.0, 0.1, 0.25]), 2))
            return {"merge_height": height,
                    "children": [wide_tree(leaves[a:b], below) for a, b in zip(cuts, cuts[1:])]}

        trees = [random_dendrogram(k, seed=k) for k in (1, 2, 3, 17, 60)]
        trees += [wide_tree(["l%d" % i for i in range(k)], 1.0) for k in (2, 5, 30, 80)]
        for tree in trees:
            sp = dendrogram_space(tree)
            assert sp.dist.tobytes() == reference_dendrogram_dist(tree).tobytes()

    def test_random_dendrogram_deterministic(self):
        a = dendrogram_space(random_dendrogram(8, seed=3))
        b = dendrogram_space(random_dendrogram(8, seed=3))
        c = dendrogram_space(random_dendrogram(8, seed=4))
        assert np.array_equal(a.dist, b.dist)
        assert not np.array_equal(a.dist, c.dist)
        with pytest.raises(ValueError):
            random_dendrogram(0)


class TestGenerate:
    def test_dispatch_each_kind(self):
        assert generate({"kind": "harmonic", "K": 3}).points[0] == 0.0
        assert len(generate({"kind": "cantor", "depth": 1}).points) == 2
        assert len(generate({"kind": "snowflake", "per_side": 4}).points) == 4
        assert len(generate({"kind": "parabola", "T": 1, "N": 5}).points) == 5
        assert len(generate({"kind": "lattice_lines",
                             "window": 1, "step": 1}).points) == 9
        assert len(generate({"kind": "rug", "per_side": 3}).points) == 9
        assert len(generate({"kind": "dendrogram", "leaves": 5}).points) == 5
        tree = {"merge_height": 1.0, "children": [{"point": 0}, {"point": 1}]}
        assert generate({"kind": "dendrogram", "tree": tree}).d(0, 1) == 1.0

    def test_interval_union_and_product(self):
        iu = generate({"kind": "interval_union", "intervals": [[0, 1], [5, 5]]})
        assert isinstance(iu, IntervalUnion)
        prod = generate({"kind": "product",
                         "x": {"kind": "line", "points": [0, 1]},
                         "y": {"kind": "line", "points": [0, 2]}})
        assert prod.d((0.0, 0.0), (1.0, 2.0)) == 2.0

    def test_raw_forms(self):
        sp = generate({"kind": "line", "points": [0.0, 1.0]})
        assert isinstance(sp, RealLineSpace)
        fin = generate({"kind": "finite", "points": ["p", "q"],
                        "dist": [[0, 2], [2, 0]]})
        assert isinstance(fin, FiniteMetricSpace) and fin.d("p", "q") == 2.0

    def test_null_dist_reads_as_no_dist(self):
        # JSON null is None, the default of "dist": the points are coordinates
        points = [[0, 0], [3, 4]]
        absent, null = (generate({"kind": "finite", "points": points, **extra})
                        for extra in ({}, {"dist": None}))
        assert null.to_json() == absent.to_json()
        assert null.d((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generate({"kind": "moebius"})
        # one spelling per kind: the "finite" form has no alias
        with pytest.raises(ValueError, match="^unknown space kind: 'explicit'$"):
            generate({"kind": "explicit", "points": ["p", "q"], "dist": [[0, 2], [2, 0]]})

    def test_defaults_live_on_the_generators(self):
        # a spec without keys builds what the generator builds without arguments
        for kind, build, defaults in (("snowflake", snowflake_interval, (0.5, 9)),
                                      ("parabola", parabola_space, (1.0, 17)),
                                      ("lattice_lines", lattice_lines_space, (2.0, 0.5)),
                                      ("rug", rickman_rug, (9, 0.5)),
                                      ("cantor", cantor_space, (1 / 3, 2))):
            params = inspect.signature(build).parameters.values()
            assert tuple(p.default for p in params) == defaults
            sp, direct = generate({"kind": kind}), build()
            assert sp.points == direct.points
            assert as_finite_space(sp).dist.tobytes() == as_finite_space(direct).dist.tobytes()

    @pytest.mark.parametrize("load, spec, message", [
        (generate, {"kind": "harmonic", "K": 3, "seed": 1},
         "'seed' for kind 'harmonic'; accepted keys: K"),
        (generate, {"kind": "cantor", "extra": 1},
         "'extra' for kind 'cantor'; accepted keys: ratio, depth"),
        (generate, {"kind": "snowflake", "extra": 1},
         "'extra' for kind 'snowflake'; accepted keys: alpha, per_side"),
        (generate, {"kind": "parabola", "t": 5, "n": 50},
         "'n', 't' for kind 'parabola'; accepted keys: T, N"),
        (generate, {"kind": "lattice_lines", "extra": 1},
         "'extra' for kind 'lattice_lines'; accepted keys: window, step"),
        (generate, {"kind": "rug", "extra": 1},
         "'extra' for kind 'rug'; accepted keys: per_side, alpha"),
        (generate, {"kind": "dendrogram", "leaves": 4, "extra": 1},
         "'extra' for kind 'dendrogram'; accepted keys: tree, leaves, seed"),
        (generate, {"kind": "interval_union", "intervals": [[0, 1]], "extra": 1},
         "'extra' for kind 'interval_union'; accepted keys: intervals"),
        (generate, {"kind": "product", "x": {"kind": "line", "points": [0]},
                    "y": {"kind": "line", "points": [0]}, "extra": 1},
         "'extra' for kind 'product'; accepted keys: x, y"),
        (generate, {"kind": "product", "x": {"kind": "line", "points": [0]},
                    "y": {"kind": "harmonic", "K": 2, "k": 3}},
         "'k' for kind 'harmonic'; accepted keys: K"),
        (generate, {"kind": "line", "points": [0, 1], "colour": "red"},
         "'colour' for kind 'line'; accepted keys: points"),
        (generate, {"kind": "line", "points": [0, 0.5], "scale": 2},
         "'scale' for kind 'line'; accepted keys: points"),
        (generate, {"kind": "finite", "points": [[0, 0]], "extra": 1},
         "'extra' for kind 'finite'; accepted keys: points, dist"),
        (MetricTransform.from_json, {"kind": "power", "alpha": 0.5, "beta": 1},
         "'beta' for kind 'power'; accepted keys: alpha"),
        (MetricTransform.from_json, {"kind": "table", "pairs": [[0, 0], [1, 1]], "extra": 1},
         "'extra' for kind 'table'; accepted keys: pairs"),
    ], ids=["harmonic", "cantor", "snowflake", "parabola", "lattice_lines", "rug",
            "dendrogram", "interval_union", "product", "product-nested", "line",
            "line-scale", "finite", "transform-power", "transform-table"])
    def test_unknown_keys_raise(self, load, spec, message):
        with pytest.raises(ValueError) as exc:
            load(spec)
        assert str(exc.value) == "unknown key " + message

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "harmonic", "K": 6.5}, "K must be an integer, got 6.5"),
        ({"kind": "snowflake", "per_side": 4.9}, "per_side must be an integer, got 4.9"),
        ({"kind": "parabola", "N": 17.5}, "N must be an integer, got 17.5"),
        ({"kind": "cantor", "depth": "2"}, "depth must be an integer, got '2'"),
        ({"kind": "rug", "per_side": 3.5}, "per_side must be an integer, got 3.5"),
        ({"kind": "dendrogram", "leaves": 5.5}, "leaves must be an integer, got 5.5"),
        ({"kind": "dendrogram", "leaves": 5, "seed": 0.5}, "seed must be an integer, got 0.5"),
    ], ids=["harmonic", "snowflake", "parabola", "cantor-text", "rug", "dendrogram-leaves",
            "dendrogram-seed"])
    def test_counts_must_be_integers(self, spec, message):
        with pytest.raises(ValueError) as exc:
            generate(spec)
        assert str(exc.value) == message

    def test_integral_float_counts_build_the_same_space(self):
        for spec in ({"kind": "harmonic", "K": 6.0}, {"kind": "snowflake", "per_side": 4.0},
                     {"kind": "dendrogram", "leaves": 5.0, "seed": 7.0}):
            exact = {k: int(v) if isinstance(v, float) else v for k, v in spec.items()}
            sp, direct = generate(spec), generate(exact)
            assert sp.points == direct.points
            assert as_finite_space(sp).dist.tobytes() == as_finite_space(direct).dist.tobytes()

    @pytest.mark.parametrize("load, spec, message", [
        (generate, {"kind": "harmonic"}, "'K' for kind 'harmonic'"),
        (generate, {"kind": "line"}, "'points' for kind 'line'"),
        (generate, {"kind": "finite", "dist": [[0]]}, "'points' for kind 'finite'"),
        (generate, {"kind": "interval_union"}, "'intervals' for kind 'interval_union'"),
        (generate, {"kind": "product"}, "'x', 'y' for kind 'product'"),
        (MetricTransform.from_json, {"kind": "power"}, "'alpha' for kind 'power'"),
        (MetricTransform.from_json, {"kind": "table"}, "'pairs' for kind 'table'"),
    ], ids=["harmonic", "line", "finite", "interval_union", "product", "transform-power",
            "transform-table"])
    def test_missing_keys_raise(self, load, spec, message):
        with pytest.raises(ValueError) as exc:
            load(spec)
        assert str(exc.value) == "missing key " + message

    @pytest.mark.parametrize("spec", [
        {"tree": {"point": 0}, "leaves": 3},
        {"tree": {"point": 0}, "seed": 1},
        {"seed": 1},
        {},
    ], ids=["tree-and-leaves", "tree-and-seed", "seed-alone", "neither"])
    def test_dendrogram_takes_a_tree_or_leaves(self, spec):
        with pytest.raises(ValueError, match='^a dendrogram spec takes "tree", or "leaves"'):
            generate({"kind": "dendrogram", **spec})


UNION = '{"kind": "interval_union", "intervals": [[0, 1], [3, 4]]}'


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_every_option_has_help(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert len(sub.choices) == 8
        assert all(callable(p.get_default("handler")) for p in sub.choices.values())
        silent = [(name, action.option_strings) for name, p in sub.choices.items()
                  for action in p._actions if not action.help]
        assert silent == []

    @pytest.mark.parametrize("space", [
        RealLineSpace([0, Fraction(1, 2), 1]),
        generate({"kind": "finite", "points": ["a", "b"], "dist": [[0, 2], [2, 0]]}),
        generate({"kind": "finite", "points": [[0, 0], [3, 4]]}),
        generate({"kind": "rug", "per_side": 3}),
        generate({"kind": "interval_union", "intervals": [[0, 1], [3, 4]]}),
    ], ids=["line", "finite-matrix", "finite-coordinates", "product", "interval-union"])
    def test_space_summary_is_the_json_form_without_the_matrix(self, space):
        expected = space.to_json()
        if not isinstance(space, IntervalUnion):
            expected.pop("dist", None)
            expected.update(size=len(space.points), diameter=space.diameter())
        summary = cli._space_summary(space)
        assert (json.dumps(cli._jsonable(summary), sort_keys=True)
                == json.dumps(cli._jsonable(expected), sort_keys=True))

    def test_validate_dendrogram(self, capsys):
        code, out, err = run_cli(capsys, [
            "validate", "--space", '{"kind": "dendrogram", "leaves": 5}'])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["valid"] and report["is_ultrametric"]

    def test_validate_harmonic_not_ultrametric(self, capsys):
        code, out, _ = run_cli(capsys, [
            "validate", "--space", '{"kind": "harmonic", "K": 5}'])
        assert code == 0
        assert not json.loads(out)["is_ultrametric"]

    def test_validate_one_point_space(self, capsys):
        code, out, _ = run_cli(capsys, [
            "validate", "--space", '{"kind": "cantor", "depth": 0}'])
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is True and report["min_positive_distance"] is None

    def test_validate_scans_only_explicit_matrices(self, capsys, monkeypatch):
        # coordinates are a metric by proof; an explicit matrix is scanned once
        calls = []
        scan = FiniteMetricSpace.validate
        monkeypatch.setattr(FiniteMetricSpace, "validate",
                            lambda space: calls.append(len(space)) or scan(space))
        grid = [[x, y] for x in range(20) for y in range(20)]
        finite = {"kind": "finite", "points": ["a", "b", "c"],
                  "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
        for spec, scans in (({"kind": "finite", "points": grid}, []), (finite, [3])):
            code, out, _ = run_cli(capsys, ["validate", "--space", json.dumps(spec)])
            assert code == 0 and json.loads(out)["valid"] is True
            assert calls == scans
            calls.clear()

    def test_ultra_build_on_rounded_line_distances(self, capsys):
        # the float distances of these points miss the triangle inequality
        # by 3.73e-09; as line points they are a metric by proof
        spec = '{"kind": "line", "points": [1683698.9, 12782720.4, 26100304.7]}'
        code, out, err = run_cli(capsys, ["ultra-build", "--space", spec])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["is_ultrametric"] is False
        assert report["centers_per_level"] == [1, 1, 3, 3]

    def test_hausdorff(self, capsys):
        code, out, _ = run_cli(capsys, [
            "hausdorff", "--a", "[0, 2]", "--b", "[0, 1, 2]"])
        assert code == 0
        assert json.loads(out)["distance"] == 1

    def test_retract_line(self, capsys):
        code, out, _ = run_cli(capsys, [
            "retract", "--map", "line", "--set", "[0, 1, 3]", "--n", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["output"] == [0, 1]
        assert report["min_separation"] == 1

    def test_retract_generic_on_dendrogram(self, capsys):
        code, out, _ = run_cli(capsys, [
            "retract", "--map", "generic",
            "--space", '{"kind": "dendrogram", "leaves": 6, "seed": 1}',
            "--set", "[0, 1, 2]", "--n", "3", "--m", "2"])
        assert code == 0
        assert len(json.loads(out)["output"]) <= 2

    def test_retract_interval_union(self, capsys):
        code, out, _ = run_cli(capsys, [
            "retract", "--map", "interval-union",
            "--space", '{"kind": "interval_union", "intervals": [[0, 1], [5, 5]]}',
            "--set", "[0, 0.4, 1]", "--n", "3"])
        assert code == 0
        assert json.loads(out)["output"] == pytest.approx([0.0, 0.2])

    def test_estimate_lip_json(self, capsys):
        code, out, _ = run_cli(capsys, [
            "estimate-lip", "--map", "delete-min",
            "--space", '{"kind": "harmonic", "K": 6}', "--n", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "exhaustive"
        assert report["constant"] == pytest.approx(5.0, rel=1e-9)
        assert report["pairs_examined"] == 1953
        assert report["stop_reason"] == "exhaustive"

    def test_estimate_lip_csv(self, capsys, tmp_path):
        # each cell reads back as the JSON report of the same run has it
        argv = ["estimate-lip", "--map", "line",
                "--space", '{"kind": "line", "points": [0, 0.5, 2]}', "--n", "2"]
        out_file = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, argv + ["--out", str(out_file)])
        assert code == 0
        _, out, _ = run_cli(capsys, argv)
        report = json.loads(out)
        with open(out_file, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == ["kind", "constant", "exponent", "witness_a",
                          "witness_b", "pairs_examined", "mode"]
        assert row[0] == report["kind"] == "lipschitz"
        assert float(row[1]) == report["constant"] > 0
        assert float(row[2]) == report["exponent"]
        assert [json.loads(row[3]), json.loads(row[4])] == report["witness"]
        assert int(row[5]) == report["pairs_examined"]
        assert row[6] == report["mode"]

    def test_estimate_lip_deterministic(self, capsys):
        argv = ["estimate-lip", "--map", "delete-min",
                "--space", '{"kind": "harmonic", "K": 40}', "--n", "3",
                "--budget", "500", "--seed", "9"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        report = json.loads(out1)
        assert report["mode"] == "sampled"
        assert (report["pairs_examined"], report["stop_reason"]) == (500, "budget")

    def test_estimate_lip_reports_stale_stop(self, capsys):
        # the hill climb stops finding new pairs at about half the budget
        _, out, _ = run_cli(capsys, [
            "estimate-lip", "--map", "delete-min",
            "--space", '{"kind": "harmonic", "K": 160}', "--n", "4",
            "--budget", "20000", "--seed", "0"])
        report = json.loads(out)
        assert (report["pairs_examined"], report["stop_reason"]) == (11347, "stale")

    def test_estimate_lip_ends_on_few_pairs(self):
        # 28 sets make 378 pairs, fewer than the 1,000 the exploration of a
        # 2,000-pair budget asks for; a subprocess, so that a hang fails
        import finset
        src = os.path.dirname(os.path.dirname(os.path.abspath(finset.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "finset.cli", "estimate-lip",
             "--space", '{"kind": "harmonic", "K": 6}', "--map", "delete-min",
             "--n", "2", "--cap", "5", "--budget", "2000"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["mode"] == "sampled" and report["constant"] == 1.0
        assert (report["pairs_examined"], report["stop_reason"]) == (378, "stale")

    def test_witness_exact_fields(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--L", "3/2"])
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 5
        assert report["chain_length"] == 149
        assert report["x"] == "1/125"
        assert report["max_step"] == "1/15625"
        assert report["validated"] is True
        assert "chain" not in report

    def test_witness_full_chain(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--L", "1", "--full-chain"])
        assert code == 0
        report = json.loads(out)
        assert len(report["chain"]) == 77
        assert report["chain"][0] == ["0/1", "1/17", "1/16"]

    def test_quasiconvexity_disconnected(self, capsys):
        code, out, _ = run_cli(capsys, [
            "quasiconvexity",
            "--space", '{"kind": "line", "points": [0, 0.05, 0.5, 0.55]}',
            "--eps", "0.07"])
        assert code == 0
        report = json.loads(out)
        assert report["constant"] == "inf"
        assert not report["connected"]

    def test_transform(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transform", "--space", '{"kind": "cantor", "depth": 1}',
            "--transform", '{"kind": "power", "alpha": 0.5}', "--L", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["doubling_ratio"] == pytest.approx(math.sqrt(2))
        assert report["transport_constant"] == pytest.approx(math.sqrt(2))
        assert report["distances"] == pytest.approx([math.sqrt(2 / 3)])

    def test_ultra_build_on_cantor(self, capsys):
        code, out, _ = run_cli(capsys, [
            "ultra-build", "--space", '{"kind": "cantor", "depth": 2}'])
        assert code == 0
        report = json.loads(out)
        assert not report["is_ultrametric"]
        assert report["disconnection_constant"] == pytest.approx(0.5)
        assert report["generic_bound"] == 5.0
        assert report["centers_per_level"][0] == 1

    def test_ultra_build_matches_api_on_cloud(self, capsys):
        rng = np.random.default_rng(3)
        spec = FiniteMetricSpace.from_coords(rng.uniform(size=(12, 2)).tolist()).to_json()
        code, out, _ = run_cli(capsys, ["ultra-build", "--space", json.dumps(spec)])
        assert code == 0
        cloud = generate(spec)
        disc = ultra.disconnection_constant(cloud)
        family = ultra.build_centers(ultra.subdominant_ultrametric(cloud))
        expected = {
            "is_ultrametric": False,
            "disconnection_constant": disc.constant,
            "disconnection_witness": list(disc.witness),
            "levels": list(family.levels),
            "scales": [family.scale(k) for k in family.levels],
            "centers_per_level": [len(set(family.maps[k].values()))
                                  for k in family.levels],
            "generic_bound": ultra.GENERIC_BOUND,
        }
        assert json.loads(out) == cli._jsonable(expected)

    def test_ultra_build_on_a_matrix_symmetric_within_tolerance(self, capsys):
        # d(a, b) and d(b, a) differ in the last bit; the disconnection chain
        # once took only the smaller and raised RuntimeError
        spec = {"kind": "finite", "points": [[0.512, 0.95], [0.144, 0.949], [0.312, 0.423]],
                "dist": [[0.0, 0.36800135869314393, 0.5636745514922595],
                         [0.368001358693144, 0.0, 0.5521775076911409],
                         [0.5636745514922596, 0.552177507691141, 0.0]]}
        code, out, err = run_cli(capsys, ["ultra-build", "--space", json.dumps(spec)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert repr(report["disconnection_constant"]) == "0.9796034009861159"
        assert report["disconnection_witness"] == [[0.512, 0.95], [0.312, 0.423]]

    def test_seed_and_cap_belong_to_estimate_lip(self, capsys):
        for flag in ("--cap", "--seed"):
            with pytest.raises(SystemExit) as exc:
                cli.run(["validate", "--space", '{"kind": "harmonic", "K": 4}',
                         flag, "5"])
            assert exc.value.code == 2
            assert "unrecognized arguments: %s 5" % flag in capsys.readouterr().err

    def test_witness_reads_no_space(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["witness", "--L", "2", "--space", "{}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --space {}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--space", '{"kind": "parabola", "t": 5, "n": 50}'],
         "unknown key 'n', 't' for kind 'parabola'; accepted keys: T, N"),
        (["transform", "--space", '{"kind": "line", "points": [0, 1]}',
          "--transform", '{"kind": "power", "alpha": 0.5, "a": 1}'],
         "unknown key 'a' for kind 'power'; accepted keys: alpha"),
        (["validate", "--space", '{"kind": "dendrogram", "tree": {"point": 0}, "leaves": 3}'],
         'a dendrogram spec takes "tree", or "leaves" and an optional "seed"'),
        (["validate", "--space", '{"kind": "explicit", "points": [0], "dist": [[0]]}'],
         "unknown space kind: 'explicit'"),
        (["validate", "--space", '{"kind": "harmonic", "K": 6.5}'],
         "K must be an integer, got 6.5"),
        (["validate", "--space", '{"kind": "line"}'], "missing key 'points' for kind 'line'"),
        (["validate", "--space", '{"kind": "harmonic"}'], "missing key 'K' for kind 'harmonic'"),
        (["transform", "--space", '{"kind": "line", "points": [0, 1]}',
          "--transform", '{"kind": "table"}'],
         "missing key 'pairs' for kind 'table'"),
        (["validate", "--space", "[1, 2]"], "a spec must be a JSON object, got [1, 2]"),
    ] + [(["retract", "--map", alias, "--set", "[0, 1]", "--n", "2",
           "--space", '{"kind": "interval_union", "intervals": [[0, 1], [5, 6]]}'],
          "unknown retraction %r; accepted: line, median, delete-min, interval-union, "
          "generic, snowflake" % alias)
         for alias in ("delete_min", "interval_union", "ultra")]
    # a sampled search that could score no pair says why
    + [(["estimate-lip", "--space", '{"kind": "harmonic", "K": 40}', "--map", "delete-min",
         "--n", "4", "--budget", budget], "pair budget must be at least 2, got %s" % budget)
       for budget in ("1", "0", "-5")]
    + [(["estimate-lip", "--space", '{"kind": "line", "points": [0]}', "--map", "line",
         "--n", "1", "--cap", "0"], "domain must contain at least two subsets")],
        ids=["parabola-typo", "transform-key", "dendrogram-both", "explicit",
             "harmonic-fraction", "line-missing", "harmonic-missing", "transform-missing",
             "spec-list", "map-delete_min", "map-interval_union", "map-ultra",
             "budget-1", "budget-0", "budget-negative", "one-set"])
    def test_spec_and_map_errors_exit_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, report", [
        (["hausdorff", "--space", UNION, "--a", "[0]", "--b", "[3]"], 0,
         {"a": [0], "b": [3], "distance": 3}),
        (["quasiconvexity", "--space", UNION, "--eps", "0.5"], 1,
         {"error": "ValueError", "message": "IntervalUnion has no listed points"}),
        (["transform", "--space", UNION, "--transform", '{"kind": "power", "alpha": 0.5}'], 1,
         {"error": "ValueError", "message": "IntervalUnion has no listed points"}),
        (["ultra-build", "--space", UNION], 1,
         {"error": "ValueError", "message": "IntervalUnion has no listed points"}),
        (["retract", "--map", "generic", "--set", "[0, 1]", "--n", "2"], 1,
         {"error": "ValueError", "message": "generic retraction needs a --space"}),
        (["retract", "--map", "snowflake", "--set", "[0, 1]", "--n", "2"], 1,
         {"error": "ValueError", "message": "snowflake retraction needs a --space"}),
    ], ids=["hausdorff-union", "quasiconvexity-union", "transform-union", "ultra-build-union",
            "generic-no-space", "snowflake-no-space"])
    def test_spaces_a_command_cannot_read_fail_typed(self, capsys, argv, code, report):
        # a Hausdorff distance on an interval union is measured on its grid;
        # the other commands need listed points, or a space, and say so
        got, out, err = run_cli(capsys, argv)
        assert got == code
        assert json.loads(err if code else out) == report

    @pytest.mark.parametrize("argv, point", [
        (["hausdorff", "--space", '{"kind": "line", "points": [0, 1]}',
          "--a", "[0]", "--b", "[7]"], "7"),
        (["retract", "--map", "line", "--space", UNION, "--set", "[0, 2]", "--n", "2"], "2"),
        (["hausdorff", "--space",
          '{"kind": "finite", "points": ["a", "b"], "dist": [[0, 1], [1, 0]]}',
          "--a", '["a"]', "--b", '["z"]'], "'z'"),
        (["retract", "--map", "delete-min", "--space", '{"kind": "harmonic", "K": 3}',
          "--set", "[0, 0.25]", "--n", "2"], "0.25"),
        (["retract", "--map", "generic", "--space",
          '{"kind": "finite", "points": ["a", "b"], "dist": [[0, 1], [1, 0]]}',
          "--set", '["a", "c"]', "--n", "2"], "'c'"),
    ], ids=["line", "interval-union", "finite", "retract-harmonic", "retract-finite"])
    def test_sets_outside_the_space_fail_typed(self, capsys, argv, point):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "point %s is not in the space" % point}

    def test_interval_union_sets_are_checked_within_the_tolerance(self, capsys):
        # 1 + 1e-10 is within FINSET_TOLERANCE of the interval [0, 1]
        code, out, _ = run_cli(capsys, ["hausdorff", "--space", UNION,
                                        "--a", "[1.0000000001]", "--b", "[3]"])
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(2.0)

    def test_space_file_input(self, capsys, tmp_path):
        spec = tmp_path / "space.json"
        spec.write_text('{"kind": "harmonic", "K": 4}')
        code, out, _ = run_cli(capsys, ["validate", "--space", str(spec)])
        assert code == 0
        assert json.loads(out)["space"]["size"] == 5

    def test_error_reports_json_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, [
            "validate", "--space", '{"kind": "moebius"}'])
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert "moebius" in error["message"]

    def test_error_on_bad_set(self, capsys):
        code, _, err = run_cli(capsys, [
            "retract", "--map", "line", "--set", "[0, 1, 2, 3]", "--n", "3"])
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"
