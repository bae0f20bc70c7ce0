"""Example space generators and the command-line front end."""

import json
import math

import numpy as np
import pytest

from finset import FiniteMetricSpace, IntervalUnion, RealLineSpace, cli, ultra
from finset.cli import next_csv_row
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


class TestGenerators:
    def test_harmonic(self):
        sp = harmonic_space(3)
        assert sp.points == [0.0, 1 / 3, 0.5, 1.0]

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
        fin = generate({"kind": "explicit", "points": ["p", "q"],
                        "dist": [[0, 2], [2, 0]]})
        assert isinstance(fin, FiniteMetricSpace) and fin.d("p", "q") == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generate({"kind": "moebius"})


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
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
            "retract", "--map", "ultra",
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
        out_file = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, [
            "estimate-lip", "--map", "line",
            "--space", '{"kind": "line", "points": [0, 0.5, 2]}',
            "--n", "2", "--out", str(out_file)])
        assert code == 0
        header, row = out_file.read_text().splitlines()
        assert header.split(",") == ["kind", "constant", "exponent", "witness_a",
                                     "witness_b", "pairs_examined", "mode"]
        cells = next_csv_row(row)
        assert cells[0] == "lipschitz"
        assert float(cells[1]) > 0

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
            "generic_bound": ultra.generic_retract_bound(),
        }
        assert json.loads(out) == cli._jsonable(expected)

    def test_seed_and_cap_belong_to_estimate_lip(self, capsys):
        for flag in ("--cap", "--seed"):
            with pytest.raises(SystemExit) as exc:
                cli.run(["validate", "--space", '{"kind": "harmonic", "K": 4}',
                         flag, "5"])
            assert exc.value.code == 2
            assert "unrecognized arguments: %s 5" % flag in capsys.readouterr().err

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
