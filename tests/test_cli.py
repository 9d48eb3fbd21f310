import json
from pathlib import Path

import pytest

from ksetsplus import cli, transforms
from ksetsplus.cli import main
from ksetsplus.measure import SparseSymmetricMeasure

from conftest import all_two_partition_assigns, brute_objective, triangle_violating_semimetric
from ksetsplus.transforms import induced_cohesion

FIXTURE = str(Path(__file__).parent / "data" / "latency_fixture.csv")


@pytest.fixture
def edges3(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# three points, far pair\n0 1 1\n0 2 1\n1 2 6\n")
    return str(path)


class TestClusterCommand:
    def test_fixture_best_two_split(self, tmp_path, edges3):
        out = tmp_path / "part.tsv"
        code = main(
            [
                "cluster",
                "--input", edges3,
                "--format", "edges",
                "--kind", "distance",
                "--k", "2",
                "--seed", "0",
                "--restarts", "10",
                "--output", str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        cohesion = induced_cohesion(triangle_violating_semimetric()).underlying
        best = max(
            brute_objective(cohesion, assign)
            for assign in all_two_partition_assigns(3)
        )
        assert sidecar["objective"] == pytest.approx(best, rel=1e-9)
        assert sidecar["schema"] == 1
        assert sidecar["converged"] is True
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].split("\t")[1] == "0"

    def test_byte_identical_reruns(self, tmp_path, edges3):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        args = [
            "cluster", "--input", edges3, "--kind", "distance",
            "--k", "2", "--seed", "5", "--restarts", "4",
        ]
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            Path(str(out_a) + ".json").read_bytes()
            == Path(str(out_b) + ".json").read_bytes()
        )

    def test_empty_input_is_exit_2(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(
            ["cluster", "--input", str(empty), "--k", "2",
             "--output", str(tmp_path / "o.tsv")]
        )
        assert code == 2

    def test_k_one_is_exit_3(self, tmp_path, edges3):
        code = main(
            ["cluster", "--input", edges3, "--k", "1",
             "--output", str(tmp_path / "o.tsv")]
        )
        assert code == 3

    def test_missing_file_is_exit_2(self, tmp_path):
        code = main(
            ["cluster", "--input", str(tmp_path / "nope.txt"), "--k", "2",
             "--output", str(tmp_path / "o.tsv")]
        )
        assert code == 2

    def test_nan_edge_is_exit_2(self, tmp_path):
        edges = tmp_path / "nan.txt"
        edges.write_text("0 1 1\n1 2 nan\n")
        out = tmp_path / "o.tsv"
        code = main(
            ["cluster", "--input", str(edges), "--k", "2", "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("two_fields.txt", "0 1 1\n1 2\n"),
            ("word_value.txt", "0 1 1\n1 2 high\n"),
            ("ragged.csv", "0,1,2\n1,0\n2,3,0\n"),
        ],
        ids=["two_fields", "word_value", "ragged_dense"],
    )
    def test_parse_error_names_the_file(self, tmp_path, capsys, name, text):
        bad = tmp_path / name
        bad.write_text(text)
        out = tmp_path / "o.tsv"
        fmt = "dense" if name.endswith(".csv") else "edges"
        code = main(
            ["cluster", "--input", str(bad), "--format", fmt, "--k", "2",
             "--output", str(out)]
        )
        assert code == 2
        assert f"error: {bad}: " in capsys.readouterr().err
        assert not out.exists()

    def test_nan_dense_symmetrize_is_exit_2(self, tmp_path):
        dense = tmp_path / "nan.csv"
        dense.write_text("0,1,nan\n2,0,3\n4,5,0\n")
        out = tmp_path / "o.tsv"
        code = main(
            ["cluster", "--input", str(dense), "--format", "dense",
             "--kind", "distance", "--symmetrize", "--k", "2",
             "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_dense_latency_fixture(self, tmp_path):
        out = tmp_path / "latency.tsv"
        code = main(
            [
                "cluster", "--input", FIXTURE, "--format", "dense",
                "--kind", "distance", "--header", "--k", "3",
                "--seed", "1", "--restarts", "5", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("Adelaide\t")


class TestVerifyCommand:
    def test_engine_output_verifies(self, tmp_path, edges3):
        out = tmp_path / "part.tsv"
        main(
            ["cluster", "--input", edges3, "--kind", "distance", "--k", "2",
             "--seed", "0", "--restarts", "10", "--output", str(out)]
        )
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(out)]
        )
        assert code == 0

    def test_bad_partition_fails(self, tmp_path, edges3):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t0\n1\t1\n2\t1\n")
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(bad)]
        )
        assert code == 1

    def test_size_mismatch_is_exit_2(self, tmp_path, edges3):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t0\n1\t1\n")
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(bad)]
        )
        assert code == 2

    def test_rows_out_of_point_order_are_exit_2(self, tmp_path, edges3, capsys):
        # A valid split, {0, 1} and {2}, listed in reverse point order.
        part = tmp_path / "part.tsv"
        part.write_text("2\t1\n1\t0\n0\t0\n")
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(part)]
        )
        assert code == 2
        assert "row 1 is labeled '2', point 0 is '0'" in capsys.readouterr().err

    def test_unknown_labels_are_exit_2(self, tmp_path, edges3, capsys):
        part = tmp_path / "part.tsv"
        part.write_text("x\t0\ny\t0\nz\t1\n")
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(part)]
        )
        assert code == 2
        assert "'x'" in capsys.readouterr().err

    def test_singletons_on_zero_measure(self, tmp_path):
        edges = tmp_path / "zero.txt"
        edges.write_text("# all-zero measure on two points\n")
        part = tmp_path / "part.tsv"
        part.write_text("0\t0\n1\t1\n")
        code = main(
            ["verify", "--input", str(edges), "--n", "2",
             "--kind", "cohesion", "--partition", str(part)]
        )
        assert code == 0

    def test_similarity_is_lifted_before_checking(self, tmp_path, edges3):
        out = tmp_path / "part.tsv"
        main(
            ["cluster", "--input", edges3, "--kind", "similarity", "--k", "2",
             "--seed", "0", "--restarts", "10", "--output", str(out)]
        )
        code = main(
            ["verify", "--input", edges3, "--kind", "similarity",
             "--partition", str(out)]
        )
        assert code == 0


class TestOtherCommands:
    def test_bench_smoke(self, capsys):
        code = main(
            ["bench", "--n-list", "200,400", "--avg-degree", "6",
             "--k", "3", "--seed", "0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n\tm\tpasses")
        assert len(lines) == 3

    def test_sbm_smoke(self, tmp_path, capsys):
        out_graph = tmp_path / "graph.txt"
        code = main(
            ["sbm", "--n", "200", "--c", "8", "--p", "0.05", "--seed", "3",
             "--restarts", "2", "--out-graph", str(out_graph)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edge_accuracy"] > 0.8
        assert out_graph.exists()

    def test_sbm_invalid_probability_is_exit_3(self):
        assert main(["sbm", "--n", "200", "--c", "8", "--p", "0.9"]) == 3

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        code = main(
            ["sweep", "--n", "120", "--c-list", "8", "--p-grid", "0.0,0.1",
             "--graphs", "2", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "c\tp\tmean_accuracy\tci95_halfwidth\tgraphs"
        assert len(lines) == 3

    def test_geo_smoke(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text(
            "label,lat,lon\n"
            "paris,48.85,2.35\n"
            "brussels,50.85,4.35\n"
            "sydney,-33.87,151.21\n"
            "melbourne,-37.81,144.96\n"
        )
        out = tmp_path / "geo.tsv"
        code = main(
            ["geo", "--points", str(pts), "--k", "2", "--seed", "0",
             "--restarts", "3", "--output", str(out)]
        )
        assert code == 0
        rows = dict(
            line.split("\t") for line in out.read_text().strip().splitlines()
        )
        assert rows["paris"] == rows["brussels"]
        assert rows["sydney"] == rows["melbourne"]
        assert rows["paris"] != rows["sydney"]


def test_distance_commands_build_no_dense_cohesion(tmp_path, edges3, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense transform on a distance path")

    monkeypatch.setattr(SparseSymmetricMeasure, "to_dense", forbidden)
    monkeypatch.setattr(transforms, "induced_cohesion", forbidden)
    monkeypatch.setattr(cli, "induced_cohesion", forbidden)
    part = tmp_path / "part.tsv"
    assert main(
        ["cluster", "--input", edges3, "--kind", "distance", "--k", "2",
         "--restarts", "3", "--output", str(part)]
    ) == 0
    assert main(
        ["verify", "--input", edges3, "--kind", "distance",
         "--partition", str(part)]
    ) == 0
    pts = tmp_path / "pts.csv"
    pts.write_text("paris,48.85,2.35\nbrussels,50.85,4.35\nsydney,-33.87,151.21\n")
    assert main(
        ["geo", "--points", str(pts), "--k", "2", "--output", str(tmp_path / "geo.tsv")]
    ) == 0
