import contextlib
import ctypes
import json
import os
import re
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel, cli, experiments, io, transforms
from ksetsplus.cli import build_parser, main
from ksetsplus.experiments import random_sparse_similarity
from ksetsplus.measure import SparseSymmetricMeasure

from conftest import all_two_partition_assigns, brute_objective, triangle_violating_semimetric
from ksetsplus.transforms import induced_cohesion, sigma_min

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
        cohesion = induced_cohesion(triangle_violating_semimetric())
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

    def test_negative_seed_is_exit_3(self, tmp_path, edges3, capsys):
        out = tmp_path / "o.tsv"
        code = main(
            ["cluster", "--input", edges3, "--k", "2", "--seed", "-1",
             "--output", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: seed=-1 must be >= 0\n"
        assert not out.exists()

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
        assert f"error: {bad}:2: " in capsys.readouterr().err
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

    def test_opposite_infinities_symmetrize_is_one_error_line(self, tmp_path, capsys):
        dense = tmp_path / "inf.csv"
        dense.write_text("0,inf\n-inf,0\n")
        out = tmp_path / "o.tsv"
        code = main(
            ["cluster", "--input", str(dense), "--format", "dense",
             "--symmetrize", "--k", "2", "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_header_label_count_mismatch_is_exit_2(self, tmp_path, capsys):
        dense = tmp_path / "m.csv"
        dense.write_text("a,b,c\n0,1\n1,0\n")
        out = tmp_path / "o.tsv"
        code = main(
            ["cluster", "--input", str(dense), "--format", "dense", "--header",
             "--k", "2", "--output", str(out)]
        )
        assert code == 2
        assert f"error: {dense}: 3 header labels for 2 rows" in capsys.readouterr().err
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


def cluster_then_verify(tmp_path, text):
    """Exit codes of cluster and then verify on one dense CSV with a header."""
    matrix = tmp_path / "m.csv"
    matrix.write_text(text)
    part = tmp_path / "part.tsv"
    load = ["--input", str(matrix), "--format", "dense", "--header"]
    code = main(["cluster", *load, "--k", "2", "--output", str(part)])
    if code != 0:
        assert not part.exists()
        return code, None
    return code, main(["verify", *load, "--partition", str(part)])


class TestLabelRoundTrip:
    def test_hash_label_verifies(self, tmp_path):
        text = '"#2",b,c\n0,1,5\n1,0,5\n5,5,0\n'
        assert cluster_then_verify(tmp_path, text) == (0, 0)

    @pytest.mark.parametrize(
        "header", ['"a\tb",b,c', "a,,c"], ids=["tab", "empty"]
    )
    def test_unwritable_label_is_exit_2_at_load(
        self, tmp_path, monkeypatch, capsys, header
    ):
        monkeypatch.setattr(cli, "run", forbidden)
        text = header + "\n0,1,5\n1,0,5\n5,5,0\n"
        assert cluster_then_verify(tmp_path, text) == (2, None)
        assert "cannot be one TSV field" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x\t0\n1\t0\n2\t1\n", "partition row 1 is labeled 'x', point 0 is '0'"),
            ("0\t0\n1\t0\n02\t1\n", "partition row 3 is labeled '02', point 2 is '2'"),
        ],
        ids=["first", "last"],
    )
    def test_label_mismatch_message(self, tmp_path, edges3, capsys, text, message):
        part = tmp_path / "part.tsv"
        part.write_text(text)
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(part)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_any_integer_cluster_ids_verify_alike(self, tmp_path, edges3, capsys):
        # {0, 1} and {2} written with 0-based, 1-based and gapped ids.
        outputs = []
        for ids in [(0, 0, 1), (1, 1, 2), (7, 7, -3)]:
            part = tmp_path / "part.tsv"
            part.write_text("".join(f"{i}\t{c}\n" for i, c in enumerate(ids)))
            code = main(
                ["verify", "--input", edges3, "--kind", "distance",
                 "--partition", str(part)]
            )
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_non_integer_cluster_id_names_the_line(self, tmp_path, edges3, capsys):
        part = tmp_path / "part.tsv"
        part.write_text("0\t0\n1\tx\n2\t1\n")
        assert main(["verify", "--input", edges3, "--partition", str(part)]) == 2
        assert f"error: {part}:2: cluster id 'x'" in capsys.readouterr().err

    def test_partition_line_with_three_fields_names_the_line(
        self, tmp_path, edges3, capsys
    ):
        part = tmp_path / "part.tsv"
        part.write_text("0\t0\n1\t0\t9\n2\t1\n")
        assert main(["verify", "--input", edges3, "--partition", str(part)]) == 2
        assert f"error: {part}:2: expected 'label<TAB>cluster'" in capsys.readouterr().err

    def test_one_cluster_passes_with_infinite_slack(self, tmp_path, edges3, capsys):
        part = tmp_path / "part.tsv"
        part.write_text("0\t0\n1\t0\n2\t0\n")
        code = main(
            ["verify", "--input", edges3, "--kind", "distance",
             "--partition", str(part)]
        )
        assert code == 0
        assert "min_slack\tinf\n" in capsys.readouterr().out

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

    def test_similarity_is_checked_at_the_exact_shift(self, tmp_path, capsys):
        # sigma_min is 2.5, not the two-smallest-diagonals bound of 5.0, at
        # which {0, 1}, {2, 3} would pass with slack 1.0.
        edges = tmp_path / "edges.txt"
        edges.write_text("0 0 -5\n1 1 -5\n0 1 -4\n2 3 1\n")
        part = tmp_path / "part.tsv"
        part.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
        code = main(
            ["verify", "--input", str(edges), "--kind", "similarity",
             "--partition", str(part)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "sigma_used\t2.5\n" in out
        assert "min_slack\t-1.5\n" in out

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-passes", "0"], "max_passes=0 must be >= 1"),
            (["--k", "1"], "k=1 outside [2, 400]"),
            (["--k", "51"], "k=51 outside [2, 50]"),
            (["--avg-degree", "-3"], "avg_degree=-3.0 must be finite and >= 0"),
            (["--avg-degree", "nan"], "avg_degree=nan must be finite and >= 0"),
            (["--avg-degree", "inf"], "avg_degree=inf must be finite and >= 0"),
            (["--seed", "-1"], "seed=-1 must be >= 0"),
        ],
        ids=["zero_passes", "k_one", "k_above_n", "negative_degree", "nan_degree",
             "infinite_degree", "negative_seed"],
    )
    def test_bench_invalid_parameter_is_exit_3_before_drawing(
        self, monkeypatch, capsys, flags, message
    ):
        monkeypatch.setattr(cli, "random_sparse_similarity", forbidden)
        assert main(["bench", "--n-list", "400,50", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

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

    def test_sbm_k_other_than_two_is_exit_3_before_generating(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "sbm_generate", forbidden)
        assert main(["sbm", "--n", "200", "--k", "3"]) == 3
        assert "edge accuracy is defined for k=2" in capsys.readouterr().err

    def test_sbm_invalid_probability_is_exit_3(self):
        assert main(["sbm", "--n", "200", "--c", "8", "--p", "0.9"]) == 3

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--restarts", "0"], "restarts=0 must be >= 1"),
            (["--max-passes", "0"], "max_passes=0 must be >= 1"),
            (["--p", "0.9", "--restarts", "0"], "p=0.9 outside [0, 0.5]"),
            (["--seed", "-1"], "seed=-1 must be >= 0"),
        ],
        ids=["restarts", "max_passes", "probability_first", "negative_seed"],
    )
    def test_sbm_bad_run_setting_is_exit_3_before_drawing(
        self, monkeypatch, capsys, args, message
    ):
        monkeypatch.setattr(cli, "sbm_generate", forbidden)
        monkeypatch.setattr(cli, "similarity_from_signed", forbidden)
        assert main(["sbm", "--n", "100", *args]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_sbm_out_of_memory_in_the_two_step_build_is_exit_2(
        self, monkeypatch, capsys
    ):
        class Library:
            def ksets_two_step(self, *args):
                return -1

            def ksets_draws(self, *args):  # refused: the graph is drawn by numpy
                return -1

        monkeypatch.setattr(_kernel, "load", Library)
        assert main(["sbm", "--n", "200", "--c", "8", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: cannot allocate")
        assert captured.out == ""

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

    def test_sweep_to_stdout(self, tmp_path, capsys):
        args = ["sweep", "--n", "60", "--c-list", "8", "--p-grid", "0.1",
                "--graphs", "1", "--seed", "1", "--output"]
        out = tmp_path / "sweep.tsv"
        assert main([*args, str(out)]) == 0
        capsys.readouterr()
        assert main([*args, "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text()
        assert captured.out.startswith("c\tp\tmean_accuracy\tci95_halfwidth\tgraphs\n")

    def test_default_range_grid_includes_its_stop(self):
        spec = build_parser().parse_args(["sweep"]).p_grid
        assert spec == "0.01:0.2:0.01"
        grid = cli._parse_grid(spec)
        assert len(grid) == 20
        assert grid[0] == 0.01 and grid[-1] == 0.2

    @pytest.mark.parametrize(
        "spec",
        ["0.1:0.2:0", "0.1:0.2:-0.05", "0.2:0.1:0.05", "0:inf:0.1", "0:0.2:nan",
         "0.1:0.2:1e-18", "1e17:2e17:1"],
        ids=["zero_step", "negative_step", "empty", "infinite_stop", "nan_step",
             "step_below_spacing", "step_below_large_spacing"],
    )
    def test_malformed_grid_is_exit_2_before_generating(
        self, monkeypatch, capsys, spec
    ):
        monkeypatch.setattr(experiments, "sbm_generate", forbidden)
        assert main(["sweep", "--n", "120", "--p-grid", spec]) == 2
        captured = capsys.readouterr()
        assert f"error: grid {spec!r}" in captured.err
        assert captured.out == ""

    def test_zero_graphs_is_exit_3_before_generating(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "sbm_generate", forbidden)
        assert main(["sweep", "--n", "120", "--p-grid", "0.1", "--graphs", "0"]) == 3
        captured = capsys.readouterr()
        assert "graphs_per_point=0 must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--c-list", "6,8,1000", "--p-grid", "0.05,0.1"], "derived p_in=2.513 outside [0, 1]"),
            (["--c-list", "6", "--p-grid", "0.1,0.7"], "p=0.7 outside [0, 0.5]"),
            (["--c-list", "6", "--p-grid", "0.1", "--restarts", "0"], "restarts=0 must be >= 1"),
            (["--c-list", "6", "--p-grid", "0.1", "--seed", "-1"], "seed=-1 must be >= 0"),
        ],
        ids=["late_rate", "late_crossover", "restarts", "negative_seed"],
    )
    def test_bad_cell_is_exit_3_before_generating(self, monkeypatch, capsys, args, message):
        calls = []
        monkeypatch.setattr(experiments, "sbm_generate", lambda params: calls.append(params))
        assert main(["sweep", "--n", "400", *args, "--graphs", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and calls == []

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

    @pytest.mark.parametrize("row", ["b,x,3", "b,95,3", "b,1"])
    def test_geo_bad_row_is_exit_2_naming_path_and_line(self, tmp_path, capsys, row):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"label,lat,lon\na,1.0,2.0\n\n{row}\n")
        out = tmp_path / "geo.tsv"
        code = main(["geo", "--points", str(pts), "--k", "2", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {pts}:4: ")
        assert not out.exists()


def forbidden(*args, **kwargs):
    raise AssertionError("dense transform on a command path")


@pytest.mark.parametrize("command", ["cluster", "verify"])
@pytest.mark.parametrize(
    "flags",
    [["--format", "dense", "--n", "7"], ["--header"], ["--symmetrize"]],
    ids=["dense_n", "edges_header", "edges_symmetrize"],
)
def test_flags_the_format_ignores_are_exit_2(
    tmp_path, edges3, monkeypatch, capsys, command, flags
):
    monkeypatch.setattr(io, "load_edge_list", forbidden)
    monkeypatch.setattr(io, "load_dense_csv", forbidden)
    part = tmp_path / "part.tsv"
    tail = {
        "cluster": ["--k", "2", "--output", str(part)],
        "verify": ["--partition", str(part)],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--input", edges3, *flags, *tail])
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not part.exists()


def test_distance_commands_build_no_dense_cohesion(tmp_path, edges3, monkeypatch):
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
    assert main(
        ["cluster", "--input", edges3, "--k", "2", "--restarts", "3",
         "--output", str(part)]
    ) == 0
    assert main(
        ["verify", "--input", edges3, "--kind", "similarity",
         "--partition", str(part)]
    ) == 0
    # A valid cohesion whose unstored pair (0, 2) meets (C3) with equality.
    cohesion = tmp_path / "cohesion.txt"
    cohesion.write_text("0 0 -1\n0 1 1\n1 1 3\n1 3 -4\n2 2 1\n2 3 -1\n3 3 5\n")
    part.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
    assert main(
        ["verify", "--input", str(cohesion), "--kind", "cohesion",
         "--partition", str(part)]
    ) == 0
    pts = tmp_path / "pts.csv"
    pts.write_text("paris,48.85,2.35\nbrussels,50.85,4.35\nsydney,-33.87,151.21\n")
    assert main(
        ["geo", "--points", str(pts), "--k", "2", "--output", str(tmp_path / "geo.tsv")]
    ) == 0


def test_sparse_similarity_at_n_20000_clusters_and_verifies(tmp_path, monkeypatch, capsys):
    # The dense lift would need several n x n float64 arrays, 3.2 GB each.
    g = random_sparse_similarity(20_000, 10.0, seed=0)
    edges, part = tmp_path / "edges.txt", tmp_path / "part.tsv"
    io.write_edge_list(edges, g)
    monkeypatch.setattr(SparseSymmetricMeasure, "to_dense", forbidden)
    common = ["--input", str(edges), "--n", "20000"]
    assert main(["cluster", *common, "--k", "5", "--output", str(part)]) == 0
    capsys.readouterr()
    assert main(["verify", *common, "--partition", str(part)]) == 0
    out = capsys.readouterr().out
    assert f"sigma_used\t{sigma_min(g)!r}\n" in out
    assert "verification passed" in out


@pytest.mark.parametrize(
    "error, line",
    [
        (
            MemoryError("Unable to allocate 74.5 GiB for an array"),
            "error: out of memory: Unable to allocate 74.5 GiB for an array\n",
        ),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_out_of_memory_exits_2_with_one_line(
    tmp_path, edges3, monkeypatch, capsys, error, line
):
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, "cmd_cluster", exhausted)
    out = tmp_path / "part.tsv"
    code = main(["cluster", "--input", edges3, "--k", "2", "--output", str(out)])
    assert code == cli.EXIT_INPUT == 2
    assert capsys.readouterr().err == line


_LARGE_BLOCKS = """
import ctypes, sys
import numpy as np
from ksetsplus import cli

class Info(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info
if sys.argv[1] == "main":
    assert cli.main(["cluster", "--input", sys.argv[2], "--k", "2", "--output", sys.argv[3]]) == 0
np.ones(1 << 20)  # 8 MiB, mapped and freed: glibc would raise its threshold
before = libc.mallinfo2().hblks
kept = np.ones(5 << 17)  # 5 MiB
print(libc.mallinfo2().hblks - before)
"""


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallinfo2")),
    reason="needs glibc 2.33 or later",
)
def test_main_maps_every_large_array_on_its_own(tmp_path, edges3):
    """After main, a 5 MiB array is still mapped on its own once an 8 MiB
    one was freed; by glibc's default it would come from the heap, whose
    layout then decides the peak memory of the next job."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    mapped = {}
    for mode in ("plain", "main"):
        argv = [sys.executable, "-c", _LARGE_BLOCKS, mode, edges3, str(tmp_path / "part.tsv")]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
        mapped[mode] = int(run.stdout.split()[-1])
    assert mapped == {"plain": 0, "main": 1}


def test_two_calls_build_the_parser_once(edges3, tmp_path):
    build_parser.cache_clear()
    out = tmp_path / "part.tsv"
    assert main(["cluster", "--input", edges3, "--k", "2", "--output", str(out)]) == 0
    assert main(["verify", "--input", edges3, "--partition", str(out)]) == 0
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def test_mmap_threshold_is_left_alone_without_mallopt(monkeypatch):
    class NoMallopt:
        pass

    opened = []

    def cdll(name):
        opened.append(name)
        return NoMallopt()

    cli._fix_mmap_threshold.cache_clear()
    try:
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._fix_mmap_threshold() is None
        assert opened == [None]
    finally:
        cli._fix_mmap_threshold.cache_clear()


def _run_module(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "ksetsplus.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_help_lists_every_command():
    run = _run_module("--help")
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.startswith("usage: ksetsplus ")
    assert "{cluster,verify,bench,sbm,sweep,geo}" in run.stdout


def test_module_sbm_prints_what_main_prints(capsys):
    argv = ["sbm", "--n", "100", "--seed", "1"]
    run = _run_module(*argv)
    assert run.returncode == 0
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out
    assert json.loads(run.stdout)["n_surviving"] > 0


# A valid edge list and dense CSV for the exit-code property below; both
# hold a similarity and a distance.
_VALID_INPUTS = {
    "edges": "0 1 2.5\n0 2 1\n1 2 0.5\n3 4 2\n3 5 1.5\n4 5 3\n2 3 0.25\n",
    "dense": "0,1,2,3,4\n1,0,1.5,2.5,3\n2,1.5,0,1,2\n3,2.5,1,0,0.5\n4,3,2,0.5,0\n",
}
_BAD_TOKENS = ["nan", "inf", "-inf", "1e999", "x", "", "1..5", "0x10", "--1", "1e", "+", "1_0", "٣"]


@st.composite
def _mutated(draw, text: str) -> bytes:
    """text with one to three mutations: a token replaced by a non-finite
    or malformed one, a line deleted, the tail cut off, or a byte changed."""
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["token", "delete", "truncate", "flip"]))
        if op == "token":
            spans = [m.span() for m in re.finditer(rb"[^\s,]+", data)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                data[start:end] = draw(st.sampled_from(_BAD_TOKENS)).encode()
        elif op == "delete":
            lines = data.splitlines(keepends=True)
            if lines:
                del lines[draw(st.integers(0, len(lines) - 1))]
            data = bytearray(b"".join(lines))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def _main_outcome(argv, reference: bool) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr, on the compiled routines or,
    with reference set, with no kernel at all."""
    out, err = StringIO(), StringIO()
    no_kernel = mock.patch.object(_kernel, "load", lambda: None)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with no_kernel if reference else contextlib.nullcontext():
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code: int, err: str) -> None:
    assert code in (2, 3) and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@given(data=st.data(), fmt=st.sampled_from(["edges", "dense"]),
       kind=st.sampled_from(["similarity", "distance"]))
@settings(max_examples=100, deadline=None)
def test_mutated_inputs_exit_0_or_with_one_error_line_on_both_paths(data, fmt, kind):
    """cluster exits 0 with a converged sidecar or 2/3 with one error line;
    verify, on cluster's partition or else on one for the valid input,
    exits 0, 1 or as cluster fails. The kernel and the references print
    and write the same."""
    text = data.draw(_mutated(_VALID_INPUTS[fmt]), label="input")
    n = _VALID_INPUTS[fmt].count("\n")
    with tempfile.TemporaryDirectory() as tmp:
        source, fallback = Path(tmp, "input"), Path(tmp, "fallback.tsv")
        source.write_bytes(text)
        fallback.write_text("".join(f"{i}\t{i % 2}\n" for i in range(n)))
        common = ["--input", str(source), "--format", fmt, "--kind", kind]
        outcomes = []
        for reference in (False, True):
            part = Path(tmp, f"part-{reference}.tsv")
            cluster = _main_outcome(["cluster", *common, "--k", "2", "--output", str(part)], reference)
            code, _, err = cluster
            written = None
            if code == 0:
                assert err == ""
                assert json.loads(Path(f"{part}.json").read_text())["converged"] is True
                written = part.read_bytes()
            else:
                _assert_one_error_line(code, err)
            partition = part if code == 0 else fallback
            verify = _main_outcome(["verify", *common, "--partition", str(partition)], reference)
            code, _, err = verify
            if code == 0:
                assert err == ""
            elif code == 1:
                assert err == "verification FAILED\n"
            else:
                _assert_one_error_line(code, err)
            outcomes.append((cluster, written, verify))
        assert outcomes[0] == outcomes[1]
