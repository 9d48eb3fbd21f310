from pathlib import Path

import pytest

from ksetsplus.errors import AsymmetricDuplicate, NonSquareInput
from ksetsplus.io import (
    load_dense_csv,
    load_edge_list,
    load_geo_csv,
    read_partition_tsv,
    write_edge_list,
    write_partition_tsv,
)
from ksetsplus.measure import DataSet

FIXTURE = Path(__file__).parent / "data" / "latency_fixture.csv"


class TestEdgeList:
    def test_round_trip(self, tmp_path, semimetric3):
        path = tmp_path / "edges.txt"
        write_edge_list(path, semimetric3)
        g, dataset = load_edge_list(path, kind="distance")
        assert dataset.n == 3
        assert g.to_dense().tolist() == semimetric3.to_dense().tolist()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n\n0 1 2.5\n")
        g, dataset = load_edge_list(path)
        assert g.value(0, 1) == 2.5
        assert dataset.n == 2

    def test_explicit_n(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1.0\n")
        g, dataset = load_edge_list(path, n=5)
        assert dataset.n == 5

    def test_empty_without_n_fails(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            load_edge_list(path)


class TestDenseCsv:
    def test_fixture_with_header(self):
        g, dataset = load_dense_csv(FIXTURE, kind="distance", header=True)
        assert dataset.n == 8
        assert dataset.labels[0] == "Adelaide"
        assert g.value(0, 1) == 250.0
        assert g.value(1, 2) == 138.0
        assert g.value(0, 2) == 400.0

    def test_fixture_violates_triangle_inequality(self):
        g, _ = load_dense_csv(FIXTURE, kind="distance", header=True)
        assert g.value(0, 1) + g.value(1, 2) < g.value(0, 2)

    def test_headerless(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        g, dataset = load_dense_csv(path, kind="distance")
        assert dataset.labels is None
        assert g.value(0, 1) == 1.0

    def test_non_square(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0,3\n")
        with pytest.raises(NonSquareInput):
            load_dense_csv(path)

    def test_asymmetric_needs_flag(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2\n4,0\n")
        with pytest.raises(AsymmetricDuplicate):
            load_dense_csv(path)
        g, _ = load_dense_csv(path, average_asymmetric=True)
        assert g.value(0, 1) == 3.0


class TestGeoCsv:
    def test_with_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("label,lat,lon\nparis,48.85,2.35\nsydney,-33.87,151.21\n")
        points, dataset = load_geo_csv(path)
        assert dataset.labels == ("paris", "sydney")
        assert points[0].lat == 48.85

    def test_header_after_blank_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\nlabel,lat,lon\nparis,48.85,2.35\nsydney,-33.87,151.21\n")
        points, dataset = load_geo_csv(path)
        assert dataset.labels == ("paris", "sydney")

    def test_without_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,1.0,2.0\nb,3.0,4.0\n")
        points, dataset = load_geo_csv(path)
        assert dataset.n == 2


class TestPartitionTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "part.tsv"
        write_partition_tsv(path, DataSet(3, ("a", "b", "c")), [0, 1, 1])
        labels, assign = read_partition_tsv(path)
        assert labels == ["a", "b", "c"]
        assert assign == [0, 1, 1]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_partition_tsv(path)
