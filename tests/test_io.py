import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus.errors import (
    ArityMismatch,
    AsymmetricDuplicate,
    IndexOutOfRange,
    NonSquareInput,
)
from ksetsplus.io import (
    load_dense_csv,
    load_edge_list,
    load_geo_csv,
    read_partition_tsv,
    write_edge_list,
    write_partition_tsv,
)
from ksetsplus.measure import DataSet, build_from_triples, from_dense, symmetrize

FIXTURE = Path(__file__).parent / "data" / "latency_fixture.csv"


def old_load_edge_list(path, kind="similarity", n=None):
    """The line-by-line edge-list parser that np.loadtxt replaced (oracle)."""
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'i j value', got {stripped!r}"
                )
            triples.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if n is None:
        if not triples:
            raise ValueError(f"{path}: no triples and no explicit point count")
        n = max(max(i, j) for i, j, _ in triples) + 1
    return build_from_triples(n, triples, kind=kind), DataSet(n)


def old_load_dense_csv(path, kind="similarity", header=False, average_asymmetric=False):
    """The csv.reader/float() dense parser that np.loadtxt replaced (oracle)."""
    labels = None
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.reader(fh):
            if not record or all(not cell.strip() for cell in record):
                continue
            if header and labels is None:
                labels = tuple(cell.strip() for cell in record)
                continue
            rows.append([float(cell) for cell in record])
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    matrix = np.asarray(rows)
    if matrix.shape[0] != matrix.shape[1]:
        raise NonSquareInput(f"{path}: matrix is {matrix.shape[0]}x{matrix.shape[1]}")
    if labels is not None and len(labels) != matrix.shape[0]:
        raise ArityMismatch(f"{path}: {len(labels)} header labels")
    if average_asymmetric:
        measure = symmetrize(matrix, kind=kind)
    else:
        measure = from_dense(matrix, kind=kind)
    return measure, DataSet(measure.n, labels)


def old_write_partition_tsv(path, dataset, assign):
    """The per-line partition writer that one joined write replaced (oracle)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, cluster in enumerate(assign):
            fh.write(f"{dataset.label(i)}\t{cluster}\n")


def load_outcome(loader, path, **kwargs):
    """CSR bytes, kind and dataset of a load, or the type of its error."""
    try:
        g, dataset = loader(path, **kwargs)
    except ValueError as exc:
        return type(exc)
    arrays = [(a.dtype.str, a.tobytes()) for a in (g.indptr, g.indices, g.data, g.diag)]
    return arrays, g.kind, dataset


NUMBER_FORMATS = (repr, "{:.3f}".format, "{:g}".format)
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, -2.5, 1e-7, -3.25e-5, 6.02e23, -1e300]),
)
padding = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def number_texts(draw):
    return draw(st.sampled_from(NUMBER_FORMATS))(draw(values))


def interleave(draw, lines, fillers):
    """Insert filler lines at drawn positions, keeping `lines` in order."""
    out = list(lines)
    for filler in draw(st.lists(st.sampled_from(fillers), max_size=4)):
        out.insert(draw(st.integers(0, len(out))), filler)
    return out


@st.composite
def edge_files(draw):
    n = draw(st.integers(1, 6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            unique_by=lambda p: (min(p), max(p)),
            max_size=10,
        )
    )
    lines = []
    for i, j in pairs:
        value = draw(number_texts())
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        lines.append(draw(padding) + sep.join([str(i), str(j), value]) + draw(padding))
        if i != j and draw(st.booleans()):
            # A mirror, sometimes written in another format (a conflict).
            mirror = draw(st.sampled_from([value, draw(number_texts())]))
            lines.append(f"{j} {i} {mirror}")
    lines = interleave(draw, lines, ["# i j value", "#", "", "   ", "\t"])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    n_arg = draw(st.sampled_from([None, n, n + 2]))
    return "".join(line + eol for line in lines), n_arg


label_text = st.text(alphabet='ab ,"#\u00e9', min_size=1, max_size=4)


@st.composite
def dense_files(draw):
    n = draw(st.integers(1, 4))
    symmetric = draw(st.booleans())
    cells = [[draw(number_texts()) for _ in range(n)] for _ in range(n)]
    if symmetric:
        cells = [[cells[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    quote = draw(st.booleans())
    lines = [
        ",".join(
            f'"{cell}"' if quote and draw(st.booleans()) else draw(padding) + cell
            for cell in row
        )
        for row in cells
    ]
    header = draw(st.booleans())
    if header:
        labels = draw(st.lists(label_text, min_size=n, max_size=n, unique=True))
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        buf = io.StringIO()
        csv.writer(buf, quoting=quoting, lineterminator="").writerow(labels)
        lines.insert(0, buf.getvalue())
    lines = interleave(draw, lines, ["", "  ", "\t"])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    average = not symmetric or draw(st.booleans())
    options = {"header": header, "average_asymmetric": average}
    return "".join(line + eol for line in lines), options


class TestLoadersMatchOldParsers:
    @given(edge_files())
    @settings(max_examples=200, deadline=None)
    def test_edge_list(self, case):
        text, n = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            path.write_bytes(text.encode("utf-8"))
            expected = load_outcome(old_load_edge_list, path, n=n)
            assert load_outcome(load_edge_list, path, n=n) == expected

    @given(dense_files())
    @settings(max_examples=200, deadline=None)
    def test_dense_csv(self, case):
        text, options = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = load_outcome(old_load_dense_csv, path, **options)
            assert load_outcome(load_dense_csv, path, **options) == expected


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

    def test_empty_without_n_raises_without_warning(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("\n# nothing\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no triples"):
                load_edge_list(path)

    def test_empty_with_n_is_an_empty_measure(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("")
        g, dataset = load_edge_list(path, n=3)
        assert (g.n, g.m, dataset.n) == (3, 0, 3)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"# c\r\n0 1 2.5\r\n1 2 -1\r\n")
        g, _ = load_edge_list(path)
        assert (g.value(0, 1), g.value(2, 1)) == (2.5, -1.0)

    def test_tabs_and_repeated_spaces(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0\t1\t2.5\n  1 \t 2   4\t\n")
        g, _ = load_edge_list(path)
        assert (g.value(0, 1), g.value(1, 2)) == (2.5, 4.0)

    def test_blank_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("\n   \n0 1 2.5\n\t\n\n")
        g, dataset = load_edge_list(path)
        assert (dataset.n, g.m) == (2, 2)

    def test_trailing_comment(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2.5  # strong tie\n1 2 1# weak\n")
        g, _ = load_edge_list(path)
        assert (g.value(0, 1), g.value(1, 2)) == (2.5, 1.0)

    def test_integral_exponent_index(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1e0 2.0 3\n")
        g, dataset = load_edge_list(path)
        assert dataset.n == 3
        assert g.value(1, 2) == 3.0

    def test_underscore_digits_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1_000\n")
        with pytest.raises(ValueError, match=f"^{path}: .*'1_000'"):
            load_edge_list(path)

    def test_fractional_index_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1\n0.5 1 1\n")
        with pytest.raises(IndexOutOfRange):
            load_edge_list(path)

    @pytest.mark.parametrize("index", ["nan", "inf", "-inf"])
    def test_non_finite_index_rejected(self, tmp_path, index):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1 1\n{index} 1 1\n")
        with pytest.raises(IndexOutOfRange):
            load_edge_list(path)
        with pytest.raises(IndexOutOfRange):
            load_edge_list(path, n=3)

    def test_wrong_field_count_names_the_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 1\n1 2 1 7\n")
        with pytest.raises(ValueError, match=f"^{path}: .*row 2"):
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

    def test_quoted_numeric_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"0"," 1.5 "\n1.5,"0"\n')
        g, _ = load_dense_csv(path)
        assert g.value(0, 1) == 1.5

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b\r\n0,1\r\n1,0\r\n")
        g, dataset = load_dense_csv(path, header=True)
        assert dataset.labels == ("a", "b")
        assert g.value(0, 1) == 1.0

    def test_tabs_around_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0\t,\t2\n2 ,0\n")
        g, _ = load_dense_csv(path)
        assert g.value(0, 1) == 2.0

    def test_blank_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n  \na,b\n\t\n0,1\n\n   \n1,0\n \n")
        g, dataset = load_dense_csv(path, header=True)
        assert dataset.labels == ("a", "b")
        assert g.value(0, 1) == 1.0

    def test_quoted_header_label(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"Sydney, NSW","#2"\n0,1\n1,0\n')
        _, dataset = load_dense_csv(path, header=True)
        assert dataset.labels == ("Sydney, NSW", "#2")

    def test_comment_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n# row a\n0,1\n1,0  # row b\n")
        g, dataset = load_dense_csv(path, header=True)
        assert dataset.labels == ("a", "b")
        assert g.value(0, 1) == 1.0

    def test_record_of_empty_cells_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n,\n1,0\n")
        with pytest.raises(ValueError, match=f"^{path}: "):
            load_dense_csv(path)

    def test_underscore_digits_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1_0\n1_0,0\n")
        with pytest.raises(ValueError, match=f"^{path}: .*'1_0'"):
            load_dense_csv(path)

    def test_ragged_row_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0\n2,3,0\n")
        with pytest.raises(ValueError, match=f"^{path}: .*row 2"):
            load_dense_csv(path)

    def test_empty_rejected_without_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty matrix"):
                load_dense_csv(path, header=True)


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

    def test_write_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "part.tsv"
        with pytest.raises(ValueError):
            write_partition_tsv(path, DataSet(3), [0, 1])
        assert not path.exists()

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=40),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_write_matches_old_loop(self, assign, labeled):
        labels = tuple(f"p{i}" for i in range(len(assign))) if labeled else None
        dataset = DataSet(len(assign), labels)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.tsv", Path(tmp) / "old.tsv"
            write_partition_tsv(new, dataset, assign)
            old_write_partition_tsv(old, dataset, assign)
            assert new.read_bytes() == old.read_bytes()
