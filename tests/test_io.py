import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel
from ksetsplus import io as kio
from ksetsplus.errors import (
    ArityMismatch,
    AsymmetricDuplicate,
    CoordinateOutOfRange,
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
    write_signed_edges,
)
from ksetsplus.experiments import SbmParams, SignedGraph, sbm_generate
from ksetsplus.measure import DataSet, build_from_triples, from_dense, symmetrize

from conftest import needs_cc

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


def old_write_edge_list(path, g):
    """The per-pair edge-list writer that one % format replaced (oracle)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} kind={g.kind}\n")
        rows = g.entry_rows()
        upper = g.indices >= rows
        for i, j, v in zip(
            rows[upper].tolist(), g.indices[upper].tolist(), g.data[upper].tolist()
        ):
            fh.write(f"{i} {j} {v!r}\n")


def old_write_signed_edges(path, graph):
    """The per-edge signed writer that one % format replaced (oracle)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# i j sign truth_sign\n")
        for a, b, s, t in zip(
            graph.edge_i, graph.edge_j, graph.sign, graph.truth_sign
        ):
            fh.write(f"{a} {b} {s} {t}\n")
        fh.write("# block per node: " + " ".join(str(b) for b in graph.block) + "\n")


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


# Tokens inside the reader's fast path (<= 19 digits, mantissa <= 2^53,
# net power of ten in [-22, 22]) and, below, tokens loadtxt reads that lie
# just outside it, and tokens loadtxt rejects.
FAST_TOKENS = [
    "0", "-0", "+7", ".5", "1.", "+.5", "-.25e-3", "12.5E+2", "7e-0",
    "1e22", "1e-22", "0.1e23", "123e-20", "9007199254740992", "9007199254740991",
    "123456789012345", "0.000000000000000001",
]  # fmt: skip
SLOW_TOKENS = [
    "9007199254740993", "12345678901234567", "1234567890123456789",
    "0.0000000000000000001", "1e23", "1e-23", "12e-23", "0e-30", "1e99999",
    "0.30000000000000004", "4503599627370496.5", "nan", "-inf",
]  # fmt: skip
BAD_TOKENS = ["1.5.2", "1e", "1e+", "-", "+", ".", "0x10", "1_000", "1d5", "--1"]


@st.composite
def reader_files(draw):
    """(text, dense, skip, clean): a table in the reader's grammar when clean,
    otherwise with drawn pieces that lie outside it."""
    dense = draw(st.booleans())
    messy = draw(st.booleans())  # whether pieces outside the grammar are drawn
    clean = True

    def pick(good, other):
        nonlocal clean
        if not messy or draw(st.integers(0, 3)) > 0:
            return draw(st.sampled_from(good))
        clean = False
        return draw(st.sampled_from(other))

    def token():
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return f"{draw(st.integers(-10**9, 10**9)) / 1000:.3f}"
        if kind == 1:
            return repr(draw(st.integers(-10**6, 10**6)) / 1e6)
        return pick(FAST_TOKENS, SLOW_TOKENS + BAD_TOKENS + [repr(draw(values))])

    if dense:
        seps = ([",", " ,", ", ", "\t,\t"], [" ", ",,", "\v,", ",\u00a0", ";"])
        fillers = (["", "  ", "\t", "# note"], ["  # note", "\f", " #"])
        trailers = ([""], [" # note", ",", "#"])
    else:
        seps = ([" ", "\t", " \t "], [",", "\v", "\u00a0", "\f "])
        fillers = (["", "  ", "\t", "# note", "  # note", "#"], ["\v", "\u00a0"])
        trailers = (["", " # note", "#x", "\t#"], ["\v", "\u00a0", " x"])
    pads = (["", " ", "\t"], ["\v", "\u00a0"])
    cols = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        width = cols
        if messy and draw(st.integers(0, 9)) == 0:
            width, clean = cols + draw(st.sampled_from([-1, 1])), False
        cells = [token() for _ in range(width)]
        line = cells[0] if cells else ""
        for cell in cells[1:]:
            line += pick(*seps) + cell
        lines.append(pick(*pads) + line + pick(*pads) + pick(*trailers))
    lines = interleave(draw, lines, fillers[0])
    if messy and draw(st.integers(0, 4)) == 0:
        lines = interleave(draw, lines, fillers[1])
        clean = False
    skip = 0
    if dense and draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["a,b", '"x, y",\u00e9', "# labels"])))
        skip = 1
    eols = [pick(["\n", "\r\n"], ["\r"]) for _ in lines]
    text = "".join(line + eol for line, eol in zip(lines, eols))
    if draw(st.booleans()):
        text = text[: -len(eols[-1])]  # no final line end
    if messy and draw(st.integers(0, 9)) == 0:
        text, clean = "\ufeff" + text, False
    return text, dense, skip, clean


def table_bytes(table):
    return None if table is None else (table.dtype.str, table.shape, table.tobytes())


class TestExactReader:
    """The compiled reader gives np.loadtxt's array, or declines the file."""

    @needs_cc
    @given(reader_files())
    @settings(max_examples=400, deadline=None)
    def test_matches_loadtxt_or_declines(self, case):
        text, dense, skip, clean = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.txt"
            path.write_bytes(text.encode("utf-8"))
            exact = kio._read_exact(path, dense, skip)
            try:
                expected = kio._read_loadtxt(path, dense, skip)
            except ValueError:
                expected = None
        if clean:
            assert exact is not None
        if exact is not None:
            assert table_bytes(exact) == table_bytes(expected)

    @needs_cc
    @pytest.mark.parametrize("token", FAST_TOKENS)
    def test_fast_tokens_are_read_like_float(self, tmp_path, token):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1 {token}\n")
        table = kio._read_exact(path, dense=False)
        assert table is not None
        assert table[0, 2].hex() == float(token).hex()

    @pytest.mark.parametrize("token", SLOW_TOKENS + BAD_TOKENS)
    def test_other_tokens_are_declined(self, tmp_path, token):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1 2\n0 2 {token}\n")
        assert kio._read_exact(path, dense=False) is None

    @pytest.mark.parametrize(
        "text, entries",
        [
            ("\ufeff0 1 2\n", None),
            ("0 1\u00a02\n", 2),
            ("0 1\v2\n", 2),
            ("0 1 2\r0 2 1\n", 4),
            ("# \u00e9\n0 1 2\n", 2),
        ],
        ids=["bom", "nbsp", "vtab", "lone-cr", "non-ascii-comment"],
    )
    def test_outside_the_byte_grammar_is_declined(self, tmp_path, text, entries):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        assert kio._read_exact(path, dense=False) is None
        if entries is None:  # loadtxt rejects a BOM
            with pytest.raises(ValueError, match=r"^.*:1: could not convert"):
                load_edge_list(path)
        else:  # loadtxt reads the others
            assert load_edge_list(path)[0].m == entries

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_routine_reports_its_shape_and_declines_a_short_output(self, parts):
        library = _kernel.load()
        if library is None:
            pytest.skip("no compiled kernel")
        text = np.frombuffer(b"# c\n1 2\n\n3 4", dtype=np.uint8)
        args, shape = (text, text.size, 0, 0), np.zeros(2, dtype=np.int64)
        assert library.ksets_read(*args, np.empty(0), 0, shape, parts) == 0
        assert shape.tolist() == [4, 2]  # lines, cells of the first row
        out = np.empty(4)
        assert library.ksets_read(*args, out[:3], 3, shape, parts) == -1
        assert library.ksets_read(*args, out, 4, shape, parts) == 0
        assert shape.tolist() == [2, 2]
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.fixture
    def shaped(self, tmp_path):
        """Files shaped like the benchmark's: an edge list with a `#` header
        line and repr values, and a %.3f CSV; with their tables."""
        rng = np.random.default_rng(5)
        i = rng.integers(0, 50, size=200)
        j = (i + rng.integers(1, 50, size=200)) % 50
        keep = np.unique(np.minimum(i, j) * 50 + np.maximum(i, j), return_index=True)[1]
        v = rng.integers(-999_999, 1_000_000, size=keep.size) / 1e6
        edges = np.column_stack([i[keep], j[keep], v])
        edges_path = tmp_path / "edges.txt"
        with open(edges_path, "w", encoding="utf-8") as fh:
            fh.write("# seeded similarity n=50\n")
            for a, b, x in edges.tolist():
                fh.write(f"{int(a)} {int(b)} {x!r}\n")
        raw = np.rint(rng.uniform(1.0, 90.0, size=(30, 30)) * 1000.0) / 1000.0
        np.fill_diagonal(raw, 0.0)
        csv_path = tmp_path / "m.csv"
        np.savetxt(csv_path, raw, fmt="%.3f", delimiter=",")
        return [(edges_path, False, edges), (csv_path, True, raw)]

    @staticmethod
    def _outcomes(shaped):
        edges_path, csv_path = shaped[0][0], shaped[1][0]
        return [
            load_outcome(load_edge_list, edges_path),
            load_outcome(load_dense_csv, csv_path, average_asymmetric=True),
            load_outcome(load_dense_csv, FIXTURE, kind="distance", header=True),
        ]

    @needs_cc
    def test_engages_on_benchmark_shaped_inputs(self, shaped, monkeypatch):
        def no_loadtxt(*args, **kwargs):
            raise AssertionError("np.loadtxt was called")

        monkeypatch.setattr(kio.np, "loadtxt", no_loadtxt)
        for path, dense, table in shaped:
            assert table_bytes(kio._loadtxt(path, dense)) == table_bytes(table)
        for outcome in self._outcomes(shaped):
            assert isinstance(outcome, tuple)  # loaded, not an error type

    @needs_cc
    def test_parses_a_read_only_view_of_the_file(self, shaped, monkeypatch):
        import mmap

        seen = []
        read_text = kio._read_text

        def spy(library, text, skip, dense):
            # Neither the view nor its memoryview base is kept: either
            # would keep the map from closing.
            seen.append((text.flags.writeable, text.base.obj, text.tobytes()))
            return read_text(library, text, skip, dense)

        monkeypatch.setattr(kio, "_read_text", spy)
        for path, dense, table in shaped:
            read = kio._read_exact(path, dense)
            assert table_bytes(read) == table_bytes(table)
            writeable, buffer, text = seen.pop()
            assert not writeable
            assert isinstance(buffer, mmap.mmap) and buffer.closed
            assert text == path.read_bytes()

    @needs_cc
    def test_an_error_while_parsing_is_raised_as_it_is(self, shaped, monkeypatch):
        def out_of_memory(library, text, skip, dense):
            raise MemoryError("no room for the table")

        monkeypatch.setattr(kio, "_read_text", out_of_memory)
        with pytest.raises(MemoryError, match="no room"):
            kio._read_exact(shaped[0][0], dense=False)

    def test_an_unmappable_or_empty_file_goes_to_loadtxt(
        self, shaped, monkeypatch, tmp_path
    ):
        import mmap

        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        assert kio._read_exact(empty, dense=False) is None
        assert load_edge_list(empty, n=2)[0].m == 0
        outcomes = self._outcomes(shaped)

        def no_map(*args, **kwargs):
            raise OSError("cannot map")

        monkeypatch.setattr(mmap, "mmap", no_map)
        for path, dense, table in shaped:
            assert kio._read_exact(path, dense) is None
            assert table_bytes(kio._loadtxt(path, dense)) == table_bytes(table)
        assert self._outcomes(shaped) == outcomes

    def test_loaders_without_the_kernel_give_the_same_arrays(self, shaped, monkeypatch):
        outcomes = self._outcomes(shaped)
        monkeypatch.setattr(_kernel, "load", lambda: None)
        assert kio._read_exact(shaped[0][0], dense=False) is None
        for path, dense, table in shaped:
            assert table_bytes(kio._loadtxt(path, dense)) == table_bytes(table)
        assert self._outcomes(shaped) == outcomes


class TestEdgeList:
    def test_round_trip(self, tmp_path, semimetric3):
        path = tmp_path / "edges.txt"
        write_edge_list(path, semimetric3)
        g, dataset = load_edge_list(path, kind="distance")
        assert dataset.n == 3
        assert g.to_dense().tolist() == semimetric3.to_dense().tolist()

    @pytest.mark.parametrize(
        "triples, n, kind",
        [
            # Diagonal entries, negative values and repr values in exponent form.
            (
                [(0, 0, 2.5), (0, 1, -1e-07), (1, 2, 1.5e300), (2, 2, -3.0),
                 (0, 2, 0.1 + 0.2), (3, 1, -2.0)],
                4,
                "similarity",
            ),
            ([], 1, "similarity"),
            ([(0, 0, 4.0)], 1, "cohesion"),
        ],
        ids=["mixed", "n1_empty", "n1_diagonal"],
    )
    def test_write_matches_old_loop(self, tmp_path, triples, n, kind):
        g = build_from_triples(n, triples, kind=kind)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        write_edge_list(new, g)
        old_write_edge_list(old, g)
        assert new.read_bytes() == old.read_bytes()

    def test_write_matches_old_loop_on_a_random_measure(self, tmp_path):
        rng = np.random.default_rng(7)
        # One triple per unordered pair; cubes of wide normals give many
        # exponent-form reprs.
        pairs = {}
        for i, j, v in zip(
            rng.integers(0, 200, 600).tolist(),
            rng.integers(0, 200, 600).tolist(),
            (rng.normal(0.0, 1e5, 600) ** 3).tolist(),
        ):
            pairs[min(i, j), max(i, j)] = (i, j, v)
        g = build_from_triples(200, list(pairs.values()))
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        write_edge_list(new, g)
        old_write_edge_list(old, g)
        assert new.read_bytes() == old.read_bytes()
        assert "e+" in new.read_text()

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
        with pytest.raises(ValueError, match=f"^{path}:1: .*'1_000'"):
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
        message = f"^{path}:2: the number of columns changed from 3 to 4$"
        with pytest.raises(ValueError, match=message):
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
        with pytest.raises(ValueError, match=f"^{path}:2: "):
            load_dense_csv(path)

    def test_underscore_digits_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1_0\n1_0,0\n")
        with pytest.raises(ValueError, match=f"^{path}:1: .*'1_0'"):
            load_dense_csv(path)

    def test_ragged_row_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0\n2,3,0\n")
        message = f"^{path}:2: the number of columns changed from 3 to 2$"
        with pytest.raises(ValueError, match=message):
            load_dense_csv(path)

    def test_empty_rejected_without_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty matrix"):
                load_dense_csv(path, header=True)


class TestParseErrorLine:
    """A parse error names the file line, whatever skipped lines precede it."""

    @pytest.mark.parametrize(
        "name, text, options, line, error",
        [
            (
                "edges.txt",
                "# header\n\n0 1 0.5 # note\n   # indented\n\t\n1 2 x\n",
                {},
                6,
                "could not convert string 'x' to float64 (column 3)",
            ),
            (
                "edges.txt",
                "# header\n\n0 1 0.5\n# comment\n1 2\n0 2 1\n",
                {},
                5,
                "the number of columns changed from 3 to 2",
            ),
            (
                "m.csv",
                "\n a , b \n  \n0,1\n# comment\n\n1,x\n",
                {"header": True},
                7,
                "could not convert string 'x' to float64 (column 2)",
            ),
            (
                "m.csv",
                '"a\nb",c\n\n# comment\n0,1\n \n1\n',
                {"header": True},
                7,
                "the number of columns changed from 2 to 1",
            ),
            (
                "m.csv",
                "0,1\n#comment\n #not a comment\n1,0\n",
                {},
                3,
                "the number of columns changed from 2 to 1",
            ),
        ],
        ids=[
            "edges-conversion",
            "edges-columns",
            "dense-conversion",
            "dense-columns",
            "dense-indented-hash",
        ],
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_error_names_the_line(
        self, tmp_path, name, text, options, line, error, newline
    ):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode())
        loader = load_dense_csv if name.endswith(".csv") else load_edge_list
        with pytest.raises(ValueError) as info:
            loader(path, **options)
        assert str(info.value) == f"{path}:{line}: {error}"

    @pytest.mark.parametrize(
        "message",
        ["no row named", "the number of columns changed at row 3"],
        ids=["no-row-in-message", "row-past-the-end"],
    )
    def test_message_without_a_file_line_names_the_path(self, tmp_path, message):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1 0.5\n1 2 0.5\n")
        assert kio._locate(path, message, kio._is_edge_row, 0) == f"{path}: {message}"


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

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("b,x,3", ValueError, "could not convert string to float: 'x'"),
            ("b,95,3", CoordinateOutOfRange, "latitude 95.0 outside [-90, 90]"),
            ("b,1", ValueError, "expected 'label,lat,lon', got ['b', '1']"),
        ],
        ids=["not_a_number", "latitude_out_of_range", "two_fields"],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row, error, message):
        path = tmp_path / "pts.csv"
        path.write_text(f"label,lat,lon\na,1.0,2.0\n\n{row}\n")
        with pytest.raises(error) as info:
            load_geo_csv(path)
        assert type(info.value) is error
        assert str(info.value) == f"{path}:4: {message}"

    def test_header_only_file_has_no_points(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("label,lat,lon\n\n")
        with pytest.raises(ValueError) as info:
            load_geo_csv(path)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{path}: no points"

    def test_label_with_a_line_break_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text('"a\nb",1.0,2.0\nc,3.0,4.0\n')
        with pytest.raises(ArityMismatch, match="cannot be one TSV field"):
            load_geo_csv(path)


class TestPartitionTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "part.tsv"
        write_partition_tsv(path, DataSet(3, ("a", "b", "c")), [0, 1, 1])
        labels, assign = read_partition_tsv(path)
        assert labels == ["a", "b", "c"]
        assert assign == [0, 1, 1]

    def test_only_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "part.tsv"
        write_partition_tsv(path, DataSet(3, ("#a", "b", "# c")), [0, 1, 1])
        path.write_text(path.read_text().replace("\n", "\n \n"))
        assert read_partition_tsv(path) == (["#a", "b", "# c"], [0, 1, 1])

    def test_non_integer_cluster_id_names_the_line(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("a\t0\n\nb\t1.5\n")
        with pytest.raises(ValueError, match=r"part\.tsv:3: cluster id '1\.5'"):
            read_partition_tsv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "part.tsv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_partition_tsv(path)

    @pytest.mark.parametrize("assign", [[0, 1], np.array([0, 1])], ids=["list", "array"])
    def test_write_rejects_length_mismatch(self, tmp_path, build_path, assign):
        path = tmp_path / "part.tsv"
        with pytest.raises(ValueError):
            write_partition_tsv(path, DataSet(3), assign)
        assert not path.exists()

    @pytest.mark.parametrize(
        "ids",
        [
            lambda a: a.tolist(),
            lambda a: a,
            lambda a: a.astype(np.int8),
            lambda a: a.astype(np.uint32),
            lambda a: a - 6,
            lambda a: (a % 2).astype(bool).tolist(),
            lambda a: (a % 2).astype(bool),
            lambda a: a.astype(np.float64),
            lambda a: a.astype(np.float32).tolist(),
            lambda a: a.astype(np.uint64),
        ],
        ids=[
            "int-list", "int64", "int8", "uint32", "negative", "bool-list",
            "bool-array", "float-array", "float-list", "uint64",
        ],
    )  # fmt: skip
    @pytest.mark.parametrize("n", [1, 1001])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_write_matches_old_loop_on_both_paths(
        self, tmp_path, build_path, ids, n, labeled
    ):
        # Labels 0..n-1 cross 10, 100 and 1000, and ids K = 12 >= 10.
        assign = ids(np.random.default_rng(n).integers(0, 12, size=n))
        labels = tuple(f"p{i}" for i in range(n)) if labeled else None
        new, old = tmp_path / "new.tsv", tmp_path / "old.tsv"
        write_partition_tsv(new, DataSet(n, labels), assign)
        old_write_partition_tsv(old, DataSet(n, labels), assign)
        assert new.read_bytes() == old.read_bytes()

    @needs_cc
    @pytest.mark.parametrize(
        "assign", [np.array([0, 1, 12]), np.array([0, 1, 12], np.int8)]
    )
    def test_integer_ids_of_an_unlabeled_dataset_skip_the_percent_format(
        self, tmp_path, monkeypatch, assign
    ):
        monkeypatch.setattr(kio, "_write_lines", forbidden_write_lines)
        path = tmp_path / "part.tsv"
        write_partition_tsv(path, DataSet(3), assign)
        assert path.read_text() == "0\t0\n1\t1\n2\t12\n"

    def test_a_list_of_ids_takes_the_percent_format(
        self, tmp_path, monkeypatch, build_path
    ):
        assert percent_format_ids(tmp_path, monkeypatch, [0, 1, 12]) == [0, 1, 12]

    def test_an_id_array_without_a_kernel_takes_the_percent_format_as_ints(
        self, tmp_path, monkeypatch, no_kernel
    ):
        ids = percent_format_ids(tmp_path, monkeypatch, np.array([0, 1, 12]))
        assert ids == [0, 1, 12] and all(type(i) is int for i in ids)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_write_matches_the_f_string_join(self, tmp_path, labeled):
        n = 5000
        rng = np.random.default_rng(4)
        assign = rng.integers(0, 12, size=n).tolist()
        labels = tuple(f"h\u00f6st-{i}" for i in rng.permutation(n)) if labeled else None
        dataset = DataSet(n, labels)
        names = range(n) if labels is None else labels
        # The per-line f-string join the single % format replaced.
        expected = "".join(
            [f"{label}\t{k}\n" for label, k in zip(names, assign, strict=True)]
        )
        path = tmp_path / "part.tsv"
        write_partition_tsv(path, dataset, assign)
        assert path.read_bytes() == expected.encode("utf-8")

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


def forbidden_write_lines(*args, **kwargs):
    raise AssertionError("_write_lines was called")


def percent_format_ids(tmp_path, monkeypatch, assign) -> list:
    """The id column write_partition_tsv hands _write_lines for a
    3-point unlabeled dataset, which must write its usual text."""
    calls, write_lines = [], kio._write_lines

    def spy(fh, line, *columns):
        calls.append(columns)
        write_lines(fh, line, *columns)

    monkeypatch.setattr(kio, "_write_lines", spy)
    path = tmp_path / "part.tsv"
    write_partition_tsv(path, DataSet(3), assign)
    assert path.read_text() == "0\t0\n1\t1\n2\t12\n"
    [(_, ids)] = calls
    return ids


class TestSignedEdges:
    @pytest.mark.parametrize(
        "graph",
        [
            sbm_generate(SbmParams(n=300, c=8.0, diff=5.0, p=0.3, seed=4)),
            SignedGraph(
                2,
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int8),
                np.zeros(0, dtype=np.int8),
                np.array([0, 1], dtype=np.int8),
            ),
        ],
        ids=["sbm", "no_edges"],
    )
    def test_write_matches_old_loop(self, tmp_path, graph):
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        write_signed_edges(new, graph)
        old_write_signed_edges(old, graph)
        assert new.read_bytes() == old.read_bytes()
        assert new.read_text().count("\n") == graph.n_edges + 2


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Every digit-width boundary, on both signs, and the int64 extremes.
WIDTHS = sorted(
    {s * v for d in range(1, 19) for v in (10**d - 1, 10**d) for s in (1, -1)}
    | {0, 1, -1, INT64_MIN, INT64_MAX, INT64_MIN + 1}
)
cells = st.one_of(st.sampled_from(WIDTHS), st.integers(INT64_MIN, INT64_MAX))


@st.composite
def id_arrays(draw):
    """Ids for 1 to 1001 points, so that the line index takes one to four
    digits, the ids cycling through a few drawn values."""
    n = draw(st.sampled_from([1, 10, 11, 100, 101, 1000, 1001]) | st.integers(1, 12))
    values = draw(st.lists(cells, min_size=1, max_size=8))
    return np.resize(np.array(values, dtype=np.int64), n)


def percent_format(ids: np.ndarray) -> str:
    """_write_lines's text for the ids: one "%s\t%s\n" line per point."""
    fh = io.StringIO()
    kio._write_lines(fh, "%s\t%s\n", range(len(ids)), ids.tolist())
    return fh.getvalue()


class TestFormatInts:
    """ksets_format writes _write_lines's bytes for an int64 id array."""

    @needs_cc
    @given(id_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_percent_format(self, ids):
        assert kio._format_partition(ids) == percent_format(ids)

    @needs_cc
    @pytest.mark.parametrize(
        "ids, text",
        [
            (np.zeros(0, np.int64), ""),
            (np.array([-7]), "0\t-7\n"),
            (np.array([INT64_MIN, INT64_MAX]), f"0\t{INT64_MIN}\n1\t{INT64_MAX}\n"),
        ],
        ids=["no-points", "one-point", "extremes"],
    )
    def test_routine_returns_its_byte_count_and_declines_a_short_buffer(
        self, ids, text
    ):
        library = _kernel.load()
        out = np.zeros(len(text) + 4, dtype=np.uint8)
        size = library.ksets_format(len(ids), ids, out, len(text))
        assert size == len(text) and out[:size].tobytes() == text.encode()
        assert not out[size:].any()
        if text:
            assert library.ksets_format(len(ids), ids, out, len(text) - 1) == -1

    def test_without_a_kernel_nothing_is_formatted(self, no_kernel):
        assert kio._format_partition(np.zeros(2, np.int64)) is None
