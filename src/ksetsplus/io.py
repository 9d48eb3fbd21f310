"""File formats: edge lists, dense CSV matrices, geo CSV, partition TSV."""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import ArityMismatch, IndexOutOfRange, NonSquareInput
from .experiments import GeoPoint, SignedGraph
from .measure import (
    DataSet,
    SparseSymmetricMeasure,
    build_from_triples,
    from_dense,
    symmetrize,
)


def _loadtxt(path, dense: bool, skip: int = 0) -> np.ndarray:
    """The numbers of an edge list or (dense) CSV as a 2-D float64 array.

    skip is the number of lines a header took. The compiled reader parses
    the files of its strict grammar; it declines every other file, and
    np.loadtxt reads those as it always has, errors included.
    """
    table = _read_exact(path, dense, skip)
    return _read_loadtxt(path, dense, skip) if table is None else table


def _read_exact(path, dense: bool, skip: int = 0) -> np.ndarray | None:
    """The table np.loadtxt would return, or None when the file is outside
    ksets_read's grammar, empty or unmappable, or no kernel can be built.
    ksets_read parses a read-only map of the file in place, so a file that
    another process truncates meanwhile can end the process with SIGBUS."""
    import mmap

    from ._kernel import load

    library = load()
    if library is None:
        return None
    with open(path, "rb") as fh:
        try:
            text = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # an empty file, a pipe, a device
            return None
    table = _read_text(library, np.frombuffer(text, dtype=np.uint8), skip, dense)
    # Not closed on an error: the traceback still holds the view, so close()
    # would raise BufferError over the error; the map goes with the traceback.
    text.close()
    return table


def _read_text(library, text: np.ndarray, skip: int, dense: bool) -> np.ndarray | None:
    """ksets_read twice: the first call reads the first row only and bounds
    the table by the text's lines (and by its bytes: a value takes two, the
    last one one), the second fills the table, which is then shrunk in
    place, so that it owns its memory and a dense builder can take it over.
    Both calls split the text across _kernel.parts of its bytes."""
    from ._kernel import parts

    args, shape = (text, text.size, skip, dense), np.zeros(2, dtype=np.int64)
    split = parts(text.size)
    if library.ksets_read(*args, np.empty(0), 0, shape, split) != 0:
        return None
    lines, cols = shape.tolist()
    out = np.empty(min(lines * cols, (text.size + 1) // 2))
    if library.ksets_read(*args, out, out.size, shape, split) != 0:
        return None
    out.resize(shape.tolist(), refcheck=False)
    return out


def _read_loadtxt(path, dense: bool, skip: int = 0) -> np.ndarray:
    """np.loadtxt into a 2-D float64 array; a parse error names path:line.

    loadtxt counts data rows only, so the error path reads the file again
    to find the line.
    """
    try:
        with warnings.catch_warnings():
            # Callers report empty input themselves.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            if not dense:
                return np.loadtxt(path, ndmin=2, encoding="utf-8", comments="#")
            with open(path, newline="", encoding="utf-8") as fh:
                # With delimiter=",", loadtxt skips empty lines but not blank ones.
                lines = itertools.islice(fh, skip, None)
                body = (line for line in lines if not line.isspace())
                return np.loadtxt(
                    body, ndmin=2, encoding="utf-8", delimiter=",", quotechar='"'
                )
    except ValueError as exc:
        is_row = _is_dense_row if dense else _is_edge_row
        raise ValueError(_locate(path, str(exc), is_row, skip)) from exc


# loadtxt's messages end in "at row R" (from 1), or in "at row R, column C"
# (R from 0) for a value it cannot convert; advice on its usecols argument,
# which no caller has, may follow.
_AT_ROW = re.compile(r"(.*) at row (\d+)(?:, column (\d+))?", re.DOTALL)


def _locate(path, message: str, is_row, skip: int) -> str:
    match = _AT_ROW.match(message)
    if match is None:
        return f"{path}: {message}"
    text, row, column = match.groups()
    row = int(row) + (column is not None)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = itertools.islice(enumerate(fh, start=1), skip, None)
        rows = (lineno for lineno, line in lines if is_row(line))
        lineno = next(itertools.islice(rows, row - 1, None), None)
    if lineno is None:
        return f"{path}: {message}"
    if column is not None:
        text += f" (column {column})"
    return f"{path}:{lineno}: {text}"


def _is_edge_row(line: str) -> bool:
    return bool(line.split("#", 1)[0].strip())


def _is_dense_row(line: str) -> bool:
    return not line.isspace() and not line.startswith("#")


def load_edge_list(
    path, kind: str = "similarity", n: int | None = None
) -> tuple[SparseSymmetricMeasure, DataSet]:
    """Read `i j value` triples, one per line; `#` starts a comment.

    The point count is max index + 1 unless n is given. Symmetric
    closure is applied: each triple also stands for its mirror.
    """
    triples = _loadtxt(path, dense=False)
    if triples.size and triples.shape[1] != 3:
        raise ValueError(f"{path}: expected 'i j value', got {triples.shape[1]} fields")
    if n is None:
        if not triples.size:
            raise ValueError(f"{path}: no triples and no explicit point count")
        top = triples[:, :2].max()
        if not np.isfinite(top):
            raise IndexOutOfRange(f"{path}: point index {top} is not finite")
        n = int(top) + 1
    measure = build_from_triples(n, triples, kind=kind)
    return measure, DataSet(n)


def write_edge_list(path, g: SparseSymmetricMeasure):
    """Write stored entries once per unordered pair."""
    rows = g.entry_rows()
    upper = g.indices >= rows
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} kind={g.kind}\n")
        columns = rows[upper], g.indices[upper], g.data[upper]
        _write_lines(fh, "%s %s %r\n", *(column.tolist() for column in columns))


def _write_lines(fh, line: str, *columns) -> None:
    """Write one line per row of the equal-length columns: one % over the
    interleaved columns formats every line in C. The byte oracle of
    ksets_format, and write_partition_tsv's path when it cannot run."""
    count, width = len(columns[0]), len(columns)
    flat = [None] * (width * count)
    for c, column in enumerate(columns):
        flat[c::width] = column
    fh.write((line * count) % tuple(flat))


def _format_partition(ids) -> str | None:
    """What _write_lines writes for "%s\t%s\n" over range(len(ids)) and the
    integer ids, formatted by ksets_format; None when no kernel can be
    built. A line takes at most the digits of n - 1, those of the widest id
    extreme, a tab and a newline."""
    from ._kernel import load

    library = load()
    if library is None:
        return None
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    n = len(ids)
    digits = max(len(str(ids.min())), len(str(ids.max())))
    out = np.empty(n * (len(str(n - 1)) + digits + 2), dtype=np.uint8)
    size = library.ksets_format(n, ids, out, out.size)
    assert size >= 0, "ksets_format overran its bound"
    return out[:size].tobytes().decode("ascii")


def load_dense_csv(
    path,
    kind: str = "similarity",
    header: bool = False,
    average_asymmetric: bool = False,
) -> tuple[SparseSymmetricMeasure, DataSet]:
    """Read a dense square CSV matrix, optionally labeled by a header row.

    The header is the first non-blank record; `#` starts a comment.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        records = (r for r in reader if any(cell.strip() for cell in r))
        record = next(records, None) if header else None
    labels = None if record is None else tuple(cell.strip() for cell in record)
    matrix = _loadtxt(path, dense=True, skip=reader.line_num)
    if not matrix.size:
        raise ValueError(f"{path}: empty matrix")
    if matrix.shape[0] != matrix.shape[1]:
        raise NonSquareInput(
            f"{path}: matrix is {matrix.shape[0]}x{matrix.shape[1]}"
        )
    if labels is not None and len(labels) != matrix.shape[0]:
        raise ArityMismatch(
            f"{path}: {len(labels)} header labels for {matrix.shape[0]} rows"
        )
    # The builders take the table over: it becomes the measure's data array.
    if average_asymmetric:
        measure = symmetrize(matrix, kind=kind, _take=True)
    else:
        measure = from_dense(matrix, kind=kind, _take=True)
    return measure, DataSet(measure.n, labels)


def load_geo_csv(path) -> tuple[list[GeoPoint], DataSet]:
    """Read `label,lat,lon` rows; a non-numeric first row is a header.

    An error in a row keeps its type and names the row as path:line.
    """
    labels: list[str] = []
    points: list[GeoPoint] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        records = (r for r in reader if any(cell.strip() for cell in r))
        for idx, record in enumerate(records):
            try:
                if len(record) != 3:
                    raise ValueError(f"expected 'label,lat,lon', got {record!r}")
                try:
                    lat, lon = float(record[1]), float(record[2])
                except ValueError:
                    if idx == 0:
                        continue
                    raise
                points.append(GeoPoint(lat, lon))
            except ValueError as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
            labels.append(record[0].strip())
    if not points:
        raise ValueError(f"{path}: no points")
    return points, DataSet(len(points), tuple(labels))


def write_partition_tsv(path, dataset: DataSet, assign):
    """One `label<TAB>cluster` line per point, a label being the point's
    index when the dataset has none. An integer id array of an unlabeled
    dataset is formatted by ksets_format, everything else by one % format."""
    n = dataset.n
    if len(assign) != n:
        raise ValueError(f"{len(assign)} cluster ids for {n} points")
    # "%s" formats each id of such an array as its decimal digits.
    ints = (
        type(assign) is np.ndarray
        and assign.ndim == 1
        and assign.dtype.kind in "iu"
        and np.can_cast(assign.dtype, np.int64)
    )
    text = None
    if ints and dataset.labels is None:
        text = _format_partition(assign)
    with open(path, "w", encoding="utf-8") as fh:
        if text is not None:
            fh.write(text)
        else:
            labels = range(n) if dataset.labels is None else dataset.labels
            # Python ints format faster than numpy scalars.
            _write_lines(fh, "%s\t%s\n", labels, assign.tolist() if ints else assign)


def read_partition_tsv(path) -> tuple[list[str], list[int]]:
    labels: list[str] = []
    assign: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split("\t") if "\t" in stripped else stripped.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'label<TAB>cluster', got {stripped!r}"
                )
            try:
                assign.append(int(parts[1]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: cluster id {parts[1]!r} is not an integer"
                ) from None
            labels.append(parts[0])
    if not assign:
        raise ValueError(f"{path}: empty partition")
    return labels, assign


def write_signed_edges(path, graph: SignedGraph):
    """Signed edge list with the ground truth alongside."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# i j sign truth_sign\n")
        columns = graph.edge_i, graph.edge_j, graph.sign, graph.truth_sign
        _write_lines(fh, "%s %s %s %s\n", *(column.tolist() for column in columns))
        fh.write("# block per node: " + " ".join(str(b) for b in graph.block) + "\n")


def write_sweep_tsv(fh, rows):
    fh.write("c\tp\tmean_accuracy\tci95_halfwidth\tgraphs\n")
    for row in rows:
        fh.write(
            f"{row.c:g}\t{row.p:g}\t{row.mean_accuracy:.6f}\t"
            f"{row.ci95_halfwidth:.6f}\t{row.graphs}\n"
        )
