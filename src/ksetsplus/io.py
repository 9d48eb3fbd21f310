"""File formats: edge lists, dense CSV matrices, geo CSV, partition TSV."""

from __future__ import annotations

import csv
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


def _loadtxt(path, source, **options) -> np.ndarray:
    """np.loadtxt into a 2-D float64 array; a parse error names the path."""
    try:
        with warnings.catch_warnings():
            # Callers report empty input themselves.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(source, ndmin=2, encoding="utf-8", **options)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_edge_list(
    path, kind: str = "similarity", n: int | None = None
) -> tuple[SparseSymmetricMeasure, DataSet]:
    """Read `i j value` triples, one per line; `#` starts a comment.

    The point count is max index + 1 unless n is given. Symmetric
    closure is applied: each triple also stands for its mirror.
    """
    triples = _loadtxt(path, path, comments="#")
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} kind={g.kind}\n")
        rows = g.entry_rows()
        upper = g.indices >= rows
        for i, j, v in zip(
            rows[upper].tolist(), g.indices[upper].tolist(), g.data[upper].tolist()
        ):
            fh.write(f"{i} {j} {v!r}\n")


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
        records = (r for r in csv.reader(fh) if any(cell.strip() for cell in r))
        record = next(records, None) if header else None
        labels = None if record is None else tuple(cell.strip() for cell in record)
        # With delimiter=",", loadtxt skips empty lines but not blank ones.
        body = (line for line in fh if not line.isspace())
        matrix = _loadtxt(path, body, delimiter=",", quotechar='"')
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
    if average_asymmetric:
        measure = symmetrize(matrix, kind=kind)
    else:
        measure = from_dense(matrix, kind=kind)
    return measure, DataSet(measure.n, labels)


def load_geo_csv(path) -> tuple[list[GeoPoint], DataSet]:
    """Read `label,lat,lon` rows; a non-numeric first row is a header."""
    labels: list[str] = []
    points: list[GeoPoint] = []
    with open(path, newline="", encoding="utf-8") as fh:
        records = (
            record
            for record in csv.reader(fh)
            if record and any(cell.strip() for cell in record)
        )
        for idx, record in enumerate(records):
            if len(record) != 3:
                raise ValueError(f"{path}: expected 'label,lat,lon', got {record!r}")
            if idx == 0:
                try:
                    float(record[1]), float(record[2])
                except ValueError:
                    continue
            labels.append(record[0].strip())
            points.append(GeoPoint(float(record[1]), float(record[2])))
    if not points:
        raise ValueError(f"{path}: no points")
    return points, DataSet(len(points), tuple(labels))


def write_partition_tsv(path, dataset: DataSet, assign):
    labels = range(dataset.n) if dataset.labels is None else dataset.labels
    lines = [f"{label}\t{k}\n" for label, k in zip(labels, assign, strict=True)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def read_partition_tsv(path) -> tuple[list[str], list[int]]:
    labels: list[str] = []
    assign: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t") if "\t" in stripped else stripped.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'label<TAB>cluster', got {stripped!r}"
                )
            labels.append(parts[0])
            assign.append(int(parts[1]))
    if not assign:
        raise ValueError(f"{path}: empty partition")
    return labels, assign


def write_signed_edges(path, graph: SignedGraph):
    """Signed edge list with the ground truth alongside."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# i j sign truth_sign\n")
        for a, b, s, t in zip(
            graph.edge_i, graph.edge_j, graph.sign, graph.truth_sign
        ):
            fh.write(f"{a} {b} {s} {t}\n")
        fh.write("# block per node: " + " ".join(str(b) for b in graph.block) + "\n")


def write_sweep_tsv(fh, rows):
    fh.write("c\tp\tmean_accuracy\tci95_halfwidth\tgraphs\n")
    for row in rows:
        fh.write(
            f"{row.c:g}\t{row.p:g}\t{row.mean_accuracy:.6f}\t"
            f"{row.ci95_halfwidth:.6f}\t{row.graphs}\n"
        )
