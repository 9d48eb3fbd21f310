"""The row-split kernels (ksets_read, ksets_check and ksets_scatter):
every split gives the bytes, decline or error of one part and of the numpy
reference, the parts rule, and the threads a call leaves behind."""

import contextlib
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel, cli
from ksetsplus import io as kio
from ksetsplus.engine import RunConfig, _point_to_set, _point_to_set_reference, run
from ksetsplus.errors import KsetsError
from ksetsplus.experiments import SbmParams, sbm_generate, similarity_from_signed
from ksetsplus.measure import (
    KINDS,
    SparseSymmetricMeasure,
    _from_dense_reference,
    _from_dense_unchecked,
)

from conftest import needs_cc

PARTS = [1, 2, 3, 7]
TASKS = Path("/proc/self/task")


@contextlib.contextmanager
def split_into(parts):
    """A context in which every split routine runs in parts parts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "parts", lambda work: parts)
        yield


def per_parts(outcome, *args):
    """outcome(*args) with every split routine run at each of PARTS."""
    results = []
    for parts in PARTS:
        with split_into(parts):
            results.append(outcome(*args))
    return results


def reference(outcome, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: None)
        return outcome(*args)


# --- ksets_read ---------------------------------------------------------

TOKENS = ["0", "1", "-2.5", "0.125", "3e2", "+7", ".5", "-0"]


@st.composite
def split_texts(draw):
    """(text, dense, skip, clean): up to 40 lines of rows, comment and blank
    lines, LF or CRLF, after an optional CSV header line; messy texts also hold
    ragged rows and bad tokens, anywhere, so often in a later part only."""
    dense = draw(st.booleans())
    messy = draw(st.booleans())
    cols = draw(st.integers(1, 3))
    sep = "," if dense else " "
    kinds = ["row"] * 4 + ["comment", "blank"] + (["ragged", "bad"] if messy else [])
    lines, clean = [], True
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=40)):
        width = cols + draw(st.sampled_from([-1, 1])) if kind == "ragged" else cols
        cells = [draw(st.sampled_from(TOKENS)) for _ in range(width)]
        if kind == "bad":
            cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["1.5.2", "x", "1e"]))
        if kind == "comment":
            line = "# note"
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\t"]))
        else:
            line = sep.join(cells)
            clean = clean and kind == "row" and width > 0
        lines.append(line)
    skip = draw(st.integers(0, 1)) if dense else 0  # loadtxt skips CSV headers only
    if skip:
        lines.insert(0, "a,b")
    eols = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + eol for line, eol in zip(lines, eols))
    if draw(st.booleans()):
        text = text[: -len(eols[-1])]
    has_row = any(line.strip() and not line.startswith("#") for line in lines[skip:])
    return text, dense, skip, clean and has_row


def exact_bytes(data: bytes) -> np.ndarray:
    """data in an array of exactly its size, whose buffer malloc gives (a
    bytes object ends in a NUL, and pymalloc backs a short one), so that
    AddressSanitizer sees a read one byte past the end."""
    return np.frombuffer(data, np.uint8).copy()


def read_outcome(text, dense, skip):
    library = _kernel.load()
    table = kio._read_text(library, exact_bytes(text.encode()), skip, dense)
    return None if table is None else (table.shape, table.tobytes())


@needs_cc
@given(split_texts())
@settings(max_examples=300, deadline=None)
def test_read_splits_match_one_part_and_loadtxt(case):
    text, dense, skip, clean = case
    outcomes = per_parts(read_outcome, text, dense, skip)
    assert outcomes == [outcomes[0]] * len(PARTS)
    if clean:
        assert outcomes[0] is not None
    if outcomes[0] is not None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.txt"
            path.write_bytes(text.encode())
            expected = kio._read_loadtxt(path, dense, skip)
        assert outcomes[0] == (expected.shape, expected.tobytes())


@needs_cc
@pytest.mark.parametrize(
    "text, dense",
    [("0\n\n\n0\n", False), ("0\n\n\n\n\n\n1\n\n\n\n2", False), ("1\n\n\n\n2\n", True)],
)
def test_read_splits_a_table_bounded_by_its_bytes(text, dense):
    """Blank lines make the caller's bound on the values the text's bytes,
    not lines * cols; no part may be placed past it."""
    outcomes = per_parts(read_outcome, text, dense, 0)
    assert outcomes[0] is not None
    assert outcomes == [outcomes[0]] * len(PARTS)


# --- ksets_check --------------------------------------------------------

CHECK_VALUES = [1.0, 2.5, 0.0, -1.0, np.nan, np.inf, -np.inf]


@st.composite
def csr_findings(draw):
    """Constructor input over up to 16 points whose findings (non-finite,
    negative values, self-distances, unordered or outside columns, and a
    decreasing indptr at one row) lie in any part."""
    n = draw(st.integers(1, 16))
    rows = [
        sorted(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=6)))
        for _ in range(n)
    ]
    indices = [c for r in rows for c in r]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    if indices and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(indices) - 1))
        indices[at] = draw(st.sampled_from([-1, n, indices[at - 1] if at else 0]))
    if n > 1 and draw(st.integers(0, 5)) == 0:
        r = draw(st.integers(1, n - 1))
        indptr[r] = indptr[r + 1] + 1 if indptr[r + 1] < indptr[-1] else indptr[r - 1] - 1
    weights = draw(st.sampled_from([CHECK_VALUES[:3], CHECK_VALUES[:4], CHECK_VALUES]))
    data = [draw(st.sampled_from(weights)) for _ in indices]
    return n, draw(st.sampled_from(KINDS)), indptr, indices, data


def check_outcome(n, kind, indptr, indices, data):
    try:
        g = SparseSymmetricMeasure(n, kind, indptr, indices, data)
    except KsetsError as exc:
        return type(exc), str(exc)
    return g.diag.tobytes()


@needs_cc
@given(csr_findings())
@settings(max_examples=300, deadline=None)
def test_check_splits_match_one_part_and_reference(case):
    outcomes = per_parts(check_outcome, *case)
    assert outcomes == [outcomes[0]] * len(PARTS)
    assert outcomes[0] == reference(check_outcome, *case)


# --- ksets_scatter ------------------------------------------------------


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    k=st.integers(1, 6),
    density=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_scatter_splits_match_one_part_and_reference(seed, n, k, density):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)) * (rng.random((n, n)) < density))
    g = _from_dense_reference(upper + upper.T, "similarity", False)
    assign = rng.integers(0, k, size=n)
    tables = per_parts(lambda: _point_to_set(g, assign, k).tobytes())
    assert tables == [_point_to_set_reference(g, assign, k).tobytes()] * len(PARTS)


# --- the parts rule and the threads a call leaves -----------------------


def test_parts_rule(monkeypatch):
    monkeypatch.setattr(_kernel, "_cpu_count", lambda: 4)
    grain = _kernel._GRAIN
    assert [_kernel.parts(w) for w in (0, 1, 2 * grain - 1, 2 * grain, 3 * grain)] == [
        1, 1, 1, 2, 3,
    ]  # fmt: skip
    assert _kernel.parts(100 * grain) == 4
    monkeypatch.setattr(_kernel, "_cpu_count", lambda: 64)
    assert _kernel.parts(100 * grain) == 8
    monkeypatch.setattr(_kernel, "_GRAIN", 1)
    assert _kernel.parts(5) == 5


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_cpu_count_without_affinity(monkeypatch, count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert _kernel._cpu_count() == cpus


def test_one_cpu_gives_one_part(monkeypatch):
    monkeypatch.setattr(_kernel, "_cpu_count", lambda: 1)
    assert {_kernel.parts(w) for w in (0, 1, 10**6, 10**12, 2**62)} == {1}


def test_cpu_count_is_this_process_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert _kernel._cpu_count() == len(os.sched_getaffinity(0))
    assert _kernel._cpu_count() >= 1


def test_benchmark_inputs_split_and_the_signed_benchmark_does_not(monkeypatch):
    """Both 1M-entry benchmark measures split; the signed benchmark's
    similarity (n = 2000, m about 216k) runs on one thread."""
    monkeypatch.setattr(_kernel, "_cpu_count", lambda: 8)
    assert _kernel.parts(999_000) >= 2  # latency_dense's distance
    assert _kernel.parts(1_000_000) >= 2  # sparse_edges
    assert _kernel.parts(7_379_337) >= 2  # the latency CSV's bytes
    assert _kernel.parts(230_000) == 1


@needs_cc
def test_signed_benchmark_splits_its_restarts_only(monkeypatch, capsys):
    """Every row scan of the signed benchmark runs in one part; only its
    five restarts, 5 m steps of work in all, run on threads."""
    graph = sbm_generate(SbmParams(n=2000, c=10, diff=5, p=0.1, seed=7))
    restarts = 5 * similarity_from_signed(graph).m
    monkeypatch.setattr(_kernel, "_cpu_count", lambda: 8)
    chosen = {}
    rule = _kernel.parts
    monkeypatch.setattr(_kernel, "parts", lambda work: chosen.setdefault(work, rule(work)))
    argv = ["sbm", "--n", "2000", "--c", "10", "--diff", "5", "--p", "0.1"]
    assert cli.main([*argv, "--k", "2", "--restarts", "5", "--seed", "7"]) == 0
    capsys.readouterr()
    assert chosen.pop(restarts) == 4
    assert chosen and set(chosen.values()) == {1}


def run_every_split_routine():
    """Each split routine once, through its Python caller, and a run's
    restarts, which split by restart."""
    library = _kernel.load()
    text = exact_bytes(b"# h\n0 1 0.5\n1 2 1.5\n\n2 0 -1\n")
    assert kio._read_text(library, text, 0, False).shape == (3, 3)
    rng = np.random.default_rng(0)
    upper = np.triu(rng.uniform(0.0, 1.0, size=(40, 40)), 1)
    g = _from_dense_unchecked(upper + upper.T, "distance", True)  # check
    assert _point_to_set(g, rng.integers(0, 3, size=40), 3).shape == (120,)
    assert run(g, RunConfig(k=3, restarts=5)).restart in range(5)


@needs_cc
@pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")
def test_split_calls_join_their_threads():
    before = len(list(TASKS.iterdir()))
    with split_into(4):
        run_every_split_routine()
        assert len(list(TASKS.iterdir())) == before


@needs_cc
@pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")
def test_one_cpu_starts_no_thread_during_a_call(monkeypatch):
    monkeypatch.setattr(_kernel, "_cpu_count", lambda: 1)
    library = _kernel.load()
    text = exact_bytes(b"0 1 0.5\n" * 400_000)
    seen, done = [], threading.Event()

    def watch():
        while not done.is_set():
            seen.append(len(list(TASKS.iterdir())))

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        while not seen:
            pass
        # The C calls release the GIL, so the watcher samples during them.
        table = kio._read_text(library, text, 0, False)
        run_every_split_routine()
    finally:
        done.set()
        watcher.join()
    assert table.shape == (400_000, 3)
    assert len(seen) > 1 and max(seen) == seen[0]


@needs_cc
@pytest.mark.parametrize("parts", [2, 7])
def test_more_parts_than_rows(parts):
    one_line = ("1,2.5,-3\n", True, 0)
    cases = [
        (read_outcome, one_line),
        (read_outcome, ("# c\n\n0 1 2", False, 0)),
        (check_outcome, (1, "distance", [0, 1], [0], [1.5])),
    ]
    g = _from_dense_reference(np.array([[2.0]]), "similarity", False)
    scatter = (lambda: _point_to_set(g, np.zeros(1, dtype=np.int64), 2).tobytes(), ())
    for outcome, args in [*cases, scatter]:
        with split_into(1):
            expected = outcome(*args)
        with split_into(parts):
            assert outcome(*args) == expected
