"""The compiled kernels against their Python and numpy references, plus
the build cache and the fallback when no kernel can be built."""

import ctypes
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel, cli
from ksetsplus.engine import (
    RunConfig,
    _point_to_set,
    _point_to_set_reference,
    _run_pass_reference,
    init_state,
    objective_value,
    run,
    run_pass,
)
from ksetsplus.experiments import SbmParams, sbm_generate, similarity_from_signed
from ksetsplus.measure import Partition, from_dense
from ksetsplus.verify import pairwise_isolation_check

from conftest import (
    needs_cc,
    random_cohesion,
    random_partition,
    random_semimetric,
    random_similarity_dense,
    traced_pass,
)


def _measure(rng, n, family, density, diagonal):
    """A measure of the family; diagonal=False stores no diagonal entry,
    except in an induced cohesion, whose diagonal is its own."""
    if family == "signed":
        return random_similarity_dense(rng, n, density=density, diagonal=diagonal)
    if family == "integer":
        # Small integers make exact distance ties common.
        upper = np.triu(rng.integers(-2, 3, size=(n, n)), k=1).astype(float)
        full = upper + upper.T
        if diagonal:
            full[np.diag_indices(n)] = rng.integers(-2, 3, size=n)
        return from_dense(full)
    return random_cohesion(rng, n).underlying


FAMILIES = ["signed", "integer", "cohesion"]


def _snapshot(state, trace):
    return (
        trace,
        (state.ops_delta, state.ops_update),
        state.objective.hex(),
        state.point_to_set.tobytes(),
        state.gbar.tobytes(),
        state.sizes.tolist(),
        state.assign.tolist(),
    )


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    k=st.integers(2, 6),
    family=st.sampled_from(FAMILIES),
    density=st.floats(0.1, 1.0),
    diagonal=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_bit_for_bit(seed, n, k, family, density, diagonal):
    assert _kernel.load() is not None
    rng = np.random.default_rng(seed)
    g = _measure(rng, n, family, density, diagonal)
    start = random_partition(rng, n, min(k, n))
    compiled = init_state(g, start)
    reference = init_state(g, start)
    compiled_trace, reference_trace = [], []
    for _ in range(200):
        moved = traced_pass(run_pass, compiled, compiled_trace)
        assert moved == traced_pass(_run_pass_reference, reference, reference_trace)
        assert compiled.objective.hex() == reference.objective.hex()
        if not moved:
            break
    assert _snapshot(compiled, compiled_trace) == _snapshot(reference, reference_trace)


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    k=st.integers(2, 24),
    family=st.sampled_from(FAMILIES),
    density=st.floats(0.1, 1.0),
    diagonal=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_table_and_sum_kernels_match_references_bit_for_bit(
    seed, n, k, family, density, diagonal
):
    assert _kernel.load() is not None
    rng = np.random.default_rng(seed)
    g = _measure(rng, n, family, density, diagonal)
    # random_partition's rejection sampling would rarely end at k near n.
    k = min(k, n)
    assign = rng.integers(0, k, size=n)
    assign[rng.permutation(n)[:k]] = np.arange(k)
    partition = Partition.from_assign(assign, k=k)
    expected = _point_to_set_reference(g, assign, partition.k).tobytes()
    assert _point_to_set(g, assign, partition.k).tobytes() == expected
    objective = objective_value(g, partition)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: None)
        assert objective_value(g, partition).hex() == objective.hex()


@needs_cc
def test_fallback_gives_the_same_run_and_one_warning(
    fresh_loader, monkeypatch, caplog, capsys, tmp_path
):
    rng = np.random.default_rng(5)
    g = random_similarity_dense(rng, 40, density=0.3)
    d = random_semimetric(rng, 40)
    c = random_cohesion(rng, 40)
    config = RunConfig(k=3, seed=2, restarts=3)
    # An asymmetric RTT-like matrix, clustered and verified through the CLI.
    rtt = rng.uniform(1.0, 100.0, size=(30, 30))
    np.fill_diagonal(rtt, 0.0)
    latency = tmp_path / "latency.csv"
    latency.write_text("".join(",".join(f"{v:.3f}" for v in r) + "\n" for r in rtt))
    partition = tmp_path / "latency.tsv"
    dense = ["--input", str(latency), "--format", "dense", "--kind", "distance",
             "--symmetrize"]

    def outcome():
        result = run(g, config)
        # Every kind's block sums come from the point-to-set table.
        reports = [
            pairwise_isolation_check(checked, run(clustered, config).partition)
            for checked, clustered in [(g, g), (c, c.underlying), (d, d)]
        ]
        # The signed benchmark: its A + 0.5 A^2 build, run and report.
        graph = sbm_generate(SbmParams(n=200, c=8.0, diff=5.0, p=0.1, seed=3))
        similarity = similarity_from_signed(graph)
        capsys.readouterr()
        assert cli.main(["sbm", "--n", "200", "--c", "8", "--seed", "3",
                         "--restarts", "2"]) == 0
        # The dense loader's ksets_read and ksets_dense, then the engine.
        assert cli.main(["cluster", *dense, "--k", "3", "--restarts", "2",
                         "--output", str(partition)]) == 0
        assert cli.main(["verify", *dense, "--partition", str(partition)]) == 0
        sidecar = Path(str(partition) + ".json")
        return (
            partition.read_bytes(),
            sidecar.read_bytes(),
            result.partition.assign.tolist(),
            result.objective.hex(),
            result.history,
            objective_value(g, result.partition).hex(),
            [(r.slack.tobytes(), r.min_slack.hex(), r.argmin) for r in reports],
            [a.tobytes() for a in (similarity.indptr, similarity.indices, similarity.data)],
            capsys.readouterr().out,
        )

    expected = outcome()
    assert _kernel.load() is not None
    _kernel.load.cache_clear()
    caplog.clear()
    monkeypatch.setattr(_kernel, "COMMAND", ("ksetsplus-no-such-cc",))
    with caplog.at_level(logging.WARNING, logger="ksetsplus.engine"):
        assert outcome() == expected
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "compiled kernel" in message
    assert "ksetsplus-no-such-cc" in message


@needs_cc
def test_pass_kernel_rejects_a_read_only_assign():
    g = random_similarity_dense(np.random.default_rng(3), 6)
    partition = Partition([0, 1, 2, 0, 1, 2], 3)
    state = init_state(g, partition)
    library = _kernel.load()

    def call(assign):
        return library.ksets_pass(
            g.n, state.k, g.indptr, g.indices, g.data, g.diag,
            assign, state.sizes, state.gbar, state.point_to_set,
            np.array([state.objective]), np.zeros(2, dtype=np.int64), None,
        )

    with pytest.raises(ctypes.ArgumentError):
        call(partition.assign)
    assert call(state.assign) >= 0


@needs_cc
def test_compiler_error_falls_back_with_its_first_line(fresh_loader, monkeypatch, caplog):
    monkeypatch.setattr(_kernel, "COMMAND", (*_kernel.COMMAND, "--no-such-flag"))
    with caplog.at_level(logging.WARNING, logger="ksetsplus.engine"):
        assert _kernel.load() is None
    [warning] = caplog.records
    assert "--no-such-flag" in warning.getMessage()
    assert list(fresh_loader.glob("*.so")) == []


@needs_cc
def test_cached_library_is_reused_and_logged(fresh_loader, caplog):
    path = _kernel.build(fresh_loader)
    built = path.stat().st_mtime_ns
    with caplog.at_level(logging.DEBUG, logger="ksetsplus.engine"):
        assert _kernel.load() is not None
    assert path.stat().st_mtime_ns == built
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert str(path) in caplog.records[0].getMessage()


@needs_cc
@pytest.mark.parametrize("damage", ["corrupt", "stale"])
def test_cached_library_without_its_key_is_rebuilt(fresh_loader, damage):
    path = _kernel.build(fresh_loader)
    good = path.read_bytes()
    key = path.stem.removeprefix("_pass-").encode()
    if damage == "corrupt":
        bad = good[: len(good) // 2]
    else:
        # A loadable library compiled under another key.
        bad = good.replace(key, b"0" * len(key))
    path.write_bytes(bad)
    assert _kernel.build(fresh_loader) == path
    rebuilt = path.read_bytes()
    assert rebuilt != bad
    assert b"ksetsplus-pass-key:" + key in rebuilt
    assert _kernel.load() is not None


def test_import_starts_no_compiler(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(tmp_path))
    for module in ("ksetsplus", "ksetsplus.verify", "ksetsplus.cli"):
        code = (
            f"import sys, {module}\n"
            "assert 'subprocess' not in sys.modules\n"
            "assert 'ksetsplus._kernel' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert list(tmp_path.iterdir()) == []


def test_every_exported_routine_is_typed_and_documented():
    """The non-static functions of _pass.c are the typed routines, and each
    has a row in README's Engine kernel table: ctypes would call an untyped
    one with int arguments."""
    source = _kernel.SOURCE.read_text()
    # A definition opens a line with its return type; bodies are indented.
    defined = re.findall(r"^(?!static\b)\w[\w \t*]*?\b(\w+)\(", source, re.MULTILINE)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Engine kernel", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert sorted(defined) == sorted(_kernel._ROUTINES) == sorted(rows)


def test_readme_quotes_the_compile_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullet = readme.split("- **Built on first use.**", 1)[1].split("\n- **", 1)[0]
    quoted = re.findall(r"`(cc [^`]*)`", bullet)
    assert quoted == [" ".join(_kernel.COMMAND)]
