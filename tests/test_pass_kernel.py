"""The compiled pass kernel against the pure-Python reference, plus its
build cache and the fallback when no kernel can be built."""

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel
from ksetsplus.engine import (
    RunConfig,
    _run_pass_reference,
    init_state,
    run,
    run_pass,
)
from ksetsplus.measure import from_dense

from conftest import random_cohesion, random_partition, random_similarity_dense

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """load() with an empty cache directory and no memoized kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "ksetsplus"
    _kernel.load.cache_clear()


def _measure(rng, n, family, density):
    if family == "signed":
        return random_similarity_dense(
            rng, n, density=density, diagonal=bool(rng.random() < 0.5)
        )
    if family == "integer":
        # Small integers make exact distance ties common.
        upper = np.triu(rng.integers(-2, 3, size=(n, n)), k=1).astype(float)
        full = upper + upper.T
        full[np.diag_indices(n)] = rng.integers(-2, 3, size=n)
        return from_dense(full)
    return random_cohesion(rng, n).underlying


def _snapshot(state):
    return (
        state.trace,
        (state.ops_delta, state.ops_update),
        state.objective.hex(),
        bytes(state.point_rows),
        state.gbar.tobytes(),
        state.sizes.tolist(),
        state.assign.tolist(),
    )


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    k=st.integers(2, 6),
    family=st.sampled_from(["signed", "integer", "cohesion"]),
    density=st.floats(0.1, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_bit_for_bit(seed, n, k, family, density):
    assert _kernel.load() is not None
    rng = np.random.default_rng(seed)
    g = _measure(rng, n, family, density)
    start = random_partition(rng, n, min(k, n))
    compiled = init_state(g, start.copy())
    reference = init_state(g, start.copy())
    compiled.trace, reference.trace = [], []
    for _ in range(200):
        moved = run_pass(compiled)
        assert moved == _run_pass_reference(reference)
        assert compiled.objective.hex() == reference.objective.hex()
        if not moved:
            break
    assert _snapshot(compiled) == _snapshot(reference)


def test_fallback_gives_the_same_run_and_one_warning(
    fresh_loader, monkeypatch, caplog
):
    rng = np.random.default_rng(5)
    g = random_similarity_dense(rng, 40, density=0.3)
    config = RunConfig(k=3, seed=2, restarts=3)
    expected = run(g, config)
    _kernel.load.cache_clear()
    caplog.clear()
    monkeypatch.setattr(_kernel, "COMMAND", ("ksetsplus-no-such-cc",))
    with caplog.at_level(logging.WARNING, logger="ksetsplus.engine"):
        result = run(g, config)
    assert result.partition.assign == expected.partition.assign
    assert result.objective.hex() == expected.objective.hex()
    assert result.history == expected.history
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "ksetsplus-no-such-cc" in warnings[0].getMessage()


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
    code = (
        "import sys, ksetsplus.cli\n"
        "assert 'subprocess' not in sys.modules\n"
        "assert 'ksetsplus._kernel' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(tmp_path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert list(tmp_path.iterdir()) == []
