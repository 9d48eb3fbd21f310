"""engine.run's compiled restarts (ksets_restarts): every thread count
gives the reference's results bit for bit, a run cut off by max_passes
keeps its strictly-best snapshot, the per-restart records, and the
batches a run's restarts go in. test_split.py checks the threads a run
leaves behind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel, engine
from ksetsplus.engine import (
    RestartRecord,
    RunConfig,
    _converge,
    init_state,
    objective_value,
    random_balanced_partition,
    run,
    run_pass,
)
from ksetsplus.measure import Partition, from_dense

from conftest import needs_cc, random_cohesion, random_similarity_dense
from test_split import PARTS, reference, split_into


def _measure(rng, n, kind):
    if kind == "similarity":
        return random_similarity_dense(rng, n, density=0.6)
    if kind == "distance":
        upper = np.triu(rng.integers(0, 4, size=(n, n)), k=1).astype(float)
        return from_dense(upper + upper.T, kind="distance")
    return random_cohesion(rng, n)


def outcome(g, config):
    result = run(g, config)
    return (
        result.partition.assign.tobytes(),
        result.objective.hex(),
        [h.hex() for h in result.history],
        result.passes,
        result.converged,
        result.restart,
        [(r.objective.hex(), r.passes, r.converged, r.moves, r.ops_delta, r.ops_update)
         for r in result.per_restart],
    )


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    kind=st.sampled_from(["similarity", "distance", "cohesion"]),
    restarts=st.integers(1, 7),
    given_start=st.booleans(),
    max_passes=st.sampled_from([1, 2, 3, 100, 10**12]),
    slots=st.sampled_from([1, 2, engine._PASS_SLOTS]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_threads_match_the_reference(seed, n, kind, restarts, given_start, max_passes, slots, data):
    """Partitions, objectives, histories, passes, convergence, restart
    index and per-restart records, at every thread count and resumed from
    any number of pass slots, as the reference gives them."""
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(2, n))
    g = _measure(rng, n, kind)
    start = None
    if given_start:
        # Any assignment, with k random points holding one set each.
        assign = rng.integers(0, k, size=n)
        assign[rng.permutation(n)[:k]] = np.arange(k)
        start = Partition(assign, k)
    config = RunConfig(k=k, seed=seed % 1000, restarts=restarts, max_passes=max_passes,
                       init_partition=start)
    expected = reference(outcome, g, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PASS_SLOTS", slots)
        for parts in PARTS:
            with split_into(parts):
                assert outcome(g, config) == expected


def snapshots(g, config, r):
    """Restart r by hand: the partition of the strictly highest objective
    seen over its passes, the start's included."""
    state = init_state(g, random_balanced_partition(g.n, config.k, config.seed + r))
    best, best_objective = state.assign.copy(), state.objective
    for _ in range(config.max_passes):
        run_pass(state)
        if state.objective > best_objective:
            best, best_objective = state.assign.copy(), state.objective
    return best


@pytest.mark.parametrize("parts", PARTS)
def test_a_run_cut_off_by_max_passes_keeps_its_best_snapshot(build_path, parts):
    rng = np.random.default_rng(12)
    g = random_similarity_dense(rng, 60, density=0.5)
    config = RunConfig(k=6, seed=4, restarts=3, max_passes=2)
    with split_into(parts):
        result = run(g, config)
    assert not result.converged
    assert result.passes == config.max_passes
    assert len(result.history) == config.max_passes
    for record in result.per_restart:
        assert (record.passes, record.converged) == (config.max_passes, False)
    expected = snapshots(g, config, result.restart)
    assert result.partition.assign.tobytes() == expected.tobytes()


@pytest.mark.parametrize("parts", PARTS)
def test_per_restart_records_what_each_restart_did(build_path, parts):
    rng = np.random.default_rng(5)
    g = random_similarity_dense(rng, 40, density=0.4)
    config = RunConfig(k=4, seed=9, restarts=5, max_passes=3)
    with split_into(parts):
        result = run(g, config)
    expected = []
    for r in range(config.restarts):
        state = init_state(g, random_balanced_partition(g.n, config.k, config.seed + r))
        assign, history, converged, moves = _converge(state, config.max_passes)
        objective = objective_value(g, Partition(assign, config.k))
        expected.append(RestartRecord(objective, len(history), converged, tuple(moves),
                                      state.ops_delta, state.ops_update))
    assert result.per_restart == expected
    assert any(not record.converged for record in expected)
    assert result.objective == max(record.objective for record in expected)
    assert result.per_restart[result.restart].objective == result.objective


@needs_cc
def test_restart_batches_follow_the_parts_rule(monkeypatch):
    """A run's restarts go in batches of parts(restarts * m), and a batch
    of one restart splits its table scatters by parts(m)."""
    rng = np.random.default_rng(2)
    g = random_similarity_dense(rng, 30, density=0.5)
    library = _kernel.load()
    routine = library.ksets_restarts
    calls = []

    def recording(*args):
        calls.append((args[7], args[8]))  # count, parts
        return routine(*args)

    monkeypatch.setattr(library, "ksets_restarts", recording)
    monkeypatch.setattr(_kernel, "parts", lambda work: 3 if work > g.m else 2)
    run(g, RunConfig(k=3, seed=0, restarts=7))
    assert [count for count, _ in calls] == [3, 3, 1]
    assert calls[-1] == (1, 2)
