"""Pinned move sequences of the pass, compiled and pure-Python.

Each case runs passes to convergence from a seeded random-balanced start,
reads each pass's moves from the assignment it changed (traced_pass), and
compares a fingerprint of the run with one recorded from the
list-of-tuples measure that preceded the CSR arrays: the sha256 of the
move trace (first 16 hex digits), the move count of
every pass, the op counters, the recomputed and the incremental
objective (as float.hex), and the sha256 of the final point-to-set
table. The compiled kernel (behind init_state, run_pass and
objective_value) and the reference code, run with no kernel available,
both reproduce these bit for bit.
"""

import hashlib
from pathlib import Path

import pytest

from ksetsplus.engine import (
    _run_pass_reference,
    init_state,
    objective_value,
    random_balanced_partition,
    run_pass,
)
from ksetsplus.experiments import (
    SbmParams,
    random_sparse_similarity,
    sbm_generate,
    similarity_from_signed,
)
from ksetsplus.io import load_dense_csv
from ksetsplus.transforms import induced_cohesion

from conftest import traced_pass

FIXTURE = Path(__file__).parent / "data" / "latency_fixture.csv"

# case: (trace digest, moves per pass, (ops_delta, ops_update),
#        recomputed objective, incremental objective, table digest)
PINS = {
    "sparse-0": (
        "90bbdfed4b8dd072",
        [2979, 959, 324, 150, 94, 41, 19, 6, 5, 0],
        (250000, 116340),
        "0x1.c0db4db9b70f0p+2",
        "0x1.c0db4db9b70eep+2",
        "af94dd16ee0b493d",
    ),
    "sparse-1": (
        "4648c1d4eee90ac2",
        [2989, 974, 377, 188, 95, 37, 15, 8, 6, 0],
        (250000, 119632),
        "0x1.c4937799aaabfp+2",
        "0x1.c4937799aaac2p+2",
        "26a154c4c24945e5",
    ),
    "sparse-2": (
        "6c4aa82fc8d8b3ba",
        [3031, 991, 355, 144, 62, 22, 14, 15, 9, 3, 4, 0],
        (300000, 117966),
        "0x1.be5a8d1b79705p+2",
        "0x1.be5a8d1b79718p+2",
        "f1b8c77395154000",
    ),
    "latency-0": (
        "2705339c4ef8b382",
        [3, 0],
        (39, 66),
        "0x1.54b5555555555p+9",
        "0x1.54b5555555556p+9",
        "836795ab4144ea4d",
    ),
    "latency-1": (
        "9f794f504ef23d66",
        [4, 0],
        (48, 88),
        "0x1.cfdffffffffffp+9",
        "0x1.cfe0000000001p+9",
        "b51a927984b41671",
    ),
    "latency-2": (
        "65fc0d430f766884",
        [3, 0],
        (48, 66),
        "0x1.cfe0000000000p+9",
        "0x1.cfe0000000000p+9",
        "4287f76b771c835d",
    ),
    "latency-3": (
        "702b8e2a57aada6e",
        [4, 0],
        (48, 88),
        "0x1.cfe0000000000p+9",
        "0x1.cfdffffffffffp+9",
        "afb6836c0785e2b3",
    ),
    "latency-4": (
        "3d996a1d8ed8f1f4",
        [4, 0],
        (48, 88),
        "0x1.cfe0000000000p+9",
        "0x1.cfe0000000000p+9",
        "afb6836c0785e2b3",
    ),
    "sbm-0": (
        "d49fa4fc50e21fee",
        [465, 152, 4, 0],
        (8000, 130298),
        "0x1.b2a0427d19303p+5",
        "0x1.b2a0427d19305p+5",
        "2e1b8551649bbb1b",
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _fingerprint(g, k, seed, sweep):
    state = init_state(g, random_balanced_partition(g.n, k, seed))
    trace, moves = [], []
    for _ in range(100):
        moves.append(traced_pass(sweep, state, trace))
        if not moves[-1]:
            break
    return (
        _digest(repr(trace).encode()),
        moves,
        (state.ops_delta, state.ops_update),
        objective_value(g, state.partition).hex(),
        state.objective.hex(),
        _digest(state.point_to_set.tobytes()),
    )


def _case(name):
    kind, seed = name.rsplit("-", 1)
    seed = int(seed)
    if kind == "sparse":
        return random_sparse_similarity(5000, 10, seed=seed), 5, seed
    if kind == "latency":
        latency, _ = load_dense_csv(FIXTURE, kind="distance", header=True)
        return induced_cohesion(latency).underlying, 3, seed
    graph = sbm_generate(SbmParams(1000, 10, 5, 0.1, seed))
    return similarity_from_signed(graph), 2, seed


@pytest.mark.parametrize("name", sorted(PINS))
def test_move_sequence_is_pinned(name):
    assert _fingerprint(*_case(name), run_pass) == PINS[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_reference_move_sequence_is_pinned(name, no_kernel):
    assert _fingerprint(*_case(name), _run_pass_reference) == PINS[name]
