"""Build, cache and load the compiled kernel library (``_pass.c``) on first use.

The library holds ten routines: ``ksets_pass`` (one engine pass),
``ksets_restarts`` (whole engine restarts: the tables, the passes until
convergence or ``max_passes``, and the recomputed objective, one restart
per thread), ``ksets_scatter`` (the point-to-set table, from which the
engine and ``verify`` derive every set sum), ``ksets_build`` (the CSR
arrays of a measure from its (i, j, value) triples, written in place into
the result's arrays, or the first bad index, repeated or conflicting
pair), ``ksets_dense`` (the CSR arrays of a dense matrix's nonzeros, or of
those of its mean with its transpose), ``ksets_check`` (the measure
constructor's checks of CSR arrays and its diagonal, in one scan),
``ksets_two_step`` (the CSR arrays of the signed benchmark's similarity
A + 0.5 A^2 from its signed edges), ``ksets_read`` (an edge list or
dense CSV of a strict grammar into the float64 table np.loadtxt would
return, or a refusal), ``ksets_format`` (an int64 id array as the
partition writer's ``i<TAB>id`` lines) and ``ksets_draws`` (the positions
of the signed benchmark's pair draws, from numpy's PCG64 ``random()``
stream, that fall below their probability).
Four of them, ``ksets_read``, ``ksets_dense``, ``ksets_check`` and
``ksets_scatter``, split their rows across ``parts(work)`` threads inside
the one C call, each part writing only its own rows, so every split gives
the same bytes; one part starts no thread. ``ksets_restarts`` runs a batch
of restarts, one per thread, each in its own rows of the caller's arrays.
``ksets_draws`` scans its one generator stream on the calling thread.
The library is compiled once with the system C compiler and cached under
``$XDG_CACHE_HOME/ksetsplus`` (default ``~/.cache/ksetsplus``). The file
name carries a key, a sha256 of the source and the compiler command, and
the key is also compiled into the library: a cached file that does not
hold its key (truncated, corrupt or built from other source) is rebuilt
rather than loaded. When no library
can be built, ``load`` logs one WARNING and returns None, and every caller
runs its numpy or pure-Python reference instead.

The routines read raw pointers: callers pass C-contiguous arrays of the
declared dtypes and check sizes and set indices first. This module is
imported on first use, not with the package, so that importing ksetsplus
neither loads it nor starts a compiler.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# The kernel is the engine's implementation detail, so it logs as the engine.
logger = logging.getLogger("ksetsplus.engine")

SOURCE = Path(__file__).with_name("_pass.c")
# No -ffast-math or -march: the kernel must round exactly like the reference
# code, and -ffp-contract=off keeps the compiler from fusing into FMAs.
COMMAND = ("cc", "-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
# Arrays the C code writes, so that ctypes rejects a read-only one (a Partition's).
_I64_OUT = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
_F64_OUT = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_CSR = [_I64, _I64, _F64]  # indptr, indices, data
# name: (restype, argtypes)
_ROUTINES = {
    "ksets_pass": (
        ctypes.c_int64,
        [ctypes.c_int64, ctypes.c_int64, *_CSR, _F64]  # n, k, CSR, diag
        + [_I64_OUT, _I64_OUT, _F64_OUT, _F64_OUT]  # assign, sizes, gbar, rows
        + [_F64_OUT, _I64_OUT],  # objective, ops
    ),
    "ksets_restarts": (
        None,
        [ctypes.c_int64, ctypes.c_int64, *_CSR, _F64, ctypes.c_double]  # n, k, CSR, diag, sign
        + [ctypes.c_int64] * 4  # count, parts, max_passes, cap
        + [_I64_OUT, _I64_OUT, _I64_OUT, _F64_OUT, _F64_OUT]  # assign, best, sizes, gbar, rows
        + [_I64_OUT, _F64_OUT, _I64_OUT, _F64_OUT],  # moves, history, stats, objective
    ),
    "ksets_scatter": (
        None,
        # n, k, CSR, assign, out, parts
        [ctypes.c_int64, ctypes.c_int64, *_CSR, _I64, _F64_OUT, ctypes.c_int64],
    ),
    "ksets_build": (
        ctypes.c_int64,
        # n, count, triples, indptr, indices, data, pair, values
        [ctypes.c_int64, ctypes.c_int64, _F64, _I64_OUT, _I64_OUT, _F64_OUT]
        + [_I64_OUT, _F64_OUT],
    ),
    "ksets_dense": (
        ctypes.c_int64,
        # n, a, mean, cap, indptr, indices, data, parts
        [ctypes.c_int64, _F64, ctypes.c_int64, ctypes.c_int64]
        + [_I64_OUT, _I64_OUT, _F64_OUT, ctypes.c_int64],
    ),
    "ksets_check": (
        ctypes.c_int64,
        # n, CSR, diag, out, parts
        [ctypes.c_int64, *_CSR, _F64_OUT, _I64_OUT, ctypes.c_int64],
    ),
    "ksets_two_step": (
        ctypes.c_int64,
        # n, count, edge_i, edge_j, sign, indptr, indices, data
        [ctypes.c_int64, ctypes.c_int64, _I64, _I64, _F64]
        + [_I64_OUT, _I64_OUT, _F64_OUT],
    ),
    "ksets_read": (
        ctypes.c_int64,
        # text, size, skip, dense, out, cap, shape, parts
        [np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS"), ctypes.c_int64]
        + [ctypes.c_int64, ctypes.c_int64, _F64_OUT, ctypes.c_int64, _I64_OUT]
        + [ctypes.c_int64],
    ),
    "ksets_format": (
        ctypes.c_int64,
        # n, ids, out, cap
        [ctypes.c_int64, _I64]
        + [np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS,WRITEABLE")]
        + [ctypes.c_int64],
    ),
    "ksets_draws": (
        ctypes.c_int64,
        # pcg, segments, counts, probs, cap, out
        [np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS"), ctypes.c_int64]
        + [_I64, _F64, ctypes.c_int64, _I64_OUT],
    ),
}


# The least work, in inner-loop steps (entries, matrix cells or text bytes),
# that a split routine gives each part: below 2 * _GRAIN a call runs on the
# calling thread alone. On a 2-vCPU x86-64 host a thread's start and join
# took 35-60 us, and _GRAIN steps of any split routine 0.5-1 ms.
_GRAIN = 1 << 18
_MAX_PARTS = 8  # KSETS_MAX_PARTS in _pass.c


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def parts(work: int) -> int:
    """How many parts a split routine runs work steps in: one per CPU this
    process may run on, at most _MAX_PARTS, and no more than work // _GRAIN."""
    return min(_cpu_count(), _MAX_PARTS, max(1, work // _GRAIN))


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(base) / "ksetsplus"


@functools.cache
def load():
    """The typed ctypes library, or None if it cannot be built."""
    try:
        path = build(_cache_dir())
        library = ctypes.CDLL(str(path))
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.strip().splitlines()
        reason = lines[0] if lines else f"exit status {exc.returncode}"
    except (OSError, subprocess.SubprocessError) as exc:
        reason = str(exc)
    else:
        for name, (restype, argtypes) in _ROUTINES.items():
            routine = getattr(library, name)
            routine.restype, routine.argtypes = restype, argtypes
        logger.debug("compiled kernel: %s", path)
        return library
    logger.warning(
        "cannot build the compiled kernel, using the Python reference: %s", reason
    )
    return None


def build(directory: Path) -> Path:
    """Path of the cached kernel library in directory, compiled if needed."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(COMMAND).encode()).hexdigest()[:32]
    path = directory / f"_pass-{key}.so"
    if path.is_file() and f"ksetsplus-pass-key:{key}".encode() in path.read_bytes():
        return path
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [*COMMAND, f'-DKSETS_PASS_KEY="{key}"', "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
