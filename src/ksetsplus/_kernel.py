"""Build, cache and load the compiled kernel library (``_pass.c``) on first use.

The library holds four routines: ``ksets_pass`` (one engine pass),
``ksets_scatter`` (the point-to-set table, from which the engine and
``verify`` derive every set sum), ``ksets_build`` (the CSR arrays of a
measure from its (i, j, value) triples, or the first repeated or
conflicting pair) and ``ksets_read`` (an edge list or dense CSV of a
strict grammar into the float64 table np.loadtxt would return, or a
refusal). The library is
compiled once with the system C compiler and cached under
``$XDG_CACHE_HOME/ksetsplus`` (default ``~/.cache/ksetsplus``). The file
name carries a key, a sha256 of the source and the compiler command, and
the key is also compiled into the library: a cached file that does not hold its key (truncated, corrupt or
built from other source) is rebuilt rather than loaded. When no library
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
COMMAND = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")

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
    "ksets_scatter": (
        None,
        # n, k, CSR, assign, out
        [ctypes.c_int64, ctypes.c_int64, *_CSR, _I64, _F64_OUT],
    ),
    "ksets_build": (
        ctypes.c_int64,
        # n, count, triples, indptr, entries, pair, values
        [ctypes.c_int64, ctypes.c_int64, _F64, _I64_OUT, _I64_OUT, _I64_OUT]
        + [_F64_OUT],
    ),
    "ksets_read": (
        ctypes.c_int64,
        # text, size, skip, dense, out, cap, shape
        [np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS"), ctypes.c_int64]
        + [ctypes.c_int64, ctypes.c_int64, _F64_OUT, ctypes.c_int64, _I64_OUT],
    ),
}


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
