"""The compiled token walks.

``_walk.c`` runs the loops of ``protocols._run_walk`` in C: the
continuous-clock loop and, on the discrete clock, repeated
``synchronous_round``, each giving the same trace draw for draw.  It
draws from the sampler's blocks and refills them in place with numpy's C
fill functions on the sampler's own bit generator, so the generator sees
the same calls as on the Python path.

The kernel is built on first use with the system C compiler, against
numpy's headers and its static random library (``libnpyrandom.a``), into a
per-user cache (``$XDG_CACHE_HOME/tokengossip``, else
``~/.cache/tokengossip``, else the temp directory), named by the SHA-256 of
the source, the compiler flags and the library, and moved into place with
``os.replace`` so that concurrent processes never load a half-written
library.  Without a compiler, numpy's random library or a usable cache
directory, ``walk`` returns None after one logged warning, and the Python
loop runs instead.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .engine import BlockSampler, SynchronousDiscrete
from .fusion import INT64_MIN, MAX_IDENTITY, FusionKind

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_walk.c")
NPYRANDOM = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# the return codes, the slots of the scalar arrays and the fusion codes of _walk.c
_DONE, _MAX_TIME, _SUM_OVERFLOW, _CURVE_FULL = range(4)
(_NACTIVE, _ETA, _HOLDER, _ACTIVE_ACTIVE, _UI, _EI, _NPOINTS, _ERR_J, _ERR_V, _ROUNDS,
 _NIV) = range(11)
_T, _MAX_T, _LAZY, _NDV = range(4)
_FUSION = {FusionKind.SUM: 0, FusionKind.MAX: 1, FusionKind.WEIGHTED_AVG: 2}


def _cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg and os.path.isabs(xdg):
        return Path(xdg, "tokengossip")
    home = os.path.expanduser("~")
    if home != "~":
        return Path(home, ".cache", "tokengossip")
    return Path(tempfile.gettempdir(), f"tokengossip-{os.getuid()}")


def _build() -> Path:
    """The path of the compiled kernel, compiling it if the cache lacks it."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(FLAGS).encode() + NPYRANDOM.read_bytes()).hexdigest()
    lib = _cache_dir() / f"_walk-{key[:32]}.so"
    if lib.parent.exists() and lib.parent.stat().st_uid != os.getuid():
        raise OSError(f"{lib.parent} belongs to another user")  # never load their code
    if lib.exists():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_walk-", suffix=".tmp", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-I", np.get_include(), "-o", tmp, "-x", "c", "-",
                        "-x", "none", str(NPYRANDOM), "-lm"],
                       input=source, capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.lru_cache(maxsize=None)
def load():
    """The compiled library with its entry points declared, or None (after
    one warning) when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except (OSError, subprocess.SubprocessError) as e:
        _log.warning("compiled token walk unavailable, using the Python loop: %s", e)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.tg_walk_continuous.argtypes = [i64, ptr, ptr, i64, i64, i64, *[ptr] * 4, i64, ptr, ptr]
    lib.tg_walk_discrete.argtypes = [i64, ptr, ptr, i64, i64, ptr, ptr, ptr, i64, ptr, ptr]
    lib.tg_walk_continuous.restype = lib.tg_walk_discrete.restype = ctypes.c_int
    return lib


def _encode(kind: FusionKind, values: list, ival: np.ndarray, yv: np.ndarray,
            wv: np.ndarray) -> bool:
    """Write the node values into the kernel's arrays; False when they
    cannot be held there exactly."""
    if kind is FusionKind.WEIGHTED_AVG:
        if set(map(type, values)) != {tuple} or set(map(len, values)) != {2}:
            return False
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) != {float}:
            return False
        yv[:] = flat[0::2]
        wv[:] = flat[1::2]
        return True
    neg_inf = 0
    if kind is FusionKind.MAX:
        neg_inf = values.count(MAX_IDENTITY)
        values = [INT64_MIN if v == MAX_IDENTITY else v for v in values]
    if set(map(type, values)) != {int}:
        return False
    try:
        ival[:] = values
    except OverflowError:
        return False
    # INT64_MIN stands for MAX's -inf, so no MAX value may be INT64_MIN itself
    return kind is FusionKind.SUM or np.count_nonzero(ival == INT64_MIN) == neg_inf


def _decode(kind: FusionKind, ival: np.ndarray, yv: np.ndarray, wv: np.ndarray) -> list:
    if kind is FusionKind.WEIGHTED_AVG:
        return list(zip(yv.tolist(), wv.tolist()))
    if kind is FusionKind.MAX:
        return [MAX_IDENTITY if v == INT64_MIN else v for v in ival.tolist()]
    return ival.tolist()


def walk(state, max_t: float, terminating: bool) -> Optional[bool]:
    """Run ``state``'s token walk on its clock to ``max_t`` in the kernel,
    or until some node's count reaches n when ``terminating``; returns
    whether it completed.  Returns None, leaving ``state`` untouched, when
    the kernel is unavailable or cannot hold the state exactly.  A SUM
    overflow raises the Python loop's OverflowError at the same event, with
    ``state`` as that loop leaves it."""
    sampler = state.sampler
    if (type(sampler).uniform is not BlockSampler.uniform
            or type(sampler).exponential is not BlockSampler.exponential):
        return None  # a sampler that watches its draws sees every one in Python
    discrete = isinstance(state.clock, SynchronousDiscrete)
    lazy = state.clock.lazy_prob if discrete else 0.0
    if float(lazy) != lazy:
        return None  # the hold test compares draws with a double
    g = state.graph
    n = g.n
    indptr, indices = g.csr
    if (not state.active_list or 0 in g.degrees
            or (len(indices) and (indices.min() < 0 or indices.max() >= n))):
        # no token, an isolated node or a neighbour outside the graph:
        # the Python loop raises its own error there
        return None
    lib = load()
    if lib is None:
        return None
    kind = state.fusion.kind
    k = len(state.active_list)
    # a round also needs scratch for its snapshot of the active list and its deliveries
    ints = np.zeros(_NIV + (12 if discrete else 8) * n + 2, dtype=np.int64)
    floats = np.zeros(_NDV + (5 if discrete else 3) * n + 1)
    counts, active, active_pos, sends, receives, ival = ints[_NIV:_NIV + 6 * n].reshape(6, n)
    pt_count, pt_eta = ints[_NIV + 6 * n:_NIV + 8 * n + 2].reshape(2, n + 1)
    yv, wv = floats[_NDV:_NDV + 2 * n].reshape(2, n)
    pt_t = floats[_NDV + 2 * n:_NDV + 3 * n + 1]
    if not _encode(kind, state.values, ival, yv, wv):
        return None
    ints[:_NIV] = [k, state.eta, -1 if state.holder is None else state.holder,
                   state.active_active, sampler._ui, sampler._ei, 0, 0, 0, state.rounds]
    floats[:_NDV] = [state.t, max_t, lazy]
    counts[:] = state.counts
    active[:k] = state.active_list
    active_pos[:] = state.active_pos
    sends[:] = state.sends
    receives[:] = state.receives

    status = (ctypes.c_uint8 * n).from_buffer(state.status)
    graph = (n, indptr.ctypes.data, indices.ctypes.data, _FUSION[kind])
    buffers = (sampler._block, ints.ctypes.data, floats.ctypes.data)
    bits = sampler._rng.bit_generator
    with bits.lock:  # ctypes lets go of the GIL during the call
        if discrete:
            rc = lib.tg_walk_discrete(*graph, terminating, status, bits.ctypes.bit_generator,
                                      sampler._ua.ctypes.data, *buffers)
        else:
            rc = lib.tg_walk_continuous(*graph, state.kind == "hybrid_k", terminating, status,
                                        bits.ctypes.bit_generator, sampler._ua.ctypes.data,
                                        sampler._ea.ctypes.data, *buffers)

    iv = ints[:_NIV].tolist()
    sampler._advance_to(iv[_UI], iv[_EI])
    state.values[:] = _decode(kind, ival, yv, wv)
    state.counts[:] = counts.tolist()
    state.active_list[:] = active[:iv[_NACTIVE]].tolist()
    state.active_pos[:] = active_pos.tolist()
    state.sends[:] = sends.tolist()
    state.receives[:] = receives.tolist()
    state.eta = iv[_ETA]
    state.holder = None if iv[_HOLDER] < 0 else iv[_HOLDER]
    state.active_active = iv[_ACTIVE_ACTIVE]
    state.rounds = iv[_ROUNDS]
    state.t = floats[_T].item()
    points = iv[_NPOINTS]
    state.times.extend(pt_t[:points].tolist())
    state.active_counts.extend(pt_count[:points].tolist())
    state.message_counts.extend(pt_eta[:points].tolist())
    if rc == _SUM_OVERFLOW:
        state.fusion.fuse(state.values[iv[_ERR_J]], iv[_ERR_V])  # raises the loop's error
    if rc not in (_DONE, _MAX_TIME):
        raise RuntimeError(f"compiled token walk stopped with code {rc}")
    return rc == _DONE
