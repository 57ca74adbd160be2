"""The compiled token walk: the one loop that runs SRW, CRW, two-phase
phase 1 and the fixed-k hybrid, on either clock, and gossip's pairwise
averaging, which is the hybrid with every node active (``exchange``).

``_walk.c`` runs the continuous-clock loop (an exponential wait, a uniform
pick of the firing token, a send to a uniform neighbour) and synchronized
rounds.  It draws from the state's blocks at the state's cursors, and draws
the blocks themselves lazily with numpy's C fill functions on the state's
bit generator (the calls behind ``Generator.random`` and
``Generator.standard_exponential``): a uniform block whole when its first
draw is asked for, an exponential block in chunks of ``_CHUNK``, in the
stream layout that ``protocols.SimState`` describes.  Given the expected
fold of the values, it checks conservation after every event (``walk``).
The arguments of a state's kernel calls never change, so ``_bind`` makes
them once per state.

The kernel is built on first use with the system C compiler, against
numpy's headers and its static random library (``libnpyrandom.a``), into a
per-user cache (``$XDG_CACHE_HOME/tokengossip``, else
``~/.cache/tokengossip``, else the temp directory), named by the SHA-256 of
the source, the compiler flags and the library, and moved into place with
``os.replace`` so that concurrent processes never load a half-written
library.  Without a compiler, numpy's random library or a writable cache,
``load`` raises an ``OSError`` of one line that names the cause.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .engine import SynchronousDiscrete
from .fusion import INT64_MAX, INT64_MIN, MAX_IDENTITY, FusionError, FusionKind

SOURCE = Path(__file__).with_name("_walk.c")
NPYRANDOM = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

# the return codes, the slots of the scalar arrays, the fusion codes and
# the check bits of _walk.c
_DONE, _MAX_TIME, _SUM_OVERFLOW, _CURVE_FULL, _BROKEN, _PAUSED = range(6)
(_NACTIVE, _ETA, _HOLDER, _ACTIVE_ACTIVE, _UI, _UF, _EI, _EF, _NPOINTS, _ERR_J, _ERR_V, _ROUNDS,
 _CHECK, _EXPECTED, _PAUSE, _TERMINATING, _NIV) = range(17)
_T, _MAX_T, _LAZY, _Q, _THRESHOLD, _NDV = range(6)
_FUSION = {FusionKind.SUM: 0, FusionKind.MAX: 1, FusionKind.WEIGHTED_AVG: 2}
_CHECK_COUNTS, _CHECK_VALUES, _CHECK_ONE_TOKEN = 1, 2, 4
_CHUNK = 64  # exponentials drawn at a time


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
    if not NPYRANDOM.is_file():
        raise OSError(f"numpy's random library {NPYRANDOM} is missing")
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
    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_walk-", suffix=".tmp", dir=lib.parent)
    except OSError as e:
        raise OSError(f"cache directory {lib.parent} is not writable: {e}") from None
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-I", np.get_include(), "-o", tmp, "-x", "c", "-",
                        "-x", "none", str(NPYRANDOM), "-lm"],
                       input=source, capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib)
    except subprocess.CalledProcessError as e:
        lines = e.stderr.decode(errors="replace").splitlines() or [f"exit status {e.returncode}"]
        raise OSError(f"cc could not build the token walk: {lines[0]}") from None
    except subprocess.TimeoutExpired as e:
        raise OSError(str(e)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.lru_cache(maxsize=None)
def load():
    """The compiled library with its entry points declared; raises a
    one-line OSError when it cannot be built or loaded."""
    lib = ctypes.CDLL(str(_build()))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.tg_walk_continuous.argtypes = [i64, ptr, ptr, i64, i64, ptr, ptr, ptr, i64, ptr, ptr]
    lib.tg_walk_discrete.argtypes = [i64, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr]
    lib.tg_walk_continuous.restype = lib.tg_walk_discrete.restype = ctypes.c_int
    # a bit generator's bitgen_t*, read from its capsule; its ctypes
    # attribute would build three function wrappers for every generator
    lib.bitgen = ctypes.PYFUNCTYPE(ptr, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return lib


def _buffers(n: int, discrete: bool) -> tuple:
    """The kernel's int64 and float64 buffers for n nodes, laid out as
    ``_walk.c`` reads them (a round needs more scratch), then views on their
    node arrays: counts, active list, active positions, sends, receives,
    SUM/MAX values, and weighted averages' estimates and weights."""
    ints = np.zeros(_NIV + (12 if discrete else 8) * n + 2, dtype=np.int64)
    floats = np.zeros(_NDV + (5 if discrete else 3) * n + 1)
    return (ints, floats, *ints[_NIV:_NIV + 6 * n].reshape(6, n),
            *floats[_NDV:_NDV + 2 * n].reshape(2, n))


def _encode(state, values: list) -> None:
    """Check the node values and write them into ``state``'s arrays:
    gossip's plain values as weighted averages of weight 1, weighted
    averages as estimates and weights, SUM and MAX values as ints (MAX's
    -inf as INT64_MIN).  SUM and MAX values that are all plain ints are
    checked and converted in one pass; other values, and ints that fail a
    check, go through ``_encode_each``, which raises the first bad value's
    error."""
    kind = None if state.kind == "gossip" else state.fusion.kind
    if kind in (FusionKind.SUM, FusionKind.MAX) and set(map(type, values)) == {int}:
        try:
            state.ival[:] = values
        except OverflowError:  # a value outside int64
            pass
        else:
            if kind is FusionKind.SUM or state.ival.min() > INT64_MIN:
                return
    _encode_each(state, values)


def _encode_each(state, values: list) -> None:
    """``_encode`` value by value: raises ValueError for a gossip value
    that is not finite, what ``FusionSpec.validate_values`` raises for a bad
    fusion value, and FusionError for a SUM or MAX value that is no int,
    and for a MAX value outside (INT64_MIN, INT64_MAX]."""
    if state.kind == "gossip":
        values = [float(v) for v in values]
        if not all(map(math.isfinite, values)):
            raise ValueError("gossip values must be finite")
        state.yv[:] = values
        state.wv[:] = 1.0
        return
    state.fusion.validate_values(values)
    kind = state.fusion.kind
    if kind is FusionKind.WEIGHTED_AVG:
        state.yv[:] = [float(y) for y, _ in values]
        state.wv[:] = [float(w) for _, w in values]
        return
    if kind is FusionKind.MAX:
        finite = [v for v in values if v != MAX_IDENTITY]
        if finite and not INT64_MIN < min(finite) <= max(finite) <= INT64_MAX:
            bad = min(finite) if min(finite) <= INT64_MIN else max(finite)
            raise FusionError(f"max fusion values must be -inf or ints in (-2**63, 2**63), "
                              f"not {bad!r}")
        values = [INT64_MIN if v == MAX_IDENTITY else v for v in values]
    if set(map(type, values)) != {int}:
        bad = next(v for v in values if type(v) is not int)
        raise FusionError(f"{kind.value} fusion values must be ints, not {bad!r}")
    state.ival[:] = values


def _decode(state) -> list:
    """``state``'s node values as Python values, as ``_encode`` took them."""
    if state.kind == "gossip":
        return state.yv.tolist()
    kind = state.fusion.kind
    if kind is FusionKind.WEIGHTED_AVG:
        return list(zip(state.yv.tolist(), state.wv.tolist()))
    if kind is FusionKind.MAX:
        return [MAX_IDENTITY if v == INT64_MIN else v for v in state.ival.tolist()]
    return state.ival.tolist()


def _address(a: np.ndarray) -> int:
    """The address of writable ``a``'s data: ``a.ctypes.data`` at a third of
    its cost."""
    return ctypes.addressof((ctypes.c_char * 0).from_buffer(a))


def _bind(state) -> tuple:
    """``state``'s kernel entry point, the arguments of its calls (the
    graph's CSR arrays, the status view, the bit generator's ``bitgen_t*``,
    the draw blocks and the buffers, none of which change over the state's
    life) and its generator's lock.  The graph's arrays may be read-only,
    which ``_address`` refuses."""
    lib = load()
    g = state.graph
    n = g.n
    kind = FusionKind.WEIGHTED_AVG if state.kind == "gossip" else state.fusion.kind
    bits = state._rng.bit_generator
    tail = ((ctypes.c_uint8 * n).from_buffer(state.status),
            lib.bitgen(bits.capsule, b"BitGenerator"), _address(state.ublock),
            state.ublock.size, _address(state._ints), _address(state._floats))
    head = (n, g.offsets.ctypes.data, g.flat.ctypes.data, _FUSION[kind])
    if isinstance(state.clock, SynchronousDiscrete):
        return lib.tg_walk_discrete, head + tail, bits.lock
    hybrid = state.kind in ("gossip", "hybrid_k")
    return lib.tg_walk_continuous, head + (hybrid,) + tail, bits.lock


def _run(state, max_t, terminating, active_active, check=0, folded=0, pause=-1, q=0.0,
         threshold=float("nan")):
    """Run the kernel on ``state``'s arrays, writing back its scalars but
    ``active_active``, which comes out in ``iv``; returns (code, ``iv``, running q)."""
    if not max_t >= state.t:
        raise ValueError(f"stop time {max_t!r} must be a number no earlier than {state.t!r}")
    if not state.active_count:
        raise ValueError("a token walk needs at least one active token")
    if state._call is None:
        state._call = _bind(state)
    kernel, args, lock = state._call
    ints, floats = state._ints, state._floats
    ints[:_NIV] = [state.active_count, state.eta, -1 if state.holder is None else state.holder,
                   active_active, state.ui, state.uf, state.ei, state.ef, 0, 0, 0, state.rounds,
                   check, folded, pause, terminating]
    floats[:_NDV] = [state.t, max_t, getattr(state.clock, "lazy_prob", 0.0), q, threshold]
    with lock:  # ctypes lets go of the GIL during the call
        rc = kernel(*args)

    iv = ints[:_NIV].tolist()
    state.ui, state.uf, state.ei, state.ef = iv[_UI:_EF + 1]
    state.active_count = iv[_NACTIVE]
    state.eta = iv[_ETA]
    state.holder = None if iv[_HOLDER] < 0 else iv[_HOLDER]
    state.rounds = iv[_ROUNDS]
    state.t = floats[_T].item()
    n, points = state.graph.n, iv[_NPOINTS]
    pt_count, pt_eta = ints[_NIV + 6 * n:_NIV + 8 * n + 2].reshape(2, n + 1)
    state.times.extend(floats[_NDV + 2 * n:_NDV + 2 * n + points].tolist())
    state.active_counts.extend(pt_count[:points].tolist())
    state.message_counts.extend(pt_eta[:points].tolist())
    if rc == _CURVE_FULL:
        raise RuntimeError("compiled token walk ran out of curve points")
    return rc, iv, floats[_Q].item()


def walk(state, max_t: float, terminating: bool, expected=None) -> bool:
    """Run ``state``'s token walk on its clock to ``max_t``, or until some
    node's count reaches n when ``terminating``; returns whether it
    completed.

    Given ``expected``, the fold of the values at the start, the kernel
    checks after every event (every round, on the discrete clock) that the
    counts sum to n, that SUM and MAX values still fold to ``expected``
    (weighted averages round differently in every order, so theirs are not
    compared), and that SRW keeps one token.  A failed check raises
    ProtocolError, and a SUM overflow the fusion's OverflowError, each with
    ``state`` as the event left it.  A stop time before the state's, or a
    walk with no active token, raises ValueError.
    """
    kind = state.fusion.kind
    check = folded = 0
    if expected is not None:
        check = _CHECK_COUNTS | (_CHECK_ONE_TOKEN if state.kind == "srw" else 0)
        if kind is not FusionKind.WEIGHTED_AVG:
            check |= _CHECK_VALUES
            folded = INT64_MIN if expected == MAX_IDENTITY else expected
    rc, iv, _ = _run(state, max_t, terminating, state.active_active, check, folded)
    state.active_active = iv[_ACTIVE_ACTIVE]
    if rc == _SUM_OVERFLOW:
        state.fusion.fuse(int(state.ival[iv[_ERR_J]]), iv[_ERR_V])  # raises the fusion's error
    if rc == _BROKEN:  # say which check failed first, in the kernel's order
        from .protocols import ProtocolError  # call-time: protocols imports this module

        n = state.graph.n
        if state.counts.sum() != n:
            raise ProtocolError(f"count conservation broken: sum={state.counts.sum()} != {n}")
        if check & _CHECK_VALUES:
            got = (sum if kind is FusionKind.SUM else max)(_decode(state))
            if got != expected:
                raise ProtocolError(f"value conservation broken: {got!r} != {expected!r}")
        raise ProtocolError(f"SRW must keep exactly one active node, has {iv[_NACTIVE]}")
    return rc == _DONE


def exchange(state, max_t: float, exchanges: int, pause: int, q: float, threshold: float):
    """Run a gossip state's pairwise averaging to ``max_t``, taking
    ``q -= 0.5 * (a - b) ** 2`` at each exchange of a and b, with a pause
    after the one that brings ``exchanges`` to ``pause`` or q to
    ``threshold``; returns (whether it paused, exchanges, q)."""
    rc, iv, q = _run(state, max_t, False, exchanges, pause=pause, q=q, threshold=threshold)
    return rc == _PAUSED, iv[_ACTIVE_ACTIVE], q
