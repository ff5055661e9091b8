"""Build and bind the columnar kernel (``_ckernel.c``).

The columnar batch engine draws, advances and derives every
replication of a batch in one call into a small C kernel,
compiled **on first use** with the host toolchain (``$CC``, else
``cc``/``gcc``/``clang``) into a cached shared object — no build-time
extension, no new dependency.  Loading is strictly best-effort: any
failure (no compiler, sandboxed tmpdir, ABI drift) records a reason
and the batch layer falls back to the per-replication
:class:`~repro.sim.engine.Simulator` (the reason is in
``BatchResult.reason``), so the kernel is a pure accelerator, never a
requirement.

Environment knobs:

* ``REPRO_NO_CKERNEL=1`` — disable the kernel (forces the simulator
  tier).
* ``REPRO_CKERNEL_CACHE`` — directory for the compiled ``.so``
  (default: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, falling
  back to a per-user tempdir).  The object name embeds a hash of the C
  source and the compile flags, so a stale object is never loaded after
  a change to either; a fresh build removes the superseded
  ``ckernel-abi*.so`` objects it finds there.

Build flags: :data:`CFLAGS` (``-O2 -fPIC -shared -pthread``).  The
kernel splits each batch's sims across POSIX threads it starts and
joins within one call; :func:`thread_budget` is how many one call may
use in this process (the CPUs it may run on, unless a process pool or a
cluster coordinator handed it a share through
:func:`set_thread_budget`).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

#: ABI stamp; must match ``REPRO_CKERNEL_ABI`` in ``_ckernel.c``.
ABI_VERSION = 6

#: Compiler flags of the shared object (hashed into its cache name).
CFLAGS = ("-O2", "-fPIC", "-shared", "-pthread")

#: Return code of a kernel call whose scratch allocation failed
#: (``ERR_NOMEM`` in ``_ckernel.c``); negative codes name a sim.
ERR_NOMEM = 1

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: ``(kernel, reason)`` memo of :func:`load_kernel` — ``None`` until
#: the first call, then a stable answer for the process lifetime.
_STATE: Optional[Tuple[Optional["Kernel"], Optional[str]]] = None

#: Threads one kernel call may use; ``None`` until first asked.
_THREADS: Optional[int] = None

_I64 = ctypes.c_int64
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)
_P_U32 = ctypes.POINTER(ctypes.c_uint32)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

#: ``columnar_replay`` signature (see ``_ckernel.c`` for the layout).
_REPLAY_ARGTYPES = [
    _I64, _I64, _I64,          # sims, threads, policy_mode
    _I64, _I64, _I64,          # n, n_units, duration
    _P_I64, _P_I64, _P_I64,    # bcet, wcet, span
    _P_I64,                    # periods
    _P_I32, _P_U64,            # unit_of, bit_of
    _P_I32, _I64,              # rank_tid, max_ranks
    _I64, _I64,                # let_mode, track
    _P_I64, _I64,              # tab_base, tab_w
    _I64, _P_I64, _P_I32,      # n_grp, grp_ptr, grp_tid
    _P_I64, _P_I64, _I64,      # job_base, job_cap, slots
    _P_U8, _P_U8,              # inst, is_source
    _I64, _P_I32,              # n_order, order
    _P_I64, _P_I32, _P_I64,    # edge_ptr, edge_src, edge_cap
    _P_I64, _I64,              # src_col, n_src
    _P_I64, _I64,              # block, arena_len
    _I64, _I64,                # monitored, height
    _P_U32,                    # keys
    _P_I64,                    # offsets
    _P_I64, _P_U8, _P_I64,     # tab, tab_keep, tab_len
    _P_I64, _P_I64, _P_I64,    # disp_out, fin_out, viol_out
]


class Kernel:
    """A loaded kernel: the ctypes library plus its bound entry points."""

    __slots__ = ("path", "lib", "replay")

    def __init__(self, path: Path, lib: ctypes.CDLL) -> None:
        self.path = path
        self.lib = lib
        self.replay = lib.columnar_replay
        self.replay.argtypes = _REPLAY_ARGTYPES
        self.replay.restype = _I64


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    home = Path.home()
    if home != Path("/"):
        return home / ".cache" / "repro"
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"


def _compilers() -> List[str]:
    """Candidate compiler commands, most specific first."""
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(["cc", "gcc", "clang"])
    found = []
    for name in candidates:
        resolved = shutil.which(name)
        if resolved and resolved not in found:
            found.append(resolved)
    return found


def _build(source: Path, target: Path) -> Optional[str]:
    """Compile ``source`` into ``target``; return a reason on failure."""
    compilers = _compilers()
    if not compilers:
        return "no C compiler on PATH (set $CC or install cc/gcc/clang)"
    target.parent.mkdir(parents=True, exist_ok=True)
    last = "compile failed"
    for cc in compilers:
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        cmd = [cc, *CFLAGS, "-o", str(tmp), str(source)]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            last = f"{cc}: {exc}"
            tmp.unlink(missing_ok=True)
            continue
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-200:]
            last = f"{cc} exited {proc.returncode}: {tail}"
            tmp.unlink(missing_ok=True)
            continue
        os.replace(tmp, target)  # atomic: concurrent builders agree
        return None
    return last


def _object_name(source: bytes) -> str:
    """Cache name of the object :data:`CFLAGS` build from ``source``."""
    flags = " ".join(CFLAGS).encode()
    digest = hashlib.sha256(source + b"\0" + flags).hexdigest()[:16]
    return f"ckernel-abi{ABI_VERSION}-{digest}.so"


def _prune_superseded(target: Path) -> None:
    """Best-effort removal of the cache's other kernel objects.

    Each source or flag change builds a new object next to the old
    ones; only ``target`` can load from now on.  In-progress ``.tmp``
    builds never match the pattern.
    """
    with contextlib.suppress(OSError):
        for path in target.parent.glob("ckernel-abi*.so"):
            if path != target:
                with contextlib.suppress(OSError):
                    path.unlink()


def load_kernel() -> Tuple[Optional[Kernel], Optional[str]]:
    """The process-wide kernel, building it on first use.

    Returns ``(kernel, None)`` on success or ``(None, reason)`` when
    the kernel is disabled or unavailable; the answer is memoized, so
    a failed build is attempted once per process.
    """
    global _STATE
    if _STATE is not None:
        return _STATE
    _STATE = _load_uncached()
    return _STATE


def _load_uncached() -> Tuple[Optional[Kernel], Optional[str]]:
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None, "disabled via REPRO_NO_CKERNEL"
    try:
        source_bytes = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    try:
        target = _cache_dir() / _object_name(source_bytes)
        if not target.exists():
            reason = _build(_SOURCE, target)
            if reason is not None:
                return None, reason
            _prune_superseded(target)
        lib = ctypes.CDLL(str(target))
        abi = lib.repro_ckernel_abi
        abi.restype = _I64
        abi.argtypes = []
        got = int(abi())
        if got != ABI_VERSION:
            return None, f"kernel ABI {got} != expected {ABI_VERSION}"
        return Kernel(target, lib), None
    except OSError as exc:
        return None, f"kernel build/load failed: {exc}"


def reset_kernel_state() -> None:
    """Forget the memoized load result (tests flip the env knobs)."""
    global _STATE
    _STATE = None


def thread_budget() -> int:
    """Threads one kernel call may use in this process.

    By default the CPUs this process may run on; a process pool or a
    cluster worker sets its share with :func:`set_thread_budget`.
    """
    global _THREADS
    if _THREADS is None:
        try:
            _THREADS = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - no affinity API
            _THREADS = os.cpu_count() or 1
    return _THREADS


def set_thread_budget(count: int) -> None:
    """Let each kernel call in this process use up to ``count`` threads."""
    global _THREADS
    _THREADS = max(1, int(count))


__all__ = [
    "ABI_VERSION",
    "CFLAGS",
    "ERR_NOMEM",
    "Kernel",
    "load_kernel",
    "reset_kernel_state",
    "set_thread_budget",
    "thread_budget",
]
