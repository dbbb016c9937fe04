"""On-demand compiled kernels behind the per-unit stages of the decision
core and of the simulated plant.

Five stages of the DPS decision do a few flops per unit behind a
data-dependent walk or a chain of whole-array temporaries: the batched
prominent-peak counter, Algorithm 1's decrease pass and random-order
increase walk, the scalar Kalman update, Algorithm 2's flag transitions
and the elementwise passes of Algorithm 4's water-fill.  The plant's
interval is three more such chains: the RAPL bank's lag-and-energy step,
the cap-to-performance model and the meter read.  This module compiles
``_peaks_kernel.c`` (C versions of the per-unit definitions, held
bit-exact by the equivalence suite) with the system C compiler the first
time a kernel is requested, caches the shared object under a hash of the
source and the host CPU, and exposes the entry points through ctypes.

Everything degrades gracefully, and all at once: no compiler, a failed
build or a missing symbol makes :func:`kernels` return ``None``, and each
call site (:func:`repro.core.peaks.fill_features`,
:func:`repro.core.stateless.mimd_step`,
:meth:`repro.core.kalman.KalmanBank.update`,
:meth:`repro.core.priority.PriorityModule.update`,
:func:`repro.core.readjust.readjust`,
:meth:`repro.powercap.rapl.RaplBank.step`,
:meth:`repro.powercap.rapl.RaplBank.read_powers_w`,
:func:`repro.cluster.perfmodel.progress_rate`) runs its Python/NumPy
fallback, which returns the same bits.  :func:`status` says which of the
two this process runs, and why.

Environment:
    ``REPRO_NATIVE_CACHE``: directory the compiled ``.so`` is cached in
        (default: ``<tempdir>/repro-native``).
    ``CC``: C compiler to use, with arguments if any (``"ccache gcc"``;
        default: first of ``cc``/``gcc``/``clang`` on PATH).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "MAX_HISTORY",
    "Kernels",
    "Pinned",
    "address",
    "kernels",
    "peak_features",
    "status",
]

#: Longest history the kernel's stack buffer accepts; longer histories
#: take the Python walk (must match REPRO_MAX_H in the C source).
MAX_HISTORY = 64

_SOURCE = Path(__file__).with_name("_peaks_kernel.c")

_lock = threading.Lock()
#: ``fn`` is the resolved :class:`Kernels` (or None); ``detail`` joins it
#: at resolution.
_cache: dict = {"resolved": False, "fn": None}


class Kernels(NamedTuple):
    """The compiled entry points, resolved together or not at all.

    ``peak_features`` is the checked wrapper of :func:`_load`; the others
    are the raw C functions of ``_peaks_kernel.c`` and read and write
    through the addresses they are given.  Each has one Python call site
    (the four ``fill_*`` passes share :func:`repro.core.readjust.readjust`),
    which hands it only C-contiguous arrays of the element type and
    length the C signature names.
    """

    peak_features: Callable
    mimd_decrease: Callable
    mimd_increase: Callable
    kalman_update: Callable
    classify: Callable
    fill_select: Callable
    fill_weights: Callable
    fill_grant: Callable
    fill_retire: Callable
    rapl_step: Callable
    progress_rate: Callable
    meter_read: Callable


def address(arr: np.ndarray) -> int:
    """``arr.ctypes.data`` of a C-contiguous array, at a quarter of the cost.

    ``arr.ctypes`` builds a helper object in Python on every access (about
    1.2 µs, as much as a 20-unit kernel call); a ctypes view of the
    array's buffer costs 0.3 µs.  A read-only array exports no writable
    buffer and takes the slow road.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except TypeError:
        return arr.ctypes.data


class Pinned:
    """Addresses of arrays that live as long as their owner, taken once.

    ``arr.ctypes.data`` costs about as much as a whole 20-unit kernel
    call, so an owner that allocated its arrays itself (C-contiguous, of
    the kernel's element type) and only ever writes them in place takes
    their addresses at construction.  The arrays are held here (an
    address stays valid while this object does), and a pickle or deepcopy
    of the owner takes the addresses again from the *copied* arrays
    instead of carrying over pointers into the original's.
    """

    __slots__ = ("arrays", "at")

    def __init__(self, *arrays: np.ndarray) -> None:
        self.arrays = arrays
        self.at = tuple(arr.ctypes.data for arr in arrays)

    def __reduce__(self) -> tuple:
        return (Pinned, self.arrays)


class _Unavailable(Exception):
    """Why this host runs the fallback; the message is the reason."""


def _find_compiler() -> list[str]:
    """The compiler's argv prefix: ``$CC`` split as a shell would, its
    first word resolved on PATH, else the first stock name found."""
    cc = os.environ.get("CC")
    if cc:
        try:
            words = shlex.split(cc)
        except ValueError:
            words = []
        path = shutil.which(words[0]) if words else None
        if path is None:
            raise _Unavailable(f"CC={cc!r} names no executable on PATH")
        return [path, *words[1:]]
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return [path]
    raise _Unavailable("no C compiler (cc, gcc, clang) on PATH")


def _host_fingerprint() -> str:
    """What ``-march=native`` code generation depends on, as a string.

    Architecture plus the first CPU's model and feature flags (a
    hypervisor can mask features of one model), so a cache directory
    carried to another machine -- a copied work tree, an image layer, a
    CI cache -- rebuilds instead of loading foreign-ISA code.
    """
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(("model name", "flags", "Features")):
                    lines.append(line.strip())
                elif not line.strip():
                    break  # End of the first processor's stanza.
    except OSError:
        lines.append(platform.processor())
    return "\n".join(lines)


def _lib_path(source: bytes, fingerprint: str) -> Path:
    """Where the kernel built from ``source`` for this host is cached."""
    digest = hashlib.sha256(source)
    digest.update(fingerprint.encode())
    cache_root = Path(
        os.environ.get("REPRO_NATIVE_CACHE")
        or os.path.join(tempfile.gettempdir(), "repro-native")
    )
    return cache_root / f"peaks-{digest.hexdigest()[:16]}.so"


def _compile(argv: list[str]) -> None:
    """Run one compiler command; a failure carries the end of its stderr."""
    try:
        done = subprocess.run(argv, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        raise _Unavailable(f"{argv[0]} timed out") from None
    if done.returncode != 0:
        said = done.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise _Unavailable(
            " | ".join([f"{argv[0]} exited {done.returncode}", *said])
        )


def _build_library(cc: list[str]) -> Path:
    """Compile the kernels into the cache directory with ``cc``.

    Raises:
        _Unavailable: the compiler refused the source.
        OSError: the source or the cache directory is out of reach.
    """
    source = _SOURCE.read_bytes()
    lib_path = _lib_path(source, _host_fingerprint())
    cache_root = lib_path.parent
    if lib_path.exists():
        return lib_path
    tmp_name = None
    try:
        cache_root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=cache_root, suffix=".so")
        os.close(fd)
        # -ffp-contract=off: no FMA contraction, so the kernel's arithmetic
        # is the same plain IEEE double sequence as the Python oracle.
        # -march=native is attempted first: the cache tag names the host
        # CPU, so host-specific codegen is safe, and the peak counter packs
        # as many columns per step as a vector register of the target holds
        # (eight with AVX-512, two in a plain build); some compilers reject
        # the flag, hence the plain retry.
        base = cc + ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]
        tail = [str(_SOURCE), "-o", tmp_name, "-lm"]
        try:
            _compile(base + ["-march=native"] + tail)
        except _Unavailable:
            _compile(base + tail)
        os.replace(tmp_name, lib_path)  # atomic publish for parallel runs
        tmp_name = None
        return lib_path
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


_P, _L, _D = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
# Pointers travel as plain addresses: ``arr.ctypes.data`` costs about half
# of ``data_as(POINTER(...))``, which at the paper's 20 units was most of
# the call.
_SIGNATURES = {
    "repro_peak_features": (None, [_P, _L, _L, _D, _P, _P, _P, _L, _D]),
    "repro_mimd_decrease": (None, [_P, _P, _P, _L, _D, _D, _D, _D]),
    "repro_mimd_increase": (_D, [_P, _P, _P, _P, _L, _D, _D, _D, _D]),
    "repro_kalman_update": (None, [_P, _P, _P, _L, _D, _D]),
    "repro_classify": (
        None,
        [_P, _P, _P, _P, _P, _L, ctypes.c_int, _D, _D, _D, _D],
    ),
    "repro_fill_select": (_L, [_P, _P, _L, _D, _P, _P]),
    "repro_fill_weights": (None, [_P, _P, _L]),
    "repro_fill_grant": (None, [_P, _P, _L, _D, _D, _D]),
    "repro_fill_retire": (_L, [_P, _P, _P, _L, _D]),
    "repro_rapl_step": (_L, [_P, _P, _P, _P, _L, _D, _D]),
    "repro_progress_rate": (_L, [_P, _P, _P, _L, _D, ctypes.c_int, _D]),
    "repro_meter_read": (_L, [_P, _P, _P, _P, _P, _L, ctypes.c_int64, _D]),
}


def _load() -> tuple[Kernels | None, str]:
    """``(kernels, detail)``: every entry point and the library's path, or
    None and the reason.  Warns when a compiler was found and still no
    library came of it -- the one case a host's owner can fix."""
    # The kernels index and count through C long; bail out on platforms
    # where that is not np.intp (e.g. LLP64) rather than corrupt memory.
    if ctypes.sizeof(ctypes.c_long) != np.dtype(np.intp).itemsize:
        return None, "C long is not numpy.intp on this platform"
    try:
        cc = _find_compiler()
    except _Unavailable as why:
        return None, str(why)
    try:
        lib_path = _build_library(cc)
        lib = ctypes.CDLL(str(lib_path))
        raws = [getattr(lib, name) for name in _SIGNATURES]
    except (_Unavailable, OSError, AttributeError) as why:
        warnings.warn(
            "kernels unavailable, running the Python fallback "
            f"(same results, slower at scale): {why}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None, str(why)
    for fn, (restype, argtypes) in zip(raws, _SIGNATURES.values()):
        fn.restype = restype
        fn.argtypes = argtypes
    raw = raws[0]

    def call(
        history: np.ndarray,
        min_prominence: float,
        pp_out: np.ndarray | None,
        std_out: np.ndarray | None,
        flagged: np.ndarray | None,
        pp_threshold: int,
        std_threshold: float,
    ) -> None:
        """Fill ``pp_out`` (np.intp) / ``std_out`` (float64) per column.

        Either output may be None to skip that feature; ``flagged``
        (bool) switches the verdict context of ``peaks.fill_features``
        on.  All three are accessed through raw pointers:
        ``fill_features``, the one caller, has checked that they are
        C-contiguous ``(n,)`` arrays and that ``h <= MAX_HISTORY``.
        """
        h, n = history.shape
        if not (history.flags.c_contiguous and history.dtype == np.float64):
            history = np.ascontiguousarray(history, dtype=np.float64)
        raw(
            history.ctypes.data,
            h,
            n,
            float(min_prominence),
            None if pp_out is None else pp_out.ctypes.data,
            None if std_out is None else std_out.ctypes.data,
            None if flagged is None else flagged.ctypes.data,
            pp_threshold,
            std_threshold,
        )

    return Kernels(call, *raws[1:]), str(lib_path)


def kernels() -> Kernels | None:
    """The compiled entry points, or None when this host runs the fallback.

    Thread-safe and memoized: the build runs at most once per process,
    and once it has, a call (several per control step) takes no lock.
    """
    cache = _cache
    if not cache["resolved"]:
        with _lock:
            if not cache["resolved"]:
                cache["fn"], cache["detail"] = _load()
                cache["resolved"] = True  # Last: readers do not lock.
    return cache["fn"]


def peak_features() -> Callable | None:
    """The compiled feature kernel, or None when unavailable."""
    found = kernels()
    return None if found is None else found.peak_features


def status() -> tuple[bool, str]:
    """``(compiled, detail)``: whether the kernels run here, and the
    shared object's path or the reason they do not."""
    cache = _cache
    return kernels() is not None, cache.get("detail", "switched off")
