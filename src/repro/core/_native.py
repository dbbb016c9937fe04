"""On-demand compiled kernel behind the decision core's peak features.

The batched prominent-peak counter is the one part of the DPS decision
whose work per unit is a data-dependent scalar walk — the shape NumPy is
worst at.  This module compiles ``_peaks_kernel.c`` (a literal C
transcription of the Python walk, bit-exact by construction) with the
system C compiler the first time the kernel is requested, caches the
shared object under a hash of the source and the host CPU, and exposes it
through ctypes.

Everything degrades gracefully: no compiler or a failed build makes
:func:`peak_features` return ``None``, and its one caller,
:func:`repro.core.peaks.fill_features`, runs the same walk in Python.

Environment:
    ``REPRO_NATIVE_CACHE``: directory the compiled ``.so`` is cached in
        (default: ``<tempdir>/repro-native``).
    ``CC``: C compiler to use (default: first of ``cc``/``gcc``/``clang``
        on PATH).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["MAX_HISTORY", "peak_features"]

#: Longest history the kernel's stack buffer accepts; longer histories
#: take the Python walk (must match REPRO_MAX_H in the C source).
MAX_HISTORY = 64

_SOURCE = Path(__file__).with_name("_peaks_kernel.c")

_lock = threading.Lock()
_cache: dict = {"resolved": False, "fn": None}


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


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


def _build_library() -> Path | None:
    """Compile the kernel into the cache directory, or return None."""
    cc = _find_compiler()
    if cc is None:
        return None
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
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
        # CPU, so host-specific codegen is safe, and cmov emission for the
        # walks is worth ~4x here; some compilers reject the flag, hence
        # the plain retry.
        base = [cc, "-O3", "-fPIC", "-shared", "-ffp-contract=off"]
        tail = [str(_SOURCE), "-o", tmp_name, "-lm"]
        try:
            subprocess.run(
                base + ["-march=native"] + tail,
                check=True,
                capture_output=True,
                timeout=120,
            )
        except subprocess.SubprocessError:
            subprocess.run(
                base + tail,
                check=True,
                capture_output=True,
                timeout=120,
            )
        os.replace(tmp_name, lib_path)  # atomic publish for parallel runs
        tmp_name = None
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


def _load() -> Callable | None:
    # The kernel writes peak counts through C long; bail out on platforms
    # where that is not np.intp (e.g. LLP64) rather than corrupt memory.
    if ctypes.sizeof(ctypes.c_long) != np.dtype(np.intp).itemsize:
        return None
    lib_path = _build_library()
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(lib_path))
        raw = lib.repro_peak_features
    except (OSError, AttributeError):
        return None
    raw.restype = None
    # Pointers travel as plain addresses: ``arr.ctypes.data`` costs about
    # half of ``data_as(POINTER(...))``, which at the paper's 20 units was
    # most of the call.
    raw.argtypes = [
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_double,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_double,
    ]

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

    return call


def peak_features() -> Callable | None:
    """The compiled feature kernel, or None when unavailable.

    Thread-safe and memoized: the build runs at most once per process.
    """
    with _lock:
        if not _cache["resolved"]:
            _cache["fn"] = _load()
            _cache["resolved"] = True
        return _cache["fn"]
