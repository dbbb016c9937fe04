"""Host fingerprint and the committed run ledger."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything a run writes besides the ledger lands here (gitignored).
OUT = HERE / "out"
#: Named to dodge the repo's ``BENCH_*.json`` ignore rule: it is committed.
LEDGER = HERE / "ledger.jsonl"


def native_kernel() -> bool:
    """Whether the decision core runs its compiled peak kernel here.

    Asking builds the kernel if this checkout has not yet, so a run
    asks before its first pass.  The shared object is cached under
    ``OUT`` (a path setting, not a product knob): the benchmark writes
    nowhere outside its checkout.
    """
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(OUT / "native"))
    try:
        from repro.core._native import peak_features
    except ImportError:
        return False
    return peak_features() is not None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """What a number in the ledger was measured on."""
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel": native_kernel(),
        "git_rev": _git_rev(),
    }


def append_ledger(entry: dict) -> None:
    """Append one run as one line."""
    line = {"time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **entry}
    with open(LEDGER, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
