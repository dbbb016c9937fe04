"""What the recovery plane asks of the disk, recorded call by call."""

import os
from pathlib import Path

import pytest


@pytest.fixture
def syscalls(monkeypatch):
    """Every ``os.fsync``, ``os.replace`` and ``os.ftruncate`` made while
    the fixture is live, in order, as ``("fsync", <name>)``, ``("replace",
    <from>, <to>)`` and ``("ftruncate", <name>, <length>)`` — names being
    the last path component of the file or directory the descriptor is
    open on."""
    calls: list[tuple] = []

    def name_of(fd: int) -> str:
        return Path(os.readlink(f"/proc/self/fd/{fd}")).name

    real_fsync, real_replace, real_ftruncate = os.fsync, os.replace, os.ftruncate

    def fsync(fd):
        calls.append(("fsync", name_of(fd)))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", Path(src).name, Path(dst).name))
        real_replace(src, dst)

    def ftruncate(fd, length):
        calls.append(("ftruncate", name_of(fd), length))
        real_ftruncate(fd, length)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "ftruncate", ftruncate)
    return calls
