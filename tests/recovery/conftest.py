"""What the recovery plane asks of the disk, recorded call by call."""

import os
from pathlib import Path

import pytest


@pytest.fixture
def syscalls(monkeypatch):
    """Every ``os.fsync``, ``os.replace`` and ``os.ftruncate`` made while
    the fixture is live, every ``os.unlink`` that removed a file and every
    ``os.open`` that created one, in order, as ``("fsync", <name>)``, ``("replace",
    <from>, <to>)``, ``("ftruncate", <name>, <length>)``, ``("unlink",
    <name>)`` and ``("create", <name>)`` — names being the last path
    component of the file or directory concerned."""
    calls: list[tuple] = []

    def name_of(fd: int) -> str:
        return Path(os.readlink(f"/proc/self/fd/{fd}")).name

    real = os.fsync, os.replace, os.ftruncate, os.unlink, os.open
    real_fsync, real_replace, real_ftruncate, real_unlink, real_open = real

    def fsync(fd):
        calls.append(("fsync", name_of(fd)))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", Path(src).name, Path(dst).name))
        real_replace(src, dst)

    def ftruncate(fd, length):
        calls.append(("ftruncate", name_of(fd), length))
        real_ftruncate(fd, length)

    def unlink(path, *args, **kwargs):
        real_unlink(path, *args, **kwargs)
        calls.append(("unlink", Path(path).name))

    def open_(path, flags, *args, **kwargs):
        creates = flags & os.O_CREAT and not os.path.exists(path)
        fd = real_open(path, flags, *args, **kwargs)
        if creates:
            calls.append(("create", Path(path).name))
        return fd

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "ftruncate", ftruncate)
    monkeypatch.setattr(os, "unlink", unlink)
    monkeypatch.setattr(os, "open", open_)
    return calls
