"""What a shard is built from, and the two handles a fleet drives it by.

:class:`ShardSpec` describes one shard for either transport and
:func:`host_shard` builds the running shard from it.  The
:class:`~repro.shard.fleet.Fleet` drives each shard through a *handle*
with the surface ``launch / complete / spawn(resume) / alive / kill /
command_cycle / send_hang / await_ack / shutdown / bytes_clock``:

* :class:`ShardProcess` — a real ``dps-repro shard-server`` subprocess
  (``python -m repro shard-server``) behind a TCP clock connection,
  built from the :class:`ShardSpec` it finds in its directory.
  Chaos uses the operating system's own weapons: ``SIGKILL`` for a
  crash, ``SIGTERM`` for a graceful drain, a checkpoint ``--resume``
  respawn for the warm restart.  Respawns pin the port the shard first
  learned from the kernel so the arbiter's
  :class:`~repro.comm.shardlink.TcpShardLink` can keep dialing one
  stable address across restarts; the listener's ``SO_REUSEADDR``
  bind-retry loop absorbs the TIME_WAIT window.
* :class:`InlineShard` — the same
  :class:`~repro.shard.server.HostedShard` on the caller's thread, the
  clock connection replaced by a list of recorded commands: a cycle
  runs when its ack is collected.  A kill tears the attempt's sockets
  down; the respawn warm-restores the controller from its checkpoint
  exactly as ``--resume`` does.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

import repro
from repro.comm.wire import (
    ArrayCache,
    FrameAssembler,
    FrameError,
    encode_frame,
)
from repro.cluster.node import Node
from repro.core.config import ClusterSpec, RaplConfig
from repro.core.managers import PowerManager, available_managers
from repro.deploy.health import ResilienceConfig
from repro.recovery.controller import RecoverableController
from repro.safety import SafetyConfig
from repro.shard.lease import ArbiterConfig, ShardLink
from repro.shard.server import HostedShard, ShardServer
from repro.telemetry.log import ResilienceEventLog

__all__ = [
    "InlineShard",
    "RecoveryOptions",
    "ShardProcess",
    "ShardSpec",
    "host_shard",
]

#: Seconds a fresh subprocess gets to publish its port file.
_SPAWN_TIMEOUT_S = 30.0

#: A process shard's :class:`ShardSpec` document, in its directory.
SPEC_FILE = "spec.json"


@dataclass(frozen=True)
class RecoveryOptions:
    """Crash-recovery knobs shared by every shard of a session.

    Attributes:
        checkpoint_dir: directory for checkpoint generations and the
            cycle journal (a :class:`~repro.shard.fleet.Fleet` ignores it
            and uses subdirectories of its own ``checkpoint_dir``).
        checkpoint_every: cycles between checkpoints.
        keep_generations: checkpoint generations retained.
        max_restarts: restarts allowed per shard before it is failed.
        hang_timeout_s: wall-clock ack deadline after which a silent
            shard is declared hung and killed.  Only process shards read
            it: an in-process shard's silence is known at once.
        restart_delay_cycles: control cycles the restart takes — the
            shard's hardware holds its last caps, no control happens.
    """

    checkpoint_dir: str | Path
    checkpoint_every: int = 5
    keep_generations: int = 3
    max_restarts: int = 3
    hang_timeout_s: float = 2.0
    restart_delay_cycles: int = 2

    def __post_init__(self) -> None:
        for label, floor in (
            ("checkpoint_every", 1),
            ("keep_generations", 1),
            ("max_restarts", 0),
            ("restart_delay_cycles", 0),
        ):
            if getattr(self, label) < floor:
                raise ValueError(
                    f"{label} must be >= {floor}, got {getattr(self, label)}"
                )
        if not (math.isfinite(self.hang_timeout_s) and self.hang_timeout_s > 0):
            raise ValueError(
                "hang_timeout_s must be finite and > 0, got "
                f"{self.hang_timeout_s}"
            )


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard is built from, on either transport.

    A process shard reads it from ``spec.json`` in its directory
    (:meth:`ShardProcess.launch` writes it); an in-process shard is
    built from it directly.  :func:`host_shard` turns it into the
    running shard in both cases.

    Attributes:
        shard_id: the shard's index (stable across restarts).
        cluster: the slice's topology and per-unit hardware envelope
            (``n_nodes`` is the slice's node count).
        first_node: the global id of the slice's first node, which the
            fleet derives from its partition; a process shard numbers
            its private nodes from it, so its events name global ids.
        rapl: the parent cluster's RAPL behaviour (noise, lag, wrap).
        manager: power-manager registry name; None when the host is
            handed a manager object instead (thread mode's factory).
        lease_w: the initial lease the shard is constructed holding.
        dt_s: control period.
        seed: a process shard's randomness seed — ``seed`` for its
            sub-cluster, ``seed + 1`` for its manager.
        arbiter: the lease protocol's knobs.
        checkpoint_every / keep_generations: recovery knobs.
        safety: deploy-server safety envelope (None: guard on).
        resilience: client quarantine knobs (None: defaults).
        codec: clock-plane bulk encoding — ``"json"`` ships demand/
            power/cap vectors as JSON float lists, ``"binary"`` as raw
            array frames (:mod:`repro.comm.wire`).
        max_ack_events: per-ack structured-event cap (overflow
            collapses into ``events_truncated``).
        timeout_s: deploy-server and clock socket deadline.
    """

    shard_id: int
    cluster: ClusterSpec
    rapl: RaplConfig
    manager: str | None
    lease_w: float
    first_node: int = 0
    dt_s: float = 1.0
    seed: int = 0
    arbiter: ArbiterConfig = field(default_factory=ArbiterConfig)
    checkpoint_every: int = 2
    keep_generations: int = 3
    safety: SafetyConfig | None = None
    resilience: ResilienceConfig | None = None
    codec: str = "json"
    max_ack_events: int = 256
    timeout_s: float = 5.0

    def __post_init__(self) -> None:
        # A process shard reads its spec from disk: a bad name must fail
        # here, in the parent, not as a shard that never comes up.
        if self.manager is not None and self.manager not in available_managers():
            raise ValueError(
                f"unknown manager {self.manager!r}; one of "
                f"{', '.join(available_managers())}"
            )
        if self.codec not in ("json", "binary"):
            raise ValueError(
                f"codec must be 'json' or 'binary', got {self.codec!r}"
            )

    def to_doc(self) -> dict:
        """JSON-able document of every field (nested configs as dicts)."""
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardSpec":
        """Inverse of :meth:`to_doc`; validation runs on every level."""
        fields = dict(doc)
        for name, kind in _NESTED.items():
            if fields.get(name) is not None:
                fields[name] = kind(**fields[name])
        return cls(**fields)


#: The nested configurations of a :class:`ShardSpec` document.
_NESTED = {
    "cluster": ClusterSpec,
    "rapl": RaplConfig,
    "arbiter": ArbiterConfig,
    "safety": SafetyConfig,
    "resilience": ResilienceConfig,
}


def host_shard(
    spec: ShardSpec,
    directory: Path,
    manager: PowerManager,
    rng: np.random.Generator,
    nodes: Sequence[Node],
    link: ShardLink,
) -> HostedShard:
    """Build the shard ``spec`` describes over ``nodes``, leased on ``link``.

    Binds ``manager`` (with ``rng``) to the slice with the initial lease
    as its budget and opens its recoverable controller in ``directory``.
    One event log serves the deploy, lease and recovery stacks, stamped
    with the step the shard is executing: it ships home in acks, so a
    restore is as visible as the crash.
    """
    manager.bind(
        n_units=spec.cluster.n_units,
        budget_w=spec.lease_w,
        max_cap_w=spec.cluster.tdp_w,
        min_cap_w=spec.cluster.min_cap_w,
        dt_s=spec.dt_s,
        rng=rng,
    )
    events = ResilienceEventLog(lambda: shard.step)
    shard = ShardServer(
        shard_id=spec.shard_id,
        controller=RecoverableController.open(
            manager,
            directory,
            checkpoint_every=spec.checkpoint_every,
            keep=spec.keep_generations,
            events=events,
        ),
        link=link,
        config=spec.arbiter,
        events=events,
        resilience=spec.resilience,
        safety=spec.safety,
    )
    return HostedShard(
        shard, nodes, spec.dt_s, spec.timeout_s, spec.max_ack_events
    )


class ShardProcess:
    """Handle on one shard-server subprocess and its clock connection."""

    def __init__(self, spec: ShardSpec, directory: Path) -> None:
        self.spec = spec
        self.dir = Path(directory)
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._clock: socket.socket | None = None
        self._assembler = FrameAssembler(cache=ArrayCache())
        #: Repeat-elision memo for outbound demand slices; fresh per
        #: clock connection, like the assembler's receive-side cache.
        self._send_cache = ArrayCache()
        #: Decoded-but-unclaimed clock documents.  With pipelined cycles
        #: two acks can land in one recv batch; whatever a read pass
        #: decodes beyond the document it wants must be kept, in arrival
        #: order, for the next pass.
        self._inbox: list[dict] = []
        self._log_path = self.dir / f"shard-{spec.shard_id}.log"
        self._port_file = self.dir / "port"
        #: Frame bytes over the clock connection, both directions,
        #: accumulated across respawns (the handle outlives the process).
        self.bytes_clock = 0

    # -- spawning -------------------------------------------------------

    def _command(self, resume: int | None) -> list[str]:
        # Respawns pin the originally learned port so the arbiter link's
        # dial address survives the restart.
        port = self.address[1] if self.address is not None else 0
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "shard-server",
            "--dir", str(self.dir),
            "--port", str(port),
            "--port-file", str(self._port_file),
        ]
        if resume is not None:
            cmd += ["--resume", str(resume)]
        return cmd

    def launch(self, resume: int | None = None) -> None:
        """Start the subprocess without waiting for it to come up; with
        ``resume``, a warm restart at that fleet step.

        Pair with :meth:`complete`; :meth:`spawn` does both.  Splitting
        the two lets a fleet overlap the interpreter start-up of a
        whole fleet instead of paying it serially per shard.
        """
        self.close_clock()
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / SPEC_FILE).write_text(
            json.dumps(self.spec.to_doc(), indent=1), encoding="utf-8"
        )
        if self._port_file.exists():
            self._port_file.unlink()
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        )
        log = open(self._log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                self._command(resume), stdout=log, stderr=log, env=env
            )
        finally:
            log.close()

    def complete(self) -> None:
        """Wait for the launched subprocess's port and dial its clock."""
        self.address = self._await_port()
        self._connect_clock()

    def spawn(self, resume: int | None = None) -> None:
        """Launch (or relaunch) the subprocess and dial its clock port."""
        self.launch(resume)
        self.complete()

    def _await_port(self) -> tuple[str, int]:
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            assert self.proc is not None
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"shard {self.spec.shard_id} exited rc={self.proc.returncode} "
                    f"before publishing its port (see {self._log_path})"
                )
            if self._port_file.exists():
                text = self._port_file.read_text(encoding="utf-8").strip()
                if text:
                    host, _, port = text.rpartition(":")
                    return (host, int(port))
            time.sleep(0.02)
        raise RuntimeError(
            f"shard {self.spec.shard_id} did not publish a port within "
            f"{_SPAWN_TIMEOUT_S}s (see {self._log_path})"
        )

    def _connect_clock(self) -> None:
        assert self.address is not None
        sock = socket.create_connection(
            self.address, timeout=self.spec.timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = encode_frame({"type": "hello", "role": "clock"})
        sock.sendall(hello)
        self.bytes_clock += len(hello)
        self._clock = sock
        self._assembler = FrameAssembler(cache=ArrayCache())
        self._send_cache = ArrayCache()
        self._inbox.clear()

    # -- clock traffic --------------------------------------------------

    def _send(self, doc: dict) -> bool:
        if self._clock is None:
            return False
        frame = encode_frame(doc, cache=self._send_cache)
        try:
            self._clock.sendall(frame)
            self.bytes_clock += len(frame)
            return True
        except OSError:
            self.close_clock()
            return False

    def command_cycle(
        self,
        step: int,
        demand: np.ndarray,
        kill: tuple[int, ...] = (),
        reconnect: tuple[int, ...] = (),
    ) -> bool:
        if self.spec.codec == "binary":
            payload = np.ascontiguousarray(demand, dtype=np.float64)
        else:
            payload = demand.tolist()
        doc: dict = {"type": "cycle", "step": int(step), "demand": payload}
        # Node chaos rides the cycle only when there is some, so the
        # clock's bytes do not move without it.
        if kill:
            doc["kill"] = list(kill)
        if reconnect:
            doc["reconnect"] = list(reconnect)
        return self._send(doc)

    def send_hang(self) -> bool:
        return self._send({"type": "hang"})

    def send_stop(self) -> bool:
        return self._send({"type": "stop"})

    def _claim(self, want: str) -> dict | None:
        """Pop the oldest inbox document of the wanted type, if any."""
        for i, doc in enumerate(self._inbox):
            if doc.get("type") == want:
                return self._inbox.pop(i)
        return None

    def _read_until(self, want: str, timeout_s: float) -> dict | None:
        """Read clock docs until one of type ``want`` arrives (or not).

        Documents of other types (and any *extra* documents of the
        wanted type decoded from the same batch) are queued in arrival
        order for later reads — with one cycle in flight ahead of the
        collector, ack N and ack N+1 routinely share a recv batch.
        """
        claimed = self._claim(want)
        if claimed is not None:
            return claimed
        if self._clock is None:
            return None
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._clock.settimeout(remaining)
            try:
                data = self._clock.recv(65536)
            except socket.timeout:
                return None
            except OSError:
                self.close_clock()
                return None
            if not data:
                self.close_clock()
                return None
            self.bytes_clock += len(data)
            try:
                docs = self._assembler.feed(data)
            except FrameError:
                self.close_clock()
                return None
            self._inbox.extend(docs)
            claimed = self._claim(want)
            if claimed is not None:
                return claimed

    def await_ack(self, step: int, timeout_s: float) -> dict | None:
        doc = self._read_until("cycle_ack", timeout_s)
        if doc is not None and int(doc.get("step", -1)) != step:
            raise RuntimeError(
                f"shard {self.spec.shard_id} acked cycle {doc.get('step')} "
                f"during cycle {step}"
            )
        return doc

    def finish_drain(self, timeout_s: float = 10.0) -> dict | None:
        """Collect the ``drained`` notice and reap the exited process.

        Returns the notice (the shard's trailing events, its exit code
        attached as ``rc``), or None when the shard never reported.
        """
        doc = self._read_until("drained", timeout_s)
        rc = self.wait(timeout_s)
        if rc is None:
            self.kill()
            rc = self.proc.returncode if self.proc is not None else None
        self.close_clock()
        if doc is not None:
            doc["rc"] = rc
        return doc

    # -- process control ------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the no-cooperation crash."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10.0)
        self.close_clock()

    def terminate(self) -> None:
        """SIGTERM — request the graceful drain."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout_s: float) -> int | None:
        if self.proc is None:
            return None
        try:
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return None

    def close_clock(self) -> None:
        if self._clock is not None:
            try:
                self._clock.close()
            except OSError:
                pass
            self._clock = None

    def shutdown(self) -> None:
        """Best-effort teardown: polite stop, then SIGKILL."""
        if self.alive:
            self.send_stop()
            if self.wait(2.0) is None:
                self.kill()
        self.close_clock()


class InlineShard:
    """In-process shard handle: the hosted shard runs on the caller's thread.

    Presents :class:`ShardProcess`'s surface to the fleet.  The
    hosted shard (controller, lease state, event log, hardware slice) is
    durable across restarts, like a process's checkpoint directory; each
    :meth:`launch` brings up a fresh attempt, like a fresh process with a
    fresh clock connection.

    The clock is a list of recorded commands.  :meth:`command_cycle`
    only records a cycle; :meth:`await_ack` runs the oldest one, so each
    cycle's work lands in the cycle that collects it.  :meth:`send_hang`
    records a silence marker behind the cycles already commanded — those
    still ack, as a process reads its earlier cycle documents before the
    ``hang`` — and from the marker on the shard answers nothing.  A cycle
    that raises reads as a process that died mid-cycle: the traceback
    goes to stderr and the shard falls silent.

    Args:
        hosted: the shard this handle runs.
        link: the in-memory lease channel whose shard edge ``hosted``
            holds; the fleet gives its arbiter edge to the arbiter.
    """

    #: There is no clock wire to meter.
    bytes_clock = 0

    def __init__(self, hosted: HostedShard, link: ShardLink) -> None:
        self.hosted = hosted
        self.link = link
        #: Recorded cycle commands, oldest first; None is the hang marker.
        self._commands: deque[tuple | None] = deque()
        self.alive = False

    def launch(self, resume: int | None = None) -> None:
        """Bring the attempt up: with ``resume``, a warm restore at that
        fleet step; then start."""
        self._commands.clear()
        try:
            if resume is not None:
                self.hosted.resume(resume)
            self.hosted.start()
        except Exception as exc:
            self.hosted.stop()
            raise RuntimeError(
                f"shard {self.hosted.shard.shard_id} failed to start"
            ) from exc
        self.alive = True

    #: Nothing is left to wait for once :meth:`launch` returns.
    spawn = launch

    def complete(self) -> None:
        pass

    def command_cycle(
        self,
        step: int,
        demand: np.ndarray,
        kill: tuple[int, ...] = (),
        reconnect: tuple[int, ...] = (),
    ) -> bool:
        if not self.alive:
            return False
        self._commands.append((step, demand, kill, reconnect))
        return True

    def send_hang(self) -> bool:
        self._commands.append(None)
        return True

    def await_ack(self, step: int, timeout_s: float) -> dict | None:
        """Run the oldest commanded cycle and return its ack, or None at
        once when the shard is silent or gone."""
        del timeout_s  # An in-memory silence is known without waiting.
        if not self.alive or not self._commands or self._commands[0] is None:
            return None
        command = self._commands.popleft()
        if command[0] != step:
            raise RuntimeError(
                f"shard {self.hosted.shard.shard_id} acked cycle "
                f"{command[0]} during cycle {step}"
            )
        try:
            return self.hosted.run_cycle(*command)
        except Exception:
            # The traceback a dying subprocess would leave in its log.
            traceback.print_exc()
            self.kill()
            return None

    def kill(self) -> None:
        """Tear the attempt down without a goodbye (idempotent)."""
        self._commands.clear()
        if self.alive:
            self.alive = False
            self.hosted.stop()

    shutdown = kill
