"""Fleet management for sharded sessions: one driver, two shard handles.

:class:`ShardSupervisor` drives a fleet of shards in lock step and keeps
the only restart bookkeeping of :mod:`repro.shard.harness`: crash →
restart budget → outage window → warm respawn, with the ack deadline as
the watchdog.  It talks to each shard through a *handle* with the
surface ``launch / complete / spawn(resume) / alive / kill /
command_cycle / send_hang / await_ack / shutdown / bytes_clock``:

* :class:`ShardProcess` — a real ``dps-repro shard-server`` subprocess
  (``python -m repro shard-server``) behind a TCP clock connection.
  Chaos uses the operating system's own weapons: ``SIGKILL`` for a
  crash, ``SIGTERM`` for a graceful drain, a checkpoint ``--resume``
  respawn for the warm restart.  Respawns pin the port the shard first
  learned from the kernel so the arbiter's
  :class:`~repro.comm.shardlink.TcpShardLink` can keep dialing one
  stable address across restarts; the listener's ``SO_REUSEADDR``
  bind-retry loop absorbs the TIME_WAIT window.
* :class:`ShardThread` — the same
  :class:`~repro.shard.server.HostedShard` on a worker thread, the
  clock connection replaced by a pair of queues.  A kill ends the
  worker and tears its sockets down; the respawn warm-restores the
  controller from its checkpoint exactly as ``--resume`` does.
"""

from __future__ import annotations

import math
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.comm.wire import (
    ArrayCache,
    FrameAssembler,
    FrameError,
    encode_frame,
)
from repro.shard.lease import ShardLink
from repro.shard.server import HostedShard
from repro.telemetry.log import ResilienceEventLog

__all__ = [
    "PendingCycle",
    "ProcessShardSpec",
    "RecoveryOptions",
    "ShardProcess",
    "ShardSupervisor",
    "ShardThread",
]

#: Seconds a fresh subprocess gets to publish its port file.
_SPAWN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class RecoveryOptions:
    """Crash-recovery knobs shared by every shard of a session.

    Attributes:
        checkpoint_dir: directory for checkpoint generations and the
            cycle journal (:func:`~repro.shard.harness.run_sharded`
            ignores it and uses subdirectories of its own
            ``checkpoint_dir``).
        checkpoint_every: cycles between checkpoints.
        keep_generations: checkpoint generations retained.
        max_restarts: restarts allowed per shard before it is failed.
        hang_timeout_s: wall-clock ack deadline after which a silent
            shard is declared hung and killed.
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
class ProcessShardSpec:
    """Launch description of one shard-server subprocess.

    Attributes:
        shard_id: the shard's index (stable across restarts).
        n_nodes / sockets_per_node: the shard's private sub-cluster.
        tdp_w / min_cap_w / idle_power_w: per-unit hardware envelope.
        manager: power-manager registry name for the shard.
        lease_w: the initial lease the shard is constructed holding.
        dt_s: control period.
        seed: sub-cluster / manager randomness seed.
        dir: the shard's checkpoint/journal/state directory.
        noise_std_w: RAPL measurement-noise sigma (0 for drills).
        period_cycles / lease_term_cycles: lease protocol knobs.
        checkpoint_every / keep_generations: recovery knobs.
        codec: clock-plane bulk encoding — ``"json"`` ships demand/
            power/cap vectors as JSON float lists, ``"binary"`` as raw
            array frames (:mod:`repro.comm.wire`).
        max_ack_events: per-ack structured-event cap forwarded to the
            shard server (overflow collapses into ``events_truncated``).
    """

    shard_id: int
    n_nodes: int
    sockets_per_node: int
    tdp_w: float
    min_cap_w: float
    idle_power_w: float
    manager: str
    lease_w: float
    dt_s: float
    seed: int
    dir: Path
    noise_std_w: float = 0.0
    period_cycles: int = 2
    lease_term_cycles: int = 2
    checkpoint_every: int = 2
    keep_generations: int = 3
    codec: str = "json"
    max_ack_events: int = 256

    @property
    def n_units(self) -> int:
        return self.n_nodes * self.sockets_per_node


class ShardProcess:
    """Handle on one shard-server subprocess and its clock connection."""

    def __init__(self, spec: ProcessShardSpec, timeout_s: float = 5.0) -> None:
        self.spec = spec
        self.timeout_s = timeout_s
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
        self._log_path = spec.dir / f"shard-{spec.shard_id}.log"
        self._port_file = spec.dir / "port"
        #: Frame bytes over the clock connection, both directions,
        #: accumulated across respawns (the handle outlives the process).
        self.bytes_clock = 0

    # -- spawning -------------------------------------------------------

    def _command(self, resume: bool) -> list[str]:
        spec = self.spec
        # Respawns pin the originally learned port so the arbiter link's
        # dial address survives the restart.
        port = self.address[1] if self.address is not None else 0
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "shard-server",
            "--shard-id", str(spec.shard_id),
            "--nodes", str(spec.n_nodes),
            "--sockets-per-node", str(spec.sockets_per_node),
            "--tdp", str(spec.tdp_w),
            "--min-cap", str(spec.min_cap_w),
            "--idle-power", str(spec.idle_power_w),
            "--noise-std", str(spec.noise_std_w),
            "--manager", spec.manager,
            "--lease", str(spec.lease_w),
            "--dt", str(spec.dt_s),
            "--seed", str(spec.seed),
            "--period-cycles", str(spec.period_cycles),
            "--lease-term-cycles", str(spec.lease_term_cycles),
            "--checkpoint-every", str(spec.checkpoint_every),
            "--keep-generations", str(spec.keep_generations),
            "--dir", str(spec.dir),
            "--codec", spec.codec,
            "--max-ack-events", str(spec.max_ack_events),
            "--port", str(port),
            "--port-file", str(self._port_file),
            "--timeout", str(self.timeout_s),
        ]
        if resume:
            cmd.append("--resume")
        return cmd

    def launch(self, resume: bool = False) -> None:
        """Start the subprocess without waiting for it to come up.

        Pair with :meth:`complete`; :meth:`spawn` does both.  Splitting
        the two lets a supervisor overlap the interpreter start-up of a
        whole fleet instead of paying it serially per shard.
        """
        self.close_clock()
        self.spec.dir.mkdir(parents=True, exist_ok=True)
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

    def spawn(self, resume: bool = False) -> None:
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
        sock = socket.create_connection(self.address, timeout=self.timeout_s)
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

    def read_drained(self, timeout_s: float) -> dict | None:
        return self._read_until("drained", timeout_s)

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


class ShardThread:
    """In-process shard handle: a worker thread behind two queues.

    Presents :class:`ShardProcess`'s surface to the supervisor.  The
    hosted shard (controller, lease state, event log, hardware slice) is
    durable across restarts, like a process's checkpoint directory; each
    :meth:`launch` starts a fresh worker with fresh queues, like a fresh
    process with a fresh clock connection.

    Args:
        hosted: the shard this handle runs.
        link: the in-memory lease channel whose shard edge ``hosted``
            holds; the harness gives its arbiter edge to the arbiter.
    """

    #: There is no clock wire to meter.
    bytes_clock = 0

    def __init__(self, hosted: HostedShard, link: ShardLink) -> None:
        self.hosted = hosted
        self.link = link
        self._thread: threading.Thread | None = None

    def launch(self, resume: bool = False) -> None:
        """Start a worker; pair with :meth:`complete`."""
        self._commands: queue.Queue = queue.Queue()
        self._acks: queue.Queue = queue.Queue()
        self._killed = threading.Event()
        self._ready = threading.Event()
        self._startup_error: Exception | None = None
        # The previous worker, if any, is dead (killed and reaped, or
        # found not alive), so the fresh queues are this worker's alone.
        self._thread = threading.Thread(
            target=self._serve,
            args=(resume,),
            name=f"shard-{self.hosted.shard.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def complete(self) -> None:
        """Wait until the worker's deploy server has every daemon."""
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"shard {self.hosted.shard.shard_id} failed to start"
            ) from self._startup_error

    def spawn(self, resume: bool = False) -> None:
        self.launch(resume)
        self.complete()

    def _serve(self, resume: bool) -> None:
        hosted = self.hosted
        try:
            try:
                if resume:
                    hosted.resume()
                hosted.start()
            except Exception as exc:  # noqa: BLE001 - re-raised by complete()
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            while True:
                command = self._commands.get()
                if command is None:
                    return
                if command == "hang":
                    # Silent until the supervisor's deadline kills us.
                    self._killed.wait()
                    return
                self._acks.put(hosted.run_cycle(*command))
        finally:
            # An unexpected exception propagates to threading.excepthook
            # (the traceback a subprocess would leave in its log); the
            # closed-connection marker tells the supervisor at once.
            hosted.stop()
            self._acks.put(None)

    def command_cycle(
        self,
        step: int,
        demand: np.ndarray,
        kill: tuple[int, ...] = (),
        reconnect: tuple[int, ...] = (),
    ) -> bool:
        if not self.alive:
            return False
        self._commands.put((step, demand, kill, reconnect))
        return True

    def send_hang(self) -> bool:
        self._commands.put("hang")
        return True

    def await_ack(self, step: int, timeout_s: float) -> dict | None:
        """The next ack, or None when the worker is silent or gone."""
        try:
            doc = self._acks.get(timeout=timeout_s)
        except queue.Empty:
            return None
        if doc is not None and doc["step"] != step:
            raise RuntimeError(
                f"shard {self.hosted.shard.shard_id} acked cycle "
                f"{doc['step']} during cycle {step}"
            )
        return doc

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def kill(self) -> None:
        """End the worker without a goodbye and reap it."""
        self._killed.set()
        self.shutdown()

    def shutdown(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._commands.put(None)
        thread.join(timeout=30.0)
        if thread.is_alive():
            raise RuntimeError(
                f"shard {self.hosted.shard.shard_id} worker is wedged "
                "mid-cycle and cannot be reaped"
            )
        self._thread = None


@dataclass
class PendingCycle:
    """One dispatched-but-uncollected fleet cycle.

    :meth:`ShardSupervisor.dispatch` returns one of these after pushing
    a cycle's demand slices to every healthy shard; the shards compute
    concurrently while the parent does other work (in the pipelined
    harness: finalizing the *previous* cycle).  :meth:`ShardSupervisor.
    collect` turns it into the familiar status map.  Chaos-struck shards
    (killed, hung, in outage, failed) get their status at dispatch time;
    ``awaiting`` holds the shards whose acks are still on the wire.
    """

    step: int
    statuses: dict[int, tuple[str, dict | None]] = field(default_factory=dict)
    awaiting: list[int] = field(default_factory=list)


class ShardSupervisor:
    """Lock-step fleet driver with restart bookkeeping and chaos hooks.

    Args:
        fleet: shard id → handle (:class:`ShardProcess` or
            :class:`ShardThread`), one per initial shard, not yet
            launched.
        recovery: restart budget, outage length, and the hang deadline
            (``hang_timeout_s`` doubles as the per-cycle ack deadline
            after which a silent shard is declared hung and killed).
        events: structured sink for ``shard_restarted`` /
            ``controller_*`` transitions (merged by the harness).
    """

    def __init__(
        self,
        fleet: dict[int, ShardProcess | ShardThread],
        recovery: RecoveryOptions,
        events: ResilienceEventLog | None = None,
    ) -> None:
        self.recovery = recovery
        self.events = events if events is not None else ResilienceEventLog()
        self.fleet = dict(fleet)
        #: Restarts actually performed per shard (a crash that exhausts
        #: the budget, or whose outage outlasts the session, adds none).
        self.restarts: dict[int, int] = {sid: 0 for sid in self.fleet}
        self.failed: set[int] = set()
        self.draining: set[int] = set()
        self._outage: dict[int, int] = {}
        self._hung: set[int] = set()
        #: Clock bytes of shards already retired from the fleet (drained).
        self._bytes_retired = 0

    @property
    def bytes_clock(self) -> int:
        """Frame bytes over every clock connection, both directions."""
        return self._bytes_retired + sum(
            proc.bytes_clock for proc in self.fleet.values()
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        # Launch the whole fleet first, then collect ports: interpreter
        # start-up overlaps across shards instead of paying it serially.
        for proc in self.fleet.values():
            proc.launch()
        for proc in self.fleet.values():
            proc.complete()

    def admit(self, proc: ShardProcess) -> None:
        """Spawn an additional shard joining the fleet mid-session."""
        shard_id = proc.spec.shard_id
        if shard_id in self.fleet:
            raise ValueError(f"shard {shard_id} already in the fleet")
        proc.spawn()
        self.fleet[shard_id] = proc
        self.restarts[shard_id] = 0

    def begin_drain(self, shard_id: int) -> None:
        """SIGTERM the shard; it freezes, reports, and exits on its own."""
        self.draining.add(shard_id)
        self.fleet[shard_id].terminate()

    def finish_drain(self, shard_id: int, timeout_s: float = 10.0) -> dict | None:
        """Collect the drained notice and reap the exited process.

        Returns:
            The ``drained`` document (with the shard's trailing events),
            or None when the shard never reported; ``rc`` is attached.
        """
        proc = self.fleet.pop(shard_id)
        self.draining.discard(shard_id)
        doc = proc.read_drained(timeout_s)
        rc = proc.wait(timeout_s)
        if rc is None:
            proc.kill()
            rc = proc.proc.returncode if proc.proc is not None else None
        proc.close_clock()
        self._bytes_retired += proc.bytes_clock
        if doc is not None:
            doc["rc"] = rc
        return doc

    def stop(self) -> None:
        for proc in self.fleet.values():
            proc.shutdown()

    # -- the lock-step cycle --------------------------------------------

    def dispatch(
        self,
        step: int,
        demands: dict[int, np.ndarray],
        kill_ids: set[int] | None = None,
        hang_ids: set[int] | None = None,
        pending: PendingCycle | None = None,
        node_chaos: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]
        | None = None,
    ) -> PendingCycle:
        """Push one cycle's demands to the fleet without awaiting acks.

        The pipelined harness calls ``dispatch(N+1, ..., pending=prev)``
        before ``collect(prev)``: every shard computes cycle N+1 while
        the parent finalizes cycle N.  Shards struck by chaos *this*
        cycle are handled here — a SIGKILL or SIGTERM destroys the
        process (and, through the kernel's RST, any acked-but-unread
        bytes), so a victim's outstanding ack from ``pending`` is
        settled (:meth:`settle`) before the signal goes out.  An
        injected hang needs no settling: the ``hang`` document is
        ordered after the previous cycle document on the clock socket,
        so the previous ack is already on its way.

        ``node_chaos`` maps a shard id to the shard-local indices of the
        node daemons to kill and to reconnect this cycle; it rides the
        shard's cycle command.
        """
        kill_ids = kill_ids or set()
        hang_ids = hang_ids or set()
        node_chaos = node_chaos or {}
        out = PendingCycle(step=step)
        statuses = out.statuses
        for shard_id, proc in sorted(self.fleet.items()):
            if shard_id in self.draining:
                continue
            if shard_id in self.failed:
                statuses[shard_id] = ("failed", None)
                continue
            if shard_id in self._hung:
                # The watchdog half of the injected hang: the shard went
                # silent last cycle; SIGKILL it after the hang deadline.
                time.sleep(self.recovery.hang_timeout_s)
                self.events.emit(
                    float(step),
                    "controller_hung",
                    node_id=shard_id,
                    detail=(
                        f"no ack within {self.recovery.hang_timeout_s}s; "
                        "killed"
                    ),
                )
                proc.kill()
                self._hung.discard(shard_id)
                self._crash(shard_id, step)
                statuses[shard_id] = (
                    ("failed", None)
                    if shard_id in self.failed
                    else ("outage", None)
                )
                continue
            if shard_id in self._outage:
                statuses[shard_id] = ("outage", None)
                self._tick_outage(shard_id, step)
                continue
            if shard_id in kill_ids:
                self.settle(pending, shard_id)
                proc.kill()
                self._crash(shard_id, step)
                statuses[shard_id] = ("crashed", None)
                continue
            if shard_id in hang_ids:
                proc.send_hang()
                self._hung.add(shard_id)
                statuses[shard_id] = ("hung", None)
                continue
            if not proc.alive or not proc.command_cycle(
                step, demands[shard_id], *node_chaos.get(shard_id, ((), ()))
            ):
                # Unexpected death (not scheduled chaos) — treat as a
                # crash and consume the restart budget.
                self.settle(pending, shard_id)
                self._crash(shard_id, step)
                statuses[shard_id] = ("crashed", None)
                continue
            out.awaiting.append(shard_id)
        return out

    def settle(self, pending: PendingCycle | None, shard_id: int) -> None:
        """Collect one shard's outstanding ack ahead of the others.

        Called before anything that destroys the shard's buffered clock
        traffic — SIGKILL (kill chaos, kernel RST drops received-but-
        unread bytes) or SIGTERM (the host may drain before processing a
        queued cycle document).  A shard that never acks is recorded
        ``hung`` for the pending cycle *without* crash bookkeeping: the
        caller is about to account the process's death itself.
        """
        if pending is None or shard_id not in pending.awaiting:
            return
        pending.awaiting.remove(shard_id)
        proc = self.fleet.get(shard_id)
        ack = (
            proc.await_ack(pending.step, self.recovery.hang_timeout_s)
            if proc is not None
            else None
        )
        pending.statuses[shard_id] = (
            ("ok", ack) if ack is not None else ("hung", None)
        )

    def collect(
        self, pending: PendingCycle
    ) -> dict[int, tuple[str, dict | None]]:
        """Await every outstanding ack of a dispatched cycle."""
        for shard_id in list(pending.awaiting):
            proc = self.fleet.get(shard_id)
            ack = (
                proc.await_ack(pending.step, self.recovery.hang_timeout_s)
                if proc is not None
                else None
            )
            if ack is None:
                # Silent past the deadline: the real watchdog. SIGKILL
                # and restart from the checkpoint.
                self.events.emit(
                    float(pending.step),
                    "controller_hung",
                    node_id=shard_id,
                    detail=(
                        f"no ack within {self.recovery.hang_timeout_s}s; "
                        "killed"
                    ),
                )
                if proc is not None:
                    proc.kill()
                self._crash(shard_id, pending.step)
                pending.statuses[shard_id] = ("hung", None)
            else:
                pending.statuses[shard_id] = ("ok", ack)
        pending.awaiting = []
        return pending.statuses

    # -- restart bookkeeping --------------------------------------------

    def _crash(self, shard_id: int, step: int) -> None:
        restarts = self.restarts[shard_id]
        self.events.emit(
            float(step),
            "controller_killed",
            node_id=shard_id,
            detail=f"shard down after {restarts} restarts",
        )
        if restarts >= self.recovery.max_restarts:
            self.failed.add(shard_id)
            return
        if self.recovery.restart_delay_cycles > 0:
            self._outage[shard_id] = self.recovery.restart_delay_cycles
        else:
            self._respawn(shard_id, step)

    def _tick_outage(self, shard_id: int, step: int) -> None:
        self._outage[shard_id] -= 1
        if self._outage[shard_id] <= 0:
            del self._outage[shard_id]
            self._respawn(shard_id, step)

    def _respawn(self, shard_id: int, step: int) -> None:
        self.fleet[shard_id].spawn(resume=True)
        self.restarts[shard_id] += 1
        attempt = (
            f"restart {self.restarts[shard_id]} of at most "
            f"{self.recovery.max_restarts}"
        )
        self.events.emit(
            float(step),
            "controller_restarted",
            node_id=shard_id,
            detail=f"{attempt}, resumed from checkpoint",
        )
        self.events.emit(
            float(step),
            "shard_restarted",
            node_id=shard_id,
            detail=f"shard respawned from its checkpoint ({attempt})",
        )
