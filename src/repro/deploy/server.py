"""The DPS central server over real TCP sockets (paper §4.3).

``DeployServer`` is the control plane's one server: it listens on a TCP
port, waits for every client daemon to register, and then runs one-second
control cycles — poll every client, collect readings, run the bound power
manager, push per-unit CAPS frames back.  Its per-phase timings and byte
counts are what the §6.5 overhead analysis reports.

The cycle is a concurrent fan-out/fan-in, not a sequential
request/response chain: POLL is broadcast to every healthy client up
front, READINGS batches (one :mod:`repro.comm.wire` frame per node) are
collected by a ``selectors``-driven event loop feeding each connection's
one assembler under a single per-cycle deadline, and CAPS batches are
dispatched to every client without waiting on any acknowledgement.
Cycle wall time is therefore max-of-clients instead of sum-of-clients —
a slow (not yet dead) client no longer stalls its peers, it simply misses
the deadline and takes the quarantine/fallback path.  (The artifact's strict blocking chain lives on
as the test oracle in ``tests/deploy/oracles.py``.)

A control cycle survives partial failures: a client that misses the
deadline, disconnects, or violates the protocol is *quarantined* (its
connection is closed — a framed request/response stream cannot be
trusted after a mid-frame fault) instead of killing the controller.
Quarantined clients walk the
:class:`~repro.deploy.health.ClientHealth` state machine
(DEGRADED → DEAD under exponential-backoff rejoin windows), their units
fall back to a configurable reading policy, and a dead client's daemon
may reconnect and re-register through the HELLO-rejoin path drained at
the top of every cycle — without blocking, so a connection that never
says HELLO costs the cycle nothing and is closed after ``timeout_s``.
The cluster budget stays enforced throughout: the manager's budget
invariant holds for whatever reading vector the cycle assembles.

A daemon may be *attached* (:meth:`DeployServer.attach`, what a
:class:`~repro.deploy.plane.ClientPlane` does for each one it runs): the
server then pumps it on its own thread right after every POLL, CAPS and
QUIT it writes to that daemon's connection, so its READINGS are queued
before collection starts and its caps are programmed before
``control_cycle`` returns.  A peer that is not attached (a daemon on
another host, a test's raw socket) is served by the same selector loop.

Collection order is an I/O detail, never a semantic one: batches are
buffered as they arrive, and all decoding, validation, health
transitions, and event emission happen in a post-collection pass over
the clients in registration order — so a session's trace is
reproducible cycle-for-cycle regardless of which client answered first.
"""

from __future__ import annotations

import select
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.comm.net import bind_listener
from repro.comm import protocol
from repro.comm.wire import FrameAssembler, encode_frame, encode_words, recv_frame
from repro.core.managers import PowerManager
from repro.deploy.health import ClientHealth, HealthState, ResilienceConfig
from repro.safety import ControlStack, SafetyConfig
from repro.telemetry.log import (
    CyclePhaseTimings,
    CycleTimingLog,
    ResilienceEventLog,
)

__all__ = ["DeployServer", "DeployCycleStats", "PROTOCOL_MAX_W"]

#: Largest value a 3-byte protocol message can carry (§6.5 wire format).
PROTOCOL_MAX_W = 409.5

_POLL_FRAME = encode_frame(protocol.POLL)
_QUIT_FRAME = encode_frame(protocol.QUIT)

_ZERO_TIMINGS = CyclePhaseTimings(
    cycle=0, rejoin_s=0.0, poll_s=0.0, collect_s=0.0, decide_s=0.0,
    dispatch_s=0.0,
)


def _configure_conn(conn: socket.socket, timeout_s: float) -> None:
    """Per-connection socket options of the control plane.

    TCP_NODELAY matters here: the protocol exchanges single-digit-byte
    frames once per second, exactly the pattern where Nagle's algorithm
    interacting with delayed ACKs adds ~40 ms per exchange — dwarfing the
    sub-millisecond turnaround §6.5 claims.
    """
    conn.settimeout(timeout_s)
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # Not fatal; some transports reject the option.


@dataclass(frozen=True)
class DeployCycleStats:
    """Traffic, health, and timing accounting of one TCP control cycle.

    Attributes:
        bytes_up / bytes_down: reading / cap payload bytes (3 B messages,
            excluding the 5 bytes of framing per node batch).
        readings_w: the reading vector the manager consumed this cycle —
            decoded wire values for healthy clients, fallback values for
            quarantined ones.
        n_healthy / n_degraded / n_dead: client health census after the
            cycle.
        fallback_units: units whose reading came from the fallback policy.
        caps_clamped: cap messages clamped into the protocol's value range
            (``[0, 409.5]`` W) this cycle.
        quarantined: node ids quarantined *during* this cycle.
        rejoined: node ids re-integrated during this cycle.
        timings: wall-clock phase breakdown (rejoin / poll / collect /
            decide / dispatch) of this cycle; in-process daemons answer
            inside poll and program their caps inside dispatch.
        guard_rung: degradation-ladder rung the budget guard took this
            cycle (None when no enforcement was needed or the safety
            envelope is disabled).
    """

    bytes_up: int
    bytes_down: int
    readings_w: np.ndarray
    n_healthy: int = 0
    n_degraded: int = 0
    n_dead: int = 0
    fallback_units: int = 0
    caps_clamped: int = 0
    quarantined: tuple[int, ...] = ()
    rejoined: tuple[int, ...] = ()
    timings: CyclePhaseTimings = _ZERO_TIMINGS
    guard_rung: str | None = None


@dataclass(eq=False)  # Identity semantics: records key selector maps.
class _ClientRecord:
    """Server-side state of one registered client."""

    conn: socket.socket | None
    node_id: int
    base: int
    n_units: int
    #: The far end of ``conn`` (the key of an attached daemon).
    peer: tuple
    health: ClientHealth = field(
        default_factory=lambda: ClientHealth(ResilienceConfig())
    )
    #: Reads ``conn``; replaced together with it on a rejoin.
    frames: FrameAssembler = field(default_factory=FrameAssembler)
    #: True once the current quarantine episode's fallback was logged.
    fallback_announced: bool = False


class DeployServer:
    """TCP control server with per-client failure isolation.

    Args:
        manager: a *bound* power manager whose unit count equals the sum
            of the registered clients' units.
        host / port: listen address; port 0 picks a free port (see
            :attr:`address` after construction).
        timeout_s: the per-cycle collection deadline (and the per-socket
            timeout of registration/dispatch writes) — a stuck client is
            quarantined instead of hanging the controller.
        resilience: quarantine/backoff/fallback configuration.
        events: the run's event log for quarantine/fallback/clamp
            transitions; a standalone server keeps its own, stamped with
            its control-cycle count (the deploy layer has no simulated
            clock).
        safety: budget-safety envelope configuration.  When given, the
            server's :attr:`stack` tracks commanded/dispatched/applied
            cap views per unit, enforces the budget on worst-case
            committed power at the actuation boundary, and runs the
            runtime invariant monitors.  All ``budget_*`` /
            ``invariant_violation`` emissions land in :attr:`events`.
    """

    def __init__(
        self,
        manager: PowerManager,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: float = 5.0,
        resilience: ResilienceConfig | None = None,
        events: ResilienceEventLog | None = None,
        safety: SafetyConfig | None = None,
    ) -> None:
        self.manager = manager
        self.timeout_s = timeout_s
        self.resilience = resilience or ResilienceConfig()
        self.events = events if events is not None else ResilienceEventLog(
            lambda: self._cycle
        )
        #: Per-cycle phase timings (the §6.5 overhead instrumentation).
        self.timings = CycleTimingLog()
        # Daemons that connect between two accept_clients calls wait in
        # the backlog (ClientPlane accepts after every spawn).
        # bind_listener also retries a pinned port through a transient
        # EADDRINUSE, so multi-server harnesses can't flake on binds.
        self._listener = bind_listener(
            host, port, backlog=128, timeout_s=timeout_s
        )
        self._clients: list[_ClientRecord] = []
        #: Reconnects awaiting their HELLO: (conn, peer, frames, give-up).
        self._joining: list[
            tuple[socket.socket, tuple, FrameAssembler, float]
        ] = []
        #: In-process daemons by the peer address of their connection.
        self._daemons: dict[tuple, Callable[[], None]] = {}
        self._closed = False
        self._cycle = 0
        self._last_good: np.ndarray | None = None
        #: Total cap messages clamped into the protocol range (all cycles).
        self.total_caps_clamped = 0

        #: The hardened decision step (envelope, guard and monitors
        #: live on it; None of them while ``safety`` is None).
        self.stack = ControlStack(manager, safety, self.events)

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server listens on."""
        return self._listener.getsockname()

    @property
    def n_registered_units(self) -> int:
        """Units across all registered clients."""
        return sum(c.n_units for c in self._clients)

    @property
    def health(self) -> dict[int, HealthState]:
        """Current health state per registered node id."""
        return {c.node_id: c.health.state for c in self._clients}

    def attach(self, peer: tuple, pump: Callable[[], None]) -> None:
        """Run ``pump`` right after every frame written to the connection
        whose far end is ``peer``: an in-process daemon answers at once."""
        self._daemons[peer] = pump

    def detach(self, peer: tuple) -> None:
        """Stop pumping the daemon at ``peer`` (no-op if not attached)."""
        self._daemons.pop(peer, None)

    def _send(self, record: _ClientRecord, frame: bytes) -> None:
        """Write one frame to a client, then pump its attached daemon."""
        record.conn.sendall(frame)
        pump = self._daemons.get(record.peer)
        if pump is not None:
            pump()

    def accept_clients(self, n_clients: int) -> None:
        """Block until ``n_clients`` have connected and sent HELLO.

        On a failed registration (over-registration or duplicate node id)
        every connection accepted by *this call* is sent QUIT and closed
        before the error propagates, so no half-registered session leaks.

        Raises:
            ValueError: registered units exceed the manager's binding, or
                a node id registers twice.
        """
        accepted: list[_ClientRecord] = []
        try:
            for _ in range(n_clients):
                conn, peer = self._listener.accept()
                _configure_conn(conn, self.timeout_s)
                frames = FrameAssembler()
                try:
                    node_id, n_units = protocol.parse_hello(
                        recv_frame(conn, frames)
                    )
                    base = self.n_registered_units
                    if any(c.node_id == node_id for c in self._clients):
                        raise ValueError(
                            f"node {node_id} is already registered"
                        )
                    if base + n_units > self.manager.n_units:
                        raise ValueError(
                            f"client node {node_id} would register "
                            f"unit {base + n_units} but the manager "
                            f"is bound to {self.manager.n_units}"
                        )
                except BaseException:
                    conn.close()
                    raise
                record = _ClientRecord(
                    conn=conn,
                    node_id=node_id,
                    base=base,
                    n_units=n_units,
                    peer=peer,
                    health=ClientHealth(self.resilience),
                    frames=frames,
                )
                self._clients.append(record)
                accepted.append(record)
        except BaseException:
            for record in accepted:
                if record.conn is not None:
                    try:
                        self._send(record, _QUIT_FRAME)
                    except OSError:
                        pass
                    record.conn.close()
                self._clients.remove(record)
            raise

    # ------------------------------------------------------------------
    # Failure isolation internals.
    # ------------------------------------------------------------------

    def _quarantine(self, record: _ClientRecord, reason: str) -> None:
        """Close a faulted client's connection and advance its health."""
        if record.conn is not None:
            record.conn.close()
            record.conn = None
            self.detach(record.peer)
        state = record.health.record_failure()
        self.events.emit(
            "client_quarantined",
            node_id=record.node_id,
            detail=reason,
        )
        if state is HealthState.DEAD:
            self.events.emit(
                "client_dead",
                node_id=record.node_id,
                detail=f"after {record.health.consecutive_failures} failures",
            )

    def _drain_rejoins(self) -> list[int]:
        """Accept pending reconnects and re-attach known quarantined nodes.

        Joining connections are read without blocking, across cycles, and
        closed if no HELLO is in ``timeout_s`` after their accept.  A HELLO
        must name a quarantined node id with the same unit count it
        registered originally; anything else is closed.  Returns the node
        ids that rejoined.
        """
        while True:
            ready, _, _ = select.select([self._listener], [], [], 0.0)
            if not ready:
                break
            try:
                conn, peer = self._listener.accept()
            except OSError:
                break
            conn.setblocking(False)
            self._joining.append(
                (conn, peer, FrameAssembler(), time.monotonic() + self.timeout_s)
            )
        rejoined = []
        joining, self._joining = self._joining, []
        for conn, peer, frames, give_up_at in joining:
            try:
                data = conn.recv(65536)
                if not data:
                    raise ConnectionError("closed before its HELLO")
                docs = frames.feed(data)
                if len(docs) > 1 or (docs and frames.pending_bytes):
                    raise ValueError("bytes beyond the HELLO")
                hello = protocol.parse_hello(docs[0]) if docs else None
            except BlockingIOError:
                hello = None
            except (OSError, ValueError):
                conn.close()
                continue
            if hello is None:
                if time.monotonic() < give_up_at:
                    self._joining.append((conn, peer, frames, give_up_at))
                else:
                    conn.close()
                continue
            node_id, n_units = hello
            record = next(
                (
                    c
                    for c in self._clients
                    if c.node_id == node_id
                    and c.health.quarantined
                    and c.n_units == n_units
                ),
                None,
            )
            if record is None:
                conn.close()
                continue
            _configure_conn(conn, self.timeout_s)
            record.conn = conn
            record.peer = peer
            record.frames = frames
            record.health.rejoin()
            record.fallback_announced = False
            rejoined.append(record.node_id)
            self.events.emit(
                "client_rejoined",
                node_id=record.node_id,
            )
        return rejoined

    def unreachable(self) -> np.ndarray:
        """Mask of the units whose client is quarantined this cycle."""
        mask = np.zeros(self.manager.n_units, dtype=bool)
        for record in self._clients:
            if record.health.quarantined:
                mask[record.base : record.base + record.n_units] = True
        return mask

    def _fallback_readings(
        self, record: _ClientRecord, readings: np.ndarray
    ) -> None:
        """Fill a quarantined client's slice of the reading vector."""
        lo, hi = record.base, record.base + record.n_units
        if self.resilience.fallback == "assume-tdp":
            readings[lo:hi] = self.manager.max_cap_w
        else:  # hold-last
            assert self._last_good is not None
            readings[lo:hi] = self._last_good[lo:hi]

    # ------------------------------------------------------------------
    # The control cycle.
    # ------------------------------------------------------------------

    def control_cycle(self) -> DeployCycleStats:
        """Run one poll → collect → decide → dispatch cycle over TCP.

        Client faults (deadline miss, disconnect, protocol violation)
        quarantine the client and substitute fallback readings; the cycle
        itself always completes and reports the health census and phase
        timings in its stats.

        Raises:
            RuntimeError: no clients registered, registration does not
                cover the manager's units, or the manager emitted a
                non-finite cap (configuration / server-side errors, not
                client faults).
        """
        if not self._clients:
            raise RuntimeError("no clients registered")
        if self.n_registered_units != self.manager.n_units:
            raise RuntimeError(
                f"{self.n_registered_units} registered units != manager's "
                f"{self.manager.n_units}"
            )
        self._cycle += 1
        if self._last_good is None:
            # Neutral prior before any reading: the equal-share cap.
            self._last_good = np.full(
                self.manager.n_units, self.manager.initial_cap_w
            )

        t0 = time.perf_counter()
        rejoined = self._drain_rejoins()
        t1 = time.perf_counter()

        # Seed from the last-good vector: a slot a client fails to report
        # (or reports invalidly) holds a trusted value, never whatever
        # np.empty found in memory.
        readings = self._last_good.copy()
        fallback_units = 0
        quarantined_now: list[int] = []
        polled: list[_ClientRecord] = []
        for record in self._clients:
            if record.health.quarantined:
                before = record.health.state
                after = record.health.tick()
                if (
                    after is HealthState.DEAD
                    and before is not HealthState.DEAD
                ):
                    self.events.emit(
                        "client_dead",
                        node_id=record.node_id,
                        detail="rejoin window expired",
                    )
                self._fallback_readings(record, readings)
                fallback_units += record.n_units
                if not record.fallback_announced:
                    record.fallback_announced = True
                    self.events.emit(
                        "fallback_applied",
                        node_id=record.node_id,
                        detail=self.resilience.fallback,
                    )
            else:
                polled.append(record)

        pending, errors = self._broadcast_poll(polled)
        t2 = time.perf_counter()
        raw, collect_errors = self._collect_readings(pending)
        errors.update(collect_errors)

        # Post-collection pass in registration order: decode, validate,
        # and transition health deterministically — arrival order was
        # only ever an I/O detail.
        bytes_up = 0
        for record in polled:
            if record.node_id in errors:
                self._quarantine(record, errors[record.node_id])
                quarantined_now.append(record.node_id)
                self._fallback_readings(record, readings)
                fallback_units += record.n_units
                continue
            try:
                bytes_up += self._ingest_readings(
                    record, raw[record.node_id], readings
                )
                record.health.record_success()
                if self.stack.envelope is not None:
                    # The client programs a CAPS batch before answering
                    # its next POLL, so a valid READINGS batch is the
                    # acknowledgement that the previous dispatch landed.
                    self.stack.envelope.confirm_applied(
                        slice(record.base, record.base + record.n_units)
                    )
            except (RuntimeError, ValueError) as exc:
                self._quarantine(record, f"readings: {exc}")
                quarantined_now.append(record.node_id)
                self._fallback_readings(record, readings)
                fallback_units += record.n_units

        for record in self._clients:
            if not record.health.quarantined:
                lo, hi = record.base, record.base + record.n_units
                self._last_good[lo:hi] = readings[lo:hi]
        t3 = time.perf_counter()

        caps, guard_rung = self.stack.decide(
            readings, None, unreachable=self.unreachable(),
            assume_tdp=self.resilience.fallback == "assume-tdp",
        )
        t4 = time.perf_counter()

        bytes_down, caps_clamped = self._dispatch_caps(caps, quarantined_now)
        # After dispatch on purpose: a strict-mode raise still fails the
        # run this very cycle, but the clients are not left half-polled
        # awaiting a CAPS batch that never comes.
        self.stack.check(caps, readings)
        t5 = time.perf_counter()

        timings = CyclePhaseTimings(
            cycle=self._cycle,
            rejoin_s=t1 - t0,
            poll_s=t2 - t1,
            collect_s=t3 - t2,
            decide_s=t4 - t3,
            dispatch_s=t5 - t4,
        )
        self.timings.record(timings)

        census = {state: 0 for state in HealthState}
        for record in self._clients:
            census[record.health.state] += 1
        return DeployCycleStats(
            bytes_up=bytes_up,
            bytes_down=bytes_down,
            readings_w=readings,
            n_healthy=census[HealthState.HEALTHY],
            n_degraded=census[HealthState.DEGRADED],
            n_dead=census[HealthState.DEAD],
            fallback_units=fallback_units,
            caps_clamped=caps_clamped,
            quarantined=tuple(quarantined_now),
            rejoined=tuple(rejoined),
            timings=timings,
            guard_rung=guard_rung,
        )

    def _broadcast_poll(
        self, polled: list[_ClientRecord]
    ) -> tuple[list[_ClientRecord], dict[int, str]]:
        """Fan-out: send POLL to every healthy client before reading any.

        Returns the clients awaiting collection and the send failures
        keyed by node id.
        """
        pending: list[_ClientRecord] = []
        errors: dict[int, str] = {}
        for record in polled:
            assert record.conn is not None
            try:
                self._send(record, _POLL_FRAME)
            except OSError as exc:
                errors[record.node_id] = f"poll: {exc}"
            else:
                pending.append(record)
        return pending, errors

    def _collect_readings(
        self, pending: list[_ClientRecord]
    ) -> tuple[dict[int, dict], dict[int, str]]:
        """Fan-in: collect READINGS frames under one per-cycle deadline.

        Every pending socket is watched by one selector; whatever bytes a
        client has ready are fed to its frame assembler.  A client that
        has not completed exactly one frame when the deadline expires is
        reported as errored — it delays nobody else.
        """
        raw: dict[int, dict] = {}
        errors: dict[int, str] = {}
        if not pending:
            return raw, errors
        sel = selectors.DefaultSelector()
        outstanding: set[int] = set()
        for record in pending:
            sel.register(record.conn, selectors.EVENT_READ, record)
            outstanding.add(record.node_id)
        deadline = time.monotonic() + self.timeout_s
        try:
            while outstanding:
                remaining_s = deadline - time.monotonic()
                if remaining_s <= 0:
                    break
                for key, _ in sel.select(remaining_s):
                    record = key.data
                    try:
                        data = key.fileobj.recv(65536)
                        if not data:
                            raise ConnectionError("peer closed mid-collection")
                        docs = record.frames.feed(data)
                        # More than one answer: the client spoke out of
                        # turn, and its stream can't be trusted past it.
                        if len(docs) > 1 or (docs and record.frames.pending_bytes):
                            raise ValueError("bytes beyond the end of the frame")
                    except (OSError, ValueError) as exc:
                        errors[record.node_id] = f"readings: {exc}"
                    else:
                        if not docs:
                            continue
                        raw[record.node_id] = docs[0]
                    sel.unregister(key.fileobj)
                    outstanding.discard(record.node_id)
            for node_id in outstanding:
                errors[node_id] = (
                    "readings: no complete batch within the "
                    f"{self.timeout_s} s cycle deadline"
                )
        finally:
            sel.close()
        return raw, errors

    def _ingest_readings(
        self,
        record: _ClientRecord,
        frame: dict,
        readings: np.ndarray,
    ) -> int:
        """Validate one READINGS batch and write it into ``readings``.

        The batch must carry exactly one reading per unit: duplicate or
        out-of-range unit ids are protocol violations, not tolerable
        noise — with ``np.empty``-style assembly a duplicate would leave
        a slot holding garbage memory for the manager to consume.
        Nothing is written unless the whole batch validates.

        Raises:
            RuntimeError / ValueError: protocol violation (handled by the
                caller's quarantine path).
        """
        words = frame.get("words")
        if words is None:
            raise RuntimeError(
                f"expected a READINGS batch, got a {frame.get('type')!r} document"
            )
        kinds, units, values = protocol.decode_batch(words)
        n = record.n_units
        if units.size != n:
            raise RuntimeError(f"client sent {units.size} readings for {n} units")
        if kinds.max() != protocol.MSG_READING:  # The lowest valid kind.
            i = kinds.argmax()
            msg = protocol.Message(int(kinds[i]), int(units[i]), float(values[i]))
            raise RuntimeError(f"expected reading, got {msg}")
        if units.max() >= n:
            raise RuntimeError(
                f"reading for unit {units[units >= n][0]} out of range [0, {n})"
            )
        seen = np.zeros(n, dtype=bool)
        seen[units] = True
        if not seen.all():  # n readings, a unit missing: another repeats.
            raise RuntimeError(
                f"duplicate reading for unit {np.bincount(units).argmax()}"
            )
        readings[record.base : record.base + n][units] = values
        return len(words)

    def _dispatch_caps(
        self, caps: np.ndarray, quarantined_now: list[int]
    ) -> tuple[int, int]:
        """Clamp, encode, and send every healthy client's CAPS batch.

        All batches are built (and all caps validated) before any frame
        is written: a non-finite cap is a server-side bug and must abort
        the dispatch loudly instead of raising inside the send loop and
        quarantining whichever healthy client happened to be next.

        Returns ``(bytes_down, caps_clamped)``.

        Raises:
            RuntimeError: the manager emitted a NaN/inf cap.
        """
        live = [r for r in self._clients if not r.health.quarantined]
        sent = np.zeros(caps.size, dtype=bool)
        for record in live:
            sent[record.base : record.base + record.n_units] = True
        bad = np.flatnonzero(sent & ~np.isfinite(caps))
        if bad.size:
            raise RuntimeError(
                f"manager emitted non-finite cap {float(caps[bad[0]])!r} for "
                f"unit {bad[0]}"
            )
        clamped = np.clip(caps, 0.0, PROTOCOL_MAX_W)
        moved = np.flatnonzero(sent & (clamped != caps)).tolist()
        for unit in moved:
            record = next(r for r in live if r.base <= unit < r.base + r.n_units)
            self.events.emit(
                "cap_clamped",
                unit=unit,
                node_id=record.node_id,
                detail=f"{caps[unit]:.1f}->{clamped[unit]:.1f}",
            )
        frames = [
            protocol.encode_batch(
                protocol.MSG_CAP, clamped[r.base : r.base + r.n_units]
            )
            for r in live
        ]
        # The dispatched view holds the exact wire value the client will
        # program: post-clamp, post-quantization.
        wire = protocol.quantize_w(clamped)
        bytes_down = 0
        for record, words in zip(live, frames):
            try:
                self._send(record, encode_words(words))
            except OSError as exc:
                self._quarantine(record, f"caps: {exc}")
                quarantined_now.append(record.node_id)
            else:
                bytes_down += len(words)
                units = slice(record.base, record.base + record.n_units)
                self.stack.dispatched(units, wire[units])
        self.total_caps_clamped += len(moved)
        return bytes_down, len(moved)

    def shutdown(self) -> None:
        """Send QUIT to every client and close all sockets (idempotent)."""
        if self._closed:
            return
        for record in self._clients:
            if record.conn is None:
                continue
            try:
                self._send(record, _QUIT_FRAME)
            except OSError:
                pass
            record.conn.close()
        for conn, *_ in self._joining:
            conn.close()
        self._clients.clear()
        self._joining.clear()
        self._listener.close()
        self._closed = True

    def __enter__(self) -> "DeployServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
