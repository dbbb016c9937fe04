"""Standalone shard-server process: ``dps-repro shard-server``.

:class:`ShardHost` is one shard of the control plane packaged as its own
OS process, built by :func:`~repro.shard.supervisor.host_shard` from the
:class:`~repro.shard.supervisor.ShardSpec` in ``--dir``/``spec.json``,
as an in-process shard is: a private sub-cluster (the shard's slice of
the simulated hardware, with the parent cluster's RAPL configuration),
a full crash-recoverable stack —
:class:`~repro.recovery.controller.RecoverableController` + journal +
checkpoints under ``--dir`` — and a :class:`~repro.shard.server.
ShardServer` with its deploy server and node-agent clients: the same
:class:`~repro.shard.server.HostedShard` a thread-mode shard runs on the
fleet's thread, here behind a TCP listener.

The host listens on one TCP port (kernel-chosen with ``--port 0``; the
bound address is published atomically through ``--port-file``) and
classifies each inbound connection by its first document:

* ``{"type": "hello", "role": "clock"}`` — the fleet's lock-step
  clock.  It ships ``cycle`` documents carrying the per-unit demand
  slice (plus, on a node-chaos cycle, the shard-local indices of the
  daemons to ``kill`` and ``reconnect``) and receives ``cycle_ack``
  documents carrying the shard's true powers, hardware caps, and the
  structured events of the cycle.
* ``{"type": "hello", "role": "arbiter"}`` — a
  :class:`~repro.comm.shardlink.TcpShardLink` dialed by the
  :class:`~repro.shard.arbiter.BudgetArbiter`.  The host answers with
  its own shard HELLO (the admission handshake) and thereafter the
  connection carries grants in and summaries out.

Chaos enters through the same port: a ``hang`` document makes the host
go silent (the fleet's ack deadline detects it and SIGKILLs the
process), SIGKILL needs no cooperation, and SIGTERM triggers the
graceful drain — checkpoint, freeze at the last confirmed committed
power, one final ``final=True`` summary to the arbiter, a ``drained``
document to the clock, exit 0.  ``--resume STEP`` restarts the host from
its checkpoint store and persisted cluster state at fleet step ``STEP``,
the process-mode analog of a supervised warm restart.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import socket
import time
from pathlib import Path

import numpy as np

from repro.cluster.cluster import Cluster
from repro.comm.net import bind_listener
from repro.comm.wire import (
    ArrayCache,
    FrameAssembler,
    FrameError,
    encode_frame,
)
from repro.core.helper import HelperThread
from repro.core.managers import create_manager
from repro.recovery.state import to_json
from repro.shard.supervisor import SPEC_FILE, ShardSpec, host_shard

__all__ = ["ShardHost", "add_shard_server_args", "run_shard_server"]

#: Select poll interval — bounds signal-handling latency.
_POLL_S = 0.05


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class _HostLink:
    """The shard edge of the lease channel, backed by the arbiter conn.

    Grants parsed off the arbiter connection land in :attr:`inbox`; the
    shard's summaries are framed straight onto the same connection.  The
    object outlives any one TCP session — the host swaps the underlying
    socket on every (re)connect while the :class:`ShardServer` keeps one
    stable link reference.
    """

    def __init__(self, host: "ShardHost") -> None:
        self._host = host
        self.inbox: list[dict] = []
        self.bytes_total = 0

    def take_grants(self) -> list[dict]:
        docs, self.inbox = self.inbox, []
        return docs

    def send_summary(self, doc: dict) -> bool:
        return self._host.send_to_arbiter(doc)


class ShardHost:
    """One shard of the control plane, hosted behind a TCP listener.

    Args:
        spec: what to build — the slice, its manager and every knob.
        directory: checkpoints, journal and persisted cluster state.
        resume: the fleet step to warm-restart at from that directory;
            None starts cold.
    """

    def __init__(
        self, spec: ShardSpec, directory: Path, resume: int | None
    ) -> None:
        self.shard_id = spec.shard_id
        self.cluster = Cluster(
            spec.cluster, spec.rapl, rng=np.random.default_rng(spec.seed)
        )
        # The slice's nodes carry their fleet-wide ids, so the deploy
        # server's client events name the node an operator knows.
        for node in self.cluster.nodes:
            node.node_id += spec.first_node
            for sock in node.sockets:
                sock.node_id = node.node_id
        self.link = _HostLink(self)
        self.hosted = host_shard(
            spec,
            directory,
            create_manager(spec.manager),
            np.random.default_rng(spec.seed + 1),
            self.cluster.nodes,
            self.link,
        )
        self.shard = self.hosted.shard
        self.state_path = directory / "cluster.json"
        #: The last step this host ran (the one before a resume's).
        self._step = -1
        if resume is not None:
            self._resume(resume)

        self.codec = spec.codec
        self._persist_every = spec.checkpoint_every
        self._writer = HelperThread()
        self._listener: socket.socket | None = None
        self._clock: socket.socket | None = None
        self._arbiter: socket.socket | None = None
        self._assemblers: dict[socket.socket, FrameAssembler] = {}
        #: Per-connection repeat-elision memos for outbound arrays,
        #: dropped with the connection exactly like its assembler.
        self._send_caches: dict[socket.socket, ArrayCache] = {}
        self._unassigned: list[socket.socket] = []
        self._terminate = False

    # -- lifecycle ------------------------------------------------------

    def _resume(self, step: int) -> None:
        """Warm-restart at ``step``: checkpointed controller + persisted
        hardware."""
        if self.state_path.exists():
            state = json.loads(self.state_path.read_text(encoding="utf-8"))
            self.cluster.restore(state["cluster"])
        self._step = step - 1
        self.hosted.resume(step)

    def _install_signals(self) -> None:
        def _on_term(signum: int, frame: object) -> None:
            self._terminate = True

        signal.signal(signal.SIGTERM, _on_term)
        signal.signal(signal.SIGINT, _on_term)

    # -- connection plumbing -------------------------------------------

    def _publish_port(self, port_file: str | None) -> None:
        assert self._listener is not None
        host, port = self._listener.getsockname()[:2]
        if port_file:
            _atomic_write(Path(port_file), f"{host}:{port}\n")

    def _accept(self) -> None:
        assert self._listener is not None
        conn, _ = self._listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.setblocking(False)
        self._assemblers[conn] = FrameAssembler(cache=ArrayCache())
        self._send_caches[conn] = ArrayCache()
        self._unassigned.append(conn)

    def _drop(self, conn: socket.socket) -> None:
        self._assemblers.pop(conn, None)
        self._send_caches.pop(conn, None)
        if conn in self._unassigned:
            self._unassigned.remove(conn)
        if conn is self._clock:
            self._clock = None
        if conn is self._arbiter:
            self._arbiter = None
        try:
            conn.close()
        except OSError:
            pass

    def _assign_role(self, conn: socket.socket, doc: dict) -> None:
        role = doc.get("role")
        if conn in self._unassigned:
            self._unassigned.remove(conn)
        if role == "clock":
            if self._clock is not None:
                self._drop(self._clock)
            self._clock = conn
        elif role == "arbiter":
            if self._arbiter is not None:
                self._drop(self._arbiter)
            self._arbiter = conn
            # The admission handshake: identify ourselves so a pending
            # arbiter-side admit() can carve our lease.
            self._send(
                conn,
                {
                    "type": "hello",
                    "shard": self.shard_id,
                    "n_units": self.cluster.n_units,
                    "min_cap_w": self.cluster.spec.min_cap_w,
                    "max_cap_w": self.cluster.spec.tdp_w,
                },
            )
        else:
            self._drop(conn)

    def _send(
        self,
        conn: socket.socket,
        doc: dict,
        quantized: tuple[str, ...] = (),
    ) -> bool:
        frame = encode_frame(doc, quantized, self._send_caches.get(conn))
        try:
            conn.settimeout(2.0)
            conn.sendall(frame)
            return True
        except OSError:
            self._drop(conn)
            return False
        finally:
            try:
                conn.setblocking(False)
            except OSError:
                pass

    def send_to_arbiter(self, doc: dict) -> bool:
        if self._arbiter is None:
            return False
        return self._send(self._arbiter, doc)

    def _recv_docs(self, conn: socket.socket) -> list[dict] | None:
        """Drain one readable connection; None means it died."""
        assembler = self._assemblers.get(conn)
        if assembler is None:
            return None
        docs: list[dict] = []
        while True:
            try:
                data = conn.recv(65536)
            except (BlockingIOError, InterruptedError):
                return docs
            except OSError:
                data = b""
            try:
                if data:
                    docs.extend(assembler.feed(data))
                    continue
            except FrameError:
                pass
            # EOF, a reset or a torn stream: keep what decoded before it.
            self._drop(conn)
            return docs or None

    # -- the control cycle ---------------------------------------------

    def _persist(self) -> None:
        """Synchronous persist: submit and wait for the write to land."""
        self._persist_async()
        self._writer.join()

    def _persist_async(self) -> None:
        """Snapshot in-cycle, serialize and write off the critical path.

        The snapshot must be taken while the cycle's state is at rest,
        but turning it into JSON and pushing it to disk rides one
        long-lived writer thread: the host spends the tail of every
        cycle blocked in ``select`` waiting for the next demand slice,
        which is exactly when the writer runs.  (A thread *per* persist
        costs more in ``Thread.start`` than the serialization it
        offloads.)  A submit first waits for the write before it, so
        ``state_path`` advances monotonically and a failed write raises
        here, at the latest one persist later.
        """
        self._writer.submit(
            self._write_state,
            {"cluster": self.cluster.snapshot()},
        )

    def _write_state(self, state: dict) -> None:
        _atomic_write(self.state_path, to_json(state, sort_keys=False))

    def _run_cycle(self, doc: dict) -> None:
        step = int(doc["step"])
        ack = self.hosted.run_cycle(
            step,
            np.asarray(doc["demand"], dtype=np.float64),
            doc.get("kill", ()),
            doc.get("reconnect", ()),
        )
        self._step = step
        # Full-cluster snapshots are the dominant per-cycle cost at
        # thousands of units; persist on the checkpoint cadence (the
        # controller's own granularity — resume is never fresher than
        # its checkpoint anyway) plus unconditionally on drain.  The
        # shard-id offset staggers the fleet so snapshots don't convoy
        # on the same cycle of every shard at once.
        if (step + 1 + self.shard_id) % self._persist_every == 0:
            self._persist_async()
        if self._clock is None:
            return
        if self.codec == "binary":
            # Vectorized ack: powers/caps ride as raw array frames —
            # f64 powers bit-exact, caps on the protocol's deci-watt
            # lattice packed as u16.
            self._send(self._clock, ack, quantized=("caps",))
        else:
            ack["power"] = ack["power"].tolist()
            ack["caps"] = ack["caps"].tolist()
            self._send(self._clock, ack)

    def _drain_and_exit(self) -> int:
        """SIGTERM path: freeze, final summary, notify the clock."""
        self.shard.step = self._step + 1
        self.shard.drain()
        self._persist()
        if self._clock is not None:
            self._send(
                self._clock,
                {
                    "type": "drained",
                    "step": self._step,
                    "events": self.hosted.drain_events(),
                },
            )
        self.hosted.stop()
        return 0

    def _hang_forever(self) -> None:
        """Injected hang: stop answering everyone until SIGKILL."""
        while True:  # pragma: no cover - exits only by SIGKILL
            time.sleep(0.1)

    # -- main loop ------------------------------------------------------

    def serve(self, port: int, port_file: str | None) -> int:
        self._install_signals()
        self._listener = bind_listener("127.0.0.1", port)
        self._listener.setblocking(False)
        self._publish_port(port_file)
        self.hosted.start()
        try:
            while True:
                if self._terminate:
                    return self._drain_and_exit()
                conns = [c for c in self._assemblers]
                readable, _, _ = select.select(
                    [self._listener] + conns, [], [], _POLL_S
                )
                # Grants outrank the clock: the fleet sends arbiter
                # traffic before it dispatches the next demand slice, so
                # a grant that became readable in the same select round
                # must be applied before the cycle it funds is run.
                readable.sort(key=lambda s: s is self._clock)
                for sock in readable:
                    if sock is self._listener:
                        self._accept()
                        continue
                    docs = self._recv_docs(sock)
                    if docs is None:
                        continue
                    for doc in docs:
                        verdict = self._handle(sock, doc)
                        if verdict == "stop":
                            return 0
                        if verdict == "hang":
                            self._hang_forever()
        finally:
            self.hosted.stop()
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
            self._writer.join()  # Flush, or raise, the last write.

    def _handle(self, conn: socket.socket, doc: dict) -> str | None:
        kind = doc.get("type")
        if kind == "hello" and conn in self._unassigned:
            self._assign_role(conn, doc)
            return None
        if conn is self._arbiter:
            if kind == "grant":
                self.link.inbox.append(doc)
            return None
        if conn is self._clock:
            if kind == "cycle":
                self._run_cycle(doc)
                return None
            if kind == "hang":
                return "hang"
            if kind == "stop":
                return "stop"
        return None


def add_shard_server_args(parser: argparse.ArgumentParser) -> None:
    """CLI surface of ``dps-repro shard-server``."""
    parser.add_argument(
        "--dir",
        required=True,
        help=f"the shard's directory: {SPEC_FILE}, checkpoints, journal, state",
    )
    parser.add_argument(
        "--port", type=int, default=0, help="listener port (0 = kernel)"
    )
    parser.add_argument(
        "--port-file", default=None, help="publish host:port here atomically"
    )
    parser.add_argument(
        "--resume",
        type=int,
        default=None,
        metavar="STEP",
        help="warm-restart at fleet step STEP from the checkpoint store "
        "and persisted cluster",
    )


def run_shard_server(args: argparse.Namespace) -> int:
    """Entry point behind ``dps-repro shard-server``."""
    directory = Path(args.dir)
    spec = ShardSpec.from_doc(
        json.loads((directory / SPEC_FILE).read_text(encoding="utf-8"))
    )
    host = ShardHost(spec, directory, args.resume)
    return host.serve(args.port, args.port_file)
