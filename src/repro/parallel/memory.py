"""An in-memory fake transport: the remote wire model without sockets.

:class:`InMemoryTransport` runs workers as daemon *threads* inside the
master process, but models the remote transport's frame pipeline
faithfully — per-connection sequence stamping and dedup, an emulated
agent bridge that acks heartbeats independently of the worker, channel
close reasons, and per-direction blackhole flags — so the network-chaos
and liveness machinery (:mod:`repro.parallel.chaos`, heartbeat
monitoring) can be exercised in fast, socket-free unit tests with the
exact schedule a loopback :class:`~repro.parallel.transport.RemoteTransport`
would see.

What is modeled:

- Worker -> master messages are sequence-stamped by the emulated
  bridge; master-side dedup lives on the channel (disable via
  ``set_raw_delivery`` for chaos wrappers), mirroring the agent bridge
  and ``_AgentChannel`` on the remote path.
- Master -> worker frames pass bridge-side dedup before reaching the
  worker's connection, so a duplicated command never runs twice.
- With ``heartbeat_interval`` set, a monitor thread plays the master's
  ping loop: a live, un-partitioned channel acks every interval (the
  bridge acks even while the worker is busy — no false positive on a
  slow worker), and a channel silent past ``interval * misses`` closes
  with reason ``"liveness timeout"``.
- ``set_partition("in"/"out")`` blackholes one direction *below* the
  heartbeat layer — data and acks/pings alike — reproducing a half-open
  link that only liveness monitoring can detect.

Workers run real entry functions (``_process_slave_main``,
``_pool_worker_main``) against a Connection-like object, so digest
parity against the process/remote backends is testable end to end.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.parallel.transport import (
    CLOSE_LIVENESS,
    ChannelEndpoint,
    ChannelTransport,
    FrameSequencer,
)


class _WorkerConn:
    """The worker-thread side of one channel (Connection-like)."""

    def __init__(self, channel: "_MemoryChannel"):
        self._channel = channel
        self._cond = threading.Condition()
        self._items: Deque[object] = deque()
        self._closed = False

    # -- master/bridge side --------------------------------------------------

    def deliver(self, message: object) -> None:
        with self._cond:
            if self._closed:
                return
            self._items.append(message)
            self._cond.notify_all()

    def shut(self) -> None:
        """Close the worker-facing end (EOF on the next recv)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- worker side (the Connection protocol entries use) -------------------

    def send(self, obj: object) -> None:
        self._channel.from_worker(obj)

    def recv(self) -> object:
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if self._items:
                return self._items.popleft()
        raise EOFError("connection closed")

    def poll(self, timeout: Optional[float] = None) -> bool:
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while not self._items and not self._closed:
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        self.shut()
        self._channel.mark_closed()


class _MemoryChannel:
    """Master-side state for one in-memory worker connection.

    The structural twin of ``_AgentChannel``: inbox + closed flag +
    close reason + dedup sequencer under the transport's condition
    variable, plus the emulated bridge (out-stamping of worker sends,
    in-dedup of master commands) and the partition blackhole flags.
    """

    def __init__(self, transport: "InMemoryTransport", worker_id: int,
                 generation: int):
        self.transport = transport
        self.worker_id = worker_id
        self.generation = generation
        self.inbox: Deque[object] = deque()
        self.closed = False
        self.close_reason: Optional[str] = None
        self.dedup = True
        self.sequencer = FrameSequencer()       # master-side in-dedup
        self.bridge_out = FrameSequencer()      # bridge stamps worker sends
        self.bridge_in = FrameSequencer()       # bridge dedups commands
        self.blackhole_in = False
        self.blackhole_out = False
        self.last_ack = time.monotonic()
        self.conn = _WorkerConn(self)
        self.thread: Optional[threading.Thread] = None

    # -- frame pipeline ------------------------------------------------------

    def to_worker(self, frame: object) -> None:
        """One master->worker frame through the emulated bridge."""
        if self.blackhole_out:
            return
        accepted, message = self.bridge_in.accept(frame)
        if not accepted:
            return
        self.conn.deliver(message)

    def from_worker(self, obj: object) -> None:
        """One worker send, bridge-stamped, onto the master inbox."""
        frame = self.bridge_out.stamp(obj)
        if self.blackhole_in:
            return
        self.push(frame)

    def push(self, frame: object) -> None:
        with self.transport._cond:
            if self.closed:
                return
            if self.dedup:
                accepted, message = self.sequencer.accept(frame)
                if not accepted:
                    return
                self.inbox.append(message)
            else:
                self.inbox.append(frame)
            self.transport._cond.notify_all()

    def mark_closed(self, reason: Optional[str] = None) -> None:
        with self.transport._cond:
            if reason is not None and self.close_reason is None:
                self.close_reason = reason
            self.closed = True
            self.transport._cond.notify_all()


class InMemoryEndpoint(ChannelEndpoint):
    """One in-memory worker incarnation (thread behind a fake bridge)."""

    def __init__(self, channel: _MemoryChannel):
        super().__init__(channel, channel.worker_id, channel.generation)

    def send_frame(self, frame: object) -> None:
        if self.channel.closed:
            raise BrokenPipeError(
                f"in-memory worker {self.worker_id} channel is closed"
            )
        self.channel.to_worker(frame)

    def close(self) -> None:
        self.channel.conn.shut()
        self.channel.mark_closed()

    def inject_close(self, reason: Optional[str] = None) -> bool:
        """Tear the channel down as the chaos layer's crash primitive."""
        self.channel.conn.shut()
        self.channel.mark_closed(reason)
        return True

    def describe(self) -> dict:
        return {
            "transport": "memory",
            "worker": self.worker_id,
            "generation": self.generation,
        }


class InMemoryTransport(ChannelTransport):
    """Thread-backed fake of the remote transport's frame pipeline.

    Parameters
    ----------
    heartbeat_interval / heartbeat_misses:
        Same contract as :class:`~repro.parallel.transport.RemoteTransport`:
        when the interval is set, a monitor thread acks every live
        un-partitioned channel each interval and closes a channel
        silent past ``interval * misses`` with reason
        ``"liveness timeout"``.
    """

    kind = "memory"
    elastic = False

    def __init__(
        self,
        heartbeat_interval: Optional[float] = None,
        heartbeat_misses: int = 3,
    ):
        super().__init__()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self._cond = threading.Condition()
        self._channels: List[_MemoryChannel] = []
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.heartbeat_interval is not None and self._monitor is None:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-memory-heartbeat",
                daemon=True,
            )
            self._monitor.start()

    def _monitor_loop(self) -> None:
        """The master's heartbeat loop, played against fake bridges."""
        window = self.heartbeat_interval * self.heartbeat_misses
        while not self._stopping.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._cond:
                channels = [c for c in self._channels if not c.closed]
            for channel in channels:
                if not channel.blackhole_out and not channel.blackhole_in:
                    # Ping delivered and ack returned: the emulated
                    # bridge answers whether or not the worker thread
                    # is busy, exactly like the real agent bridge — so
                    # an ack-capable channel can never time out, even
                    # when this thread's own tick arrives late.
                    channel.last_ack = now
                elif now - channel.last_ack > window:
                    channel.conn.shut()
                    channel.mark_closed(CLOSE_LIVENESS)
                    self._trace(
                        "liveness_timeout",
                        worker=channel.worker_id,
                        generation=channel.generation,
                        silent_for=now - channel.last_ack,
                    )

    # -- Transport surface ---------------------------------------------------

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        self.start()
        channel = _MemoryChannel(self, worker_id, generation)

        def run_worker():
            try:
                entry(channel.conn, *args)
            except EOFError:
                pass
            finally:
                channel.mark_closed()

        thread = threading.Thread(
            target=run_worker,
            name=f"repro-memory-worker-{worker_id}.{generation}",
            daemon=True,
        )
        channel.thread = thread
        with self._cond:
            self._channels.append(channel)
        thread.start()
        self._trace(
            "spawn", backend="memory", worker=worker_id,
            generation=generation,
        )
        return InMemoryEndpoint(channel)

    def capacity(self) -> int:
        # Threads are always spawnable, like forks on the local
        # transport.
        return 1

    def reap(self, endpoint) -> None:
        endpoint.close()
        thread = endpoint.channel.thread
        if thread is not None:
            thread.join(timeout=5.0)

    def shutdown(self, endpoints) -> None:
        for endpoint in endpoints:
            try:
                endpoint.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for endpoint in endpoints:
            thread = endpoint.channel.thread
            if thread is not None:
                thread.join(timeout=10.0)
            endpoint.close()

    def close(self) -> None:
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._cond:
            channels = list(self._channels)
            self._channels.clear()
        for channel in channels:
            channel.conn.shut()
            channel.mark_closed()
