"""One supervisor for the workers behind a transport.

All the parallel master (:mod:`repro.parallel.master`, Fig. 3) and the
sweep pool (:mod:`repro.parallel.pool`) need from their fleet is N live
workers, each under a unique (id, generation) with that incarnation's
:class:`~repro.faults.plan.FaultPlan` sub-plan.  :class:`Fleet` owns
that job: spawning, collecting reports against per-worker deadlines
with every failure mapped to a cause code, condemning the dead, the
:class:`~repro.faults.recovery.RespawnPolicy` budget and seeded backoff
(kept as *due times*, never sleeps), elastic vacate/join, and the
:class:`~repro.faults.recovery.SupervisionPolicy` floor and deadline.

Where the two clients differ, the difference is an argument: the cause
an EOF maps to, whether a refused slot rejoins, what the floor counts,
whether the deadline always aborts, and how fault specs address rounds
(the worker arguments).  Scheduling stays with the clients: the master
admits respawns by waiting for the latest due time (its round
barrier), the pool admits those already due and keeps collecting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.faults.plan import FaultPlan
from repro.faults.recovery import (
    RespawnPolicy,
    SupervisionError,
    SupervisionPolicy,
    derive_seed,
)
from repro.parallel.protocol import (
    CAUSE_DEADLINE_EXCEEDED,
    CAUSE_FLEET_EXHAUSTED,
    CAUSE_HEARTBEAT_TIMEOUT,
    CAUSE_PIPE_CLOSED,
)
from repro.parallel.transport import (
    FrameError,
    Transport,
    TransportCapacityError,
    WorkerEndpoint,
    disconnect_cause,
)


@dataclass(eq=False)
class Fleet:
    """The workers behind one transport, and their supervision.

    Each worker runs ``entry(conn, *worker_args(id, generation,
    faults))``.  ``eof_cause`` is the cause of a plain disconnect;
    with ``rejoin`` a death the respawn budget refuses returns the slot
    to the join queue (an elastic transport) instead of losing it;
    ``floor_counts_pending`` makes the fleet floor count scheduled
    respawns and joinable slots besides live workers.  ``trace(name,
    **fields)``, when given, receives the fleet's events: spawn, dead,
    respawn, join, slot_vacated, fleet_below_minimum, deadline_stop.
    """

    transport: Transport
    entry: Callable
    worker_args: Callable[[int, int, tuple], tuple]
    master_seed: int = 0
    respawn: Optional[RespawnPolicy] = None
    supervision: Optional[SupervisionPolicy] = None
    fault_plan: Optional[FaultPlan] = None
    eof_cause: str = CAUSE_PIPE_CLOSED
    rejoin: bool = False
    floor_counts_pending: bool = False
    spawn_timeout: Optional[float] = None
    trace: Optional[Callable[..., None]] = None
    # The fleet's state; a resumed run restores the generations,
    # restart counts and causes it checkpointed.
    #: worker id -> live endpoint (one object per incarnation).
    workers: Dict[int, WorkerEndpoint] = field(default_factory=dict)
    #: worker id -> generation of its latest incarnation.
    generation: Dict[int, int] = field(default_factory=dict)
    #: worker id -> respawns admitted for it.
    restarts: Dict[int, int] = field(default_factory=dict)
    total_restarts: int = 0
    deaths: int = 0
    joins: int = 0
    #: worker id -> cause, for every dead worker not yet replaced.
    causes: Dict[int, str] = field(default_factory=dict)
    #: worker id -> (due time, backoff) of each scheduled respawn.
    due: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    #: Slots waiting for an elastic join.
    unbound: Set[int] = field(default_factory=set)
    _clock: float = field(default_factory=time.monotonic, init=False)
    _below_floor: bool = field(default=False, init=False)

    def _event(self, name: str, **fields) -> None:
        if self.trace is not None:
            self.trace(name, **fields)

    # -- spawn / condemn ------------------------------------------------------

    def spawn(self, worker_id: int) -> None:
        """Start ``worker_id``; a dead one comes back a generation on.

        Raises :class:`TransportCapacityError`, changing nothing, when
        the transport has no slot within ``spawn_timeout``.
        """
        generation = self.generation.get(worker_id, 0)
        if worker_id in self.causes:
            generation += 1
        faults = (
            self.fault_plan.for_slave(worker_id, generation)
            if self.fault_plan is not None
            else ()
        )
        self.workers[worker_id] = self.transport.spawn(
            worker_id,
            generation,
            self.entry,
            self.worker_args(worker_id, generation, faults),
            timeout=self.spawn_timeout,
        )
        self.generation[worker_id] = generation
        self.causes.pop(worker_id, None)
        self.due.pop(worker_id, None)
        self.unbound.discard(worker_id)
        self._event("spawn", worker=worker_id, generation=generation)

    def start(self, worker_ids) -> None:
        """Spawn each id, or with ``rejoin`` queue it for a join."""
        if self.rejoin:
            self.unbound.update(worker_ids)
            self.admit()
            return
        for worker_id in worker_ids:
            self.spawn(worker_id)

    def condemn(self, worker_id: int, cause: str) -> None:
        """Drop one worker; the next :meth:`settle` decides its fate."""
        self.deaths += 1
        endpoint = self.workers.pop(worker_id)
        endpoint.close()
        self.transport.reap(endpoint)
        self.causes[worker_id] = cause
        self._event(
            "dead", worker=worker_id, cause=cause,
            generation=self.generation[worker_id],
        )

    def lost(self) -> Dict[int, str]:
        """Cause per dead worker that is neither scheduled nor joinable."""
        return {
            worker_id: cause
            for worker_id, cause in self.causes.items()
            if worker_id not in self.due and worker_id not in self.unbound
        }

    def shutdown(self) -> None:
        """Stop every live worker; scheduled respawns stay scheduled."""
        self.transport.shutdown(
            [self.workers[i] for i in sorted(self.workers)]
        )
        self.workers.clear()

    # -- collect ----------------------------------------------------------------

    def collect(
        self,
        deadlines: Dict[int, Optional[float]],
        wake: Optional[float] = None,
        every: bool = False,
    ) -> Tuple[Dict[int, object], Dict[int, str]]:
        """Wait on every worker in ``deadlines`` (id -> deadline) at once.

        Waiting on all of them together means one hung worker never
        eats the others' time.  Returns ``(received, failed)``: id ->
        message, and id -> cause for each failed recv or passed
        deadline — after one wait, which ends by the earliest deadline
        or ``wake``, or with ``every`` once each worker has one or the
        other.
        """
        received: Dict[int, object] = {}
        failed: Dict[int, str] = {}
        waiting = dict(deadlines)
        while waiting:
            wakes = [d for d in (*waiting.values(), wake) if d is not None]
            horizon = min(wakes) if wakes else None
            ready = self.transport.wait(
                [self.workers[i] for i in sorted(waiting)],
                timeout=(
                    None if horizon is None
                    else max(0.0, horizon - time.monotonic())
                ),
            )
            if not ready and horizon is not None:
                # Nothing by the horizon: every worker it reached hung.
                horizon = max(horizon, time.monotonic())
                for worker_id in sorted(waiting):
                    deadline = waiting[worker_id]
                    if deadline is not None and deadline <= horizon:
                        failed[worker_id] = CAUSE_HEARTBEAT_TIMEOUT
            for endpoint in ready:
                # Dispatch by endpoint identity: a stale or duplicate
                # readiness signal (a condemned worker's old endpoint,
                # one nobody asked about) simply skips.
                worker_id = endpoint.worker_id
                if (
                    worker_id not in waiting
                    or self.workers.get(worker_id) is not endpoint
                    or worker_id in received
                    or worker_id in failed
                ):
                    continue
                try:
                    received[worker_id] = endpoint.recv()
                except (
                    FrameError, EOFError, ConnectionResetError,
                    BrokenPipeError, OSError,
                ) as error:
                    failed[worker_id] = disconnect_cause(
                        error, self.eof_cause
                    )
            if not every:
                break
            for worker_id in (*received, *failed):
                waiting.pop(worker_id, None)
        return received, failed

    # -- respawn ----------------------------------------------------------------

    def settle(self) -> None:
        """Give every undecided death a respawn due time, a vacated
        slot, or nothing (lost).

        Dead ids go in sorted order, and the run-total budget counts
        the respawns scheduled but not yet admitted.  A refused death
        stays refused: both budgets only ever grow.
        """
        now = time.monotonic()
        for worker_id in sorted(self.causes):
            if worker_id in self.due or worker_id in self.unbound:
                continue
            if self.respawn is not None and self.respawn.allows(
                self.restarts.get(worker_id, 0),
                self.total_restarts + len(self.due),
            ):
                generation = self.generation[worker_id] + 1
                delay = self.respawn.delay(
                    generation,
                    jitter_seed=derive_seed(
                        self.master_seed, worker_id, generation
                    ),
                )
                self.due[worker_id] = (now + delay, delay)
            elif self.rejoin:
                self.unbound.add(worker_id)
                self._event(
                    "slot_vacated", worker=worker_id,
                    cause=self.causes[worker_id],
                )

    def wait_until(self, when: float) -> None:
        """Let the clock reach ``when`` (at once on in-process fleets)."""
        delay = when - time.monotonic()
        if delay > 0.0:
            # An empty wait sleeps out its timeout on a real transport.
            self.transport.wait([], timeout=delay)

    def wake_time(self, poll_joins: bool) -> Optional[float]:
        """The next future due time; with ``poll_joins`` an elastic
        fleet short of workers also wakes every half second to look
        for newly joined agents."""
        now = time.monotonic()
        future = [due for due, _ in self.due.values() if due > now]
        wake = min(future, default=None)
        if poll_joins and self.transport.elastic and (
            self.unbound or len(future) < len(self.due)
        ):
            wake = now + 0.5 if wake is None else min(wake, now + 0.5)
        return wake

    def admit(self, until: Optional[float] = None) -> None:
        """Spawn the respawns due by ``until`` (default now), then bind
        joined slots.

        A respawn with no transport slot stays scheduled for a retry.
        """
        until = time.monotonic() if until is None else until
        for worker_id in sorted(self.due):
            due, backoff = self.due[worker_id]
            if due > until:
                continue
            try:
                self.spawn(worker_id)
            except TransportCapacityError:
                continue
            self.restarts[worker_id] = self.restarts.get(worker_id, 0) + 1
            self.total_restarts += 1
            self._event(
                "respawn", worker=worker_id,
                generation=self.generation[worker_id], backoff=backoff,
            )
        while self.unbound and self.transport.capacity() > 0:
            worker_id = min(self.unbound)
            try:
                self.spawn(worker_id)
            except TransportCapacityError:
                break  # lost the race with another claimant
            self.joins += 1
            self._event(
                "join", worker=worker_id,
                generation=self.generation[worker_id],
            )

    def await_worker(self, join_timeout: float) -> bool:
        """Block until an empty fleet could hold a worker again; False
        when none can arrive (nothing scheduled or joinable, or no
        agent joined within ``join_timeout``)."""
        if self.due:
            earliest = min(due for due, _ in self.due.values())
            if earliest > time.monotonic():
                # The fleet is empty: waiting stalls nobody.
                self.wait_until(earliest)
                return True
        elif not self.unbound:
            return False
        return (
            self.transport.capacity() > 0
            or self.transport.wait_for_capacity(join_timeout)
        )

    # -- supervision --------------------------------------------------------------

    def start_clock(self) -> None:
        """Start the supervision deadline's clock."""
        self._clock = time.monotonic()

    def over_deadline(self, always_abort: bool, what: str) -> bool:
        """Whether the supervision deadline has passed.

        Past it, raises :class:`SupervisionError` naming ``what`` when
        ``always_abort`` or the policy aborts; otherwise traces
        ``deadline_stop`` and returns True so the caller stops cleanly.
        """
        policy = self.supervision
        if policy is None or policy.deadline is None:
            return False
        elapsed = time.monotonic() - self._clock
        if elapsed <= policy.deadline:
            return False
        if always_abort or policy.on_exhausted == "abort":
            raise SupervisionError(
                f"{what} exceeded its deadline ({elapsed:.1f}s > "
                f"{policy.deadline:.1f}s)",
                cause=CAUSE_DEADLINE_EXCEEDED,
            )
        self._event("deadline_stop", elapsed=elapsed, deadline=policy.deadline)
        return True

    def check_floor(self) -> None:
        """Abort (typed) when the settled fleet is below the floor, or
        under ``"continue"`` trace ``fleet_below_minimum`` on each drop
        below it."""
        policy = self.supervision
        if policy is None:
            return
        effective = len(self.workers)
        if self.floor_counts_pending:
            effective += len(self.due) + len(self.unbound)
        if policy.fleet_ok(effective):
            self._below_floor = False
            return
        if policy.on_exhausted == "abort":
            raise SupervisionError(
                f"fleet fell to {effective} worker(s), below "
                f"min_workers={policy.min_workers}; causes: {self.lost()}",
                cause=CAUSE_FLEET_EXHAUSTED,
            )
        if not self._below_floor:
            self._below_floor = True
            self._event(
                "fleet_below_minimum", effective=effective,
                min_workers=policy.min_workers,
            )
