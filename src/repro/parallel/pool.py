"""A persistent, reusable slave pool for multi-experiment orchestration.

The classic master (:mod:`repro.parallel.master`) spawns slaves for
*one* experiment and tears them down when it converges.  A sweep — a
family of tens of experiment points — would pay that full process
spawn cost per point and share nothing.  :class:`WorkerPool` is the
reusable-pool mode: slaves are spawned once and accept successive
``("configure", job_id, payload)`` messages, each building and running
a complete experiment point before reporting its result and waiting for
the next configure — so interpreter start-up, imports, and fork cost
are paid once per *sweep*, not once per *point*.

Scheduling is dynamic (work stealing in the master-queue sense): every
idle worker immediately pulls the next pending point, so a slow point
on one worker never serializes the rest of the grid behind it.  The
result of a point is a pure function of its job payload, so scheduling
order cannot affect results — determinism is preserved by construction.

Workers are reached through a pluggable
:class:`~repro.parallel.transport.Transport`: the default
:class:`~repro.parallel.transport.LocalPipeTransport` forks them on
this host (the historical behavior), while a
:class:`~repro.parallel.transport.RemoteTransport` binds slots offered
by :mod:`repro.parallel.agent` processes on other machines.  Elastic
transports let workers join and leave mid-run: a vacated slot returns
to the join queue instead of permanently degrading the fleet, and new
agents are admitted between drains up to ``n_workers``.

Fault tolerance is the master's: both supervise their workers through
one :class:`~repro.parallel.fleet.Fleet`.  Every recv carries a
deadline, every death gets a machine-readable cause code from
:mod:`repro.parallel.protocol`, and a
:class:`~repro.faults.recovery.RespawnPolicy` replaces the worker under
a fresh generation.  The pool adds its job queue: a dead worker's
in-flight point is requeued (a death costs one point's recompute, not
the sweep).  Respawn backoff never blocks the scheduling loop: a
settled death gets a *due time*, folded into the result-wait timeout,
and only replacements already due are admitted, so healthy workers
keep reporting while a replacement waits out its backoff.  A seeded
:class:`~repro.faults.plan.FaultPlan` injects deterministic failures
for chaos tests; ``round`` in a spec addresses the n-th configure of
one worker incarnation (1-based).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RespawnPolicy, SupervisionPolicy
from repro.parallel.fleet import Fleet
from repro.parallel.protocol import (
    CAUSE_CORRUPT_PAYLOAD,
    CAUSE_PIPE_CLOSED,
    CAUSE_SEND_FAILED,
    CAUSE_WORKER_LEFT,
    ParallelError,
)
from repro.parallel.transport import LocalPipeTransport, Transport


class PoolError(ParallelError):
    """Raised when the pool cannot finish the submitted work."""


class PoolJobError(PoolError):
    """A job raised inside a worker (deterministic; never retried).

    Carries the failing job's id as :attr:`job_id` so a caller
    orchestrating many jobs can tell which one is at fault without
    parsing the message.
    """

    def __init__(self, message: str, job_id: object = None):
        super().__init__(message)
        self.job_id = job_id


# -- worker-side fault execution ----------------------------------------------


def corrupt_result(payload: dict) -> dict:
    """Deterministically mangle a result payload.

    Mirrors the shapes real corruption takes on the wire: the integrity
    digest no longer matches and a required key is truncated away, so
    the master-side validator must catch it before the result is
    accepted (never silently served).
    """
    mangled = dict(payload)
    mangled["point_digest"] = "0" * 32
    mangled.pop("converged", None)
    return mangled


def _pool_worker_main(conn, worker_id, runner, faults=()):
    """One pool slave: configure → run → report, until told to stop."""
    injector = FaultInjector(faults, corrupt=corrupt_result)
    rounds = 0
    while True:
        message = conn.recv()
        if message == "stop":
            conn.close()
            return
        if not (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == "configure"
        ):  # pragma: no cover - protocol guard
            raise PoolError(f"unknown pool command: {message!r}")
        _, job_id, job = message
        rounds += 1
        injector.on_chunk_start(rounds)
        try:
            payload = runner(job)
        except Exception as error:  # simlint: disable=swallow-exception
            # Deliberate boundary: the exception is serialized to the
            # master, which raises PoolJobError with this context.
            conn.send(("error", job_id, f"{type(error).__name__}: {error}"))
            continue
        payload = injector.filter_report(rounds, payload)
        if payload is None:
            continue  # dropped: the master's deadline must catch it
        conn.send(("result", job_id, payload))
        injector.after_send(rounds)


# -- master side --------------------------------------------------------------


@dataclass
class PoolStats:
    """Health accounting for one pool lifetime."""

    n_workers: int = 0
    jobs_completed: int = 0
    jobs_requeued: int = 0
    deaths: int = 0
    restarts: int = 0
    #: Slots bound to newly joined remote agents (elastic transports).
    joins: int = 0
    #: worker id -> cause code for workers left permanently dead.
    failure_causes: Dict[int, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when at least one dead worker was never replaced."""
        return bool(self.failure_causes)


class WorkerPool:
    """A fleet of persistent experiment workers.

    Parameters
    ----------
    runner:
        Module-level (picklable) ``runner(job: dict) -> dict`` executed
        for every configured job inside the worker process.
    n_workers:
        Fleet size (for elastic transports: the cap on concurrently
        bound workers).
    master_seed:
        Seeds the deterministic respawn-backoff jitter.
    job_timeout:
        Per-job report deadline in host seconds; a worker silent past
        it is declared dead (cause ``heartbeat timeout``) and its job
        requeued.  ``None`` disables the deadline.
    respawn:
        :class:`RespawnPolicy` for replacing dead workers, or ``None``
        to shrink the fleet on each death (the sweep still finishes on
        survivors; ``PoolError`` only if every worker dies).  Backoff
        is enforced as a per-worker *due time* folded into the wait
        loop, never as a sleep that stalls healthy workers.
    fault_plan:
        Injected failures for chaos runs; specs address
        ``(worker id, generation, n-th configure)``.
    supervision:
        A :class:`~repro.faults.recovery.SupervisionPolicy` for the
        sweep: a fleet floor (counting live workers, scheduled
        respawns, and — for elastic transports — rejoinable slots) and
        a per-``map`` wall-clock deadline.  The deadline always raises
        :class:`~repro.faults.recovery.SupervisionError` (a partial
        sweep is not a meaningful result); the fleet floor raises under
        ``on_exhausted="abort"`` and presses on with the survivors
        under ``"continue"``.  ``None`` (default) keeps the historical
        behavior: the sweep finishes on any nonzero fleet.
    validate:
        Optional master-side ``validate(job, payload) -> Optional[str]``
        returning a rejection reason; a rejected result condemns the
        worker (cause ``corrupt payload``) and requeues the job.
    tracer:
        Optional :class:`repro.observability.Tracer`; the pool emits
        ``pool/*`` events (spawn, dead, respawn, join, drain).
    context:
        ``multiprocessing`` start method for the default local
        transport (ignored when ``transport`` is given).
    transport:
        Worker dispatch backend; defaults to
        :class:`LocalPipeTransport` on this host.
    join_timeout:
        Elastic transports: how long an empty fleet waits for an agent
        to (re)join before the pool gives up.
    """

    def __init__(
        self,
        runner: Callable[[dict], dict],
        n_workers: int = 4,
        master_seed: int = 0,
        job_timeout: Optional[float] = 600.0,
        respawn: Optional[RespawnPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionPolicy] = None,
        validate: Optional[Callable[[dict, dict], Optional[str]]] = None,
        tracer=None,
        context: str = "fork",
        transport: Optional[Transport] = None,
        join_timeout: float = 30.0,
    ):
        if n_workers < 1:
            raise PoolError(f"need >= 1 worker, got {n_workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise PoolError(
                f"job_timeout must be > 0 or None, got {job_timeout}"
            )
        self.runner = runner
        self.n_workers = n_workers
        self.master_seed = master_seed
        self.job_timeout = job_timeout
        self.respawn = respawn
        self.fault_plan = fault_plan
        self.supervision = supervision
        self.validate = validate
        self.tracer = tracer
        self._owns_transport = transport is None
        self.transport = transport or LocalPipeTransport(context)
        self.join_timeout = join_timeout
        if tracer is not None:
            self.transport.attach_tracer(tracer)
        elastic = self.transport.elastic
        # Over an elastic socket transport an EOF usually means the
        # worker's host agent left the fleet, and its slot goes back
        # to the join queue; fault specs address the n-th configure of
        # one incarnation.
        self._fleet = Fleet(
            self.transport,
            _pool_worker_main,
            self._worker_args,
            master_seed=master_seed,
            respawn=respawn,
            supervision=supervision,
            fault_plan=fault_plan,
            eof_cause=CAUSE_WORKER_LEFT if elastic else CAUSE_PIPE_CLOSED,
            rejoin=elastic,
            floor_counts_pending=True,
            spawn_timeout=0.0,
            trace=self._trace if tracer is not None else None,
        )
        self._started = False
        self._stats = PoolStats(n_workers=n_workers)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _trace(self, name: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.event(name, component="pool", **fields)

    def _worker_args(self, worker_id: int, generation: int, faults) -> tuple:
        return (worker_id, self.runner, faults)

    def start(self) -> None:
        """Bring the fleet up (idempotent).

        Non-elastic transports spawn all ``n_workers`` immediately.
        Elastic transports bind whatever capacity has already
        registered and leave the remaining slots to be admitted as
        agents join — :meth:`map` waits ``join_timeout`` for the first
        worker if none has arrived yet.
        """
        if self._started:
            return
        self.transport.start()
        self._fleet.start(range(self.n_workers))
        self._started = True

    def shutdown(self) -> None:
        """Stop every worker, escalating join → terminate → kill."""
        if not self._started and not self._fleet.workers:
            return
        self._fleet.shutdown()
        if self._owns_transport:
            self.transport.close()
        self._started = False

    @property
    def alive_workers(self) -> List[int]:
        """Worker ids currently accepting configures."""
        return sorted(self._fleet.workers)

    @property
    def stats(self) -> PoolStats:
        """Health accounting, current as of this call."""
        stats, fleet = self._stats, self._fleet
        stats.deaths = fleet.deaths
        stats.restarts = fleet.total_restarts
        stats.joins = fleet.joins
        stats.failure_causes = fleet.lost()
        return stats

    def _lose(self, worker_id: int, cause: str, pending, busy) -> None:
        """Condemn one worker; its in-flight point goes back to the queue.

        A death costs exactly that one point's recompute.
        """
        assignment = busy.pop(worker_id, None)
        if assignment is not None:
            pending.appendleft(assignment[0])
            self._stats.jobs_requeued += 1
        self._fleet.condemn(worker_id, cause)

    # -- the scheduling loop -------------------------------------------------

    def map(self, jobs: List[Tuple[object, dict]]) -> Dict[object, dict]:
        """Run every ``(job_id, payload)`` job; return results by id.

        Idle workers pull pending jobs as soon as they report, so the
        schedule load-balances itself.  Worker deaths requeue their
        in-flight job; a job that *raises* inside a worker surfaces as
        :class:`PoolJobError` immediately (it would fail identically on
        any worker) — after the in-flight work of other workers has
        been drained, so the pool stays reusable.  A raised
        :class:`SupervisionError` leaves in-flight reports undrained:
        call :meth:`shutdown` before reusing the pool.
        """
        self.start()
        fleet = self._fleet
        pending: deque = deque(jobs)
        busy: Dict[int, tuple] = {}  # worker -> ((job_id, payload), deadline)
        results: Dict[object, dict] = {}
        fleet.start_clock()
        while pending or busy:
            # Deaths are decided, and replacement capacity claimed,
            # only *between* drains: the fleet never changes mid-drain.
            fleet.settle()
            fleet.admit()
            fleet.over_deadline(
                True, f"sweep with {self._stats.jobs_completed} job(s) done"
            )
            fleet.check_floor()
            if not fleet.workers:
                if busy:  # pragma: no cover - invariant guard
                    raise PoolError("busy workers without endpoints")
                if not fleet.await_worker(self.join_timeout):
                    raise PoolError(
                        f"every pool worker has died "
                        f"({self.n_workers} started); causes: "
                        f"{fleet.lost()}"
                    )
                continue
            # Feed every idle worker before blocking.
            for worker_id in sorted(fleet.workers):
                if not pending:
                    break
                if worker_id in busy:
                    continue
                job = pending.popleft()
                try:
                    fleet.workers[worker_id].send(
                        ("configure", job[0], job[1])
                    )
                except (BrokenPipeError, OSError) as error:
                    # The job never started, so it goes straight back to
                    # the queue without counting as a requeue.
                    pending.appendleft(job)
                    fleet.condemn(worker_id, f"{CAUSE_SEND_FAILED}: {error}")
                    continue
                deadline = (
                    time.monotonic() + self.job_timeout
                    if self.job_timeout is not None
                    else None
                )
                busy[worker_id] = (job, deadline)
            if not busy:
                continue  # all survivors were condemned while feeding
            fleet.settle()  # deaths while feeding
            # Wake for whichever comes first: a job deadline or a
            # scheduled respawn becoming due.
            received, failed = fleet.collect(
                {w: busy[w][1] for w in sorted(busy)},
                wake=fleet.wake_time(poll_joins=bool(pending)),
            )
            job_error = None
            for worker_id in sorted({**received, **failed}):
                job = busy[worker_id][0]
                if worker_id in failed:
                    self._lose(worker_id, failed[worker_id], pending, busy)
                    continue
                message = received[worker_id]
                tag = message[0] if isinstance(message, tuple) else None
                if tag == "error" and message[1] == job[0]:
                    busy.pop(worker_id)
                    job_error = job_error or (worker_id, message)
                    continue
                if tag != "result" or message[1] != job[0]:
                    self._lose(
                        worker_id,
                        f"{CAUSE_CORRUPT_PAYLOAD}: unexpected message "
                        f"{tag!r}",
                        pending, busy,
                    )
                    continue
                payload = message[2]
                problem = (
                    self.validate(job[1], payload)
                    if self.validate is not None
                    else None
                )
                if problem is not None:
                    self._lose(
                        worker_id,
                        f"{CAUSE_CORRUPT_PAYLOAD}: {problem}",
                        pending, busy,
                    )
                    continue
                busy.pop(worker_id)
                results[job[0]] = payload
                self._stats.jobs_completed += 1
            if job_error is not None:
                # A deterministic job failure.  Absorb every in-flight
                # report first: left unread, a stale result would be
                # read by the next map(), mismatched against its jobs,
                # and condemn a healthy worker as corrupt.
                absorbed, failed = fleet.collect(
                    {w: busy[w][1] for w in sorted(busy)}, every=True
                )
                for worker_id in sorted(failed):
                    self._lose(worker_id, failed[worker_id], pending, busy)
                if absorbed:
                    self._trace("drain", absorbed=len(absorbed))
                worker_id, message = job_error
                raise PoolJobError(
                    f"job {message[1]!r} failed in worker "
                    f"{worker_id}: {message[2]}",
                    job_id=message[1],
                )
        return results
