"""The parallel master: one round loop over pluggable slave transports.

Protocol (Fig. 3):

1. master runs warm-up + calibration of a serial instance, fixing the
   histogram bin scheme per metric;
2. the bin schemes are broadcast; every slave builds its *own* replica of
   the experiment under a unique seed and runs its own warm-up +
   calibration (lag only — the scheme is imposed);
3. slaves measure in chunks, reporting bin-count *deltas* since their
   previous report (or full histograms with ``delta_reports=False``);
4. the master folds each delta into persistent merged histograms and
   signals stop as soon as the merged (aggregate) sample satisfies
   Eqs. 2-3;
5. final estimates are read off the merged histograms.

Chunk sizes grow geometrically per round (``adaptive_chunking``): early
rounds stay small so convergence is detected promptly on easy targets,
later rounds amortize the report/merge overhead on hard ones.  The
master computes the schedule, so every backend sees identical
per-round chunk sizes and produces identical merged counts.

Every backend runs the same round loop over a
:class:`~repro.parallel.transport.Transport`.  ``serial`` is an
in-process transport: each slave is a :class:`_SlaveSession` that the
master steps synchronously inside ``send``, with no thread or process;
``process`` forks one OS process per slave running the same session
behind a pipe loop; ``remote`` binds slots on agent hosts.

**Fault tolerance** (see docs/robustness.md).  The master treats slave
death as an input, not an exception.  Its slaves are a
:class:`~repro.parallel.fleet.Fleet`, the supervisor it shares with
the sweep pool: every recv carries a per-round deadline (a hung slave
can no longer stall a round), every death gets a machine-readable
cause code, and — with a :class:`~repro.faults.recovery.RespawnPolicy`
— each death the budget allows gets a respawn due time.  After the
round is merged the master waits once for the latest due time (the
round barrier, so concurrent backoffs overlap) and spawns every
replacement under a fresh generation-aware seed; a replacement
*re-accumulates* the dead slave's unreported quota, so a recovered run
converges ``degraded=False``.  Deaths never erase merged history:
everything a slave reported in earlier rounds stays valid.  Periodic
checkpoints (:mod:`repro.faults.checkpoint`) record the merged state
plus each slave's work log; ``run(resume_from=...)`` rebuilds slaves
by replaying those logs, bit-for-bit.  A seeded
:class:`~repro.faults.plan.FaultPlan` injects deterministic failures
for chaos testing on every backend.

The experiment ``factory`` must be a callable ``factory(seed, **kwargs)
-> Experiment`` that declares the same metrics every time.  For the
``process`` backend it must be picklable (a module-level function).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.convergence import is_converged, summarize_histogram
from repro.core.histogram import Histogram
from repro.core.statistic import Estimate, Phase
from repro.engine.experiment import Experiment
from repro.faults.checkpoint import (
    CheckpointError,
    CheckpointState,
    SlaveCheckpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.faults.injector import FaultInjector, InjectedFailure
from repro.faults.plan import FaultPlan
from repro.faults.recovery import (
    RespawnPolicy,
    SeedLineage,
    SupervisionError,
    SupervisionPolicy,
    derive_seed,
)
from repro.parallel.fleet import Fleet
from repro.parallel.protocol import (
    CAUSE_CORRUPT_PAYLOAD,
    CAUSE_FLEET_EXHAUSTED,
    CAUSE_INJECTED,
    CAUSE_SEND_FAILED,
    DeltaTracker,
    MetricTargets,
    ParallelError,
    SlaveReport,
    payload_digest,
    scheme_from_payload,
    scheme_payload,
    validate_report_payload,
)
from repro.parallel.transport import (
    LocalPipeTransport,
    Transport,
    WorkerDeath,
    WorkerEndpoint,
)


def slave_seed(master_seed: int, slave_id: int, generation: int = 0) -> int:
    """Deterministic, distinct seed for each slave incarnation.

    Generation 0 (the original fleet) reproduces the historical
    unique-seed rule bit-for-bit; respawned replacements mix the
    generation along an independent stride so a replacement never
    replays its dead predecessor's stream (which would double-count the
    partial draws already merged from it).  Uniqueness across a run is
    enforced by :class:`~repro.faults.recovery.SeedLineage`.
    """
    return derive_seed(master_seed, slave_id, generation)


def build_slave_experiment(
    factory: Callable[..., Experiment],
    factory_kwargs: dict,
    seed: int,
    schemes: Dict[str, tuple],
) -> Experiment:
    """Instantiate a slave replica with the master's bin schemes imposed."""
    experiment = factory(seed=seed, **factory_kwargs)
    for name, payload in schemes.items():
        if name not in experiment.stats:
            raise ParallelError(
                f"factory did not declare metric {name!r} for seed {seed}"
            )
        experiment.stats[name].fixed_scheme = scheme_from_payload(payload)
    return experiment


class _SlaveSession:
    """One slave incarnation's state, whatever carries its messages.

    Holds the replica experiment (bin schemes imposed), its
    :class:`DeltaTracker`, its :class:`FaultInjector` and — on resume —
    the ``baseline`` report of its replayed work log, which the master
    validates and discards.  ``faults`` is this incarnation's picklable
    fault sub-plan; ``round_offset`` maps local chunk numbering onto
    master rounds so fault specs address the same round on every
    backend.  ``in_process`` selects the injector mode that raises
    instead of exiting (see :mod:`repro.faults.injector`).
    """

    def __init__(
        self,
        factory,
        factory_kwargs,
        seed,
        schemes,
        max_events_per_chunk,
        slave_id,
        delta_reports,
        faults=(),
        replay=(),
        round_offset=0,
        in_process=False,
    ):
        self.experiment = build_slave_experiment(
            factory, factory_kwargs, seed, schemes
        )
        self.max_events_per_chunk = max_events_per_chunk
        self.slave_id = slave_id
        self.tracker = DeltaTracker() if delta_reports else None
        self.injector = FaultInjector(faults, raise_instead=in_process)
        self.round_number = round_offset
        #: In-process mode: this round's injected hang delay, else None.
        self.hang: Optional[float] = None
        self.baseline: Optional[SlaveReport] = None
        if replay:
            self.experiment.replay_chunks(
                replay, max_events=max_events_per_chunk
            )
            self.baseline = self.report()

    def report(self) -> SlaveReport:
        experiment = self.experiment
        histograms = {}
        lags = {}
        for statistic in experiment.stats:
            if statistic.histogram is not None:
                histograms[statistic.name] = statistic.histogram.to_payload()
            lags[statistic.name] = statistic.lag
        delta = self.tracker is not None
        if delta:
            histograms = self.tracker.delta_histograms(histograms)
        probe = experiment.simulation.probe
        return SlaveReport(
            slave_id=self.slave_id,
            histograms=histograms,
            events_processed=experiment.simulation.events_processed,
            sim_time=experiment.simulation.now,
            total_accepted=experiment.stats.total_accepted,
            lags=lags,
            delta=delta,
            digest=probe.snapshot() if probe is not None else None,
        )

    def step(self, quota: int) -> Optional[SlaveReport]:
        """Measure one commanded chunk; the report to send, or None."""
        self.round_number += 1
        self.hang = None  # stays None when the round dies before a hang
        self.hang = self.injector.on_chunk_start(self.round_number)
        self.experiment.run_until_accepted(
            quota, max_events=self.max_events_per_chunk
        )
        return self.injector.filter_report(self.round_number, self.report())

    def after_send(self) -> None:
        self.injector.after_send(self.round_number)


def _process_slave_main(conn, *args):
    """Entry point of one slave process: a pipe loop around a session.

    ``args`` are :class:`_SlaveSession`'s.  Commands arrive as
    ``("chunk", size)`` tuples (the master owns the chunk schedule) or
    the string ``"stop"``.
    """
    session = _SlaveSession(*args)
    if session.baseline is not None:
        conn.send(session.baseline)
    while True:
        command = conn.recv()
        if command == "stop":
            conn.close()
            return
        if not (
            isinstance(command, tuple)
            and len(command) == 2
            and command[0] == "chunk"
        ):  # pragma: no cover - protocol guard
            raise ParallelError(f"unknown command: {command!r}")
        report = session.step(command[1])
        # A dropped report skips after_send: there was no send for a
        # post_report kill to follow.  FaultPlan rejects plans pairing
        # drop_report with a post_report kill on one slot, so the two
        # backends cannot diverge here (in-process raises on the drop).
        if report is not None:
            conn.send(report)
            session.after_send()


class _InProcessEndpoint(WorkerEndpoint):
    """A slave session the master drives itself: no thread, no process.

    ``send`` runs the commanded chunk on the spot and queues its report.
    An injected death is kept as the cause :meth:`recv` raises, and an
    injected hang withholds the round's report from any wait it
    outlasts, so the master sees the same deaths and heartbeat timeouts
    a process slave would give it.
    """

    def __init__(self, worker_id, generation, session: _SlaveSession):
        self.worker_id = worker_id
        self.generation = generation
        self.session = session
        self.inbox = deque()
        if session.baseline is not None:
            self.inbox.append(session.baseline)
        self.cause: Optional[str] = None

    def send(self, message: object) -> None:
        # The master's only message to an in-process slave is a chunk
        # command: shutdown never sends "stop" through this transport.
        try:
            self.inbox.append(self.session.step(message[1]))
            self.session.after_send()
        except InjectedFailure as failure:
            self.cause = f"{CAUSE_INJECTED}: {failure.spec.kind}"

    def recv(self) -> object:
        if self.inbox:
            return self.inbox.popleft()
        raise WorkerDeath(f"slave {self.worker_id} died", self.cause)

    def poll(self, timeout: Optional[float] = None) -> bool:
        hang = self.session.hang
        if hang is not None and timeout is not None and hang >= timeout:
            return False
        return bool(self.inbox) or self.cause is not None

    def close(self) -> None:
        pass


class _InProcessTransport(Transport):
    """The ``serial`` backend: every slave is a session in the master.

    ``spawn`` builds the :class:`_SlaveSession` that ``entry`` (the
    process backends' pipe loop) would build, and :meth:`wait` never
    blocks: each report exists by the time the master waits for it.
    """

    kind = "inprocess"

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        session = _SlaveSession(*args, in_process=True)
        return _InProcessEndpoint(worker_id, generation, session)

    def wait(self, endpoints, timeout=None):
        return [endpoint for endpoint in endpoints if endpoint.poll(timeout)]

    def shutdown(self, endpoints) -> None:
        pass


@dataclass
class ParallelResult:
    """Outcome of a distributed simulation."""

    estimates: Dict[str, Estimate]
    converged: bool
    n_slaves: int
    rounds: int
    master_events: int
    slave_events: List[int]
    total_accepted: int
    wall_time: float
    master_wall_time: float
    extras: Dict[str, float] = field(default_factory=dict)
    #: Per-slave cumulative determinism digests (from the final round's
    #: reports) when slaves ran sanitized, else None.  Comparable across
    #: backends: the master owns the chunk schedule, so slave ``i``
    #: replays the same stream serial or process-parallel.
    slave_digests: Optional[List] = None
    #: True when one or more slaves died and were *not* replaced (no
    #: respawn policy, or its budget ran out).  A degraded result is
    #: statistically valid (every merged observation is real) but
    #: covers fewer independent replicas than requested.  A run whose
    #: every death was recovered by respawn is NOT degraded.
    degraded: bool = False
    #: Slave ids left permanently dead (empty when healthy/recovered).
    dead_slaves: List[int] = field(default_factory=list)
    #: Machine-readable cause code per permanently dead slave
    #: (see the CAUSE_* constants in repro.parallel.protocol).
    failure_causes: Dict[int, str] = field(default_factory=dict)
    #: Respawns performed across the run (0 for a healthy run).
    restarts: int = 0
    #: Final merged-histogram digests per metric: the byte-identity
    #: fingerprint used by the checkpoint/resume determinism contract.
    merged_digests: Dict[str, str] = field(default_factory=dict)
    #: True when this run was restored from a checkpoint.
    resumed: bool = False
    #: repro.observability.ExperimentTelemetry when telemetry was
    #: collected (tracer attached), else None.
    telemetry: Optional[object] = None

    def __getitem__(self, name: str) -> Estimate:
        return self.estimates[name]

    @property
    def total_events(self) -> int:
        """Events simulated across master + all slaves."""
        return self.master_events + sum(self.slave_events)


class _RunBook:
    """Recovery bookkeeping for the round loop.

    Tracks, per slave id: the seed lineage, its work log (chunk quotas
    completed *and merged*), the quota it was commanded but never
    reported (owed to a replacement), and cumulative event/accepted
    accounting across incarnations.  Generations, restart counts and
    death causes are the :class:`~repro.parallel.fleet.Fleet`'s; the
    checkpoint writer serializes both and the resume path restores
    both.
    """

    def __init__(self, n_slaves: int, master_seed: int):
        self.lineage = SeedLineage(master_seed)
        self.work_log: Dict[int, List[int]] = {i: [] for i in range(n_slaves)}
        self.owed = dict.fromkeys(range(n_slaves), 0)
        #: Current-incarnation progress (absolute counters from reports).
        self.events = dict.fromkeys(range(n_slaves), 0)
        self.accepted = dict.fromkeys(range(n_slaves), 0)
        #: Accounting inherited from dead predecessor incarnations.
        self.prior_events = dict.fromkeys(range(n_slaves), 0)
        self.prior_accepted = dict.fromkeys(range(n_slaves), 0)

    @classmethod
    def from_checkpoint(cls, state: CheckpointState) -> "_RunBook":
        book = cls(state.n_slaves, state.master_seed)
        # Re-issue the recorded lineage so post-resume respawns keep the
        # uniqueness guarantee against pre-interruption seeds.
        for _seed, slave_id, generation in state.lineage:
            if slave_id >= 0:
                book.lineage.issue(slave_id, generation)
        for slave in state.slaves:
            i = slave.slave_id
            book.work_log[i] = list(slave.chunks)
            book.owed[i] = slave.owed
            book.events[i] = slave.events_processed
            book.accepted[i] = slave.total_accepted
            book.prior_events[i] = slave.prior_events
            book.prior_accepted[i] = slave.prior_accepted
        return book

    # -- per-round transitions ----------------------------------------------

    def command_quota(self, slave_id: int, chunk: int) -> int:
        """This round's quota: the schedule chunk plus any owed backlog."""
        return chunk + self.owed.get(slave_id, 0)

    def on_reported(self, slave_id: int, quota: int, report) -> None:
        """A report for ``quota`` arrived and was merged."""
        self.work_log[slave_id].append(quota)
        self.owed[slave_id] = 0
        self.events[slave_id] = report.events_processed
        self.accepted[slave_id] = report.total_accepted

    def retire(self, slave_id: int) -> None:
        """A replacement is about to spawn: start its books afresh."""
        self.prior_events[slave_id] += self.events[slave_id]
        self.prior_accepted[slave_id] += self.accepted[slave_id]
        self.events[slave_id] = 0
        self.accepted[slave_id] = 0
        self.work_log[slave_id] = []

    # -- result accounting ---------------------------------------------------

    def events_total(self, slave_id: int) -> int:
        return self.prior_events[slave_id] + self.events[slave_id]

    def accepted_total(self, slave_id: int) -> int:
        return self.prior_accepted[slave_id] + self.accepted[slave_id]


class ParallelSimulation:
    """Master orchestration of a distributed BigHouse run.

    Parameters
    ----------
    factory:
        ``factory(seed, **factory_kwargs) -> Experiment``; must declare
        identical metrics on every call.
    n_slaves:
        Number of measurement replicas.
    backend:
        ``"serial"`` (slaves stepped in-process by the master; no
        thread or process is started), ``"process"`` (one OS process
        per slave on this host), or
        ``"remote"`` (slaves hosted by :mod:`repro.parallel.agent`
        processes over a :class:`~repro.parallel.transport.RemoteTransport`;
        requires ``transport``).  All backends run the identical
        master schedule, so merged digests are bit-identical.
    chunk_size:
        Accepted observations per slave in the first round between
        merges (rounds grow geometrically under ``adaptive_chunking``).
    max_rounds:
        Safety bound on measure/merge rounds.
    delta_reports:
        When True (default) slaves ship per-round histogram deltas and
        the master accumulates incrementally; False restores full-state
        reports (the A/B configuration — final estimates agree to float
        tolerance either way).
    adaptive_chunking:
        When True (default) the per-round chunk doubles each round up to
        ``max_chunk_size``; False keeps every round at ``chunk_size``.
    max_chunk_size:
        Cap for adaptive growth; defaults to ``16 * chunk_size``.
    round_timeout:
        Per-round recv deadline in host seconds.  A slave that produces
        no report within the deadline (an injected ``hang`` on the
        serial backend) is marked
        dead with cause ``"heartbeat timeout"`` instead of stalling the
        round forever.  ``None`` disables the deadline (the historical
        blocking behavior).
    respawn:
        A :class:`~repro.faults.recovery.RespawnPolicy` enabling
        automatic replacement of dead slaves, or ``None`` (default) to
        keep the detect-and-degrade behavior.
    supervision:
        A :class:`~repro.faults.recovery.SupervisionPolicy` governing
        the run's fate as the fleet shrinks: a fleet floor
        (``min_workers``), a degradation threshold (``degrade_below``),
        and a measurement-phase wall-clock ``deadline``.  Violations
        raise :class:`~repro.faults.recovery.SupervisionError` with a
        machine-readable cause, or — with ``on_exhausted="continue"``
        — let the run finish ``degraded=True`` with whatever survives.
        ``None`` (default) keeps the historical behavior: run until
        every slave is dead, flag any unreplaced death degraded.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` of injected failures
        for chaos runs, or ``None``.
    checkpoint_path / checkpoint_interval:
        When ``checkpoint_path`` is set, an atomic resumable snapshot
        is written there every ``checkpoint_interval`` rounds; restore
        with ``run(resume_from=checkpoint_path)``.
    transport:
        Worker dispatch backend for the process/remote backends (the
        serial backend always uses its in-process transport).
        Defaults to a fresh :class:`LocalPipeTransport` per run for
        ``"process"``; required for ``"remote"``.  A caller-provided
        transport is never closed by the run — its owner closes it.
    join_timeout:
        Remote backend: how long to wait for an agent slot when
        spawning or respawning a slave.
    """

    def __init__(
        self,
        factory: Callable[..., Experiment],
        factory_kwargs: Optional[dict] = None,
        n_slaves: int = 4,
        master_seed: int = 0,
        chunk_size: int = 2000,
        backend: str = "serial",
        max_rounds: int = 10_000,
        max_events_per_chunk: int = 10_000_000,
        delta_reports: bool = True,
        adaptive_chunking: bool = True,
        max_chunk_size: Optional[int] = None,
        round_timeout: Optional[float] = 600.0,
        respawn: Optional[RespawnPolicy] = None,
        supervision: Optional[SupervisionPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_path=None,
        checkpoint_interval: int = 1,
        transport: Optional[Transport] = None,
        join_timeout: float = 30.0,
    ):
        if n_slaves < 1:
            raise ParallelError(f"need >= 1 slave, got {n_slaves}")
        if chunk_size < 1:
            raise ParallelError(f"chunk_size must be >= 1, got {chunk_size}")
        if backend not in ("serial", "process", "remote"):
            raise ParallelError(f"unknown backend {backend!r}")
        if backend == "remote" and transport is None:
            raise ParallelError(
                "backend 'remote' needs a transport (a RemoteTransport "
                "listening for repro agents)"
            )
        if max_chunk_size is not None and max_chunk_size < chunk_size:
            raise ParallelError(
                f"max_chunk_size ({max_chunk_size}) must be >= "
                f"chunk_size ({chunk_size})"
            )
        if round_timeout is not None and round_timeout <= 0:
            raise ParallelError(
                f"round_timeout must be > 0 or None, got {round_timeout}"
            )
        if checkpoint_interval < 1:
            raise ParallelError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.factory = factory
        self.factory_kwargs = dict(factory_kwargs or {})
        self.n_slaves = n_slaves
        self.master_seed = master_seed
        self.chunk_size = chunk_size
        self.backend = backend
        self.max_rounds = max_rounds
        self.max_events_per_chunk = max_events_per_chunk
        self.delta_reports = delta_reports
        self.adaptive_chunking = adaptive_chunking
        self.max_chunk_size = (
            max_chunk_size if max_chunk_size is not None else 16 * chunk_size
        )
        self.round_timeout = round_timeout
        self.respawn = respawn
        self.supervision = supervision
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.transport = transport
        self.join_timeout = join_timeout
        self._tracer = None
        self._progress = None
        self._master_events = 0

    # -- observability ---------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.observability.Tracer` to the master.

        The master emits ``master/*`` records (merge spans when the
        tracer carries a host clock, round counters, dead-slave /
        respawn / checkpoint events) and ``slave/*`` report events.
        The calibration experiment also inherits the tracer, so a
        traced parallel run covers engine, statistic, master, and slave
        components.  The parallel layer is the boundary: host-clock use
        is legitimate here.
        """
        self._tracer = tracer

    def attach_progress(self, reporter) -> None:
        """Attach a ProgressReporter; it renders per-round convergence."""
        self._progress = reporter

    def _trace_round(self, round_number: int, reports: List[SlaveReport]) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        for report in reports:
            tracer.event(
                "report",
                component="slave",
                sim_time=report.sim_time,
                slave=report.slave_id,
                round=round_number,
                events=report.events_processed,
                accepted=report.total_accepted,
            )

    def _trace_event(self, name: str, component: str = "master", **fields) -> None:
        if self._tracer is not None:
            self._tracer.event(name, component=component, **fields)

    def _trace_scheduled_faults(self, round_number: int) -> None:
        """Emit the plan's entries for this round (chaos audit trail)."""
        if self.fault_plan is None or self._tracer is None:
            return
        for spec in self.fault_plan.at_round(round_number):
            self._trace_event(
                "fault_scheduled",
                component="faults",
                slave=spec.slave_id,
                round=spec.round,
                kind=spec.kind,
                generation=spec.generation,
                phase=spec.phase,
            )

    def _merge_round(self, merged, reports, schemes, round_number: int):
        """One reduce step, traced as a ``master/merge`` span when possible."""
        tracer = self._tracer

        def reduce():
            if self.delta_reports:
                self._accumulate_reports(merged, reports)
                return merged
            return self._merge_reports(reports, schemes)

        if tracer is not None and tracer.has_clock:
            with tracer.span(
                "merge", component="master",
                round=round_number, reports=len(reports),
            ):
                return reduce()
        return reduce()

    def _round_chunk(self, round_number: int) -> int:
        """Accepted-observation quota per slave for one round (1-based).

        Geometric growth capped at ``max_chunk_size``; computed by the
        master so every backend follows the identical schedule.
        """
        if not self.adaptive_chunking:
            return self.chunk_size
        grown = self.chunk_size << min(round_number - 1, 60)
        return min(grown, self.max_chunk_size)

    # -- master steps ----------------------------------------------------------

    def _calibrate_master(self):
        master = self.factory(seed=self.master_seed, **self.factory_kwargs)
        if self._tracer is not None:
            master.attach_tracer(self._tracer)
        master.run_until_calibrated()
        for statistic in master.stats:
            if statistic.phase not in (Phase.MEASUREMENT, Phase.CONVERGED):
                raise ParallelError(
                    f"master failed to calibrate metric {statistic.name!r} "
                    f"(stuck in {statistic.phase.value})"
                )
        schemes = {
            statistic.name: scheme_payload(statistic.histogram.scheme)
            for statistic in master.stats
        }
        targets = {
            statistic.name: MetricTargets.from_statistic(statistic)
            for statistic in master.stats
        }
        return master, schemes, targets

    @staticmethod
    def _merge_reports(
        reports: List[SlaveReport], schemes: Dict[str, tuple]
    ) -> Dict[str, Histogram]:
        """Full re-merge from full-state reports (delta_reports=False)."""
        merged: Dict[str, Histogram] = {}
        for name, payload in schemes.items():
            merged[name] = Histogram(scheme_from_payload(payload))
        for report in reports:
            for name in schemes:
                if name in report.histograms:
                    merged[name].merge(report.histogram(name))
        return merged

    @staticmethod
    def _accumulate_reports(
        merged: Dict[str, Histogram], reports: List[SlaveReport]
    ) -> None:
        """Incremental reduce: fold one round of delta reports in place."""
        for report in reports:
            for name, payload in report.histograms.items():
                merged[name].merge_payload(payload)

    @staticmethod
    def _all_converged(
        merged: Dict[str, Histogram], targets: Dict[str, MetricTargets]
    ) -> bool:
        return all(
            is_converged(
                merged[name],
                target.mean_accuracy,
                target.quantile_dict,
                target.confidence,
                target.min_accepted,
            )
            for name, target in targets.items()
        )

    @staticmethod
    def _estimates(
        merged: Dict[str, Histogram],
        targets: Dict[str, MetricTargets],
        converged: bool,
    ) -> Dict[str, Estimate]:
        estimates = {}
        for name, target in targets.items():
            histogram = merged[name]
            estimate = Estimate(
                name=name,
                phase=Phase.CONVERGED if converged else Phase.MEASUREMENT,
                converged=converged,
                lag=None,
                accepted=histogram.count,
                observed=histogram.count,
            )
            if histogram.count:
                (
                    estimate.mean,
                    estimate.std,
                    estimate.quantiles,
                    estimate.mean_ci,
                    estimate.quantile_ci,
                ) = summarize_histogram(
                    histogram, target.quantile_dict, target.confidence
                )
            estimates[name] = estimate
        return estimates

    # -- report validation / fault handling -------------------------------------

    def _report_problem(
        self, report, slave_id: int, schemes: Dict[str, tuple]
    ) -> Optional[str]:
        """Why a received report must be rejected, or None when clean."""
        if not isinstance(report, SlaveReport):
            return f"expected a SlaveReport, got {type(report).__name__}"
        if report.slave_id != slave_id:
            return (
                f"report claims slave {report.slave_id}, "
                f"expected {slave_id}"
            )
        for name, payload in report.histograms.items():
            if name not in schemes:
                return f"report carries unknown metric {name!r}"
            problem = validate_report_payload(payload, schemes[name])
            if problem is not None:
                return f"{name}: {problem}"
        return None

    # -- checkpointing -----------------------------------------------------------

    def _checkpoint_state(
        self,
        book: _RunBook,
        fleet: Fleet,
        schemes: Dict[str, tuple],
        targets: Dict[str, MetricTargets],
        merged: Dict[str, Histogram],
        round_number: int,
    ) -> CheckpointState:
        # Every slave gets a record, dead ones included: a dead slave's
        # generation, restart count, owed quota, and accounting must
        # survive a resume, or a post-resume respawn would reset its
        # budget and re-issue a seed the lineage already spent on the
        # dead predecessor — double-counting the draws its reports
        # contributed to the checkpointed merged histograms.  Which
        # slaves are (permanently) dead is the separate cause map below.
        slaves = [
            SlaveCheckpoint(
                slave_id=slave_id,
                seed=slave_seed(
                    self.master_seed, slave_id, fleet.generation[slave_id]
                ),
                generation=fleet.generation[slave_id],
                chunks=list(book.work_log[slave_id]),
                owed=book.owed.get(slave_id, 0),
                events_processed=book.events[slave_id],
                total_accepted=book.accepted[slave_id],
                restarts=fleet.restarts.get(slave_id, 0),
                prior_events=book.prior_events[slave_id],
                prior_accepted=book.prior_accepted[slave_id],
            )
            for slave_id in range(self.n_slaves)
        ]
        return CheckpointState(
            master_seed=self.master_seed,
            n_slaves=self.n_slaves,
            chunk_size=self.chunk_size,
            adaptive_chunking=self.adaptive_chunking,
            max_chunk_size=self.max_chunk_size,
            delta_reports=self.delta_reports,
            round=round_number,
            master_events=self._master_events,
            schemes=dict(schemes),
            targets={
                name: {
                    "mean_accuracy": target.mean_accuracy,
                    "quantile_targets": [
                        list(pair) for pair in target.quantile_targets
                    ],
                    "confidence": target.confidence,
                    "min_accepted": target.min_accepted,
                }
                for name, target in targets.items()
            },
            merged={
                name: histogram.to_payload()
                for name, histogram in merged.items()
            },
            slaves=slaves,
            dead=dict(fleet.causes),
            lineage=book.lineage.issued(),
            total_restarts=fleet.total_restarts,
        )

    def _maybe_checkpoint(
        self, book, fleet, schemes, targets, merged, round_number
    ) -> None:
        if self.checkpoint_path is None:
            return
        if round_number % self.checkpoint_interval != 0:
            return
        write_checkpoint(
            self.checkpoint_path,
            self._checkpoint_state(
                book, fleet, schemes, targets, merged, round_number
            ),
        )
        self._trace_event("checkpoint", round=round_number)

    def _validate_resume(self, state: CheckpointState) -> None:
        """A checkpoint must match this run's deterministic schedule."""
        expected = {
            "master_seed": self.master_seed,
            "n_slaves": self.n_slaves,
            "chunk_size": self.chunk_size,
            "adaptive_chunking": self.adaptive_chunking,
            "max_chunk_size": self.max_chunk_size,
            "delta_reports": self.delta_reports,
        }
        for key, value in expected.items():
            found = getattr(state, key)
            if found != value:
                raise CheckpointError(
                    f"checkpoint is incompatible: {key} is {found!r}, "
                    f"this run is configured with {value!r}"
                )

    @staticmethod
    def _restore_merged(state: CheckpointState) -> Dict[str, Histogram]:
        merged = {}
        for name, payload in state.merged.items():
            merged[name] = Histogram.from_payload(payload)
        return merged

    @staticmethod
    def _restore_targets(state: CheckpointState) -> Dict[str, MetricTargets]:
        targets = {}
        for name, fields_ in state.targets.items():
            targets[name] = MetricTargets(
                name=name,
                mean_accuracy=fields_["mean_accuracy"],
                quantile_targets=tuple(
                    tuple(pair) for pair in fields_["quantile_targets"]
                ),
                confidence=fields_["confidence"],
                min_accepted=fields_["min_accepted"],
            )
        return targets

    # -- backends -------------------------------------------------------------------

    def run(self, resume_from=None) -> ParallelResult:
        """Execute the full master/slave protocol.

        With ``resume_from`` set to a checkpoint path, calibration is
        skipped (schemes and targets come from the checkpoint), slaves
        are rebuilt by replaying their logged chunk schedules, and the
        run continues from the checkpointed round — producing merged
        histograms byte-identical to an uninterrupted run.
        """
        started = time.perf_counter()
        resume_state = None
        if resume_from is not None:
            resume_state = read_checkpoint(resume_from)
            self._validate_resume(resume_state)
            schemes = dict(resume_state.schemes)
            targets = self._restore_targets(resume_state)
            self._master_events = resume_state.master_events
            master_wall = 0.0
            self._trace_event("resume", round=resume_state.round)
        else:
            master, schemes, targets = self._calibrate_master()
            self._master_events = master.simulation.events_processed
            master_wall = time.perf_counter() - started
        result = self._run_rounds(schemes, targets, resume_state)
        result.master_events = self._master_events
        result.master_wall_time = master_wall
        result.wall_time = time.perf_counter() - started
        result.resumed = resume_state is not None
        if self._tracer is not None:
            from repro.observability.telemetry import ExperimentTelemetry

            result.telemetry = ExperimentTelemetry.from_parallel(
                result, tracer=self._tracer, dead_slaves=result.dead_slaves
            )
        return result

    def _result(
        self,
        book: _RunBook,
        fleet: Fleet,
        merged: Dict[str, Histogram],
        targets: Dict[str, MetricTargets],
        converged: bool,
        rounds: int,
        reports: List[SlaveReport],
        force_degraded: bool = False,
    ) -> ParallelResult:
        dead = sorted(fleet.causes)
        if self.supervision is not None:
            degraded = force_degraded or self.supervision.is_degraded(
                self.n_slaves - len(dead), len(dead)
            )
        else:
            degraded = force_degraded or bool(dead)
        return ParallelResult(
            estimates=self._estimates(merged, targets, converged),
            converged=converged,
            n_slaves=self.n_slaves,
            rounds=rounds,
            master_events=0,
            slave_events=[
                book.events_total(slave_id)
                for slave_id in range(self.n_slaves)
            ],
            total_accepted=sum(
                book.accepted_total(slave_id)
                for slave_id in range(self.n_slaves)
            ),
            wall_time=0.0,
            master_wall_time=0.0,
            slave_digests=(
                [report.digest for report in reports]
                if any(report.digest is not None for report in reports)
                else None
            ),
            degraded=degraded,
            dead_slaves=dead,
            failure_causes=dict(sorted(fleet.causes.items())),
            restarts=fleet.total_restarts,
            merged_digests={
                name: payload_digest(histogram.to_payload())
                for name, histogram in merged.items()
            },
        )

    def _check_replay(self, book: _RunBook, slave_id: int, baseline) -> None:
        """Replayed slave state must land exactly on the checkpoint."""
        expected = (book.events[slave_id], book.accepted[slave_id])
        found = (baseline.events_processed, baseline.total_accepted)
        if found != expected:
            raise ParallelError(
                f"resume replay diverged for slave {slave_id}: expected "
                f"(events, accepted) = {expected}, replay landed on "
                f"{found}; the factory or its workload is not "
                "deterministic in the seed"
            )

    # -- the round loop ---------------------------------------------------------

    def _run_rounds(self, schemes, targets, resume=None) -> ParallelResult:
        if self.backend == "serial":
            transport = _InProcessTransport()
        else:
            transport = self.transport or LocalPipeTransport("fork")
        if self._tracer is not None:
            transport.attach_tracer(self._tracer)
        transport.start()
        book = (
            _RunBook.from_checkpoint(resume)
            if resume is not None
            else _RunBook(self.n_slaves, self.master_seed)
        )
        rounds = resume.round if resume is not None else 0

        def slave_args(slave_id, generation, faults):
            # Fault specs address master rounds: the session numbers
            # its chunks from the round it starts in.
            return (
                self.factory,
                self.factory_kwargs,
                book.lineage.issue(slave_id, generation),
                schemes,
                self.max_events_per_chunk,
                slave_id,
                self.delta_reports,
                faults,
                tuple(book.work_log[slave_id]),
                rounds,
            )

        def trace(name, worker=None, **fields):
            # Master records name the slave and the round; spawns are
            # the transport's to trace.
            if name == "spawn":
                return
            if worker is not None:
                fields = {"slave": worker, **fields}
                if name == "respawn":
                    fields["seed"] = slave_seed(
                        self.master_seed, worker, fields["generation"]
                    )
            self._trace_event(
                name, component="slave" if name == "dead" else "master",
                round=rounds, **fields,
            )

        fleet = Fleet(
            transport,
            _process_slave_main,
            slave_args,
            master_seed=self.master_seed,
            respawn=self.respawn,
            supervision=self.supervision,
            fault_plan=self.fault_plan,
            spawn_timeout=self.join_timeout,
            trace=trace if self._tracer is not None else None,
        )
        if resume is not None:
            for slave in resume.slaves:
                fleet.generation[slave.slave_id] = slave.generation
                fleet.restarts[slave.slave_id] = slave.restarts
            fleet.total_restarts = resume.total_restarts
            fleet.causes.update(sorted(resume.dead.items()))
        merged: Dict[str, Histogram] = (
            self._restore_merged(resume)
            if resume is not None
            else self._merge_reports([], schemes)
        )
        # A checkpoint taken on the converged round resumes as a no-op.
        converged = (
            self._all_converged(merged, targets)
            if resume is not None
            else False
        )
        reports: List[SlaveReport] = []
        deadline_stopped = False
        try:
            fleet.start(
                slave_id
                for slave_id in range(self.n_slaves)
                if slave_id not in fleet.causes
            )
            fleet.start_clock()
            # Resumed slaves replay their work logs and send a baseline
            # report; validate it lands exactly on the checkpoint state.
            replayed = [i for i in sorted(fleet.workers) if book.work_log[i]]
            if replayed:
                deadline = None
                if self.round_timeout is not None:
                    longest = max(len(book.work_log[i]) for i in replayed)
                    deadline = time.monotonic() + self.round_timeout * max(
                        1, longest
                    )
                baselines, failed = fleet.collect(
                    dict.fromkeys(replayed, deadline), every=True
                )
                if failed:
                    slave_id = min(failed)
                    raise ParallelError(
                        f"slave {slave_id} is gone: died during resume "
                        f"replay ({failed[slave_id]})"
                    )
                for slave_id in sorted(baselines):
                    self._check_replay(book, slave_id, baselines[slave_id])
            while rounds < self.max_rounds and not converged:
                if fleet.over_deadline(False, f"run of {rounds} round(s)"):
                    deadline_stopped = True
                    break
                rounds += 1
                chunk = self._round_chunk(rounds)
                self._trace_scheduled_faults(rounds)
                commanded: Dict[int, int] = {}
                for slave_id in sorted(fleet.workers):
                    quota = book.command_quota(slave_id, chunk)
                    try:
                        fleet.workers[slave_id].send(("chunk", quota))
                        commanded[slave_id] = quota
                    except (BrokenPipeError, OSError) as error:
                        book.owed[slave_id] = quota
                        fleet.condemn(
                            slave_id, f"{CAUSE_SEND_FAILED}: {error}"
                        )
                deadline = (
                    time.monotonic() + self.round_timeout
                    if self.round_timeout is not None
                    else None
                )
                # Any report that arrives within the round window
                # counts, whatever the arrival order.
                received, failed = fleet.collect(
                    dict.fromkeys(commanded, deadline), every=True
                )
                for slave_id in sorted(failed):
                    book.owed[slave_id] = commanded[slave_id]
                    fleet.condemn(slave_id, failed[slave_id])
                # Validate and merge in slave-id order regardless of
                # arrival order: float accumulation is not associative,
                # and merged digests must stay bit-identical run-to-run
                # and backend-to-backend.
                reports = []
                for slave_id in sorted(received):
                    report = received[slave_id]
                    problem = self._report_problem(report, slave_id, schemes)
                    if problem is not None:
                        book.owed[slave_id] = commanded[slave_id]
                        fleet.condemn(
                            slave_id, f"{CAUSE_CORRUPT_PAYLOAD}: {problem}"
                        )
                        continue
                    reports.append(report)
                    book.on_reported(slave_id, commanded[slave_id], report)
                self._trace_round(rounds, reports)
                merged = self._merge_round(merged, reports, schemes, rounds)
                converged = self._all_converged(merged, targets)
                if self._progress is not None:
                    self._progress.parallel_update(rounds, merged, targets)
                if not converged:
                    fleet.settle()
                    if fleet.due:
                        latest = max(due for due, _ in fleet.due.values())
                        # The round barrier: every report of this round
                        # is merged, so one wait for the latest due time
                        # delays the next round for every slave alike,
                        # and the backoffs of one round overlap.
                        fleet.wait_until(latest)
                        for slave_id in fleet.due:
                            book.retire(slave_id)
                        fleet.admit(until=latest)
                        for slave_id in sorted(fleet.due):
                            # No agent slot free: the slave stays dead
                            # this round; its respawn is retried after
                            # the next one.
                            self._trace_event(
                                "respawn_no_capacity",
                                slave=slave_id,
                                round=rounds,
                            )
                if not fleet.workers:
                    message = (
                        f"every slave has died ({self.n_slaves} started, "
                        f"last loss in round {rounds}); no survivors to "
                        "finish the run"
                    )
                    if self.supervision is not None:
                        raise SupervisionError(
                            message, cause=CAUSE_FLEET_EXHAUSTED
                        )
                    raise ParallelError(message)
                fleet.check_floor()
                self._maybe_checkpoint(
                    book, fleet, schemes, targets, merged, rounds
                )
        finally:
            fleet.shutdown()
            if transport is not self.transport:
                transport.close()
        return self._result(
            book, fleet, merged, targets, converged, rounds, reports,
            force_degraded=deadline_stopped,
        )
