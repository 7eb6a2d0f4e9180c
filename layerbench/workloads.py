"""The benchmark's four workloads: build a model, run it to convergence, judge it.

Every workload is a batch job whose size is fixed by its seed and its
accuracy targets.  :meth:`BenchWorkload.build` does model construction
(what ``setup_s`` times), :meth:`BenchWorkload.run` makes the one run
call a user would wait on (what ``converge_s`` times) and judges the
answer with the repository's own acceptance rule:

    pass  <=>  converged  and  |sim - theory| <= tol*|theory| + half_width

where ``tol`` is ``TOLERANCE_FACTORS[family]`` times the accuracy
target (``repro.validation.acceptance``).  Nothing here imports
``repro`` at module level, so the import is timed where it happens.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

#: Servers behind the cluster-event balancer, and its per-server load.
CLUSTER_SERVERS = 8
CLUSTER_RHO = 0.7
#: M/M/k shape of mmk-replicas (service rate mu per core).
MMK_CORES = 4
MMK_RHO = 0.8
MMK_MU = 20.0
#: Load of the parallel-web M/G/1.
WEB_RHO = 0.7
#: Slaves / pool workers of the two multi-process workloads.
WORKERS = 2


def instance_seed(workload: str, seed: int, index: int) -> int:
    """The seed of run ``index`` of a benchmark run started with ``seed``."""
    text = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big") >> 1


@dataclass
class Outcome:
    """What one run call produced: its time, its verdicts, its record."""

    seed: int
    converge_s: float
    #: ``repro.validation.ValidationCase`` verdicts, one per estimate.
    cases: list
    #: Operations attempted and failed (runs, sweep points, warm hits).
    attempted: int
    failed: int
    #: Bit-identity record: event and accepted counts, digests, engines.
    provenance: dict
    #: Counts read from the layers' public counters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Further host times of this run (the warm sweep rerun).
    times: Dict[str, float] = field(default_factory=dict)
    #: perf_counter at the start and end of the run call.
    window: tuple = (0.0, 0.0)


def judge(name, simulated, reference, family, accuracy, converged, ci):
    """The acceptance rule of ``repro.validation`` for one estimate."""
    from repro.validation.acceptance import TOLERANCE_FACTORS
    from repro.validation.suite import ValidationCase

    return ValidationCase(
        name,
        simulated,
        reference,
        tolerance=TOLERANCE_FACTORS[family] * accuracy,
        converged=converged,
        ci=tuple(ci) if ci else None,
    )


def _histogram_digest(statistic) -> str:
    from repro.parallel.protocol import payload_digest

    return payload_digest(statistic.histogram.to_payload())


def _qualification(experiment) -> dict:
    """``fastpath.qualifies()`` before the run: the engine it predicts."""
    from repro.engine import fastpath

    verdict = fastpath.qualifies(experiment)
    return {"qualifies": bool(verdict), "reason": verdict.reason}


def _engine_used(experiment) -> str:
    """The engine that actually ran: the fastpath never steps the event loop."""
    return "event" if experiment.simulation.events_processed else "fastpath"


class BenchWorkload:
    """Base: a named workload with a full and a tiny size."""

    name = ""
    sizes: Dict[str, dict] = {}
    #: Modules a user imports before building this model.
    modules = ("repro",)

    def __init__(self, size: str = "full", reference_shift: float = 0.0,
                 scratch: Optional[Path] = None):
        if size not in self.sizes:
            raise ValueError(f"{self.name}: unknown size {size!r}")
        self.size = size
        self.params = self.sizes[size]
        #: Relative offset applied to every reference value; the self-tests
        #: set it to show that a wrong reference is rejected.
        self.reference_shift = reference_shift
        self.scratch = Path(scratch) if scratch is not None else Path(".")

    def reference(self, value: float) -> float:
        return value * (1.0 + self.reference_shift)

    def build(self, seed: int):
        raise NotImplementedError

    def run(self, model) -> Outcome:
        raise NotImplementedError

    def distributions(self) -> list:
        """The distributions drawn in this process (sampling ablation)."""
        return []


class ClusterEvent(BenchWorkload):
    name = "cluster-event"
    sizes = {
        "full": {"mean": 0.02, "p95": 0.08},
        "tiny": {"mean": 0.1, "p95": 0.3},
    }
    modules = ("repro", "repro.datacenter.balancers", "repro.workloads.models")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._service = None

    def service(self):
        if self._service is None:
            from repro.workloads.models import by_name

            self._service = by_name("google", empirical=True).service
        return self._service

    def arrival_rate(self) -> float:
        return CLUSTER_RHO * CLUSTER_SERVERS / self.service().mean()

    def distributions(self) -> list:
        from repro.distributions import Exponential

        return [Exponential(rate=self.arrival_rate()), self.service()]

    def build(self, seed: int):
        from repro import Experiment, Server, Workload
        from repro.datacenter.balancers import RandomBalancer
        from repro.distributions import Exponential

        p = self.params
        experiment = Experiment(seed=seed)
        servers = [Server(cores=1, name=f"leaf{i}") for i in range(CLUSTER_SERVERS)]
        balancer = RandomBalancer(servers)
        experiment.bind(balancer)
        workload = Workload("google", Exponential(rate=self.arrival_rate()),
                            self.service())
        experiment.add_source(workload, target=balancer)
        experiment.track_response_time(
            balancer, mean_accuracy=p["mean"], quantiles={0.95: p["p95"]}
        )
        return seed, experiment

    def run(self, model) -> Outcome:
        import repro.theory as theory

        seed, experiment = model
        qualification = _qualification(experiment)
        started = time.perf_counter()
        result = experiment.run()
        ended = time.perf_counter()
        converge_s = ended - started
        statistic = next(iter(experiment.stats))
        estimate = result["response_time"]
        reference = self.reference(theory.mg1_mean_response(
            self.arrival_rate() / CLUSTER_SERVERS, self.service()))
        case = judge("cluster-event mean response (P-K)", estimate.mean,
                     reference, "mg1", self.params["mean"], result.converged,
                     estimate.mean_ci)
        return Outcome(
            seed=seed,
            converge_s=converge_s,
            window=(started, ended),
            cases=[case],
            attempted=1,
            failed=0 if case.passed else 1,
            provenance={
                "seed": seed,
                "engine": _engine_used(experiment),
                "fastpath_reason": qualification["reason"],
                "events": result.events_processed,
                "accepted": statistic.accepted,
                "observed": statistic.observed,
                "lag": statistic.lag,
                "digests": {"response_time": _histogram_digest(statistic)},
            },
            counters={
                "events": result.events_processed,
                "jobs": result.jobs_generated,
                "observed": statistic.observed,
                "accepted": statistic.accepted,
                "convergence_checks": statistic.convergence_checks,
            },
        )


class _ReplicaFactory:
    """Builds each M/M/k replica and keeps it for the provenance record."""

    def __init__(self):
        self.experiments = []
        self.qualifications = []

    def __call__(self, seed, mean, p99):
        from repro import Experiment, Server, Workload
        from repro.distributions import Exponential

        experiment = Experiment(seed=seed, engine="auto")
        server = Server(cores=MMK_CORES)
        lam = MMK_RHO * MMK_CORES * MMK_MU
        experiment.add_source(
            Workload("mmk", Exponential(rate=lam), Exponential(rate=MMK_MU)),
            target=server,
        )
        experiment.track_response_time(
            server, mean_accuracy=mean, quantiles={0.99: p99}
        )
        self.qualifications.append(_qualification(experiment))
        self.experiments.append(experiment)
        return experiment


class MmkReplicas(BenchWorkload):
    name = "mmk-replicas"
    sizes = {
        "full": {"replications": 24, "mean": 0.01, "p99": 0.02},
        "tiny": {"replications": 2, "mean": 0.1, "p99": 0.3},
    }
    modules = ("repro", "repro.parallel.replications")

    def distributions(self) -> list:
        from repro.distributions import Exponential

        return [Exponential(rate=MMK_RHO * MMK_CORES * MMK_MU),
                Exponential(rate=MMK_MU)]

    def build(self, seed: int):
        kwargs = {"mean": self.params["mean"], "p99": self.params["p99"]}
        return seed, _ReplicaFactory(), kwargs

    def run(self, model) -> Outcome:
        import repro.theory as theory
        from repro.engine.fastpath import EVENTS_PER_JOB
        from repro.parallel.replications import run_replications

        seed, factory, kwargs = model
        started = time.perf_counter()
        result = run_replications(
            factory, replications=self.params["replications"],
            base_seed=seed, factory_kwargs=kwargs,
        )
        ended = time.perf_counter()
        converge_s = ended - started
        estimate = result["response_time"]
        lam = MMK_RHO * MMK_CORES * MMK_MU
        reference = self.reference(theory.mmk_mean_response(lam, MMK_MU, MMK_CORES))
        case = judge("mmk-replicas mean response (Erlang-C)", estimate.mean,
                     reference, "mmk", self.params["mean"],
                     result.all_converged, estimate.confidence_interval)
        replicas = []
        fastpath_jobs = 0
        for experiment, verdict, replica_seed in zip(
            factory.experiments, factory.qualifications, result.seeds
        ):
            statistic = next(iter(experiment.stats))
            engine = _engine_used(experiment)
            replica = {
                "seed": replica_seed,
                "engine": engine,
                "accepted": statistic.accepted,
                "observed": statistic.observed,
                "digests": {"response_time": _histogram_digest(statistic)},
            }
            if engine == "event":
                # Empty if qualifies() accepted the model: a silent fallback.
                replica["fastpath_reason"] = verdict["reason"]
                replica["events"] = experiment.simulation.events_processed
            else:
                replica["events"] = statistic.observed * EVENTS_PER_JOB
                fastpath_jobs += statistic.observed
            replicas.append(replica)
        stats = [next(iter(e.stats)) for e in factory.experiments]
        fastpath_runs = sum(1 for r in replicas if r["engine"] == "fastpath")
        return Outcome(
            seed=seed,
            converge_s=converge_s,
            window=(started, ended),
            cases=[case],
            attempted=1,
            failed=0 if case.passed else 1,
            provenance={
                "seed": seed,
                "engine": sorted({r["engine"] for r in replicas}),
                "events": result.total_events,
                "accepted": sum(s.accepted for s in stats),
                "replicas": replicas,
            },
            counters={
                "fastpath_runs": fastpath_runs,
                "fastpath_jobs": fastpath_jobs,
                # Replicas that fell back to the event engine.
                "events": sum(
                    r["events"] for r in replicas if r["engine"] == "event"),
                "observed": sum(s.observed for s in stats),
                "accepted": sum(s.accepted for s in stats),
                "convergence_checks": sum(s.convergence_checks for s in stats),
            },
        )


def web_experiment(seed, mean, p95):
    """One parallel-web replica: Table-1 web service behind one M/G/1 server.

    Module-level so the parallel layer can ship it to its slaves.
    """
    from repro import Experiment, Server, Workload
    from repro.distributions import Exponential
    from repro.workloads.models import by_name

    service = by_name("web").service
    experiment = Experiment(seed=seed)
    server = Server(cores=1)
    experiment.add_source(
        Workload("web", Exponential(rate=WEB_RHO / service.mean()), service),
        target=server,
    )
    experiment.track_response_time(
        server, mean_accuracy=mean, quantiles={0.95: p95}
    )
    return experiment


class ParallelWeb(BenchWorkload):
    name = "parallel-web"
    sizes = {
        "full": {"mean": 0.06, "p95": 0.2},
        "tiny": {"mean": 0.1, "p95": 0.4},
    }
    modules = ("repro", "repro.parallel", "repro.workloads.models")

    def distributions(self) -> list:
        from repro.distributions import Exponential
        from repro.workloads.models import by_name

        service = by_name("web").service
        return [Exponential(rate=WEB_RHO / service.mean()), service]

    def build(self, seed: int):
        from repro.parallel import ParallelSimulation

        kwargs = {"mean": self.params["mean"], "p95": self.params["p95"]}
        simulation = ParallelSimulation(
            web_experiment, factory_kwargs=kwargs, n_slaves=WORKERS,
            master_seed=seed, chunk_size=2000, backend="process",
        )
        return seed, simulation

    def run(self, model) -> Outcome:
        import repro.theory as theory
        from repro.workloads.models import by_name

        seed, simulation = model
        started = time.perf_counter()
        result = simulation.run()
        ended = time.perf_counter()
        converge_s = ended - started
        estimate = result["response_time"]
        service = by_name("web").service
        reference = self.reference(
            theory.mg1_mean_response(WEB_RHO / service.mean(), service))
        case = judge("parallel-web mean response (P-K)", estimate.mean,
                     reference, "mg1", self.params["mean"], result.converged,
                     estimate.mean_ci)
        slave_events = list(result.slave_events)
        mean_slave = sum(slave_events) / len(slave_events)
        healthy = not result.degraded and result.restarts == 0
        return Outcome(
            seed=seed,
            converge_s=converge_s,
            window=(started, ended),
            cases=[case],
            attempted=1,
            failed=0 if case.passed and healthy else 1,
            provenance={
                "seed": seed,
                "engine": "event",
                "events": result.total_events,
                "master_events": result.master_events,
                "slave_events": slave_events,
                "accepted": result.total_accepted,
                "rounds": result.rounds,
                "digests": dict(result.merged_digests),
                "degraded": result.degraded,
            },
            counters={
                "events": result.total_events,
                "master_events": result.master_events,
                "accepted": result.total_accepted,
                "rounds": result.rounds,
                "slave_imbalance": max(slave_events) / mean_slave,
            },
        )


class AcceptanceSweep(BenchWorkload):
    name = "acceptance-sweep"
    sizes = {
        "full": {"accuracy": 0.04},
        "tiny": {"accuracy": 0.25},
    }
    modules = ("repro", "repro.sweep", "repro.validation.acceptance")

    def build(self, seed: int):
        from repro.sweep import SweepCache
        from repro.validation.acceptance import (
            MULTISERVER_SMOKE_POINTS,
            SMOKE_POINTS,
            build_acceptance_spec,
        )

        spec = build_acceptance_spec(
            SMOKE_POINTS + MULTISERVER_SMOKE_POINTS,
            accuracy=self.params["accuracy"], seed=seed,
        )
        root = self.scratch / f"sweep-cache-{seed}"
        shutil.rmtree(root, ignore_errors=True)
        return seed, spec, SweepCache(root), root

    def run(self, model) -> Outcome:
        import repro.validation.acceptance as acceptance
        from repro.sweep import SweepRunner

        seed, spec, cache, root = model
        accuracy = self.params["accuracy"]
        # The msj reference is memoised per process; a user's first
        # sweep pays for it, so every cold run here does too.
        acceptance._msj_reference_value.cache_clear()
        try:
            started = time.perf_counter()
            cold = SweepRunner(spec, backend="pool", jobs=WORKERS,
                               cache=cache).run()
            verdicts = acceptance.evaluate(cold, accuracy=accuracy)
            cold_ended = time.perf_counter()
            cold_s = cold_ended - started
            cold_began = started
            started = time.perf_counter()
            warm = SweepRunner(spec, backend="pool", jobs=WORKERS,
                               cache=cache).run()
            warm_s = time.perf_counter() - started
        finally:
            shutil.rmtree(root, ignore_errors=True)
        # The verdicts judge the true references; the self-tests shift
        # them and judge again by the same rule.
        cases = [
            dataclasses.replace(v, theoretical=self.reference(v.theoretical))
            for v in verdicts
        ]
        # A warm point must be a cache hit carrying the cold digests.
        warm_ok = [
            w.cached and w.histogram_digests == c.histogram_digests
            for c, w in zip(cold.points, warm.points)
        ]
        if len(warm.points) != len(cold.points):
            warm_ok.append(False)
        walls = [p.payload["point_wall_time"] for p in cold.points]
        failed = sum(not case.passed for case in cases) + warm_ok.count(False)
        return Outcome(
            seed=seed,
            converge_s=cold_s,
            window=(cold_began, cold_ended),
            cases=cases,
            attempted=len(cases) + len(warm_ok),
            failed=failed,
            provenance={
                "seed": seed,
                "points": [
                    {
                        "name": p.name,
                        "seed": p.seed,
                        "engine": p.params.get("engine", "event"),
                        "events": p.payload["events_processed"],
                        "accepted": sum(
                            m["accepted"] for m in p.metrics.values()),
                        "digests": dict(p.histogram_digests),
                    }
                    for p in cold.points
                ],
                "warm_hits": warm.cache_hits,
                "warm_ok": warm_ok,
            },
            counters={
                # Event-engine points, simulated in the pool workers.
                "events": sum(
                    p.payload["events_processed"] for p in cold.points
                    if p.params.get("engine", "event") == "event"),
                "points": len(cold.points),
                "warm_hits": warm.cache_hits,
                "warm_points": len(warm.points),
                "compute_s": sum(walls),
                "straggler_s": max(walls),
                "cold_wall_s": cold.wall_time,
            },
            times={"cold_s": cold_s, "warm_s": warm_s},
        )


WORKLOADS = {
    cls.name: cls
    for cls in (ClusterEvent, MmkReplicas, ParallelWeb, AcceptanceSweep)
}
