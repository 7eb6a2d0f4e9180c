"""Host time to a converged estimate, end to end and by layer.

Usage (from the repository root)::

    python3 layerbench/run.py --workload cluster-event --seed 1 --seconds 18 --trace 0
    python3 layerbench/run.py --workload cluster-event --seed 1 --seconds 18 --trace 1

``--trace 0`` measures end-to-end metrics with nothing wrapped: it
builds and runs the workload again and again (each run call with its
own seed derived from ``--seed``) until ``--seconds`` of run calls have
passed, judging every answer against ``repro.theory``, and between run
calls times fresh-interpreter set-ups.  ``--trace 1`` is the separate
traced run: it runs each seed untraced and then traced, reports
per-layer counts and times, and the untraced ablations of the layers
called once per event.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  Spans and the provenance record are
written under ``layerbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The metrics and their units, as ``BENCHMARK.json`` declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Fewest run calls a timed run makes, however long each takes.
MIN_RUNS = 3
#: Fresh-interpreter set-ups timed per run, spread through it.  A tiny
#: run (the self-tests) times one set-up and makes one run call.
SETUP_SAMPLES = 6
#: Seconds ``host_probe`` takes on the reference host (its typical time
#: next to run calls on a 2-core x86-64 container); ``converge_s`` is
#: scaled to this speed.
REFERENCE_PROBE_S = 0.004
#: Span budget of a traced run (memory bound); no new seed past it.
SPAN_CAP = 3_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small accuracy targets, one set-up and "
                             "one run call, for self-tests")
    parser.add_argument("--reference-shift", type=float, default=0.0,
                        help="offset every reference by this share "
                             "(checks that a wrong reference is rejected)")
    parser.add_argument("--out", default=str(HERE / "out"))
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------------


class SetupSampler:
    """Fresh-interpreter set-ups, taken a few at a time through a run.

    The host's speed moves for tens of seconds at a time, so set-ups
    timed all at once share one speed; spread through the run, their
    median stands for the whole run.
    """

    def __init__(self, workload: str, seed: int, size: str, scratch: Path):
        self.command = [
            sys.executable, str(HERE / "setup_probe.py"), "--workload",
            workload, "--seed", str(seed), "--size", size,
            "--scratch", str(scratch),
        ]
        self.count = 1 if size == "tiny" else SETUP_SAMPLES
        self.samples = []
        #: Wall seconds spent here, kept out of the run's measuring time.
        self.spent = 0.0

    def take(self) -> None:
        began = time.perf_counter()
        completed = subprocess.run(self.command, capture_output=True,
                                   text=True, timeout=120, check=False)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        self.samples.append(
            json.loads(completed.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - began

    def take_due(self, fraction: float) -> bool:
        """Take the set-ups due ``fraction`` of the way through the run."""
        taken = False
        while (len(self.samples) < self.count
               and len(self.samples) <= fraction * self.count):
            self.take()
            taken = True
        return taken

    def result(self) -> dict:
        self.take_due(1.0)
        totals = [s["import_s"] + s["build_s"] for s in self.samples]
        return {
            "setup_s": statistics.median(totals),
            "import_s": statistics.median(s["import_s"] for s in self.samples),
            "build_s": statistics.median(s["build_s"] for s in self.samples),
            "samples": totals,
        }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def leftovers() -> str:
    """What the program left running after a run call; empty if nothing.

    Every run call is expected to join its threads and reap its
    processes before it returns.  Anything left behind would compete
    with the host probe that follows and skew the scaling of
    ``converge_s``, so the benchmark counts it as a failure.
    """
    found = []
    if threading.active_count() > 1:
        found.append(f"{threading.active_count() - 1} live threads")
    try:
        child = os.waitid(os.P_ALL, 0,
                          os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        pass
    else:
        found.append("unreaped child process" if child is not None
                     else "live child process")
    return ", ".join(found)


# -- the run loops ---------------------------------------------------------------


def _keep_going(index: int, elapsed: float, args, minimum: int) -> bool:
    if args.size == "tiny":
        return index < 1
    return index < minimum or elapsed < args.seconds


def _probe_task() -> float:
    began = time.perf_counter()
    heap, x = [], 0.5
    for i in range(6000):
        x = (x * 1103515245.0 + 12345.0) % 1.0
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    table = {}
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0.0) + x
    return time.perf_counter() - began


def host_probe() -> float:
    """Median seconds of three runs of a fixed pure-Python task.

    On a host that shares its cores (the 2-core reference container)
    the same code runs up to 1.6 times slower for tens of seconds at a
    time.  Timing this fixed
    task (heap, float and dict work) next to every run call measures
    the host's speed at that moment, so run-call times can be scaled to
    one reference speed.  The collector runs first and is off during
    the task, so garbage the program left behind cannot slow the probe.
    """
    gc.collect()
    gc.disable()
    try:
        return statistics.median(_probe_task() for _ in range(3))
    finally:
        gc.enable()


def timed_runs(workload, args, instance_seed, sampler) -> tuple:
    """Run calls until ``--seconds`` passed, each between two host probes.

    Set-ups are taken between run calls; their time does not count
    towards ``--seconds``.  Returns the outcomes, the probes before and
    after each call, and the calls that left threads or processes.
    """
    outcomes, probes, leaks = [], [], []
    began = time.perf_counter()
    before = None
    while True:
        elapsed = time.perf_counter() - began - sampler.spent
        if not _keep_going(len(outcomes), elapsed, args, MIN_RUNS):
            break
        if sampler.take_due(elapsed / args.seconds) or before is None:
            before = host_probe()
        seed = instance_seed(workload.name, args.seed, len(outcomes))
        outcomes.append(workload.run(workload.build(seed)))
        leaks.append(leftovers())
        after = host_probe()
        probes.append((before, after))
        before = after
    return outcomes, probes, leaks


def scaled_converge_s(outcomes, probes) -> list:
    """Each run call's time at the reference host speed.

    The host's speed during a call is read from the probes just before
    and after it: ``t * REFERENCE_PROBE_S / mean(probe before, after)``.
    """
    return [
        o.converge_s * REFERENCE_PROBE_S / ((before + after) / 2)
        for o, (before, after) in zip(outcomes, probes)
    ]


def traced_runs(workload, args, instance_seed, tracer) -> tuple:
    """Each seed untraced, then the same seed traced; returns both lists."""
    plain, traced = [], []
    began = time.perf_counter()
    while (_keep_going(len(traced), time.perf_counter() - began, args, 1)
           and len(tracer) < SPAN_CAP):
        seed = instance_seed(workload.name, args.seed, len(traced))
        plain.append(workload.run(workload.build(seed)))
        with tracer:
            outcome = workload.run(workload.build(seed))
        traced.append(outcome)
    return plain, traced


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(plain, traced, tracer, spans, setup, ablation) -> tuple:
    """Per-layer metrics per run call (means over the traced seeds)."""
    from layerbench.workloads import WORKERS

    n = len(traced)

    def layer(name, field="self_s"):
        return sum(s[field] for s in spans.values() if s["layer"] == name) / n

    def span(name, field="total_s"):
        return spans.get(name, {}).get(field, 0) / n

    def counter(name):
        return sum(o.counters.get(name, 0) for o in traced) / n

    def median_time(name):
        values = [o.times[name] for o in plain if name in o.times]
        return statistics.median(values) if values else 0.0

    untraced_s = sum(o.converge_s for o in plain) / n
    traced_s = sum(o.converge_s for o in traced) / n
    fastpath_engine = counter("fastpath_runs") > 0
    draws = layer("distributions", "units")
    arrivals = sum(s["calls"] for name, s in spans.items()
                   if s["layer"] == "datacenter" and name.endswith("Server.arrive")) / n
    choices = span("RandomBalancer.choose", "calls")
    observed_in_process = (span("Statistic.observe", "units")
                           + span("Statistic.observe_block", "units"))
    observed = counter("observed") or observed_in_process
    accepted = counter("accepted")
    events = counter("events")
    # Event-engine events in this process (only the master's, for a
    # parallel run), to go with the jobs that arrived at stations here.
    in_process_events = counter("master_events") or events
    draw_ns = ablation["draw"]["block" if fastpath_engine else "prefetch"]
    observe_ns = ablation["observe"]["block" if fastpath_engine else "observe"]
    per_event_estimate = (draws * draw_ns + observed_in_process * observe_ns
                          + choices * ablation["choose_ns"]) / 1e9
    # Time inside the run call while no layer entry point was running.
    unaccounted = sum(
        o.converge_s - spanned
        for o, spanned in zip(traced, tracer.root_time(o.window for o in traced))
    ) / n
    compute_s = counter("compute_s")
    cold_wall = counter("cold_wall_s")
    metrics = {
        "distributions.draws": draws,
        "distributions.busy_s": layer("distributions"),
        "distributions.ns_per_draw": ablation["draw"]["prefetch"],
        "distributions.ns_per_block_draw": ablation["draw"]["block"],
        "simulation.events": events,
        "simulation.events_per_s": events / untraced_s,
        "simulation.events_per_job": (
            in_process_events / arrivals if arrivals else 0.0),
        "simulation.self_s": layer("simulation"),
        "datacenter.jobs": arrivals,
        "datacenter.busy_s": layer("datacenter"),
        "datacenter.choose_ns": ablation["choose_ns"],
        "core.observed": observed,
        "core.accepted": accepted,
        "core.accept_ratio": (
            accepted / counter("observed") if counter("observed") else 0.0),
        "core.accepted_per_s": accepted / untraced_s,
        "core.busy_s": layer("core"),
        "core.ns_per_observe": ablation["observe"]["observe"],
        "core.ns_per_observe_block": ablation["observe"]["block"],
        "core.calibration_s": span("runs_test.select_lag"),
        "core.convergence_checks": counter("convergence_checks"),
        "fastpath.jobs": counter("fastpath_jobs"),
        "fastpath.busy_s": layer("fastpath"),
        "fastpath.ns_per_job": (
            layer("fastpath") * 1e9 / counter("fastpath_jobs")
            if counter("fastpath_jobs") else 0.0),
        "fastpath.runs": counter("fastpath_runs"),
        "parallel.rounds": counter("rounds"),
        "parallel.round_wait_s": (span("LocalPipeTransport.wait")
                                  + span("LocalEndpoint.recv")),
        "parallel.merge_s": span("Histogram.merge_payload"),
        "parallel.report_bytes": tracer.received_bytes() / n,
        "parallel.slave_imbalance": counter("slave_imbalance"),
        "parallel.overhead_event_frac": (
            counter("master_events") / counter("events")
            if counter("master_events") else 0.0),
        "sweep.points": counter("points"),
        "sweep.hit_ratio": (
            counter("warm_hits") / counter("warm_points")
            if counter("warm_points") else 0.0),
        "sweep.cache_write_s": span("SweepCache.put"),
        "sweep.cache_read_s": span("SweepCache.get"),
        "sweep.compute_s": compute_s,
        "sweep.worker_util": (
            compute_s / (cold_wall * WORKERS) if cold_wall else 0.0),
        "sweep.straggler_s": counter("straggler_s"),
        "sweep.pool_start_s": span("WorkerPool.start"),
        "sweep.cold_s": median_time("cold_s"),
        "sweep.warm_s": median_time("warm_s"),
        "theory.reference_s": layer("theory"),
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.unaccounted_s": unaccounted,
        "trace.spans": len(tracer) / n,
    }
    details = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "per_event_estimate_s": per_event_estimate,
        "self_vs_ablation": {
            "distributions": (layer("distributions"), draws * draw_ns / 1e9),
            "core": (layer("core"), observed_in_process * observe_ns / 1e9),
            "datacenter.choose": (
                span("RandomBalancer.choose", "self_s"),
                choices * ablation["choose_ns"] / 1e9),
        },
    }
    return metrics, details


def run_ablations(workload, tracer, spans, n, seed) -> dict:
    """The untraced ablations, sized by the traced per-call counts."""
    from layerbench import ablations

    draws = sum(s["units"] for s in spans.values()
                if s["layer"] == "distributions") / n
    choices = spans.get("RandomBalancer.choose", {}).get("calls", 0) / n
    return {
        "draw": ablations.draw_ns(workload.distributions(), int(draws), seed),
        "observe": ablations.observe_ns(tracer.stream_owner, tracer.stream),
        "choose_ns": ablations.choose_ns(int(choices), 8, seed),
    }


# -- report ----------------------------------------------------------------------


def signed_error(case) -> float:
    return (case.simulated - case.theoretical) / abs(case.theoretical)


def case_record(case) -> dict:
    return {"name": case.name, "simulated": case.simulated,
            "reference": case.theoretical, "ci": case.ci,
            "relative_error": signed_error(case), "passed": case.passed}


def report_checks(outcomes, label: str) -> None:
    for o in outcomes:
        worst = max(o.cases, key=lambda c: abs(signed_error(c)))
        print(f"  {label} seed={o.seed:<11d} converge_s={o.converge_s:9.4f}  "
              f"worst |error| {signed_error(worst):+.3%} ({worst.name})  "
              f"failed {o.failed}/{o.attempted}")
        for case in o.cases:
            if not case.passed:
                print(f"    FAIL {case.name}: simulated {case.simulated:.6g} "
                      f"reference {case.theoretical:.6g} "
                      f"error {signed_error(case):+.3%}")


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[0:0] = [str(SRC), str(ROOT)]
    from layerbench.tracing import LayerTracer
    from layerbench.workloads import WORKLOADS, instance_seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sampler = SetupSampler(args.workload, args.seed, args.size, out)
    # Imports are set-up, timed in fresh interpreters; keep them out of
    # the first run call.
    for module in WORKLOADS[args.workload].modules:
        __import__(module)
    workload = WORKLOADS[args.workload](
        args.size, reference_shift=args.reference_shift, scratch=out)
    print(f"layerbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} size={args.size}")

    if args.trace == 0:
        outcomes, probes, leaks = timed_runs(workload, args, instance_seed,
                                             sampler)
        setup = sampler.result()
        scaled = scaled_converge_s(outcomes, probes)
        check_failures = sum(bool(leak) for leak in leaks)
        report_checks(outcomes, "run")
        for o, leak in zip(outcomes, leaks):
            if leak:
                print(f"    FAIL seed={o.seed}: the run call left {leak}")
        all_outcomes = outcomes
        metrics = {
            "setup_s": setup["setup_s"],
            # The mean, not the median: the runs-up lag takes a few
            # discrete values, so single run calls cluster in modes and
            # a median jumps between them from seed to seed.
            "converge_s": statistics.fmean(scaled),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        extra = {
            "converge_wall_s": statistics.fmean(o.converge_s for o in outcomes),
            "host_probe_s": statistics.median(p for pair in probes for p in pair),
        }
        if all("warm_s" in o.times for o in outcomes):
            extra["sweep_cold_s"] = extra["converge_wall_s"]
            extra["sweep_warm_s"] = statistics.median(
                o.times["warm_s"] for o in outcomes)
        record = {"runs": [o.provenance for o in outcomes],
                  "host_probe_s": probes, "converge_scaled_s": scaled,
                  "leftovers": leaks}
    else:
        tracer = LayerTracer()
        plain, traced = traced_runs(workload, args, instance_seed, tracer)
        # Same seed, traced or not: the simulated answer must not change.
        check_failures = sum(
            json.dumps(p.provenance, sort_keys=True)
            != json.dumps(t.provenance, sort_keys=True)
            for p, t in zip(plain, traced)
        )
        report_checks(plain, "untraced")
        report_checks(traced, "traced  ")
        print(f"  same seed, traced vs untraced: {check_failures} of "
              f"{len(traced)} provenance records differ")
        setup = sampler.result()
        spans = tracer.summary()
        ablation = run_ablations(workload, tracer, spans, len(traced), args.seed)
        metrics, details = layer_metrics(
            plain, traced, tracer, spans, setup, ablation)
        units = PER_LAYER
        all_outcomes = plain + traced
        extra = {}
        print("  traced self time vs untraced ablation (s per run call):")
        for name, (self_s, estimate) in details["self_vs_ablation"].items():
            print(f"    {name:20s} traced self {self_s:9.4f}   "
                  f"ablation {estimate:9.4f}")
        print(f"    run call untraced {details['untraced_s']:.4f} s, traced "
              f"{details['traced_s']:.4f} s, of which in no layer "
              f"{metrics['trace.unaccounted_s']:.4f} s; per-event layers "
              f"by ablation {details['per_event_estimate_s']:.4f} s")
        tracer.write(out / f"{workload.name}.spans.npz")
        record = {
            "runs": [o.provenance for o in traced],
            "same_seed_mismatches": check_failures,
            "spans": spans,
        }

    # A traced run also checks each seed's repeat; a timed run checks
    # each call for leftovers.
    attempted = sum(o.attempted for o in all_outcomes) + (
        len(all_outcomes) // 2 if args.trace else len(all_outcomes))
    failed = sum(o.failed for o in all_outcomes) + check_failures
    record["setup_s"] = setup["samples"]
    record["cases"] = [[case_record(c) for c in o.cases] for o in all_outcomes]
    record["converge_s"] = [o.converge_s for o in all_outcomes]
    (out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))

    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics computed {sorted(metrics)} differ from those "
            f"BENCHMARK.json declares {sorted(units)}")
    print(f"  set-up samples (s): "
          + " ".join(f"{s:.4f}" for s in setup["samples"]))
    print_metrics(metrics, units)
    for name, value in extra.items():
        print(f"  {name:34s} {value:16.6f} s")
    print(f"  {'failed_frac':34s} {failed / attempted:16.6f} ratio "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
