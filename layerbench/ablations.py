"""Untraced ablations for the layers called once per event.

Wrapping a per-event call costs more than the call itself, so the
traced self time of sampling, statistics and balancing overstates
them.  Each ablation here repeats the same amount of work the traced
run counted, through the layer's public functions only, with no
wrapper installed, and reports nanoseconds per call.
"""

from __future__ import annotations

import time

import numpy as np

#: Upper bound on the calls an ablation makes (keeps a run short).
MAX_CALLS = 2_000_000
#: Block length for the ``sample_block`` ablation (the fastpath's).
BLOCK = 32_768


def draw_ns(distributions, draws: int, seed: int) -> dict:
    """ns per draw through the prefetch path and through ``sample_block``.

    ``draws`` are split evenly over ``distributions``, as an open-loop
    source draws one gap and one size per job.
    """
    from repro.distributions.prefetch import PrefetchSampler

    if not distributions or draws <= 0:
        return {"prefetch": 0.0, "block": 0.0, "draws": 0}
    each = max(1, min(draws, MAX_CALLS) // len(distributions))
    prefetch_s = block_s = 0.0
    for offset, distribution in enumerate(distributions):
        sampler = PrefetchSampler(
            distribution, np.random.default_rng(seed + offset))
        started = time.perf_counter()
        # The inlined hot path of Source._emit.
        for _ in range(each):
            value = next(sampler.it, None)
            if value is None:
                value = sampler.refill()
        prefetch_s += time.perf_counter() - started
        rng = np.random.default_rng(seed + offset)
        started = time.perf_counter()
        left = each
        while left > 0:
            n = min(BLOCK, left)
            distribution.sample_block(rng, n)
            left -= n
        block_s += time.perf_counter() - started
    total = each * len(distributions)
    return {"prefetch": prefetch_s * 1e9 / total,
            "block": block_s * 1e9 / total, "draws": total}


def fresh_statistic(statistic):
    """A new Statistic configured like ``statistic``."""
    from repro.core.statistic import Statistic

    return Statistic(
        statistic.name,
        mean_accuracy=statistic.mean_accuracy,
        quantiles=dict(statistic.quantile_targets),
        confidence=statistic.confidence,
        warmup_samples=statistic.warmup_samples,
        calibration_samples=statistic.calibration_samples,
        bins=statistic.bins,
        max_lag=statistic.max_lag,
        fixed_scheme=statistic.fixed_scheme,
        min_accepted=statistic.min_accepted,
        significance=statistic.significance,
        convergence_check_interval=statistic.convergence_check_interval,
    )


def observe_ns(template, stream) -> dict:
    """ns per observation replaying ``stream`` through ``observe`` and
    through ``observe_block`` into fresh statistics like ``template``.

    Replaying the exact stream a statistic saw takes a same-configured
    one through the same phases, so both paths do the work the run did.
    """
    values = np.asarray(stream, dtype=float)[:MAX_CALLS]
    if template is None or values.size == 0:
        return {"observe": 0.0, "block": 0.0, "observations": 0}
    as_list = values.tolist()
    statistic = fresh_statistic(template)
    observe = statistic.observe
    started = time.perf_counter()
    for value in as_list:
        observe(value)
    single_s = time.perf_counter() - started
    statistic = fresh_statistic(template)
    started = time.perf_counter()
    statistic.observe_block(values)
    block_s = time.perf_counter() - started
    return {"observe": single_s * 1e9 / values.size,
            "block": block_s * 1e9 / values.size,
            "observations": int(values.size)}


def choose_ns(calls: int, servers: int, seed: int) -> float:
    """ns per ``RandomBalancer.choose`` over ``servers`` backends."""
    from repro.datacenter.balancers import RandomBalancer
    from repro.datacenter.server import Server
    from repro.engine.simulation import Simulation

    calls = min(calls, MAX_CALLS)
    if calls <= 0:
        return 0.0
    balancer = RandomBalancer([Server(cores=1) for _ in range(servers)])
    balancer.bind(Simulation(seed))
    choose = balancer.choose
    started = time.perf_counter()
    for _ in range(calls):
        choose(None)
    return (time.perf_counter() - started) * 1e9 / calls
