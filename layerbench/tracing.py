"""Spans around the public entry points of each layer, recorded from outside.

:class:`LayerTracer` replaces a fixed list of public functions and
methods with wrappers that record one span per call: name, start, end
and parent (the span open when the call began).  Nothing in ``src/`` is
edited; the wrappers are installed before a model is built, so bound
methods the model captures (``Statistic.observe`` behind a recorder)
are the wrapped ones, and removed afterwards.

Spans stay in memory in flat arrays and are written out once, when the
run ends.  A span's self time is its duration minus the durations of
its direct children.  Forked children (parallel slaves, pool workers)
get the original functions back right after the fork, so they run, and
are timed, untraced.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Values of the observation stream kept for the ``observe`` ablation.
STREAM_CAP = 4_000_000


def _one(args, kwargs, result) -> int:
    return 1


def _block_len(args, kwargs, result) -> int:
    return len(result)


def _refill_units(args, kwargs, result) -> int:
    # A per-draw (non-vectorized) refill calls ``sample``, whose own
    # span counts the draw.
    sampler = args[0]
    return sampler.block_size if sampler._vectorized else 0


def _jobs_len(args, kwargs, result) -> int:
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    return len(jobs)


class LayerTracer:
    """Record spans at the layer boundaries of one benchmark process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.units = array("q")
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self._pid: Optional[int] = None
        #: Observation stream of the first statistic seen, and that
        #: statistic (the ``observe`` ablation replays one into a copy of
        #: the other).
        self.stream = array("d")
        self.stream_owner = None
        #: Objects received from slaves (sized once the run has ended).
        self.received: List[object] = []
        self._fork_hook_registered = False

    # -- recording -------------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.units.append(0)
        return nid

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        units: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call."""
        nid = self._name_id(layer, name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        counts = self.units
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = began
                stack.pop()
            if units is not None:
                counts[nid] += units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr: str, layer: str, name: str, units=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original, units))

    def _capture_observe(self, args, kwargs, result) -> int:
        statistic = args[0]
        if self.stream_owner is None:
            self.stream_owner = statistic
        if statistic is self.stream_owner and len(self.stream) < STREAM_CAP:
            self.stream.append(args[1])
        return 1

    def _capture_observe_block(self, args, kwargs, result) -> int:
        statistic, values = args[0], args[1]
        if self.stream_owner is None:
            self.stream_owner = statistic
        if statistic is self.stream_owner and len(self.stream) < STREAM_CAP:
            self.stream.extend(np.asarray(values, dtype=float).tolist())
        return len(values)

    def _capture_received(self, args, kwargs, result) -> int:
        self.received.append(result)
        return 1

    # -- install / remove -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per instance)."""
        if self._patches:
            return
        import repro.core.statistic as statistic_module
        import repro.engine.fastpath as fastpath
        import repro.theory as theory
        import repro.validation.acceptance as acceptance
        from repro.core.histogram import Histogram
        from repro.core.statistic import Statistic
        from repro.datacenter.balancers import LoadBalancer, RandomBalancer
        from repro.datacenter.server import Server
        from repro.distributions import Distribution
        from repro.distributions.prefetch import PrefetchSampler
        from repro.engine.simulation import Simulation
        from repro.parallel.pool import WorkerPool
        from repro.parallel.transport import LocalEndpoint, LocalPipeTransport
        from repro.sweep.cache import SweepCache

        for cls in [Distribution] + _subclasses(Distribution):
            sample = cls.__dict__.get("sample")
            if sample is not None and not getattr(
                sample, "__isabstractmethod__", False
            ):
                self._patch(cls, "sample", "distributions",
                            f"{cls.__name__}.sample", _one)
            if "sample_block" in cls.__dict__:
                self._patch(cls, "sample_block", "distributions",
                            f"{cls.__name__}.sample_block", _block_len)
        self._patch(PrefetchSampler, "refill", "distributions",
                    "PrefetchSampler.refill", _refill_units)

        for cls in [Server] + _subclasses(Server):
            if "arrive" in cls.__dict__:
                self._patch(cls, "arrive", "datacenter",
                            f"{cls.__name__}.arrive", _one)
        self._patch(LoadBalancer, "arrive", "datacenter",
                    "LoadBalancer.arrive", _one)
        self._patch(RandomBalancer, "choose", "datacenter",
                    "RandomBalancer.choose", _one)

        self._patch(Statistic, "observe", "core", "Statistic.observe",
                    self._capture_observe)
        self._patch(Statistic, "observe_block", "core",
                    "Statistic.observe_block", self._capture_observe_block)
        self._patch(statistic_module, "select_lag", "core",
                    "runs_test.select_lag", _one)

        self._patch(Simulation, "run", "simulation", "Simulation.run", _one)
        self._patch(fastpath, "run_fastpath", "fastpath",
                    "fastpath.run_fastpath", _one)

        self._patch(LocalEndpoint, "recv", "parallel", "LocalEndpoint.recv",
                    self._capture_received)
        self._patch(LocalPipeTransport, "wait", "parallel",
                    "LocalPipeTransport.wait", _one)
        self._patch(Histogram, "merge_payload", "parallel",
                    "Histogram.merge_payload", _one)

        self._patch(WorkerPool, "start", "sweep", "WorkerPool.start", _one)
        self._patch(WorkerPool, "map", "sweep", "WorkerPool.map", _jobs_len)
        self._patch(SweepCache, "get", "sweep", "SweepCache.get", _one)
        self._patch(SweepCache, "put", "sweep", "SweepCache.put", _one)

        self._patch(acceptance, "evaluate", "theory", "acceptance.evaluate", _one)
        for fn_name in ("mg1_mean_response", "mmk_mean_response"):
            self._patch(theory, fn_name, "theory", f"theory.{fn_name}", _one)

        self._pid = os.getpid()
        if not self._fork_hook_registered:
            os.register_at_fork(after_in_child=self._after_fork_in_child)
            self._fork_hook_registered = True

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_fork_in_child(self) -> None:
        if self._patches and os.getpid() != self._pid:
            self.uninstall()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as parallel arrays (``parent`` -1 for a root span)."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, dict]:
        """Per span name: layer, calls, total and self seconds, units."""
        spans = self.arrays()
        n_names = len(self.names)
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        own = duration - child_time
        ids = spans["name_id"]
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=duration, minlength=n_names)
        self_s = np.bincount(ids, weights=own, minlength=n_names)
        return {
            name: {
                "layer": self.layers[i],
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "units": int(self.units[i]),
            }
            for i, name in enumerate(self.names)
        }

    def root_time(self, windows) -> List[float]:
        """Seconds of root spans that started in each ``(began, ended)``."""
        spans = self.arrays()
        roots = spans["parent"] < 0
        starts, ends = spans["start"][roots], spans["end"][roots]
        return [
            float(np.sum(ends[(starts >= began) & (starts <= ended)]
                         - starts[(starts >= began) & (starts <= ended)]))
            for began, ended in windows
        ]

    def received_bytes(self) -> int:
        """Pickled size of everything received from slaves."""
        return sum(len(pickle.dumps(obj)) for obj in self.received)

    def write(self, path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            **self.arrays(),
        )


def _subclasses(cls) -> list:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in found:
            found.append(sub)
            todo.extend(sub.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))
