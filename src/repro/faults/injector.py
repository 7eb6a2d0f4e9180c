"""FaultInjector: executes a fault plan inside a worker's loop.

The injector is the *only* piece of the fault subsystem that lives on
the worker side of the protocol.  Master slaves and pool workers both
drive one, built from the picklable per-incarnation sub-plan
(:meth:`repro.faults.plan.FaultPlan.for_slave`) and consulted at three
points in every round:

1. :meth:`on_chunk_start` — before the chunk runs (``kill``/``pre_run``
   and ``hang`` fire here);
2. :meth:`filter_report` — between building and sending the report
   (``kill``/``pre_report``, ``drop_report`` and ``corrupt_payload``
   fire here; the returned report may be ``None`` or mangled);
3. :meth:`after_send` — immediately after a successful send
   (``kill``/``post_report`` fires here).

Two execution modes share the schedule logic:

- **process mode** (default): ``kill`` calls ``os._exit`` so the OS
  reclaims the process without running any cleanup — the closest
  in-repo stand-in for a SIGKILL'd machine — and ``hang`` sleeps with
  the pipe held open, exercising the master's recv deadline.
- **in-process mode** (``raise_instead=True``): ``kill``/``drop`` raise
  :class:`InjectedFailure`, and ``hang`` is returned by
  :meth:`on_chunk_start` instead of slept.  The master's in-process
  transport turns these into the same deaths and round-deadline
  timeouts a process slave produces, without destroying (or stalling)
  the master's own process.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Optional

from repro.faults.plan import FaultSpec

#: Exit status used by injected kills, distinct from crash exit codes so
#: post-mortem triage can tell a scheduled chaos kill from a real bug.
KILL_EXIT_STATUS = 86


class InjectedFailure(RuntimeError):
    """Raised in in-process mode where process mode would die or go silent.

    Carries the triggering :class:`FaultSpec` so the master can record a
    precise cause code.
    """

    def __init__(self, spec: FaultSpec):
        super().__init__(
            f"injected {spec.kind} (slave {spec.slave_id} "
            f"gen {spec.generation} round {spec.round})"
        )
        self.spec = spec


def corrupt_payload(payload: dict) -> dict:
    """Deterministically mangle one histogram payload.

    The mangled form violates the count invariant (``count`` no longer
    equals bins + underflow + overflow) *and* truncates the counts list,
    so both of the master's pre-merge validators can catch it — matching
    the two real-world corruption shapes: bit flips in scalars and
    short reads/truncated frames.
    """
    mangled = dict(payload)
    mangled["count"] = payload["count"] + 1_000_003
    if payload["counts"]:
        mangled["counts"] = list(payload["counts"])[:-1]
    return mangled


def corrupt_report(report):
    """Mangle every metric payload of one slave report in place."""
    report.histograms = {
        name: corrupt_payload(payload)
        for name, payload in report.histograms.items()
    }
    return report


class FaultInjector:
    """Executes one slave incarnation's scheduled faults.

    Parameters
    ----------
    specs:
        The picklable sub-plan for this ``(slave_id, generation)``.
    raise_instead:
        In-process mode — raise :class:`InjectedFailure` instead of
        exiting, and return hangs instead of sleeping (see module
        docstring).
    sleeper / exiter:
        Injection points for tests: default to ``time.sleep`` and
        ``os._exit``.
    corrupt:
        How ``corrupt_payload`` mangles what the worker sends: slave
        reports by default; the pool passes its result corrupter.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        raise_instead: bool = False,
        sleeper=time.sleep,
        exiter=os._exit,
        corrupt=corrupt_report,
    ):
        self._specs = tuple(specs)
        self._raise = raise_instead
        self._sleep = sleeper
        self._exit = exiter
        self._corrupt = corrupt
        #: In-process mode only: a post_report kill observed this round,
        #: to be raised at the *next* round's start (see after_send).
        self._dead_next: Optional[FaultSpec] = None

    def _find(self, round_number: int, kind: str,
              phase: Optional[str] = None) -> Optional[FaultSpec]:
        for spec in self._specs:
            if spec.round != round_number or spec.kind != kind:
                continue
            if phase is not None and spec.phase != phase:
                continue
            return spec
        return None

    def _die(self, spec: FaultSpec) -> None:
        if self._raise:
            raise InjectedFailure(spec)
        self._exit(KILL_EXIT_STATUS)

    # -- hooks ---------------------------------------------------------------

    def on_chunk_start(self, round_number: int) -> Optional[float]:
        """Pre-run hook: ``kill``/``pre_run`` and ``hang`` fire here.

        Returns the delay of a hang in-process mode did not sleep, for
        the caller to emulate; None otherwise.
        """
        if self._dead_next is not None:
            spec, self._dead_next = self._dead_next, None
            raise InjectedFailure(spec)
        spec = self._find(round_number, "kill", phase="pre_run")
        if spec is not None:
            self._die(spec)
        spec = self._find(round_number, "hang")
        if spec is None:
            return None
        if self._raise:
            return spec.delay
        # Stay silent with the pipe open: the master's recv deadline
        # must fire.  The sleep bounds the orphan's lifetime if the
        # master dies too.
        self._sleep(spec.delay)
        return None

    def filter_report(self, round_number: int, report):
        """Pre-send hook: may kill, drop (return None), or corrupt.

        ``report`` is what the worker is about to send; corruption
        replaces it with the ``corrupt`` callable's mangled form so the
        master's validator attributes the failure correctly.
        """
        spec = self._find(round_number, "kill", phase="pre_report")
        if spec is not None:
            self._die(spec)
        spec = self._find(round_number, "drop_report")
        if spec is not None:
            if self._raise:
                raise InjectedFailure(spec)
            return None
        spec = self._find(round_number, "corrupt_payload")
        if spec is not None:
            return self._corrupt(report)
        return report

    def after_send(self, round_number: int) -> None:
        """Post-send hook: ``kill``/``post_report`` fires here.

        In in-process mode the kill is *deferred* to the next round's
        :meth:`on_chunk_start` rather than raised here: the report was
        already merged (exactly as in process mode, where the master
        receives it before the exit), and the process backend only
        detects a post-report death at the next round's send — deferring
        keeps the two backends' detection rounds, and hence their owed
        bookkeeping, identical.
        """
        spec = self._find(round_number, "kill", phase="post_report")
        if spec is not None:
            if self._raise:
                self._dead_next = spec
            else:
                self._exit(KILL_EXIT_STATUS)
