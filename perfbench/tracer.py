"""Layer tracing for the benchmark's traced runs.

:func:`install` wraps the public entry points of every ``repro`` layer at
class (or module) level, before anything is constructed, so every instance
created afterwards runs through the wrappers.  Nothing under ``src/``
changes: the wrappers live here and are only installed by a traced run.

Per wrapped target the tracer aggregates calls, inclusive seconds and self
seconds (inclusive minus the time covered by nested wrapped calls on the
same thread, each counted from its wrapper's entry to its exit, so the
wrappers' own cost is charged to no layer).  Coarse targets (one call per
simulation, build, render or request) also keep one span each -- label,
start, end, span id and the id of the enclosing coarse span -- in memory;
:meth:`Tracer.dump` writes them out when the run ends.  Coroutine targets
record their duration (time awaited included) and take no part in
self-time accounting, because other tasks interleave with them on the
event loop.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class _ThreadState:
    __slots__ = ("stack", "agg", "counters", "spans")

    def __init__(self) -> None:
        #: Open wrapped calls: [child seconds, innermost coarse span id].
        self.stack: List[list] = []
        #: label -> [calls, inclusive seconds, self seconds]
        self.agg: Dict[str, list] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: collections.Counter = collections.Counter()
        self.spans: List[tuple] = []


class Tracer:
    """Wrapper installer plus the per-thread aggregates it fills."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Programs returned by a wrapped ``build_program`` and programs a
        #: ``Machine`` was built for, kept alive so ids stay unique.
        self.built_programs: Dict[int, object] = {}
        self.simulated_programs: Dict[int, object] = {}

    # ------------------------------------------------------------------ state
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    # ------------------------------------------------------------------ wrapping
    def wrap(self, owner, name: str, label: str, coarse: bool = False,
             after: Optional[Callable] = None, before: Optional[Callable] = None) -> None:
        """Replace ``owner.name`` (defined on the class or module ``owner``
        itself) with a timed wrapper.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(counters, args, result, token)``, which runs on success.
        """
        original = owner.__dict__[name]
        state_of = self._state
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # ``outer`` opens the window the enclosing call subtracts from its
            # self time: the wrapper's own bookkeeping and hooks included, so
            # tracing cost lands in no layer's self time.
            outer = clock()
            state = state_of()
            stack = state.stack
            try:
                span_id = next(ids) if coarse else (stack[-1][1] if stack else None)
                parent = stack[-1][1] if stack else None
                frame = [0.0, span_id]
                token = before(args) if before is not None else None
                stack.append(frame)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stack.pop()
                    record = state.agg[label]
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[0]
                    if coarse:
                        state.spans.append((label, start, end, span_id, parent))
                if after is not None:
                    after(state.counters, args, result, token)
                return result
            finally:
                if stack:
                    stack[-1][0] += clock() - outer

        setattr(owner, name, wrapper)
        if not isinstance(owner, type):
            _rebind_imported(original, wrapper)

    def wrap_async(self, owner, name: str, label: str,
                   after: Optional[Callable] = None) -> None:
        """Replace a coroutine method with one recording its duration and a span."""
        original = owner.__dict__[name]
        state_of = self._state
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            start = clock()
            result = None
            try:
                result = await original(*args, **kwargs)
                return result
            finally:
                end = clock()
                state = state_of()
                record = state.agg[label]
                record[0] += 1
                record[1] += end - start
                record[2] += end - start
                state.spans.append((label, start, end, span_id, None))
                if after is not None:
                    after(state.counters, args, result, None)

        setattr(owner, name, wrapper)

    # ------------------------------------------------------------------ results
    def aggregate(self) -> Dict[str, List[float]]:
        """label -> [calls, inclusive seconds, self seconds], over all threads."""
        merged: Dict[str, List[float]] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for state in list(self._states):
            for label, (calls, total, own) in list(state.agg.items()):
                record = merged[label]
                record[0] += calls
                record[1] += total
                record[2] += own
        return dict(merged)

    def counters(self) -> Dict[str, int]:
        merged: collections.Counter = collections.Counter()
        for state in list(self._states):
            merged.update(state.counters)
        return dict(merged)

    def report(self) -> Dict[str, object]:
        return {
            "aggregate": self.aggregate(),
            "counters": self.counters(),
            "simulated_programs": len(self.simulated_programs),
            "foreign_programs": len(set(self.simulated_programs) - set(self.built_programs)),
        }

    def dump(self, path) -> None:
        """Write every recorded span plus the aggregates as JSON."""
        spans = [
            {"name": label, "start": start, "end": end, "id": span_id, "parent": parent}
            for state in list(self._states)
            for label, start, end, span_id, parent in state.spans
        ]
        spans.sort(key=lambda span: span["start"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, **self.report()}, handle)


def _rebind_imported(original, wrapper) -> None:
    """Point every ``from module import name`` copy inside repro at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _subclasses(base) -> list:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


# ---------------------------------------------------------------------- hooks
def _after_machine_init(tracer: Tracer):
    def after(counters, args, result, token):
        program = args[1]
        tracer.simulated_programs[id(program)] = program
    return after


def _after_machine_run(counters, args, result, token) -> None:
    counters["sim.runs"] += 1
    counters["sim.tasks"] += result.num_tasks_executed
    counters["sim.cycles"] += result.total_cycles
    stats = result.dmu_stats
    if stats is not None:
        counters["core.accesses"] += stats.total_accesses
        counters["core.ready_pops"] += stats.ready_pops
        counters["core.null_ready_pops"] += stats.null_ready_pops


def _after_dmu(counters, args, result, token) -> None:
    if result.blocked:
        counters["core.blocked"] += 1


def _after_build(tracer: Tracer):
    def after(counters, args, result, token):
        counters["workloads.tasks"] += result.num_tasks
        tracer.built_programs[id(result)] = result
    return after


def _after_cache_get(counters, args, result, token) -> None:
    if result is not None:
        counters["cache.hits"] += 1


def _before_lookup(args) -> int:
    return args[0].memory_hits


def _after_lookup(counters, args, result, token) -> None:
    counters["campaign.memory_hits"] += args[0].memory_hits - token


def _after_commit(counters, args, result, token) -> None:
    counters["campaign.simulations"] += 1


def _after_render_request(counters, args, result, token) -> None:
    if result is not None and result[0] == 304:
        counters["service.not_modified"] += 1


DMU_INSTRUCTIONS = (
    "create_task", "add_dependence", "complete_creation", "finish_task", "get_ready_task",
)


def install() -> Tracer:
    """Import every traced layer and wrap its entry points; returns the tracer."""
    from repro.analysis import validation
    from repro.core.dmu import DependenceManagementUnit
    from repro.experiments import registry
    from repro.experiments.cache import ResultCache
    from repro.experiments.campaign import CampaignEngine
    from repro.runtime.tracker import DependenceTracker
    from repro.schedulers.base import Scheduler
    from repro.service.server import ResultsService
    from repro.service.singleflight import SingleFlight
    from repro.sim.machine import Machine
    import repro.workloads.registry  # noqa: F401 - defines every workload class
    from repro.workloads.base import Workload

    tracer = Tracer()
    wrap = tracer.wrap
    for name in DMU_INSTRUCTIONS:
        wrap(DependenceManagementUnit, name, f"core.{name}", after=_after_dmu)
    wrap(Machine, "__init__", "sim.init", after=_after_machine_init(tracer))
    wrap(Machine, "run", "sim.run", coarse=True, after=_after_machine_run)
    for name in ("register_task", "finish_task"):
        wrap(DependenceTracker, name, f"runtime.{name}")
    for cls in _subclasses(Scheduler):
        for name in ("push", "pop"):
            if name in cls.__dict__:
                wrap(cls, name, f"schedulers.{cls.__name__}.{name}")
    for cls in _subclasses(Workload):
        if "build_program" in cls.__dict__:
            wrap(cls, "build_program", f"workloads.{cls.__name__}", coarse=True,
                 after=_after_build(tracer))
    wrap(validation, "validate_execution", "analysis.validate", coarse=True)
    wrap(CampaignEngine, "run_many", "campaign.run_many", coarse=True)
    wrap(CampaignEngine, "run", "campaign.run")
    wrap(CampaignEngine, "resolve", "campaign.resolve")
    wrap(CampaignEngine, "_lookup", "campaign.lookup", before=_before_lookup, after=_after_lookup)
    wrap(CampaignEngine, "commit_serialized", "campaign.commit", after=_after_commit)
    wrap(ResultCache, "get", "cache.get", after=_after_cache_get)
    wrap(ResultCache, "put_serialized", "cache.put")
    wrap(registry, "run_experiment", "registry.render", coarse=True)
    tracer.wrap_async(ResultsService, "handle_render", "service.handle_render",
                      after=_after_render_request)
    tracer.wrap_async(SingleFlight, "run", "service.flight")
    return tracer

