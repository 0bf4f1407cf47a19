"""The TDM runtime: dependence management in hardware, scheduling in software.

This is the paper's proposal.  The runtime allocates task descriptors and
issues the four TDM ISA instructions (the issue path shared with Task
Superscalar, :mod:`repro.runtime.dmu_runtime`); the DMU tracks tasks and
dependences and exposes ready tasks through its Ready Queue; the runtime
drains ready tasks into its software pool and schedules them with any
policy.  Workers pop that pool under the runtime lock, in the worker loop
(:mod:`repro.sim.thread`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .base import RuntimeGenerator
from .dmu_runtime import DMURuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class TDMRuntime(DMURuntime):
    """Runtime system using the DMU for dependence tracking."""

    name = "tdm"
    honors_scheduler = True

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        # Fixed per-operation costs hoisted out of the per-yield hot path.
        costs = self.costs
        self._drain_cycles = costs.tdm_drain_cycles()
        self._push_cycles = costs.tdm_push_cycles()
        self._pop_cycles = costs.tdm_pop_cycles()

    def _finish_blocked_issue(
        self, thread: "SimThread", operation: Callable[[], object], space_target
    ) -> RuntimeGenerator:
        """The shared blocked path, then the response's NoC crossing."""
        result = yield from super()._finish_blocked_issue(thread, operation, space_target)
        # The response still crosses the NoC once after a blocked wait.
        yield self._noc_round_trip[thread.core_id] // 2
        return result

    def _publish_ready(self, thread: "SimThread", created, result) -> RuntimeGenerator:
        """Drain the Ready Queue into the software pool.

        "Just after notifying a task has finished, the runtime system uses
        get_ready_task to request the successors that have just become
        ready."  After a creation the creating thread drains the task, so it
        reaches the software pool immediately (no other thread polls the
        DMU).  ``get_ready_task`` is issued until the DMU returns null.
        """
        # Inlined issue (see repro.runtime.dmu_runtime): locals hoisted
        # because one drain loop runs after every task finish.
        dmu_lock = self.dmu_lock
        process = thread.process
        issue_cycles = self._issue_cycles
        round_trip = self._noc_round_trip[thread.core_id]
        acquire_dmu = self._acquire_dmu_lock
        wait_target = self.space_freed.wait_target
        get_ready = self._dmu.get_ready_task
        while True:
            yield issue_cycles
            yield round_trip
            space_target = wait_target()
            yield acquire_dmu
            ready = get_ready()
            if ready.blocked:
                ready = yield from self._finish_blocked_issue(thread, get_ready, space_target)
            else:
                yield ready.cycles
                dmu_lock.release(process)
            if ready.is_null:
                return None
            # Snapshot before yielding: the pooled result is recycled by the
            # next get_ready_task once the DMU lock is free.
            instance = self.resolve_descriptor(ready.descriptor_address)
            successor_count = ready.num_successors
            yield self._drain_cycles
            yield self.acquire_runtime_lock
            yield self._push_cycles
            self.push_ready(
                instance,
                producer_core=thread.core_id,
                successor_count=successor_count,
            )
            self.runtime_lock.release(process)

    def stats(self):
        data = super().stats()
        data["dmu_blocked_cycles"] = self.blocked_cycles
        return data
