"""Carbon baseline: hardware task queues, software dependence management.

Carbon [10] is conceptually the opposite of TDM (Section VI-C of the paper):
it accelerates the *scheduling* phase with distributed hardware ready queues
(fixed FIFO policy with work stealing) but leaves dependence tracking to the
software runtime.  The model therefore reuses the software dependence tracker
and its calibrated costs, while pool operations cost only a hardware queue
access and need no lock (the hardware serializes them internally).

The distributed per-core queues with work stealing are modeled as a single
FIFO: with stealing enabled the set of queues is work-conserving and behaves
like a global FIFO at the task granularities used in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..schedulers.base import ReadyEntry
from ..schedulers.fifo import FifoScheduler
from .base import RuntimeGenerator, RuntimeSystem
from .ready_pool import ReadyPool
from .task import TaskDefinition, TaskInstance
from .tracker import DependenceTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class CarbonRuntime(RuntimeSystem):
    """Software dependence tracking + hardware FIFO task queues."""

    name = "carbon"
    uses_dmu = False
    honors_scheduler = False

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        # Carbon's scheduling policy is fixed in hardware: ignore the
        # configured software scheduler and use a FIFO pool.  The replacement
        # pool owns the wake channel, exactly like the one it replaces.
        self.pool = ReadyPool(FifoScheduler(), engine, name="carbon-queue")
        self.tracker = DependenceTracker()
        # Fixed per-operation costs hoisted out of the per-yield hot path.
        self._alloc_cycles = self.costs.sw_task_alloc_cycles()
        self._hw_queue_cycles = self.costs.hw_queue_cycles()

    # ------------------------------------------------------------------ creation
    def create_task(
        self, thread: "SimThread", definition: TaskDefinition, region_index: int
    ) -> RuntimeGenerator:
        instance = self.new_instance(definition, region_index)
        yield self._alloc_cycles
        yield self.costs.sw_dependence_lookup_cycles(definition.num_dependences)
        yield self.acquire_runtime_lock
        yield self._lock_cycles
        match = self.tracker.register_task(instance)
        yield self.costs.sw_dependence_commit_cycles(match)
        self.runtime_lock.release(thread.process)
        if match.initially_ready:
            yield self._hw_queue_cycles
            self.push_ready(
                instance,
                producer_core=thread.core_id,
                successor_count=instance.num_successors,
            )
        return instance

    # ------------------------------------------------------------------ scheduling
    def try_get_task(self, thread: "SimThread") -> RuntimeGenerator:
        yield self._hw_queue_cycles
        entry: Optional[ReadyEntry] = self.pool.pop(thread.core_id)
        return entry

    # ------------------------------------------------------------------ finalization
    def finish_task(self, thread: "SimThread", instance: TaskInstance) -> RuntimeGenerator:
        yield self.acquire_runtime_lock
        yield self._lock_cycles
        newly_ready = self.tracker.finish_task(instance)
        yield self.costs.sw_finish_cycles(len(instance.successors))
        # The task's data is available as soon as its finalization is logged;
        # successors may start while the hardware queue insertions below are
        # still in flight, so the finish timestamp is recorded first.
        instance.mark_finished(self.engine.now)
        self.tasks_finished += 1
        self.runtime_lock.release(thread.process)
        # Loop locals hoisted: one hardware-queue insertion per newly ready
        # successor is the hot finalization path of this runtime.
        hw_queue_cycles = self._hw_queue_cycles
        push_ready = self.push_ready
        core_id = thread.core_id
        for successor in newly_ready:
            yield hw_queue_cycles
            push_ready(
                successor,
                producer_core=core_id,
                successor_count=successor.num_successors,
            )
        return None

    def stats(self):
        data = super().stats()
        data["live_dependences_peak"] = self.tracker.max_live_dependences
        return data
