"""The pure-software runtime system (the paper's baseline).

Task creation, dependence tracking, task finalization and scheduling are all
performed in software by the executing threads.  Dependence tracking uses the
:class:`~repro.runtime.tracker.DependenceTracker` under a global runtime lock
(Nanos++ serializes updates to a dependence domain the same way), and its
cost scales with the amount of matching work performed, which is what makes
task creation the bottleneck for benchmarks with many fine-grained,
densely-connected tasks (Figure 2 of the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import RuntimeGenerator, RuntimeSystem
from .task import TaskDefinition, TaskInstance
from .tracker import DependenceTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class SoftwareRuntime(RuntimeSystem):
    """Software dependence tracking + software scheduling."""

    name = "software"
    uses_dmu = False
    honors_scheduler = True

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        self.tracker = DependenceTracker()
        # Fixed per-operation costs hoisted out of the per-yield hot path.
        costs = self.costs
        self._alloc_cycles = costs.sw_task_alloc_cycles()
        self._pop_cycles = costs.sw_pop_cycles()
        self._push_cycles = costs.sw_push_cycles()

    # ------------------------------------------------------------------ creation
    def create_task(
        self, thread: "SimThread", definition: TaskDefinition, region_index: int
    ) -> RuntimeGenerator:
        instance = self.new_instance(definition, region_index)
        # Descriptor allocation and dependence-region lookups happen outside
        # the lock; only linking the task into the TDG needs mutual exclusion.
        yield self._alloc_cycles
        yield self.costs.sw_dependence_lookup_cycles(definition.num_dependences)
        yield self.acquire_runtime_lock
        yield self._lock_cycles
        match = self.tracker.register_task(instance)
        yield self.costs.sw_dependence_commit_cycles(match)
        pushed = False
        if match.initially_ready:
            yield self._push_cycles
            self.push_ready(
                instance,
                producer_core=thread.core_id,
                successor_count=instance.num_successors,
            )
            pushed = True
        self.runtime_lock.release(thread.process)
        if pushed:
            self.notify_workers()
        return instance

    # ------------------------------------------------------------------ finalization
    def finish_task(self, thread: "SimThread", instance: TaskInstance) -> RuntimeGenerator:
        yield self.acquire_runtime_lock
        yield self._lock_cycles
        newly_ready = self.tracker.finish_task(instance)
        yield self.costs.sw_finish_cycles(len(instance.successors))
        for successor in newly_ready:
            yield self._push_cycles
            self.push_ready(
                successor,
                producer_core=thread.core_id,
                successor_count=successor.num_successors,
            )
        instance.mark_finished(self.engine.now)
        self.tasks_finished += 1
        self.runtime_lock.release(thread.process)
        if newly_ready:
            self.notify_workers()
        return None

    def stats(self):
        data = super().stats()
        data["live_dependences_peak"] = self.tracker.max_live_dependences
        data["successor_links"] = self.tracker.total_successor_links
        return data
