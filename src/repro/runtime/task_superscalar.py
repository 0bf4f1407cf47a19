"""Task Superscalar baseline: dependence management *and* scheduling in hardware.

Task Superscalar [11] offloads the whole runtime activity to the
architecture.  The model reuses the DMU for dependence tracking (the paper's
gem5 setup does the same: "Combining this hardware queue and the DMU we also
model Task Superscalar"), so it shares TDM's issue path
(:mod:`repro.runtime.dmu_runtime`), and schedules directly from the hardware
Ready Queue with a fixed FIFO policy: workers pop ready tasks straight from
the unit, so there is no software pool and the configured software scheduler
is ignored.  Unlike TDM, a blocked instruction charges no post-wait NoC
crossing (the hardware queue replays the instruction internally).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..schedulers.base import ReadyEntry
from .base import RuntimeGenerator
from .dmu_runtime import DMURuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class TaskSuperscalarRuntime(DMURuntime):
    """Hardware dependence tracking + hardware FIFO scheduling."""

    name = "task_superscalar"
    honors_scheduler = False
    unit_name = "tss"

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        self._hw_queue_cycles = self.costs.hw_queue_cycles()

    def work_available_hint(self) -> bool:
        return self._dmu.ready_tasks > 0

    def _publish_ready(self, thread: "SimThread", created, result) -> None:
        # Ready tasks stay in the hardware Ready Queue: only wake the workers.
        if created is not None:
            created.mark_ready(self.engine.now)
            self.notify_workers()
        elif result.tasks_woken > 0:
            self.notify_workers()
        return None

    # ------------------------------------------------------------------ scheduling
    def try_get_task(self, thread: "SimThread") -> RuntimeGenerator:
        dmu = self._dmu
        yield self._hw_queue_cycles
        # Inlined issue (see repro.runtime.dmu_runtime): workers pop straight
        # from the hardware Ready Queue, so this is the hottest instruction
        # path.
        yield self._issue_cycles
        yield self._noc_round_trip[thread.core_id]
        space_target = self.space_freed.wait_target()
        yield self._acquire_dmu_lock
        result = dmu.get_ready_task()
        if result.blocked:
            result = yield from self._finish_blocked_issue(
                thread, dmu.get_ready_task, space_target
            )
        else:
            yield result.cycles
            self.dmu_lock.release(thread.process)
        if result.is_null:
            return None
        instance = self.resolve_descriptor(result.descriptor_address)
        if instance.ready_cycle is None:
            instance.mark_ready(self.engine.now)
        self.pool.total_pops += 1
        return ReadyEntry(
            task=instance,
            creation_seq=instance.uid,
            ready_seq=self.pool.next_ready_seq(),
            successor_count=result.num_successors,
            producer_core=thread.core_id,
        )
