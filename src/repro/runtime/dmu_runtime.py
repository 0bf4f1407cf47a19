"""The DMU issue path shared by the TDM and Task Superscalar runtimes.

Both runtimes track dependences with the same Dependence Management Unit
(the paper's gem5 setup: "Combining this hardware queue and the DMU we also
model Task Superscalar").  They differ in where a ready task goes: TDM
drains it into the software pool, where any policy schedules it; Task
Superscalar leaves it in the DMU's Ready Queue and workers pop it from
there.  And after a blocked instruction, TDM's response crosses the NoC once
more.  :class:`DMURuntime` holds everything else: the unit, its lock, the
space-freed notification, task creation, the common part of task
finalization and the blocked-instruction path.

Timing model of one ISA instruction (Section III-D gives them barrier
semantics, so the issuing core is busy for the whole duration):

    issue cycles  +  NoC round trip  +  DMU processing cycles

The DMU processes instructions sequentially, which is modeled with a lock
around the unit.  Each call site inlines that sequence (one less generator
and one less ``send()`` frame per instruction than a shared helper would
cost).  When the DMU reports a full structure, the call site falls back to
:meth:`DMURuntime._finish_blocked_issue`: the core waits until a
``finish_task`` frees entries and then retries; only the DMU processing part
is re-attempted (the instruction sits at the DMU, the core does not
re-execute it).  Time stalled on a full DMU is IDLE (the core makes no
progress and is clock gated), not dependence-management work.

DMU results are pooled objects, valid only while the DMU lock is held plus
the resumption segment that releases it (the simulator is cooperative:
another core can only issue an instruction after this process yields).  A
call site copies any field it needs beyond that into locals; the cold path
returns a detached private copy because its result crosses a wait.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Optional

from ..core.dmu import DependenceManagementUnit
from ..sim.events import Acquire, NotificationEvent, WaitEvent
from ..sim.resources import Lock
from ..sim.timeline import Phase
from .base import RuntimeGenerator, RuntimeSystem
from .task import TaskDefinition, TaskInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.thread import SimThread


class DMURuntime(RuntimeSystem):
    """A runtime that tracks dependences with the DMU's four ISA instructions.

    Subclasses decide where ready tasks go (:meth:`_publish_ready`).
    """

    uses_dmu = True
    #: Name of the DMU lock; the space-freed notification is ``<name>-space``.
    unit_name = "dmu"

    def __init__(self, config, scheduler, engine, noc) -> None:
        super().__init__(config, scheduler, engine, noc)
        self._dmu = DependenceManagementUnit(config.dmu)
        self.dmu_lock = Lock(engine, self.unit_name)
        self._acquire_dmu_lock = Acquire(self.dmu_lock)
        self.space_freed = NotificationEvent(engine, f"{self.unit_name}-space")
        self.blocked_instruction_events = 0
        # Cycles stalled on a full structure.  Only TDM reports them: the
        # stats are serialized into cached results, so a new key for Task
        # Superscalar would change every cached result byte.
        self.blocked_cycles = 0
        # Fixed per-operation costs hoisted out of the per-yield hot path.
        self._issue_cycles = config.dmu.instruction_issue_cycles
        self._alloc_cycles = self.costs.tdm_task_alloc_cycles()
        self._finish_cycles = self.costs.tdm_finish_cycles()
        # NoC round trips are pure per-core constants; the table lookup
        # replaces a bounds-checking method call on every ISA instruction.
        self._noc_round_trip = tuple(
            noc.round_trip_cycles(core) for core in range(config.chip.num_cores)
        )

    @property
    def dmu(self) -> DependenceManagementUnit:
        return self._dmu

    @abc.abstractmethod
    def _publish_ready(
        self, thread: "SimThread", created: Optional[TaskInstance], result
    ) -> Optional[RuntimeGenerator]:
        """Route the tasks a DMU update made ready.

        Called after ``complete_creation`` made ``created`` ready, and after
        every ``finish_task`` (``created`` is None, ``result`` is the still
        valid finish result).  Returns a generator for the caller to drive,
        or None when routing takes no simulated time (no generator is
        built on that path).
        """

    # ------------------------------------------------------------------ cold path
    def _finish_blocked_issue(
        self, thread: "SimThread", operation: Callable[[], object], space_target
    ) -> RuntimeGenerator:
        """Cold path of an inlined issue: the DMU reported a full structure.

        Entered with the DMU lock held and ``operation()`` just blocked;
        ``space_target`` is the notification target captured *before* the
        lock acquisition, so a ``finish_task`` that freed space while this
        core waited for the lock is not missed.  Returns the completed
        result, detached from the DMU's pooled instance.
        """
        process = thread.process
        engine = self.engine
        timeline = thread.timeline
        while True:
            self.dmu_lock.release(process)
            self.blocked_instruction_events += 1
            blocked_since = engine.now
            timeline.begin(Phase.IDLE, engine.now)
            yield WaitEvent(space_target)
            timeline.begin(Phase.DEPS, engine.now)
            self.blocked_cycles += engine.now - blocked_since
            space_target = self.space_freed.wait_target()
            yield self._acquire_dmu_lock
            result = operation()
            if result.blocked:
                continue
            result = result.detach()
            yield result.cycles
            self.dmu_lock.release(process)
            return result

    # ------------------------------------------------------------------ creation
    def create_task(
        self, thread: "SimThread", definition: TaskDefinition, region_index: int
    ) -> RuntimeGenerator:
        instance = self.new_instance(definition, region_index)
        descriptor = instance.descriptor_address
        # The 2 + num_dependences instructions every creation issues, each
        # inlined (see the module docstring).
        dmu = self._dmu
        dmu_lock = self.dmu_lock
        process = thread.process
        issue_cycles = self._issue_cycles
        round_trip = self._noc_round_trip[thread.core_id]
        acquire_dmu = self._acquire_dmu_lock
        wait_target = self.space_freed.wait_target

        yield self._alloc_cycles
        yield issue_cycles
        yield round_trip
        space_target = wait_target()
        yield acquire_dmu
        result = dmu.create_task(descriptor)
        if result.blocked:
            yield from self._finish_blocked_issue(
                thread, lambda: dmu.create_task(descriptor), space_target
            )
        else:
            yield result.cycles
            dmu_lock.release(process)

        for dependence in definition.dependences:
            yield issue_cycles
            yield round_trip
            space_target = wait_target()
            yield acquire_dmu
            result = dmu.add_dependence(
                descriptor, dependence.address, dependence.size, dependence.direction
            )
            if result.blocked:
                yield from self._finish_blocked_issue(
                    thread,
                    lambda dep=dependence: dmu.add_dependence(
                        descriptor, dep.address, dep.size, dep.direction
                    ),
                    space_target,
                )
            else:
                yield result.cycles
                dmu_lock.release(process)

        yield issue_cycles
        yield round_trip
        space_target = wait_target()
        yield acquire_dmu
        completion = dmu.complete_creation(descriptor)
        if completion.blocked:
            completion = yield from self._finish_blocked_issue(
                thread, lambda: dmu.complete_creation(descriptor), space_target
            )
        else:
            yield completion.cycles
            dmu_lock.release(process)
        if completion.became_ready:
            follow_up = self._publish_ready(thread, instance, completion)
            if follow_up is not None:
                yield from follow_up
        return instance

    # ------------------------------------------------------------------ finalization
    def finish_task(self, thread: "SimThread", instance: TaskInstance) -> RuntimeGenerator:
        descriptor = instance.descriptor_address
        dmu = self._dmu
        yield self._finish_cycles
        # One inlined finish instruction per task.
        yield self._issue_cycles
        yield self._noc_round_trip[thread.core_id]
        space_target = self.space_freed.wait_target()
        yield self._acquire_dmu_lock
        result = dmu.finish_task(descriptor)
        if result.blocked:
            result = yield from self._finish_blocked_issue(
                thread, lambda: dmu.finish_task(descriptor), space_target
            )
        else:
            yield result.cycles
            self.dmu_lock.release(thread.process)
        instance.mark_finished(self.engine.now)
        self.tasks_finished += 1
        # Entries were freed in the DMU: unblock any stalled instruction.
        self.space_freed.notify_all()
        follow_up = self._publish_ready(thread, None, result)
        if follow_up is not None:
            yield from follow_up
        return None

    def stats(self):
        data = super().stats()
        data["dmu_blocked_events"] = self.blocked_instruction_events
        return data
