"""Base class shared by all runtime-system models.

A runtime system is the component the simulated threads call into.  Its
methods are *generators* that the calling thread drives with ``yield from``:
they yield simulation commands (timeouts for busy cycles, lock acquisitions,
event waits) and finally return their result.  This keeps all timing
behaviour in one place while the thread model in :mod:`repro.sim.thread`
handles phase accounting.

The common machinery provided here:

* task-instance creation (descriptor addresses, the descriptor -> instance
  map used to resolve DMU responses),
* the software pool of ready tasks and the wake-up notification channel,
* the global runtime lock used by software TDG / pool updates,
* bookkeeping counters surfaced in :meth:`RuntimeSystem.stats`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from ..config import SimulationConfig
from ..schedulers.base import ReadyEntry, Scheduler
from ..sim.engine import Engine
from ..sim.events import Acquire, Command, NotificationEvent
from ..sim.noc import NocModel
from ..sim.resources import Lock
from .cost_model import RuntimeCostModel
from .ready_pool import ReadyPool
from .task import TaskDefinition, TaskInstance, TaskInstanceFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dmu import DependenceManagementUnit
    from ..sim.thread import SimThread

RuntimeGenerator = Generator[Command, object, object]


class RuntimeSystem(abc.ABC):
    """Common state and interface of the four runtime-system models."""

    #: Registry name of the runtime ("software", "tdm", ...).
    name: str = "abstract"
    #: Whether the runtime drives a DMU model.
    uses_dmu: bool = False
    #: Whether the configured software scheduler is honoured (hardware
    #: schedulers such as Carbon / Task Superscalar use their fixed policy).
    honors_scheduler: bool = True
    #: How a worker obtains a ready task (SCHED phase).  None (the default)
    #: means the locked software-pool pop: the worker loop in
    #: :mod:`repro.sim.thread` runs it inline (acquire the runtime lock,
    #: ``_lock_cycles``, pop, ``_pop_cycles`` on success, release), with no
    #: generator per attempt.  A runtime that schedules elsewhere (a
    #: hardware queue) defines a generator method here instead, returning a
    #: :class:`~repro.schedulers.base.ReadyEntry` or ``None``.  Either way
    #: the pop runs only after :meth:`work_available_hint` returned True.
    try_get_task: Optional[Callable[["SimThread"], RuntimeGenerator]] = None

    def __init__(
        self,
        config: SimulationConfig,
        scheduler: Scheduler,
        engine: Engine,
        noc: NocModel,
    ) -> None:
        self.config = config
        self.costs = RuntimeCostModel(config.costs)
        self.engine = engine
        self.noc = noc
        self.scheduler = scheduler
        #: The pool owns the worker wake-up channel: every push notifies it
        #: (as one batched drain entry per wake-up window — see
        #: :mod:`repro.runtime.ready_pool`).
        self.pool = ReadyPool(scheduler, engine, name="ready-pool")
        self.runtime_lock = Lock(engine, "runtime-lock")
        #: Reusable ``Acquire(runtime_lock)`` command: the command object is
        #: immutable and yielded thousands of times per simulation, so the
        #: runtimes share one instance instead of allocating per acquisition.
        self.acquire_runtime_lock = Acquire(self.runtime_lock)
        self._lock_cycles = self.costs.lock_acquire_cycles()
        self._factory = TaskInstanceFactory()
        self.instances_by_descriptor: Dict[int, TaskInstance] = {}
        self.all_instances: List[TaskInstance] = []
        self.tasks_created = 0
        self.tasks_finished = 0

    # ------------------------------------------------------------------ helpers
    def new_instance(self, definition: TaskDefinition, region_index: int) -> TaskInstance:
        """Materialize a task instance and register its descriptor address."""
        instance = self._factory.create(definition, region_index)
        instance.created_cycle = self.engine.now
        self.instances_by_descriptor[instance.descriptor_address] = instance
        self.all_instances.append(instance)
        self.tasks_created += 1
        return instance

    def resolve_descriptor(self, descriptor_address: int) -> TaskInstance:
        """Map a descriptor address returned by the hardware back to its instance."""
        return self.instances_by_descriptor[descriptor_address]

    @property
    def wake_channel(self) -> NotificationEvent:
        """The pool's worker wake-up channel (threads hoist this per region)."""
        return self.pool.wake_channel

    def push_ready(
        self,
        instance: TaskInstance,
        producer_core: Optional[int],
        successor_count: int,
    ) -> ReadyEntry:
        """Insert a ready task into the software pool.

        The pool itself wakes the idle workers (one batched drain entry per
        wake-up window); see :mod:`repro.runtime.ready_pool`.
        """
        instance.mark_ready(self.engine.now)
        instance.producer_core = producer_core
        return self.pool.push(
            instance,
            creation_seq=instance.uid,
            successor_count=successor_count,
            producer_core=producer_core,
        )

    def notify_workers(self) -> None:
        """Wake idle workers (used when ready work appears outside the pool)."""
        self.pool.notify_waiters()

    # ------------------------------------------------------------------ interface
    @abc.abstractmethod
    def create_task(
        self, thread: "SimThread", definition: TaskDefinition, region_index: int
    ) -> RuntimeGenerator:
        """Create a task and register its dependences (master-side, DEPS phase).

        Returns the new :class:`TaskInstance`.
        """

    @abc.abstractmethod
    def finish_task(self, thread: "SimThread", instance: TaskInstance) -> RuntimeGenerator:
        """Notify that ``instance`` finished (DEPS phase on the worker side)."""

    # ------------------------------------------------------------------ hints / stats
    def work_available_hint(self) -> bool:
        """Cheap check used by idle workers before attempting a pop.

        A worker attempts a pop (inline, or through ``try_get_task``) only
        right after this returned True, with no yield in between, so the
        pop itself does not re-check for work.  No cost is charged for it.
        """
        return self.pool.size > 0

    @property
    def dmu(self) -> Optional["DependenceManagementUnit"]:
        """The DMU model driven by this runtime (None for pure-software runtimes)."""
        return None

    def stats(self) -> Dict[str, object]:
        """Aggregate runtime statistics for reports and tests."""
        data: Dict[str, object] = {
            "runtime": self.name,
            "tasks_created": self.tasks_created,
            "tasks_finished": self.tasks_finished,
            "pool_pushes": self.pool.total_pushes,
            "pool_pops": self.pool.total_pops,
            "pool_peak": self.pool.peak_size,
            "lock_acquisitions": self.runtime_lock.acquisitions,
            "lock_wait_cycles": self.runtime_lock.total_wait_cycles,
        }
        if self.dmu is not None:
            data["dmu"] = self.dmu.stats.as_dict()
        return data

    def assert_drained(self) -> None:
        """Sanity check at end of simulation: everything created also finished."""
        if self.tasks_created != self.tasks_finished:
            raise RuntimeError(
                f"{self.name} runtime finished {self.tasks_finished} of "
                f"{self.tasks_created} created tasks"
            )
