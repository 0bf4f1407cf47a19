"""The software pool of ready tasks.

The pool wraps a :class:`~repro.schedulers.base.Scheduler` policy and adds the
bookkeeping the runtime needs: push/pop counters, the high-water mark,
monotonically increasing ready sequence numbers, and the worker wake-up
channel.  The paper's TDM design keeps exactly this structure in software
("the runtime system adds the returned task descriptor address to a pool of
ready tasks"), which is what lets any scheduling policy be used without
hardware changes.

Wake-up batching
----------------
Every push must wake every idle worker — the runtime models require it (each
woken worker re-checks the pool, charges its scheduling costs and contends
for the runtime lock, all of which is observable in the figures).  What is
*not* observable is how the wake-ups travel through the event queue, and the
naive encoding was a storm: one zero-delay queue entry per idle worker per
push.  The pool's :class:`~repro.sim.events.NotificationEvent` now triggers
a **single batched drain entry** per wake-up window
(:class:`repro.sim.events._WaiterBatch`): the drain claims one sequence
number — the position the first waiter would have held — and resumes the
waiters back to back in registration order, which is byte-identical to the
per-worker entries it replaces.  Consecutive pushes in the same window are
free: the channel is already triggered and re-arms lazily on the next wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..schedulers.base import ReadyEntry, Scheduler
from ..sim.events import NotificationEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine


class ReadyPool:
    """Scheduler-backed pool of ready tasks with statistics and wake-ups.

    When ``engine`` is given the pool owns the worker wake-up channel
    (:attr:`wake_channel`) and every :meth:`push` notifies it; without an
    engine (unit tests exercising pure pool bookkeeping) pushes are silent.
    """

    __slots__ = ("scheduler", "wake_channel", "total_pushes", "total_pops",
                 "failed_pops", "peak_size", "_ready_seq", "size")

    def __init__(
        self,
        scheduler: Scheduler,
        engine: Optional["Engine"] = None,
        name: str = "ready-pool",
    ) -> None:
        self.scheduler = scheduler
        #: Re-arming notification channel idle workers sleep on; ``None``
        #: when the pool was built without an engine.
        self.wake_channel: Optional[NotificationEvent] = (
            NotificationEvent(engine, name) if engine is not None else None
        )
        self.total_pushes = 0
        self.total_pops = 0
        self.failed_pops = 0
        self.peak_size = 0
        self._ready_seq = 0
        #: Current pool size, mirrored here as a public counter: every
        #: mutation goes through push/pop, and the emptiness check idle
        #: workers perform on each wake-up must not chase
        #: ``scheduler.__len__`` through two more calls.
        self.size = 0

    def next_ready_seq(self) -> int:
        """Monotonic sequence number assigned to entries in push order."""
        seq = self._ready_seq
        self._ready_seq += 1
        return seq

    def push(
        self,
        task: object,
        creation_seq: int,
        successor_count: int = 0,
        producer_core: Optional[int] = None,
    ) -> ReadyEntry:
        """Create an entry for ``task``, hand it to the scheduling policy and
        wake idle workers (one batched drain entry per wake-up window — see
        the module docstring)."""
        entry = ReadyEntry(
            task=task,
            creation_seq=creation_seq,
            ready_seq=self.next_ready_seq(),
            successor_count=successor_count,
            producer_core=producer_core,
        )
        self.scheduler.push(entry)
        self.total_pushes += 1
        size = self.size = self.size + 1
        if size > self.peak_size:
            self.peak_size = size
        wake_channel = self.wake_channel
        if wake_channel is not None:
            wake_channel.notify_all()
        return entry

    def pop(self, core_id: int) -> Optional[ReadyEntry]:
        """Ask the policy for a task for ``core_id``."""
        entry = self.scheduler.pop(core_id)
        if entry is None:
            self.failed_pops += 1
        else:
            self.total_pops += 1
            self.size -= 1
        return entry

    def notify_waiters(self) -> None:
        """Wake idle workers without a push (work appeared outside the pool:
        hardware ready queues, region completion)."""
        wake_channel = self.wake_channel
        if wake_channel is not None:
            wake_channel.notify_all()

    def __len__(self) -> int:
        return self.size

    @property
    def is_empty(self) -> bool:
        return self.size == 0

