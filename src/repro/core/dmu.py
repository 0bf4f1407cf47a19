"""The Dependence Management Unit (DMU).

The DMU is the hardware contribution of the paper: a centralized unit on the
NoC that keeps a representation of the task dependence graph, tracks
dependences between in-flight tasks, and exposes ready tasks to the runtime
system (Section III).  This module implements the unit functionally and
structurally:

* internal IDs come from the TAT/DAT alias tables (set-associative, with the
  dynamic index-bit selection of Section V-E),
* per-task and per-dependence metadata live in the direct-access Task Table
  and Dependence Table — stored as parallel columns indexed by the internal
  ID, which the instruction kernels below read and write directly,
* successor / dependence / reader lists live in inode-style list arrays
  (flat columnar slabs, int handles),
* ready task IDs are exposed through a FIFO Ready Queue,
* ``add_dependence`` and ``finish_task`` follow Algorithms 1 and 2 of the
  paper,
* every operation returns the number of DMU cycles it consumed, computed as
  (number of SRAM accesses) × (configured access latency),
* if any structure needed by an operation has no free entry, the operation
  performs **no state change** and returns
  :class:`~repro.core.isa.DMUBlocked`; the simulated core retries when
  capacity is freed, which models the blocking/barrier semantics of the TDM
  ISA instructions.

Instruction kernels
-------------------

The five ISA instructions are methods of :class:`DependenceManagementUnit`,
and each one delegates to a kernel that :func:`_build_kernels` creates once
per DMU.  The per-instruction cost on CPython is almost entirely interpreter
overhead around tiny data (every hot scan touches at most
``elements_per_list_entry`` slots or ``associativity`` ways), so the kernels
remove that overhead rather than vectorize anything:

* every column, free stack and pooled result object is a closure cell, not
  a ``self._...`` attribute chain;
* the single-entry-chain fast paths of the list arrays (the overwhelmingly
  common shape) and the Task/Dependence Table installs and frees are
  inlined; the general shapes fall back to the structures' own methods;
* the ~10 statistics counters an instruction touches accumulate in one flat
  pending list, committed by :attr:`DependenceManagementUnit.stats` (and
  :meth:`~DependenceManagementUnit.dat_average_occupied_sets`) before any
  external read, so observed totals are exact.

The instructions stay methods defined on the class, not kernels bound as
instance attributes: callers (and any instrumentation that wraps the class)
always go through ``DependenceManagementUnit.<instruction>``.

Result objects are pooled: each instruction mutates and returns a shared
per-type instance (see :mod:`repro.core.isa` for the caller contract), so
the per-instruction hot path allocates nothing.

Two uncharged model-level shortcuts keep the capacity pre-checks O(1)
without touching the timing model: list arrays answer
``appending_needs_new_entry`` / ``is_empty`` from maintained per-list
counters instead of a chain walk, and the reader list of a dependence is
only materialized into a Python list for ``out`` accesses (the only
direction whose algorithm consumes it).  Neither peek ever counted as SRAM
accesses, so every charged access count is unchanged.

Deviations from the paper, both documented in DESIGN.md:

* Reader lists are allocated lazily (at the first reader) instead of eagerly
  when the dependence entry is installed; with the paper's sizes (2048 DAT
  entries but 1024 RLA entries) eager allocation could not hold the
  configured number of in-flight dependences.
* A creation-completion step (:meth:`DependenceManagementUnit.complete_creation`)
  enqueues tasks whose predecessor count is already zero when their last
  dependence has been registered; the paper's algorithms only enqueue tasks
  from ``finish_task`` and would never make a dependence-free task ready.
"""

from __future__ import annotations

from typing import Dict, Union

from ..config import DMUConfig
from ..errors import DMUProtocolError, UnknownTaskError
from .alias_table import AliasTable
from .dependence_table import DependenceTable
from .isa import (
    AddDependenceResult,
    CompleteCreationResult,
    CreateTaskResult,
    DMUBlocked,
    FinishTaskResult,
    GetReadyTaskResult,
)
from .list_array import INVALID_ELEMENT, ListArray
from .ready_queue import ReadyQueue
from .stats import DMUStats
from .task_table import TaskTable

CreateOutcome = Union[CreateTaskResult, DMUBlocked]
AddDependenceOutcome = Union[AddDependenceResult, DMUBlocked]

# Structure names used consistently in stats and blocking reports.
TAT = "TAT"
DAT = "DAT"
TASK_TABLE = "TaskTable"
DEP_TABLE = "DepTable"
SLA = "SLA"
DLA = "DLA"
RLA = "RLA"
READY_QUEUE = "ReadyQ"

# Pending-counter cells: one flat list shared by the five kernels of a DMU.
# Structure accesses...
_P_TAT = 0
_P_DAT = 1
_P_TT = 2
_P_DT = 3
_P_SLA = 4
_P_DLA = 5
_P_RLA = 6
_P_RQ = 7
# ...instruction counts...
_P_I_CREATE = 8
_P_I_ADD = 9
_P_I_COMPLETE = 10
_P_I_FINISH = 11
_P_I_READY = 12
# ...DMUStats scalars...
_P_CYCLES = 13
_P_CREATED = 14
_P_FINISHED = 15
_P_DEPS = 16
_P_READY_POPS = 17
_P_NULL_POPS = 18
# ...alias-table bookkeeping.
_P_TAT_LOOKUPS = 19
_P_DAT_LOOKUPS = 20
_P_OCC_SAMPLES = 21
_P_OCC_TOTAL = 22
_P_CELLS = 23


class DependenceManagementUnit:
    """Functional + structural model of the DMU."""

    def __init__(self, config: DMUConfig) -> None:
        config.validate()
        self.config = config
        self.tat = AliasTable(
            TAT, config.tat_entries, config.tat_associativity, index_start_bit=6
        )
        self.dat = AliasTable(
            DAT,
            config.dat_entries,
            config.dat_associativity,
            index_start_bit=config.static_index_start_bit,
            dynamic_index=(config.index_selection == "dynamic"),
        )
        self.task_table = TaskTable(config.task_table_entries)
        self.dependence_table = DependenceTable(config.dependence_table_entries)
        # Successor and dependence lists are append-only between allocation
        # and release (only reader lists see remove/flush), which lets the
        # list array compute charged walk lengths arithmetically.
        self.successor_lists = ListArray(
            SLA, config.successor_list_entries, config.elements_per_list_entry,
            append_only=True,
        )
        self.dependence_lists = ListArray(
            DLA, config.dependence_list_entries, config.elements_per_list_entry,
            append_only=True,
        )
        self.reader_lists = ListArray(
            RLA, config.reader_list_entries, config.elements_per_list_entry
        )
        self.ready_queue = ReadyQueue(config.ready_queue_entries)
        self._stats = DMUStats()
        access_cycles = config.access_cycles
        # Pooled result objects, one per instruction type: the kernels mutate
        # these in place (see repro.core.isa for the caller contract).  A null
        # ready-pop always looks the same, so it has its own instance;
        # create_task always costs the same 5 accesses.
        self._create_result = CreateTaskResult(5 * access_cycles, -1)
        self._add_result = AddDependenceResult(0, -1, 0)
        self._complete_result = CompleteCreationResult(0, False)
        self._finish_result = FinishTaskResult(0, 0)
        self._ready_result = GetReadyTaskResult(2 * access_cycles, None)
        self._null_ready_result = GetReadyTaskResult(
            cycles=access_cycles, descriptor_address=None
        )
        self._blocked_result = DMUBlocked("")
        # The structures above are final, so the kernels may close over them.
        (
            self._flush_counters,
            self._create_task,
            self._add_dependence,
            self._complete_creation,
            self._finish_task,
            self._get_ready_task,
        ) = _build_kernels(self)

    # ------------------------------------------------------------------ helpers
    @property
    def stats(self) -> DMUStats:
        """The DMU statistics, with the kernels' pending counters committed."""
        self._flush_counters()
        return self._stats

    def dat_average_occupied_sets(self) -> float:
        """Mean occupied DAT sets per ``add_dependence`` (pending samples committed)."""
        self._flush_counters()
        return self.dat.average_occupied_sets()

    @property
    def in_flight_tasks(self) -> int:
        """Number of tasks currently tracked (created but not finished)."""
        return self.task_table.occupancy

    @property
    def in_flight_dependences(self) -> int:
        """Number of dependence addresses currently tracked."""
        return self.dependence_table.occupancy

    @property
    def ready_tasks(self) -> int:
        """Number of task IDs currently waiting in the Ready Queue."""
        return len(self.ready_queue)

    def _blocked(self, structure: str) -> DMUBlocked:
        self._stats.record_blocked(structure)
        result = self._blocked_result
        result.structure = structure
        return result

    # ------------------------------------------------------------------ ISA
    def create_task(self, descriptor_address: int) -> CreateOutcome:
        """Register a new task (ISA ``create_task``).

        Allocates a TAT entry / internal task ID, initializes the Task Table
        columns and reserves an empty successor list and dependence list.
        Always five SRAM accesses: associative TAT lookup + directory write,
        one fresh entry in each of SLA and DLA, one Task Table write.
        """
        return self._create_task(descriptor_address)

    def add_dependence(
        self,
        descriptor_address: int,
        dependence_address: int,
        size: int,
        direction: str,
    ) -> AddDependenceOutcome:
        """Register one dependence of a task (ISA ``add_dependence``).

        Implements Algorithm 1 of the paper with exact capacity pre-checks so
        a blocked instruction leaves no partial state behind.
        """
        return self._add_dependence(descriptor_address, dependence_address, size, direction)

    def complete_creation(self, descriptor_address: int) -> CompleteCreationResult:
        """Mark a task's registration complete; enqueue it if already ready."""
        return self._complete_creation(descriptor_address)

    def finish_task(self, descriptor_address: int) -> FinishTaskResult:
        """Retire a finished task (ISA ``finish_task``); Algorithm 2 of the paper."""
        return self._finish_task(descriptor_address)

    def get_ready_task(self) -> GetReadyTaskResult:
        """Pop the next ready task (ISA ``get_ready_task``)."""
        return self._get_ready_task()

    # ------------------------------------------------------------------ introspection
    def capacity_snapshot(self) -> Dict[str, int]:
        """Free-entry counts per structure (used by tests and debugging)."""
        return {
            TAT: self.tat.free_entries,
            DAT: self.dat.free_entries,
            SLA: self.successor_lists.free_entries,
            DLA: self.dependence_lists.free_entries,
            RLA: self.reader_lists.free_entries,
        }

    def assert_empty(self) -> None:
        """Raise unless every structure has been drained (all tasks finished)."""
        problems = []
        if self.task_table.occupancy:
            problems.append(f"{self.task_table.occupancy} task entries")
        if self.dependence_table.occupancy:
            problems.append(f"{self.dependence_table.occupancy} dependence entries")
        if self.successor_lists.entries_in_use:
            problems.append(f"{self.successor_lists.entries_in_use} SLA entries")
        if self.dependence_lists.entries_in_use:
            problems.append(f"{self.dependence_lists.entries_in_use} DLA entries")
        if self.reader_lists.entries_in_use:
            problems.append(f"{self.reader_lists.entries_in_use} RLA entries")
        if len(self.ready_queue):
            problems.append(f"{len(self.ready_queue)} ready-queue entries")
        if problems:
            raise DMUProtocolError("DMU not empty at end of program: " + ", ".join(problems))


def _build_kernels(dmu: DependenceManagementUnit) -> tuple:  # noqa: C901
    """Build the counter flush and the five instruction kernels of ``dmu``.

    Returns ``(flush, create_task, add_dependence, complete_creation,
    finish_task, get_ready_task)``.  Every kernel charges the same accesses,
    attributes them to the same structures, blocks on the same structure in
    the same pre-check order (DAT, DLA, SLA, RLA), raises the same errors and
    recycles IDs and list entries in the same LIFO order as the straight-line
    instruction bodies ``tests/reference_dmu.py`` preserves; the differential
    tests drive both in lockstep.
    """
    pend = [0] * _P_CELLS
    stats = dmu._stats

    tat = dmu.tat
    dat = dmu.dat
    tat_by = tat._by_address
    dat_by = dat._by_address
    tat_can_allocate = tat.can_allocate
    tat_allocate = tat.allocate
    tat_release = tat.release
    dat_can_allocate = dat.can_allocate
    dat_allocate = dat.allocate
    dat_release = dat.release

    task_table = dmu.task_table
    tt_descriptor = task_table.descriptor_address
    tt_pred = task_table.predecessor_count
    tt_succ = task_table.successor_count
    tt_succ_list = task_table.successor_list
    tt_dep_list = task_table.dependence_list
    tt_complete = task_table.creation_complete
    tt_valid = task_table.valid
    tt_install = task_table.install

    dependence_table = dmu.dependence_table
    dt_last_writer = dependence_table.last_writer
    dt_lw_valid = dependence_table.last_writer_valid
    dt_reader_list = dependence_table.reader_list
    dt_valid = dependence_table.valid
    dt_address = dependence_table.address
    dt_size = dependence_table.size
    dt_grow_to = dependence_table._grow_to

    per = dmu.config.elements_per_list_entry
    access_cycles = dmu.config.access_cycles

    sla = dmu.successor_lists
    sla_elements = sla._elements
    sla_next = sla._next
    sla_in_use = sla._in_use
    sla_valid = sla._valid
    sla_list_valid = sla._list_valid
    sla_list_entries = sla._list_entries
    sla_tail = sla._tail
    sla_recycled = sla._recycled
    sla_blank = sla._blank_row
    sla_num_entries = sla.num_entries
    sla_allocate_entry = sla._allocate_entry
    sla_append = sla.append
    sla_iterate = sla.iterate
    sla_free_list = sla.free_list

    dla = dmu.dependence_lists
    dla_elements = dla._elements
    dla_next = dla._next
    dla_in_use = dla._in_use
    dla_valid = dla._valid
    dla_list_valid = dla._list_valid
    dla_list_entries = dla._list_entries
    dla_tail = dla._tail
    dla_recycled = dla._recycled
    dla_blank = dla._blank_row
    dla_num_entries = dla.num_entries
    dla_allocate_entry = dla._allocate_entry
    dla_append = dla.append
    dla_iterate = dla.iterate
    dla_free_list = dla.free_list

    rla = dmu.reader_lists
    rla_valid = rla._valid
    rla_list_valid = rla._list_valid
    rla_tail = rla._tail
    rla_new_list_head = rla.new_list_head
    rla_append = rla.append
    rla_iterate = rla.iterate
    rla_remove = rla.remove
    rla_flush = rla.flush
    rla_free_list = rla.free_list

    ready_queue = dmu.ready_queue
    rq_queue = ready_queue._queue
    rq_popleft = rq_queue.popleft
    ready_push = ready_queue.push

    blocked = dmu._blocked
    create_result = dmu._create_result
    add_result = dmu._add_result
    complete_result = dmu._complete_result
    finish_result = dmu._finish_result
    ready_result = dmu._ready_result
    null_ready_result = dmu._null_ready_result
    create_cycles = create_result.cycles
    no_readers = ()

    # ---------------------------------------------------------- flush
    # (cell, Counter, key) and (cell, object, attribute) commit targets.
    structure_accesses = stats.structure_accesses
    instructions = stats.instructions
    counter_cells = (
        (_P_TAT, structure_accesses, TAT),
        (_P_DAT, structure_accesses, DAT),
        (_P_TT, structure_accesses, TASK_TABLE),
        (_P_DT, structure_accesses, DEP_TABLE),
        (_P_SLA, structure_accesses, SLA),
        (_P_DLA, structure_accesses, DLA),
        (_P_RLA, structure_accesses, RLA),
        (_P_RQ, structure_accesses, READY_QUEUE),
        (_P_I_CREATE, instructions, "create_task"),
        (_P_I_ADD, instructions, "add_dependence"),
        (_P_I_COMPLETE, instructions, "complete_creation"),
        (_P_I_FINISH, instructions, "finish_task"),
        (_P_I_READY, instructions, "get_ready_task"),
    )
    scalar_cells = (
        (_P_CYCLES, stats, "total_cycles"),
        (_P_CREATED, stats, "tasks_created"),
        (_P_FINISHED, stats, "tasks_finished"),
        (_P_DEPS, stats, "dependences_added"),
        (_P_READY_POPS, stats, "ready_pops"),
        (_P_NULL_POPS, stats, "null_ready_pops"),
        (_P_TAT_LOOKUPS, tat, "lookups"),
        (_P_DAT_LOOKUPS, dat, "lookups"),
        (_P_OCC_SAMPLES, dat, "_occupied_set_samples"),
        (_P_OCC_TOTAL, dat, "_occupied_set_total"),
    )

    def flush() -> None:
        """Commit every pending counter.

        Zero-valued cells are skipped so the Counter mappings never gain a
        key that no instruction has touched.
        """
        for cell, counts, key in counter_cells:
            value = pend[cell]
            if value:
                counts[key] += value
                pend[cell] = 0
        for cell, owner, attribute in scalar_cells:
            value = pend[cell]
            if value:
                setattr(owner, attribute, getattr(owner, attribute) + value)
                pend[cell] = 0

    # ---------------------------------------------------------- create_task
    def create_task(descriptor_address):
        if descriptor_address in tat_by:
            raise DMUProtocolError(
                f"task descriptor {descriptor_address:#x} created twice"
            )
        if not tat_can_allocate(descriptor_address):
            return blocked(TAT)
        if sla.free_entries < 1:
            return blocked(SLA)
        if dla.free_entries < 1:
            return blocked(DLA)

        task_id = tat_allocate(descriptor_address)
        # Inlined sla.new_list_head() (recycled-entry fast path; the
        # pre-check above guarantees a free entry exists).
        if sla_recycled:
            successor_list = sla_recycled.pop()
            sla_in_use[successor_list] = 1
            free = sla.free_entries - 1
            sla.free_entries = free
            in_use_count = sla_num_entries - free
            if in_use_count > sla.peak_entries_used:
                sla.peak_entries_used = in_use_count
        else:
            successor_list = sla_allocate_entry()
        sla_list_valid[successor_list] = 0
        sla_list_entries[successor_list] = 1
        sla_tail[successor_list] = successor_list
        # Inlined dla.new_list_head().
        if dla_recycled:
            dependence_list = dla_recycled.pop()
            dla_in_use[dependence_list] = 1
            free = dla.free_entries - 1
            dla.free_entries = free
            in_use_count = dla_num_entries - free
            if in_use_count > dla.peak_entries_used:
                dla.peak_entries_used = in_use_count
        else:
            dependence_list = dla_allocate_entry()
        dla_list_valid[dependence_list] = 0
        dla_list_entries[dependence_list] = 1
        dla_tail[dependence_list] = dependence_list
        # Inlined task_table.install() (in-range fast path; TAT IDs are
        # dense in [0, num_entries) by construction).
        if task_id >= task_table._size:
            tt_install(task_id, descriptor_address, successor_list, dependence_list)
        else:
            if tt_valid[task_id]:
                raise DMUProtocolError(f"Task Table entry {task_id} is already in use")
            tt_descriptor[task_id] = descriptor_address
            tt_pred[task_id] = 0
            tt_succ[task_id] = 0
            tt_succ_list[task_id] = successor_list
            tt_dep_list[task_id] = dependence_list
            tt_complete[task_id] = 0
            tt_valid[task_id] = 1
            occupancy = task_table._occupancy + 1
            task_table._occupancy = occupancy
            if occupancy > task_table.peak_occupancy:
                task_table.peak_occupancy = occupancy

        pend[_P_TAT] += 2
        pend[_P_SLA] += 1
        pend[_P_DLA] += 1
        pend[_P_TT] += 1
        pend[_P_I_CREATE] += 1
        pend[_P_CYCLES] += create_cycles
        pend[_P_CREATED] += 1
        create_result.task_id = task_id
        return create_result

    # ---------------------------------------------------------- add_dependence
    def add_dependence(descriptor_address, dependence_address, size, direction):
        if direction == "out":
            is_out = True
        elif direction == "in":
            is_out = False
        else:
            raise DMUProtocolError(f"invalid dependence direction: {direction!r}")
        pend[_P_TAT_LOOKUPS] += 1
        task_id = tat_by.get(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        pend[_P_DAT_LOOKUPS] += 1
        dep_id = dat_by.get(dependence_address)
        dep_is_new = dep_id is None
        readers = no_readers
        if dep_is_new:
            reader_list = -1
            writer_id = -1
            # Capacity pre-checks (uncharged; Blocked order is pinned:
            # DAT, DLA, SLA, RLA).
            if not dat_can_allocate(dependence_address, size):
                return blocked(DAT)
        else:
            reader_list = dt_reader_list[dep_id]
            writer_id = dt_last_writer[dep_id] if dt_lw_valid[dep_id] else -1
            if is_out and reader_list >= 0:
                readers, _ = rla_iterate(reader_list)

        task_dependence_list = tt_dep_list[task_id]
        if dla_valid[dla_tail[task_dependence_list]] == per and dla.free_entries < 1:
            return blocked(DLA)

        needed_sla = 0
        if writer_id >= 0 and writer_id != task_id:
            if sla_valid[sla_tail[tt_succ_list[writer_id]]] == per:
                needed_sla += 1
        if is_out:
            for reader_id in readers:
                if reader_id == task_id:
                    continue
                if sla_valid[sla_tail[tt_succ_list[reader_id]]] == per:
                    needed_sla += 1
        if needed_sla and sla.free_entries < needed_sla:
            return blocked(SLA)

        if not is_out:
            if reader_list < 0:
                needed_rla = 1
            else:
                needed_rla = 1 if rla_valid[rla_tail[reader_list]] == per else 0
            if needed_rla and rla.free_entries < 1:
                return blocked(RLA)

        # Mutation phase.
        accesses = 3  # TAT lookup + Task Table read + DAT lookup
        pend[_P_TAT] += 1
        pend[_P_TT] += 1
        if dep_is_new:
            dep_id = dat_allocate(dependence_address, size)
            # Inlined dependence_table.install() (DAT IDs are dense in
            # range by construction).
            if dep_id >= dependence_table._size:
                dt_grow_to(dep_id + 1)
            elif dt_valid[dep_id]:
                raise DMUProtocolError(
                    f"Dependence Table entry {dep_id} is already in use"
                )
            dt_last_writer[dep_id] = -1
            dt_lw_valid[dep_id] = 0
            dt_reader_list[dep_id] = -1
            dt_valid[dep_id] = 1
            dt_address[dep_id] = dependence_address
            dt_size[dep_id] = size
            occupancy = dependence_table._occupancy + 1
            dependence_table._occupancy = occupancy
            if occupancy > dependence_table.peak_occupancy:
                dependence_table.peak_occupancy = occupancy
            accesses += 2  # DAT directory write + Dependence Table install
            pend[_P_DAT] += 2
            pend[_P_DT] += 1
        else:
            accesses += 1  # Dependence Table read
            pend[_P_DAT] += 1
            pend[_P_DT] += 1

        predecessors_added = 0

        # "Insert depID in dependence list of taskID" — inlined
        # append-only append (tail-not-full fast path).  The marker
        # comparison keeps the fast path from storing the invalid-element
        # value; the general append raises for it.
        tail = dla_tail[task_dependence_list]
        tail_valid = dla_valid[tail]
        if tail_valid < per and dep_id != INVALID_ELEMENT:
            dla_elements[tail * per + tail_valid] = dep_id
            dla_valid[tail] = tail_valid + 1
            dla_list_valid[task_dependence_list] += 1
            dla_accesses = dla_list_entries[task_dependence_list]
        else:
            dla_accesses = dla_append(task_dependence_list, dep_id)
        accesses += dla_accesses
        pend[_P_DLA] += dla_accesses

        # RAW / WAW / WAR-with-writer edge.
        if writer_id >= 0 and writer_id != task_id:
            head = tt_succ_list[writer_id]
            tail = sla_tail[head]
            tail_valid = sla_valid[tail]
            if tail_valid < per and task_id != INVALID_ELEMENT:
                sla_elements[tail * per + tail_valid] = task_id
                sla_valid[tail] = tail_valid + 1
                sla_list_valid[head] += 1
                sla_accesses = sla_list_entries[head]
            else:
                sla_accesses = sla_append(head, task_id)
            accesses += sla_accesses + 2
            pend[_P_SLA] += sla_accesses
            pend[_P_TT] += 2
            tt_succ[writer_id] += 1
            tt_pred[task_id] += 1
            predecessors_added = 1

        if not is_out:
            # "Insert taskID in reader list of depID"
            if reader_list < 0:
                reader_list = rla_new_list_head()
                dt_reader_list[dep_id] = reader_list
                accesses += 1
                pend[_P_RLA] += 1
            rla_accesses = rla_append(reader_list, task_id)
            accesses += rla_accesses
            pend[_P_RLA] += rla_accesses
        else:
            # WAR edges: every current reader gains this task as a successor.
            war_sla_accesses = 0
            war_edges = 0
            for reader_id in readers:
                if reader_id == task_id:
                    continue
                head = tt_succ_list[reader_id]
                tail = sla_tail[head]
                tail_valid = sla_valid[tail]
                if tail_valid < per and task_id != INVALID_ELEMENT:
                    sla_elements[tail * per + tail_valid] = task_id
                    sla_valid[tail] = tail_valid + 1
                    sla_list_valid[head] += 1
                    war_sla_accesses += sla_list_entries[head]
                else:
                    war_sla_accesses += sla_append(head, task_id)
                tt_succ[reader_id] += 1
                war_edges += 1
            if war_edges:
                accesses += war_sla_accesses + 2 * war_edges
                pend[_P_SLA] += war_sla_accesses
                pend[_P_TT] += 2 * war_edges
                tt_pred[task_id] += war_edges
                predecessors_added += war_edges
            # "Flush reader list of depID"
            if reader_list >= 0:
                rla_accesses = rla_flush(reader_list)
                accesses += rla_accesses
                pend[_P_RLA] += rla_accesses
            # "Set lastWriterID of depID to taskID and mark valid"
            dt_last_writer[dep_id] = task_id
            dt_lw_valid[dep_id] = 1
            accesses += 1
            pend[_P_DT] += 1

        # dat.sample_occupancy(), batched.
        pend[_P_OCC_SAMPLES] += 1
        pend[_P_OCC_TOTAL] += dat._occupied_sets
        cycles = accesses * access_cycles
        pend[_P_I_ADD] += 1
        pend[_P_CYCLES] += cycles
        pend[_P_DEPS] += 1
        add_result.cycles = cycles
        add_result.dependence_id = dep_id
        add_result.predecessors_added = predecessors_added
        return add_result

    # ---------------------------------------------------------- complete_creation
    def complete_creation(descriptor_address):
        pend[_P_TAT_LOOKUPS] += 1
        task_id = tat_by.get(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        if tt_complete[task_id]:
            raise DMUProtocolError(
                f"task descriptor {descriptor_address:#x} completed creation twice"
            )
        tt_complete[task_id] = 1
        accesses = 2  # TAT lookup + Task Table read/update
        pend[_P_TAT] += 1
        pend[_P_TT] += 1
        became_ready = False
        if tt_pred[task_id] == 0:
            ready_push(task_id)
            accesses += 1
            pend[_P_RQ] += 1
            became_ready = True
        cycles = accesses * access_cycles
        pend[_P_I_COMPLETE] += 1
        pend[_P_CYCLES] += cycles
        complete_result.cycles = cycles
        complete_result.became_ready = became_ready
        return complete_result

    # ---------------------------------------------------------- finish_task
    def finish_task(descriptor_address):
        pend[_P_TAT_LOOKUPS] += 1
        task_id = tat_by.get(descriptor_address)
        if task_id is None:
            raise UnknownTaskError(
                f"task descriptor {descriptor_address:#x} is not tracked by the DMU"
            )
        accesses = 2  # TAT lookup + Task Table read
        pend[_P_TAT] += 1
        pend[_P_TT] += 1
        tasks_woken = 0
        successor_list = tt_succ_list[task_id]
        dependence_list = tt_dep_list[task_id]

        # First loop: wake up successors (inlined single-entry-chain
        # iterate — append-only lists fill left to right with no holes).
        if sla_list_valid[successor_list] == 0:
            accesses += 1
            pend[_P_SLA] += 1
        else:
            if sla_next[successor_list] == successor_list:
                entry_valid = sla_valid[successor_list]
                base = successor_list * per
                successors = sla_elements[base : base + entry_valid]
                sla_accesses = 1
            else:
                successors, sla_accesses = sla_iterate(successor_list)
            num_successors = len(successors)
            accesses += sla_accesses + num_successors
            pend[_P_SLA] += sla_accesses
            pend[_P_TT] += num_successors
            for successor_id in successors:
                remaining = tt_pred[successor_id] - 1
                tt_pred[successor_id] = remaining
                if remaining == 0:
                    if tt_complete[successor_id]:
                        ready_push(successor_id)
                        tasks_woken += 1
                elif remaining < 0:
                    raise DMUProtocolError(
                        f"task id {successor_id} predecessor count went negative"
                    )
            accesses += tasks_woken
            pend[_P_RQ] += tasks_woken

        # Second loop: clean this task out of its dependences.
        if dla_list_valid[dependence_list] == 0:
            accesses += 1
            pend[_P_DLA] += 1
        else:
            if dla_next[dependence_list] == dependence_list:
                entry_valid = dla_valid[dependence_list]
                base = dependence_list * per
                dependences = dla_elements[base : base + entry_valid]
                dla_accesses = 1
            else:
                dependences, dla_accesses = dla_iterate(dependence_list)
            accesses += dla_accesses
            pend[_P_DLA] += dla_accesses
            dep_table_accesses = 0
            rla_accesses_total = 0
            dat_releases = 0
            for dep_id in dependences:
                if not dt_valid[dep_id]:
                    # Already recycled by an earlier occurrence of the
                    # same address in this task's list.
                    continue
                dep_table_accesses += 1
                reader_list = dt_reader_list[dep_id]
                if reader_list >= 0:
                    _found, rla_accesses = rla_remove(reader_list, task_id)
                    rla_accesses_total += rla_accesses
                writer_valid = dt_lw_valid[dep_id]
                if writer_valid and dt_last_writer[dep_id] == task_id:
                    dt_last_writer[dep_id] = -1
                    dt_lw_valid[dep_id] = 0
                    writer_valid = 0
                    dep_table_accesses += 1
                if not writer_valid and (
                    reader_list < 0 or rla_list_valid[reader_list] == 0
                ):
                    if reader_list >= 0:
                        rla_accesses_total += rla_free_list(reader_list)
                    # Inlined dependence_table.free().
                    dt_valid[dep_id] = 0
                    dependence_table._occupancy -= 1
                    dep_table_accesses += 1
                    dat_release(dt_address[dep_id])
                    dat_releases += 1
            accesses += dep_table_accesses + rla_accesses_total + dat_releases
            pend[_P_DT] += dep_table_accesses
            pend[_P_RLA] += rla_accesses_total
            pend[_P_DAT] += dat_releases

        # Free the task's own resources — inlined single-entry free_list
        # (release_entry: blank slots, reset valid, LIFO-push).
        if sla_next[successor_list] == successor_list:
            sla_in_use[successor_list] = 0
            base = successor_list * per
            sla_elements[base : base + per] = sla_blank
            sla_valid[successor_list] = 0
            sla.free_entries += 1
            sla_recycled.append(successor_list)
            sla_free_accesses = 1
        else:
            sla_free_accesses = sla_free_list(successor_list)
        accesses += sla_free_accesses
        pend[_P_SLA] += sla_free_accesses
        if dla_next[dependence_list] == dependence_list:
            dla_in_use[dependence_list] = 0
            base = dependence_list * per
            dla_elements[base : base + per] = dla_blank
            dla_valid[dependence_list] = 0
            dla.free_entries += 1
            dla_recycled.append(dependence_list)
            dla_free_accesses = 1
        else:
            dla_free_accesses = dla_free_list(dependence_list)
        accesses += dla_free_accesses
        pend[_P_DLA] += dla_free_accesses
        # Inlined task_table.free().
        tt_valid[task_id] = 0
        task_table._occupancy -= 1
        accesses += 1
        pend[_P_TT] += 1
        tat_release(descriptor_address)
        accesses += 1
        pend[_P_TAT] += 1

        cycles = accesses * access_cycles
        pend[_P_I_FINISH] += 1
        pend[_P_CYCLES] += cycles
        pend[_P_FINISHED] += 1
        finish_result.cycles = cycles
        finish_result.tasks_woken = tasks_woken
        return finish_result

    # ---------------------------------------------------------- get_ready_task
    def get_ready_task():
        pend[_P_RQ] += 1
        pend[_P_I_READY] += 1
        if rq_queue:
            ready_queue.total_pops += 1
            task_id = rq_popleft()
        else:
            pend[_P_CYCLES] += access_cycles
            pend[_P_NULL_POPS] += 1
            return null_ready_result
        pend[_P_TT] += 1
        pend[_P_CYCLES] += ready_result.cycles
        pend[_P_READY_POPS] += 1
        ready_result.descriptor_address = tt_descriptor[task_id]
        ready_result.num_successors = tt_succ[task_id]
        return ready_result

    return flush, create_task, add_dependence, complete_creation, finish_task, get_ready_task
