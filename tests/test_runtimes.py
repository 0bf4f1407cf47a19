"""Runtime-system models driven through full (small) simulations."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.runtime.cost_model import RuntimeCostModel
from repro.runtime.factory import available_runtimes, create_runtime
from repro.runtime.ready_pool import ReadyPool
from repro.runtime.tracker import MatchResult
from repro.schedulers import FifoScheduler
from repro.sim.engine import Engine
from repro.sim.machine import run_simulation
from repro.sim.noc import NocModel
from repro.sim.timeline import Phase
from repro.config import CostModelConfig, DMUConfig
from repro.workloads.registry import create_workload

from tests.util import diamond_program, make_config

RUNTIMES = ("software", "tdm", "carbon", "task_superscalar")


class TestFactory:
    def test_available_runtimes(self):
        assert set(available_runtimes()) == set(RUNTIMES)

    def test_create_each_runtime(self):
        engine = Engine()
        noc = NocModel(num_cores=8)
        for name in RUNTIMES:
            runtime = create_runtime(make_config(runtime=name), engine, noc)
            assert runtime.name == name

    def test_unknown_runtime_rejected(self):
        config = dataclasses.replace(make_config(), runtime="software")
        object.__setattr__(config, "runtime", "bogus")
        with pytest.raises(ConfigurationError):
            create_runtime(config, Engine(), NocModel(num_cores=8))

    def test_scheduler_honouring_flags(self):
        engine = Engine()
        noc = NocModel(num_cores=8)
        assert create_runtime(make_config(runtime="software"), engine, noc).honors_scheduler
        assert create_runtime(make_config(runtime="tdm"), engine, noc).honors_scheduler
        assert not create_runtime(make_config(runtime="carbon"), engine, noc).honors_scheduler
        assert not create_runtime(
            make_config(runtime="task_superscalar"), engine, noc
        ).honors_scheduler

    def test_dmu_presence(self):
        engine = Engine()
        noc = NocModel(num_cores=8)
        assert create_runtime(make_config(runtime="software"), engine, noc).dmu is None
        assert create_runtime(make_config(runtime="tdm"), engine, noc).dmu is not None


class TestCostModel:
    def test_software_cost_grows_with_matching_work(self):
        costs = RuntimeCostModel(CostModelConfig())
        cheap = MatchResult(1, 0, 0, 0, True)
        expensive = MatchResult(4, 10, 3, 8, False)
        assert costs.sw_creation_cycles(expensive) > costs.sw_creation_cycles(cheap)

    def test_lookup_plus_commit_equals_total(self):
        costs = RuntimeCostModel(CostModelConfig())
        match = MatchResult(3, 5, 2, 4, False)
        assert costs.sw_dependence_cycles(match) == (
            costs.sw_dependence_lookup_cycles(3) + costs.sw_dependence_commit_cycles(match)
        )

    def test_tdm_creation_side_cheaper_than_software(self):
        costs = RuntimeCostModel(CostModelConfig())
        match = MatchResult(3, 4, 2, 4, False)
        assert costs.tdm_task_alloc_cycles() < costs.sw_creation_cycles(match)

    def test_finish_cost_grows_with_successors(self):
        costs = RuntimeCostModel(CostModelConfig())
        assert costs.sw_finish_cycles(10) > costs.sw_finish_cycles(0)


class TestReadyPool:
    def test_push_pop_statistics(self):
        pool = ReadyPool(FifoScheduler())
        pool.push("a", creation_seq=0)
        pool.push("b", creation_seq=1)
        assert len(pool) == 2 and pool.peak_size == 2
        assert pool.pop(0).task == "a"
        assert pool.pop(0).task == "b"
        assert pool.pop(0) is None
        assert pool.total_pops == 2 and pool.failed_pops == 1

    def test_ready_seq_monotonic(self):
        pool = ReadyPool(FifoScheduler())
        first = pool.push("a", creation_seq=5)
        second = pool.push("b", creation_seq=1)
        assert second.ready_seq > first.ready_seq


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestEndToEnd:
    def test_diamond_executes_all_tasks(self, runtime):
        result = run_simulation(diamond_program(), make_config(runtime=runtime))
        assert result.num_tasks_executed == 4
        assert result.total_cycles > 0
        assert result.runtime_stats["tasks_created"] == 4
        assert result.runtime_stats["tasks_finished"] == 4

    def test_diamond_respects_dependences(self, runtime):
        result = run_simulation(diamond_program(), make_config(runtime=runtime))
        by_name = {task.name: task for task in result.task_instances}
        assert by_name["B"].start_cycle >= by_name["A"].finish_cycle
        assert by_name["C"].start_cycle >= by_name["A"].finish_cycle
        assert by_name["D"].start_cycle >= by_name["B"].finish_cycle
        assert by_name["D"].start_cycle >= by_name["C"].finish_cycle

    def test_middle_tasks_overlap(self, runtime):
        """B and C are independent and should run concurrently on >1 core."""
        result = run_simulation(diamond_program(work_us=500.0), make_config(runtime=runtime))
        by_name = {task.name: task for task in result.task_instances}
        b, c = by_name["B"], by_name["C"]
        assert b.start_cycle < c.finish_cycle and c.start_cycle < b.finish_cycle

    def test_timeline_covers_all_phases(self, runtime):
        result = run_simulation(diamond_program(), make_config(runtime=runtime))
        totals = result.timeline.totals()
        assert totals[Phase.EXEC] > 0
        assert totals[Phase.DEPS] > 0

    def test_energy_report_positive(self, runtime):
        result = run_simulation(diamond_program(), make_config(runtime=runtime))
        assert result.energy.total_energy_mj > 0
        assert result.edp > 0


class TestRuntimeOverheadOrdering:
    def test_tdm_spends_less_creation_time_than_software(self, small_chain_program):
        software = run_simulation(small_chain_program, make_config(runtime="software"))
        tdm = run_simulation(small_chain_program, make_config(runtime="tdm"))
        sw_deps = software.timeline.threads[0].totals[Phase.DEPS]
        tdm_deps = tdm.timeline.threads[0].totals[Phase.DEPS]
        assert tdm_deps < sw_deps

    def test_dmu_stats_only_present_for_hardware_runtimes(self, diamond):
        software = run_simulation(diamond, make_config(runtime="software"))
        tdm = run_simulation(diamond, make_config(runtime="tdm"))
        assert software.dmu_stats is None
        assert tdm.dmu_stats is not None
        assert tdm.dmu_stats.tasks_created == 4
        assert tdm.dmu_stats.tasks_finished == 4

    def test_dmu_drained_at_end_of_run(self, small_random_program):
        result = run_simulation(small_random_program, make_config(runtime="tdm"))
        assert result.dmu_stats.tasks_created == result.dmu_stats.tasks_finished

    def test_carbon_has_no_scheduling_lock_traffic(self, small_chain_program):
        carbon = run_simulation(small_chain_program, make_config(runtime="carbon"))
        software = run_simulation(small_chain_program, make_config(runtime="software"))
        assert carbon.runtime_stats["lock_acquisitions"] < software.runtime_stats["lock_acquisitions"]


class TestMultiRegionAndSchedulers:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_fork_join_regions_respect_barriers(self, runtime, small_fork_join_program):
        result = run_simulation(small_fork_join_program, make_config(runtime=runtime))
        assert result.num_tasks_executed == small_fork_join_program.num_tasks

    @pytest.mark.parametrize("scheduler", ["fifo", "lifo", "locality", "successor", "age"])
    def test_every_scheduler_completes_with_tdm(self, scheduler, small_random_program):
        config = make_config(runtime="tdm", scheduler=scheduler)
        result = run_simulation(small_random_program, config)
        assert result.num_tasks_executed == small_random_program.num_tasks
        assert result.scheduler_name == scheduler

    @pytest.mark.parametrize("scheduler", ["fifo", "age"])
    def test_every_scheduler_completes_with_software(self, scheduler, small_random_program):
        config = make_config(runtime="software", scheduler=scheduler)
        result = run_simulation(small_random_program, config)
        assert result.num_tasks_executed == small_random_program.num_tasks


# Cholesky at scale 0.05 (built for TDM) on 8 cores with a 16-entry DMU:
# every structure fills, so both DMU runtimes take the blocked-instruction
# path hundreds of times.  TDM and Task Superscalar share that path, so the
# whole serialized ``runtime_stats`` of each is pinned, not just its cycles.
TINY_DMU = DMUConfig(
    tat_entries=16,
    dat_entries=16,
    successor_list_entries=16,
    dependence_list_entries=16,
    reader_list_entries=16,
    ready_queue_entries=16,
)


PINNED_TINY_DMU = {
    "tdm": (
        30_091_478,
        {
            "runtime": "tdm",
            "tasks_created": 364,
            "tasks_finished": 364,
            "pool_pushes": 364,
            "pool_pops": 364,
            "pool_peak": 2,
            "lock_acquisitions": 1669,
            "lock_wait_cycles": 1_285_119,
            "dmu": {
                "blocked_by_structure": {"DAT": 326, "TAT": 9},
                "dependences_added": 936,
                "instructions": {
                    "add_dependence": 936,
                    "complete_creation": 364,
                    "create_task": 364,
                    "finish_task": 364,
                    "get_ready_task": 896,
                },
                "null_ready_pops": 532,
                "ready_pops": 364,
                "structure_accesses": {
                    "DAT": 1996, "DLA": 2028, "DepTable": 2977, "RLA": 1880,
                    "ReadyQ": 1260, "SLA": 1308, "TAT": 2756, "TaskTable": 3404,
                },
                "tasks_created": 364,
                "tasks_finished": 364,
                "total_accesses": 17609,
                "total_blocked": 335,
                "total_cycles": 17609,
                "total_instructions": 2924,
            },
            "dmu_blocked_events": 335,
            "dmu_blocked_cycles": 28_081_887,
        },
    ),
    "task_superscalar": (
        29_160_480,
        {
            "runtime": "task_superscalar",
            "tasks_created": 364,
            "tasks_finished": 364,
            "pool_pushes": 0,
            "pool_pops": 364,
            "pool_peak": 0,
            "lock_acquisitions": 0,
            "lock_wait_cycles": 0,
            "dmu": {
                "blocked_by_structure": {"DAT": 321, "TAT": 9},
                "dependences_added": 936,
                "instructions": {
                    "add_dependence": 936,
                    "complete_creation": 364,
                    "create_task": 364,
                    "finish_task": 364,
                    "get_ready_task": 1233,
                },
                "null_ready_pops": 869,
                "ready_pops": 364,
                "structure_accesses": {
                    "DAT": 1988, "DLA": 2028, "DepTable": 2967, "RLA": 1880,
                    "ReadyQ": 1597, "SLA": 1313, "TAT": 2756, "TaskTable": 3419,
                },
                "tasks_created": 364,
                "tasks_finished": 364,
                "total_accesses": 17948,
                "total_blocked": 330,
                "total_cycles": 17948,
                "total_instructions": 3261,
            },
            "dmu_blocked_events": 330,
        },
    ),
}


class TestDMUBlockedPath:
    """The shared blocked-instruction path of both DMU runtimes, end to end."""

    @pytest.fixture(scope="class")
    def program(self):
        return create_workload("cholesky", scale=0.05, runtime="tdm").build_program()

    @pytest.mark.parametrize("runtime", sorted(PINNED_TINY_DMU))
    def test_tiny_dmu_run_is_pinned(self, runtime, program):
        cycles, stats = PINNED_TINY_DMU[runtime]
        result = run_simulation(program, make_config(runtime=runtime, dmu=TINY_DMU))
        assert result.runtime_stats["dmu_blocked_events"] > 0
        assert result.total_cycles == cycles
        assert result.runtime_stats == stats
