"""Runtime-system models.

This package contains the task and dependence abstractions shared by the
whole library (:mod:`repro.runtime.task`), the software dependence tracker
(:mod:`repro.runtime.tracker`), the ready pool used by the software
schedulers (:mod:`repro.runtime.ready_pool`), the calibrated phase cost model
(:mod:`repro.runtime.cost_model`) and the four runtime-system variants
evaluated in the paper:

* :class:`~repro.runtime.software.SoftwareRuntime` — everything in software
  (the paper's baseline),
* :class:`~repro.runtime.tdm.TDMRuntime` — dependence management offloaded to
  the DMU, scheduling in software (the paper's contribution),
* :class:`~repro.runtime.carbon.CarbonRuntime` — hardware FIFO task queues,
  dependence management in software (Carbon [10]),
* :class:`~repro.runtime.task_superscalar.TaskSuperscalarRuntime` — both
  dependence management and scheduling in hardware (Task Superscalar [11]).

TDM and Task Superscalar share their DMU issue path,
:class:`~repro.runtime.dmu_runtime.DMURuntime`.
"""

from .task import (
    AccessMode,
    DependenceSpec,
    TaskDefinition,
    TaskInstance,
    TaskProgram,
    TaskRegion,
    TaskState,
)
from .tracker import DependenceTracker, MatchResult
from .ready_pool import ReadyPool
from .cost_model import RuntimeCostModel
from .base import RuntimeSystem
from .software import SoftwareRuntime
from .tdm import TDMRuntime
from .carbon import CarbonRuntime
from .task_superscalar import TaskSuperscalarRuntime
from .factory import available_runtimes, create_runtime

__all__ = [
    "AccessMode",
    "DependenceSpec",
    "TaskDefinition",
    "TaskInstance",
    "TaskProgram",
    "TaskRegion",
    "TaskState",
    "DependenceTracker",
    "MatchResult",
    "ReadyPool",
    "RuntimeCostModel",
    "RuntimeSystem",
    "SoftwareRuntime",
    "TDMRuntime",
    "CarbonRuntime",
    "TaskSuperscalarRuntime",
    "available_runtimes",
    "create_runtime",
]
