"""The paper's contribution: DPS and the baseline power managers.

Importing this package registers the paper's four managers (``constant``,
``slurm``, ``oracle``, ``dps``) and their extensions with
:func:`repro.core.managers.create_manager`.
"""

from repro.core.config import (
    ClusterSpec,
    DPSConfig,
    KalmanConfig,
    PerfModelConfig,
    PriorityConfig,
    RaplConfig,
    ReadjustConfig,
    SimulationConfig,
    StatelessConfig,
)
from repro.core.constant import ConstantManager
from repro.core.demand import DemandEstimator, DemandEstimatorConfig
from repro.core.dps import DPSManager, DPSStepInfo
from repro.core.dpsplus import DPSPlusManager
from repro.core.hierarchical import HierarchicalManager
from repro.core.history import HistoryBuffer
from repro.core.kalman import KalmanBank
from repro.core.managers import (
    PowerManager,
    available_managers,
    create_manager,
    register_manager,
)
from repro.core.oracle import OracleManager
from repro.core.p2p import P2PManager
from repro.core.peaks import (
    count_prominent_peaks,
    count_prominent_peaks_multi,
    peak_prominences,
)
from repro.core.priority import PriorityModule
from repro.core.readjust import RestoreResult, readjust, restore
from repro.core.slurm import SlurmManager
from repro.core.stateless import MimdResult, mimd_step

__all__ = [
    "ClusterSpec",
    "ConstantManager",
    "DPSConfig",
    "DPSManager",
    "DPSPlusManager",
    "DPSStepInfo",
    "DemandEstimator",
    "DemandEstimatorConfig",
    "HierarchicalManager",
    "HistoryBuffer",
    "KalmanBank",
    "KalmanConfig",
    "MimdResult",
    "OracleManager",
    "P2PManager",
    "PerfModelConfig",
    "PowerManager",
    "PriorityConfig",
    "PriorityModule",
    "RaplConfig",
    "ReadjustConfig",
    "RestoreResult",
    "SimulationConfig",
    "SlurmManager",
    "StatelessConfig",
    "available_managers",
    "count_prominent_peaks",
    "count_prominent_peaks_multi",
    "create_manager",
    "mimd_step",
    "peak_prominences",
    "readjust",
    "register_manager",
    "restore",
]
