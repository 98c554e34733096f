"""Fog overlay simulator and algorithm library.

Pipeline: betweenness centrality -> Pareto non-dominated sorting -> per-area
gateway selection -> spectral clustering into functional areas -> seeded
discrete-event simulation comparing the managed mode against an unoptimized
baseline.
"""

from .centrality import CentralityMode, CentralityScores, betweenness
from .clustering import (
    FunctionalArea,
    areas_to_json,
    cluster_functional_areas,
    device_features,
    jacobi_eigh,
    k_means,
    similarity_matrix,
    spectral_embed,
)
from .decision import AreaType, GatewayAssignment, evaluate_devices, select_gateways
from .errors import (
    CapacityError,
    ChurnRejectedError,
    ConfigurationError,
    ConflictError,
    ContractError,
    NumericalError,
    SmartFogError,
    TopologyError,
)
from .harness import ExperimentConfig, run_experiment, run_smartfog_pipeline
from .overlay import (
    Arch,
    ChurnEvent,
    FogDevice,
    FogOverlay,
    Join,
    Leave,
    Link,
    OverlayParams,
    apply_churn,
    build_overlay,
    latency_to_cloud,
)
from .pareto import Sense, non_dominated_sort
from .simulation import (
    Mode,
    Placement,
    SensorAttachment,
    SimulationReport,
    TupleKind,
    WorkloadSpec,
    attach_sensors,
    place_edge_ward,
)
from .simulation import run as run_simulation

__version__ = "0.1.0"

__all__ = [
    "Arch",
    "AreaType",
    "CapacityError",
    "CentralityMode",
    "CentralityScores",
    "ChurnEvent",
    "ChurnRejectedError",
    "ConfigurationError",
    "ConflictError",
    "ContractError",
    "ExperimentConfig",
    "FogDevice",
    "FogOverlay",
    "FunctionalArea",
    "GatewayAssignment",
    "Join",
    "Leave",
    "Link",
    "Mode",
    "NumericalError",
    "OverlayParams",
    "Placement",
    "Sense",
    "SensorAttachment",
    "SimulationReport",
    "SmartFogError",
    "TopologyError",
    "TupleKind",
    "WorkloadSpec",
    "apply_churn",
    "areas_to_json",
    "attach_sensors",
    "betweenness",
    "build_overlay",
    "cluster_functional_areas",
    "device_features",
    "evaluate_devices",
    "jacobi_eigh",
    "k_means",
    "latency_to_cloud",
    "non_dominated_sort",
    "place_edge_ward",
    "run_experiment",
    "run_simulation",
    "run_smartfog_pipeline",
    "select_gateways",
    "similarity_matrix",
    "spectral_embed",
]
