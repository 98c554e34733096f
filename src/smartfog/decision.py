"""Gateway selection: rank devices on the Pareto fronts, claim one per area.

Each device is evaluated on three objectives: betweenness centrality
(maximize), MIPS (maximize) and latency to the cloud (minimize).  Memory is
carried alongside as a plain attribute - it is not an objective, but it is
the ranking criterion for memory-optimized areas.  Selection claims the
requested areas in order: each takes, among the devices not yet taken, the
best one of the shallowest front under that area's priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .centrality import CentralityScores
from .errors import CapacityError, ContractError, _convert
from .overlay import FogOverlay, latency_to_cloud
from .pareto import ObjectiveVector, Sense, non_dominated_sort

#: Objective senses shared by every evaluation: betweenness, MIPS, cloud latency.
OBJECTIVE_SENSES = (Sense.MAXIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)


class AreaType(str, Enum):
    COMPUTE_OPTIMIZED = "compute"
    MEMORY_OPTIMIZED = "memory"


@dataclass(frozen=True)
class DeviceEvaluation:
    """A device's decision objectives plus its carried memory attribute."""

    device_id: int
    objectives: ObjectiveVector
    memory_gb: float

    @property
    def betweenness(self) -> float:
        return self.objectives.values[0]

    @property
    def mips(self) -> float:
        return self.objectives.values[1]

    @property
    def cloud_latency_ms(self) -> float:
        return self.objectives.values[2]


@dataclass(frozen=True)
class GatewayAssignment:
    """Selected gateways in area order; devices are distinct."""

    gateways: tuple[tuple[int, AreaType], ...]

    @property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(dev for dev, _ in self.gateways)

    def to_json_obj(self) -> list[dict]:
        return [{"gateway": dev, "area_type": area.value} for dev, area in self.gateways]


def evaluate_devices(
    overlay: FogOverlay, centrality: CentralityScores
) -> list[DeviceEvaluation]:
    """Objective vectors for every device, in ascending device-id order."""
    evals = []
    for dev in sorted(overlay.devices, key=lambda d: d.id):
        if dev.id not in centrality.scores:
            raise ContractError(f"centrality scores missing device {dev.id}")
        vec = ObjectiveVector(
            values=(centrality.scores[dev.id], dev.mips, latency_to_cloud(overlay, dev.id)),
            senses=OBJECTIVE_SENSES,
        )
        evals.append(DeviceEvaluation(device_id=dev.id, objectives=vec, memory_gb=dev.memory_gb))
    return evals


def _priority_key(ev: DeviceEvaluation, area: AreaType):
    # Primary criterion depends on the area; ties fall through to lower cloud
    # latency, then higher betweenness, then device id for a total order.
    primary = ev.mips if area is AreaType.COMPUTE_OPTIMIZED else ev.memory_gb
    return (-primary, ev.cloud_latency_ms, -ev.betweenness, ev.device_id)


def partition_front(
    front: Sequence[DeviceEvaluation], area: AreaType
) -> list[DeviceEvaluation]:
    """Order candidates for one area, best first; ``area`` may be the enum's value."""
    area = _convert(AreaType, area, "area", ContractError)
    return sorted(front, key=lambda ev: _priority_key(ev, area))


def select_gateways(
    overlay: FogOverlay,
    areas: Sequence[AreaType],
    centrality: CentralityScores,
    evaluations: Sequence[DeviceEvaluation] | None = None,
) -> GatewayAssignment:
    """Pick one distinct gateway per requested area (areas claimed in order).

    ``evaluations`` may be passed in when already computed (e.g. for stage
    timing); otherwise they are derived from the overlay and centrality.
    ``areas`` may hold the enum's string values, such as ``"compute"``.
    """
    if not areas:
        raise ContractError("at least one area is required")
    areas = [_convert(AreaType, area, "areas", ContractError) for area in areas]
    if len(areas) > len(overlay.devices):
        raise CapacityError(
            f"cannot select {len(areas)} gateways from {len(overlay.devices)} devices"
        )
    evals = list(evaluations) if evaluations is not None else evaluate_devices(overlay, centrality)
    by_id = {ev.device_id: ev for ev in evals}
    if len(evals) != len(overlay.devices) or by_id.keys() != set(overlay.device_ids):
        raise ContractError("evaluations must cover every device exactly once")
    fronts = non_dominated_sort([ev.objectives for ev in evals])
    # Front entries are indices into evals; rank maps each untaken device to
    # its front.
    rank = {evals[i].device_id: r for r, front in enumerate(fronts.fronts) for i in front}
    chosen: list[tuple[int, AreaType]] = []
    for area in areas:
        best = min(rank, key=lambda d: (rank[d], _priority_key(by_id[d], area)))
        del rank[best]
        chosen.append((best, area))
    return GatewayAssignment(gateways=tuple(chosen))
