"""Gateway selection: rank devices on the Pareto fronts, claim one per area.

The decision runs on one objective table, a row per device in id order:
betweenness centrality (maximized), MIPS (maximized) and latency to the
cloud (minimized), from :func:`evaluate_devices`.  Memory is carried
alongside as a plain column - it is not an objective, but it is the ranking
criterion for memory-optimized areas.  :func:`select_gateways` sorts the
table into fronts with :func:`~smartfog.pareto.non_dominated_sort`, then
claims the requested areas in order: each takes, among the devices not yet
taken, the best one of the shallowest front under that area's priority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .centrality import CentralityScores
from .errors import CapacityError, ContractError, TopologyError, _are_plain, _convert
from .overlay import FogOverlay
from .pareto import Sense, non_dominated_sort

#: The sense of each objective column: betweenness, MIPS, cloud latency.
_SENSES = (Sense.MAXIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)


class AreaType(str, Enum):
    COMPUTE_OPTIMIZED = "compute"
    MEMORY_OPTIMIZED = "memory"


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
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The objective table: ids ascending, their (n, 3) rows and their memory column.

    Row ``i`` holds device ``ids[i]``'s betweenness, MIPS and cloud
    latency, under the senses in ``_SENSES``, and ``memory[i]`` its memory.
    Raises ContractError for a missing or non-finite score and TopologyError
    for a device with no finite latency to the cloud.
    """
    ids, devices = overlay.device_ids, overlay.devices
    scores, exits = centrality.scores, overlay.cloud_exit
    for dev_id in ids:
        if dev_id not in scores:
            raise ContractError(f"centrality scores missing device {dev_id}")
        if dev_id not in exits:
            raise TopologyError(f"device {dev_id} cannot reach any cloud-attached device")
    betweenness = [scores[dev_id] for dev_id in ids]
    if not (_are_plain(betweenness, float) and all(map(math.isfinite, betweenness))):
        for dev_id, score in zip(ids, betweenness):
            _convert(float, score, f"centrality scores[{dev_id}]", ContractError)
    rows = [(b, dev.mips, exits[dev.id][0], dev.memory_gb) for b, dev in zip(betweenness, devices)]
    table = np.array(rows, dtype=float)
    latency = table[:, 2]
    if latency.max() == math.inf:  # finite latencies can sum past the largest double
        dev_id = ids[latency.argmax()]
        raise TopologyError(f"device {dev_id}: cloud latency must be finite, got inf")
    return ids, table[:, :3], table[:, 3]


def select_gateways(
    overlay: FogOverlay, areas: Sequence[AreaType], centrality: CentralityScores
) -> GatewayAssignment:
    """Pick one distinct gateway per requested area (areas claimed in order).

    ``areas`` may hold the enum's string values, such as ``"compute"``.
    """
    if not areas:
        raise ContractError("at least one area is required")
    areas = [_convert(AreaType, area, "areas", ContractError) for area in areas]
    if len(areas) > len(overlay.devices):
        raise CapacityError(
            f"cannot select {len(areas)} gateways from {len(overlay.devices)} devices"
        )
    ids, objectives, memory = evaluate_devices(overlay, centrality)
    rank = np.empty(len(ids), dtype=np.int64)  # each device's front
    for r, front in enumerate(non_dominated_sort(objectives, _SENSES)):
        rank[list(front)] = r
    betweenness, mips, latency = objectives.T
    chosen: list[tuple[int, AreaType]] = []
    for area in areas:
        primary = mips if area is AreaType.COMPUTE_OPTIMIZED else memory
        # Shallowest front, then higher primary, lower cloud latency, higher
        # betweenness; the stable sort leaves full ties in row (= id) order.
        best = np.lexsort((-betweenness, latency, -primary, rank))[0]
        rank[best] = len(ids)  # taken: behind every front
        chosen.append((ids[best], area))
    return GatewayAssignment(gateways=tuple(chosen))
