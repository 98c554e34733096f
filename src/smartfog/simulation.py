"""Discrete-event simulation of sense-process-actuate and process-in-cloud loops.

Two tuple kinds flow through the overlay:

* SPA ("sense-process-actuate"): a sensor emits a tuple which travels from its
  access-point device over overlay links to its placed processing host, waits
  in the host's FIFO queue, is processed at the host's full MIPS, and returns
  to the co-located actuator.  Loop delay = uplink + queueing + processing +
  downlink.
* PC ("process-in-cloud"): the sensor's host device periodically escalates
  work to the cloud through a forwarding device (a selected gateway in
  smartfog mode, a random cloud-attached device otherwise).  Loop delay =
  device-to-forwarder path + forwarder-to-cloud latency + cloud queueing and
  processing + the return path.  A forwarder without its own cloud link
  relays through the cloud-attached device nearest the cloud from it.

Each sensor is pinned to a uniformly random access-point device; in smartfog
mode its SPA host is the nearest member (by path latency) of the functional
area matching the tuple kind's compute profile, in unoptimized mode a
uniformly random device.  Network load counts payload bytes once per link
hop traversed, including the sensor access hop and the cloud hop.

Routes depend only on the sensor and are fixed before the event loop.
Devices and the cloud are entries of one table of FIFO servers, and the
engine is a single priority queue keyed by (time, sequence number).  All
randomness comes from streams derived from one seed, with draws ordered so
that emission times and work sizes are identical across modes for the same
seed.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Sequence

from .clustering import FunctionalArea
from .decision import AreaType, GatewayAssignment
from .errors import ConfigurationError, ContractError
from .overlay import FogOverlay, all_pairs_paths

_ATTACH_SALT = 0x617474
_PLACE_SALT = 0x706C63
_WORK_SALT = 0x776B6C


class Mode(str, Enum):
    SMARTFOG = "smartfog"
    UNOPTIMIZED = "unoptimized"


class TupleKind(str, Enum):
    SPA = "spa"
    PC = "pc"


@dataclass
class WorkloadSpec:
    """Workload and resource model knobs.

    Intervals are per sensor; each emission gap is jittered uniformly within
    +-``jitter`` of the nominal interval.  SPA work is drawn uniformly from
    ``spa_mips_range`` million instructions (processed at the host device),
    PC work from ``pc_mips_range`` (processed by the ``cloud_mips`` host).
    ``n_sensors=None`` means one sensor per two devices.  The default rates
    keep both fog devices and the cloud below saturation at the default
    sweep sizes, so loop delays measure routing and processing rather than
    runaway queues.
    """

    duration_s: float = 300.0
    warmup_s: float = 10.0
    n_sensors: int | None = None
    spa_interval_s: float = 120.0
    pc_interval_s: float = 30.0
    jitter: float = 0.2
    spa_mips_range: tuple[float, float] = (1000.0, 8000.0)
    pc_mips_range: tuple[float, float] = (40000.0, 48000.0)
    tuple_bytes: int = 100
    access_ms: tuple[float, float] = (1.0, 5.0)
    cloud_mips: float = 44800.0

    def validate(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {self.duration_s}")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ConfigurationError(
                f"warmup_s must be in [0, duration_s), got {self.warmup_s}"
            )
        if self.n_sensors is not None and self.n_sensors < 1:
            raise ConfigurationError(f"n_sensors must be >= 1, got {self.n_sensors}")
        if self.spa_interval_s <= 0 or self.pc_interval_s <= 0:
            raise ConfigurationError("emission intervals must be > 0")
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        for name in ("spa_mips_range", "pc_mips_range", "access_ms"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ConfigurationError(f"{name} invalid: {(lo, hi)}")
        if self.tuple_bytes <= 0:
            raise ConfigurationError(f"tuple_bytes must be > 0, got {self.tuple_bytes}")
        if self.cloud_mips <= 0:
            raise ConfigurationError(f"cloud_mips must be > 0, got {self.cloud_mips}")


@dataclass(frozen=True)
class SensorAttachment:
    """Fixed physical attachment of each sensor/actuator pair.

    ``access_point[s]`` is the device the pair is wired to and
    ``access_ms[s]`` the one-way latency of that access hop.
    """

    access_point: dict[int, int]
    access_ms: dict[int, float]

    @property
    def sensor_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.access_point))


@dataclass(frozen=True)
class Placement:
    """Edge-ward placement decision for one mode.

    ``edge_modules`` maps each sensor to the device that processes its SPA
    tuples; ``cloud_route`` maps each device to the device that forwards its
    PC tuples cloud-ward.
    """

    edge_modules: dict[int, int]
    cloud_route: dict[int, int]


def attach_sensors(
    overlay: FogOverlay,
    n_sensors: int,
    rng: random.Random,
    access_ms_range: tuple[float, float] = (1.0, 5.0),
) -> SensorAttachment:
    """Pin ``n_sensors`` sensor/actuator pairs to uniformly random devices."""
    if n_sensors < 1:
        raise ContractError(f"n_sensors must be >= 1, got {n_sensors}")
    ids = sorted(overlay.device_ids)
    access_point = {}
    access_ms = {}
    for s in range(n_sensors):
        access_point[s] = rng.choice(ids)
        access_ms[s] = rng.uniform(*access_ms_range)
    return SensorAttachment(access_point=access_point, access_ms=access_ms)


def place_edge_ward(
    overlay: FogOverlay,
    sensors: SensorAttachment,
    mode: Mode,
    assignment: GatewayAssignment | None = None,
    areas: Sequence[FunctionalArea] | None = None,
    rng: random.Random | None = None,
) -> Placement:
    """Decide SPA hosts and PC forwarding for every sensor/device.

    smartfog: each sensor's host is the nearest member (path latency from its
    access point, ties to the lower id) of the compute-profile functional
    area; each device forwards PC via the owning gateway of an area containing
    it (nearest such gateway), falling back to the nearest gateway overall.
    unoptimized: uniformly random host per sensor and uniformly random
    cloud-attached forwarder per device, drawn from ``rng``.
    """
    if not sensors.access_point:
        raise ContractError("placement requires at least one sensor")
    ids = sorted(overlay.device_ids)
    paths = all_pairs_paths(overlay)

    if mode is Mode.SMARTFOG:
        if assignment is None or not areas:
            raise ContractError("smartfog placement requires a gateway assignment and areas")
        spa_area = next(
            (a for a in areas if a.area_type is AreaType.COMPUTE_OPTIMIZED), areas[0]
        )
        members = sorted(spa_area.members)
        edge_modules = {}
        for s in sensors.sensor_ids:
            ap = sensors.access_point[s]
            reachable = [m for m in members if m in paths[ap]]
            if not reachable:
                raise ContractError(f"no functional-area member reachable from device {ap}")
            edge_modules[s] = min(reachable, key=lambda m: (paths[ap][m][0], m))
        gateway_ids = set(assignment.device_ids)
        cloud_route = {}
        for d in ids:
            if d in gateway_ids:
                cloud_route[d] = d
                continue
            owners = [a.owner_gateway for a in areas if d in a.members]
            candidates = owners if owners else list(assignment.device_ids)
            reachable = [g for g in candidates if g in paths[d]]
            if not reachable:
                raise ContractError(f"no gateway reachable from device {d}")
            cloud_route[d] = min(reachable, key=lambda g: (paths[d][g][0], g))
        return Placement(edge_modules=edge_modules, cloud_route=cloud_route)

    if rng is None:
        raise ContractError("unoptimized placement requires an rng")
    cloud_ids = sorted(overlay.cloud_latency_ms)
    edge_modules = {s: rng.choice(ids) for s in sensors.sensor_ids}
    cloud_route = {d: rng.choice(cloud_ids) for d in ids}
    return Placement(edge_modules=edge_modules, cloud_route=cloud_route)


@dataclass
class SimulationReport:
    """Counts, delay samples and byte-hop load for one run."""

    mode: Mode
    n_devices: int
    seed: int
    emitted: dict[str, int] = field(default_factory=dict)
    completed: dict[str, int] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    in_flight: dict[str, int] = field(default_factory=dict)
    spa_delays_ms: list[float] = field(default_factory=list)
    pc_delays_ms: list[float] = field(default_factory=list)
    network_load_bytes: int = 0

    @property
    def total_emitted(self) -> int:
        return sum(self.emitted.values())

    @property
    def total_completed(self) -> int:
        return sum(self.completed.values())

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def total_in_flight(self) -> int:
        return sum(self.in_flight.values())

    def to_json(self) -> str:
        doc = {
            "mode": self.mode.value,
            "n_devices": self.n_devices,
            "seed": self.seed,
            "emitted": self.emitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "in_flight": self.in_flight,
            "spa_delays_ms": self.spa_delays_ms,
            "pc_delays_ms": self.pc_delays_ms,
            "network_load_bytes": self.network_load_bytes,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Server-table key of the cloud, beside the integer device ids.
_CLOUD = "cloud"

# (server, one-way leg latency in ms, one-way leg hops); the tuple returns
# over the same leg.
_Route = tuple[object, float, int]


@dataclass
class _TupleState:
    kind: TupleKind
    emit_ms: float
    work_mips: float
    route: _Route | None


def _sensor_routes(
    overlay: FogOverlay, sensors: SensorAttachment, placement: Placement
) -> dict[tuple[int, TupleKind], _Route]:
    """Each sensor's route per tuple kind; unroutable pairs are absent.

    SPA: the access hop and the path to the host, served by the host.  PC:
    the path from the host to its forwarder and the forwarder's cloud link,
    served by the cloud.  A forwarder without a cloud link relays through the
    cloud-attached device with the lowest path-plus-cloud latency from it
    (ties to the lower id).
    """
    paths = all_pairs_paths(overlay)
    cloud = overlay.cloud_latency_ms
    routes: dict[tuple[int, TupleKind], _Route] = {}
    for s in sensors.sensor_ids:
        ap = sensors.access_point[s]
        host = placement.edge_modules[s]
        if host in paths[ap]:
            path_ms, path_hops = paths[ap][host]
            routes[s, TupleKind.SPA] = (host, sensors.access_ms[s] + path_ms, 1 + path_hops)
        fwd = placement.cloud_route[host]
        if fwd not in paths[host]:
            continue
        # A linked forwarder is its own relay: paths[fwd][fwd] is (0.0, 0),
        # and adding 0.0 leaves the leg's float unchanged.
        relay = fwd if fwd in cloud else min(
            (g for g in cloud if g in paths[fwd]),
            key=lambda g: (paths[fwd][g][0] + cloud[g], g),
            default=None,
        )
        if relay is not None:
            path_ms, path_hops = paths[host][fwd]
            relay_ms, relay_hops = paths[fwd][relay]
            leg_ms = path_ms + relay_ms + cloud[relay]
            routes[s, TupleKind.PC] = (_CLOUD, leg_ms, path_hops + relay_hops + 1)
    return routes


def run(
    overlay: FogOverlay,
    mode: Mode,
    workload: WorkloadSpec,
    seed: int,
    assignment: GatewayAssignment | None = None,
    areas: Sequence[FunctionalArea] | None = None,
) -> SimulationReport:
    """Simulate one run; deterministic for a given (overlay, mode, seed).

    Sensor attachment, emission schedules and per-tuple work sizes derive
    from seed-salted streams that do not depend on the mode, so runs of both
    modes under one seed see identical workloads and differ only in placement
    and routing.

    Each tuple carries its sensor's route (:func:`_sensor_routes`), and
    devices and the cloud share one table of MIPS, FIFO queue and busy mark.
    ``emit`` drops an unroutable tuple or sends it up its leg, ``arrive``
    queues or serves it, ``done`` sends it back down the leg and serves the
    next queued tuple, and ``complete`` samples its loop delay.
    """
    workload.validate()
    n_devices = len(overlay.devices)
    n_sensors = (
        workload.n_sensors if workload.n_sensors is not None else max(1, n_devices // 2)
    )

    sensors = attach_sensors(
        overlay, n_sensors, random.Random(seed ^ _ATTACH_SALT), workload.access_ms
    )
    placement = place_edge_ward(
        overlay,
        sensors,
        mode,
        assignment=assignment,
        areas=areas,
        rng=random.Random(seed ^ _PLACE_SALT),
    )
    routes = _sensor_routes(overlay, sensors, placement)
    server_mips: dict[object, float] = {d.id: d.mips for d in overlay.devices}
    server_mips[_CLOUD] = workload.cloud_mips

    report = SimulationReport(mode=mode, n_devices=n_devices, seed=seed)
    for counts in (report.emitted, report.completed, report.dropped):
        counts.update({kind.value: 0 for kind in TupleKind})

    heap: list[tuple[float, int, str, _TupleState]] = []
    seq = count()

    def push(t: float, event: str, state: _TupleState) -> None:
        heapq.heappush(heap, (t, next(seq), event, state))

    # Emission schedules: per sensor, SPA stream then PC stream, identical
    # across modes.
    work_rng = random.Random(seed ^ _WORK_SALT)
    duration_ms = workload.duration_s * 1000.0
    warmup_ms = workload.warmup_s * 1000.0
    for s in sensors.sensor_ids:
        for kind, interval_s, mips_range in (
            (TupleKind.SPA, workload.spa_interval_s, workload.spa_mips_range),
            (TupleKind.PC, workload.pc_interval_s, workload.pc_mips_range),
        ):
            t = 0.0
            while True:
                gap = interval_s * work_rng.uniform(1 - workload.jitter, 1 + workload.jitter)
                t += gap * 1000.0
                if t > duration_ms:
                    break
                work = work_rng.uniform(*mips_range)
                push(t, "emit", _TupleState(kind, t, work, routes.get((s, kind))))
                report.emitted[kind.value] += 1

    queue: dict[object, deque] = {server: deque() for server in server_mips}
    busy = dict.fromkeys(server_mips, False)
    bytes_per_tuple = workload.tuple_bytes

    def serve(now: float, state: _TupleState) -> None:
        service_ms = state.work_mips / server_mips[state.route[0]] * 1000.0
        push(now + service_ms, "done", state)

    completed_delays = {TupleKind.SPA: report.spa_delays_ms, TupleKind.PC: report.pc_delays_ms}

    while heap:
        now, _, event, state = heapq.heappop(heap)
        if now > duration_ms:
            break

        if event == "emit":
            if state.route is None:
                report.dropped[state.kind.value] += 1
                continue
            _, leg_ms, leg_hops = state.route
            report.network_load_bytes += bytes_per_tuple * leg_hops
            push(now + leg_ms, "arrive", state)

        elif event == "arrive":
            server = state.route[0]
            if busy[server]:
                queue[server].append(state)
            else:
                busy[server] = True
                serve(now, state)

        elif event == "done":
            server, leg_ms, leg_hops = state.route
            report.network_load_bytes += bytes_per_tuple * leg_hops
            push(now + leg_ms, "complete", state)
            if queue[server]:
                serve(now, queue[server].popleft())
            else:
                busy[server] = False

        elif event == "complete":
            report.completed[state.kind.value] += 1
            if state.emit_ms >= warmup_ms:
                completed_delays[state.kind].append(now - state.emit_ms)

    for k in report.emitted:
        report.in_flight[k] = report.emitted[k] - report.completed[k] - report.dropped[k]
    return report
