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
  relays through its ``FogOverlay.cloud_exit`` device; a linked forwarder
  still uses its own link, even where a relay would be faster.

Each sensor is pinned to a uniformly random access-point device; in smartfog
mode its SPA host is the nearest member (by path latency) of the functional
area matching the tuple kind's compute profile, in unoptimized mode a
uniformly random device.  Network load counts payload bytes once per link
hop traversed, including the sensor access hop and the cloud hop.

Routes are fixed per sensor and links have no capacity, so every tuple
visits one FIFO server (a device or the cloud), and each server runs
Lindley's recursion D = max(A, D_prev) + s over its arrivals on its own.
Ties are broken exactly as one event heap keyed by (time, sequence number)
would pop them, by each event's key (time, parent's key, push index).  All
randomness comes from streams derived from one seed, with draws ordered so
that emission times and work sizes are identical across modes for the same
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cmp_to_key
from operator import itemgetter
from typing import Sequence

from .clustering import FunctionalArea
from .decision import AreaType, GatewayAssignment
from .errors import ConfigurationError, ContractError, _convert, _convert_fields, _convert_int
from .errors import _convert_range
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
        _convert_fields(self)
        for name in ("duration_s", "spa_interval_s", "pc_interval_s", "cloud_mips"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ConfigurationError(f"warmup_s must be in [0, duration_s), got {self.warmup_s}")
        if self.n_sensors is not None:
            _convert_int(self.n_sensors, "n_sensors", 1)
        _convert_int(self.tuple_bytes, "tuple_bytes", 1)
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        for name in ("spa_mips_range", "pc_mips_range", "access_ms"):
            _convert_range(getattr(self, name), name)


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
    n_sensors = _convert_int(n_sensors, "n_sensors", 1, ContractError)
    access_ms_range = _convert_range(access_ms_range, "access_ms_range")
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
    mode = _convert(Mode, mode, "mode", ContractError)
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


def _heap_order(a: tuple, b: tuple) -> int:
    """Nested-tuple order of two distinct heap keys, by a loop that deep ties cannot overflow."""
    while a[0] == b[0] and a[1] is not b[1] and a[1] and b[1]:
        a, b = a[1], b[1]
    return -1 if a < b else 1


def _sensor_routes(
    overlay: FogOverlay, sensors: SensorAttachment, placement: Placement
) -> dict[tuple[int, TupleKind], _Route]:
    """Each sensor's route per tuple kind; unroutable pairs are absent.

    SPA: the access hop and the path to the host, served by the host.  PC:
    the path from the host to its forwarder and the forwarder's cloud link,
    served by the cloud.  A linked forwarder uses its own cloud link; one
    without relays through its :attr:`FogOverlay.cloud_exit` device.
    """
    paths = all_pairs_paths(overlay)
    cloud = overlay.cloud_latency_ms
    exits = overlay.cloud_exit
    routes: dict[tuple[int, TupleKind], _Route] = {}
    for s in sensors.sensor_ids:
        ap = sensors.access_point[s]
        host = placement.edge_modules[s]
        if host in paths[ap]:
            path_ms, path_hops = paths[ap][host]
            routes[s, TupleKind.SPA] = (host, sensors.access_ms[s] + path_ms, 1 + path_hops)
        fwd = placement.cloud_route[host]
        if fwd not in paths[host] or fwd not in exits:
            continue
        # A linked forwarder is its own relay: paths[fwd][fwd] is (0.0, 0),
        # and adding 0.0 leaves the leg's float unchanged.
        relay = fwd if fwd in cloud else exits[fwd][1]
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

    A tuple without a route (:func:`_sensor_routes`) is dropped.  One emitted
    at t arrives at A = t + leg, departs at D = start + service and completes
    at C = D + leg; it starts at A on an idle server, else at the previous
    departure.  Events after the horizon never happen: uplink load counts at
    t, downlink load at D, the completion at C.  Heap keys: emit (t, (),
    emission index), arrive (A, emit key, 0), done (D, arrive key, 0) or,
    after waiting, (D, previous done key, 1), complete (C, done key, 0).  A
    server is idle for an arrival iff its previous done key is below the
    arrive key.  ``mode`` may be the enum's string value, e.g. ``"smartfog"``.
    """
    mode = _convert(Mode, mode, "mode", ContractError)
    workload.validate()
    seed = _convert_int(seed, "seed", 0, ContractError)
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

    # Emission schedules: per sensor, SPA stream then PC stream, identical
    # across modes; uniform(a, b) spelled out as its own a + (b - a) * random().
    draw = random.Random(seed ^ _WORK_SALT).random
    duration_ms = workload.duration_s * 1000.0
    warmup_ms = workload.warmup_s * 1000.0
    bytes_per_tuple = workload.tuple_bytes
    lo, hi = 1 - workload.jitter, 1 + workload.jitter
    load = 0
    arrivals: dict[object, list] = {server: [] for server in server_mips}
    samples: dict[str, list] = {TupleKind.SPA.value: [], TupleKind.PC.value: []}
    index = 0
    for s in sensors.sensor_ids:
        for kind, interval_s, (a, b) in (
            (TupleKind.SPA, workload.spa_interval_s, workload.spa_mips_range),
            (TupleKind.PC, workload.pc_interval_s, workload.pc_mips_range),
        ):
            route = routes.get((s, kind))
            if route is not None:
                server, leg_ms, leg_hops = route
                queue = arrivals[server]
                stream = (leg_ms, leg_hops, kind.value)
            width, first, t = b - a, index, 0.0
            while True:
                t += interval_s * (lo + (hi - lo) * draw()) * 1000.0
                if t > duration_ms:
                    break
                work = a + width * draw()
                if route is not None:
                    queue.append((t + leg_ms, (t, (), index), 0, work, stream))
                index += 1
            report.emitted[kind.value] += index - first
            if route is None:
                report.dropped[kind.value] += index - first
            else:
                load += bytes_per_tuple * leg_hops * (index - first)

    # Lindley's recursion per server.  An arrival is its heap key (A, emit key,
    # 0) and then its payload, which no comparison reaches: emit keys are unique.
    for server, queue in arrivals.items():
        queue.sort()
        mips = server_mips[server]
        done = (float("-inf"),)  # below every arrival
        for arrival in queue:
            arrive_ms, emit, _, work, (leg_ms, leg_hops, value) = arrival
            if arrive_ms > duration_ms:
                break
            start_ms, parent, j = (arrive_ms, arrival, 0) if done < arrival else (done[0], done, 1)
            done = (start_ms + work / mips * 1000.0, parent, j)
            if done[0] > duration_ms:
                break
            load += bytes_per_tuple * leg_hops
            complete_ms = done[0] + leg_ms
            if complete_ms <= duration_ms:
                report.completed[value] += 1
                if emit[0] >= warmup_ms:
                    samples[value].append((complete_ms, done, complete_ms - emit[0]))

    # Delays in completion order.  A sample is its complete's key with the delay
    # in place of the push index, which no comparison reaches either.
    for kind, out in ((TupleKind.SPA, report.spa_delays_ms), (TupleKind.PC, report.pc_delays_ms)):
        sampled = samples[kind.value]
        try:
            sampled.sort()
        except RecursionError:
            sampled.sort(key=cmp_to_key(_heap_order))
        out.extend(map(itemgetter(2), sampled))
    report.network_load_bytes = load

    for k in report.emitted:
        report.in_flight[k] = report.emitted[k] - report.completed[k] - report.dropped[k]
    return report
