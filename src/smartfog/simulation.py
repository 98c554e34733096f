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
The tuples live in flat arrays: one sort puts every server's arrivals in
order, a loop over plain floats runs the recursion, and counts, load and
delay samples are array expressions.  A server takes its arrivals in order
of (A, t, emission index), a tuple's emission index being its place in the
emission schedule; :class:`SimulationReport` states the order of the delay
samples.  All randomness comes from streams derived from one seed, with
draws ordered so that emission times and work sizes are identical across
modes for the same seed.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

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


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload and resource model knobs, checked and converted at construction.

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

    def __post_init__(self):
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
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    rng = _convert(random.Random, rng, "rng", ContractError)
    n_sensors = _convert_int(n_sensors, "n_sensors", 1, ContractError)
    access_ms_range = _convert_range(access_ms_range, "access_ms_range")
    access_point = {}
    access_ms = {}
    for s in range(n_sensors):
        access_point[s] = rng.choice(overlay.device_ids)
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
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    sensors = _convert(SensorAttachment, sensors, "sensors", ContractError)
    mode = _convert(Mode, mode, "mode", ContractError)
    assignment = _convert(GatewayAssignment | None, assignment, "assignment", ContractError)
    areas = _convert(tuple[FunctionalArea, ...] | None, areas, "areas", ContractError)
    rng = _convert(random.Random | None, rng, "rng", ContractError)
    if not sensors.access_point:
        raise ContractError("placement requires at least one sensor")
    for s, ap in sensors.access_point.items():
        if ap not in overlay:
            raise ContractError(f"sensor {s}: access_point {ap!r} names no device")
    for gw in assignment.device_ids if assignment is not None else ():
        if gw not in overlay:
            raise ContractError(f"assignment: gateway {gw} names no device")
    for area in areas or ():
        if area.owner_gateway not in overlay:
            raise ContractError(f"areas: owner_gateway {area.owner_gateway} names no device")
        unknown = area.members.difference(overlay.device_ids)
        if unknown:
            raise ContractError(f"areas: member {min(unknown)} names no device")
    paths = all_pairs_paths(overlay)

    if mode is Mode.SMARTFOG:
        if assignment is None or not areas:
            raise ContractError("smartfog placement requires a gateway assignment and areas")
        spa_area = next(
            (a for a in areas if a.area_type is AreaType.COMPUTE_OPTIMIZED), areas[0]
        )
        members = spa_area.members
        edge_modules = {}
        for s in sensors.sensor_ids:
            ap = sensors.access_point[s]
            # The row's settle order has non-decreasing latency: the first member
            # is nearest, and one after it at equal latency wins with a lower id.
            host = None
            for m, (ms, _) in paths[ap].items():
                if host is not None and ms > nearest:
                    break
                if m in members and (host is None or m < host):
                    host, nearest = m, ms
            if host is None:
                raise ContractError(f"no functional-area member reachable from device {ap}")
            edge_modules[s] = host
        gateway_ids = set(assignment.device_ids)
        cloud_route = {}
        for d in overlay.device_ids:
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
    cloud_ids = list(overlay.cloud_latency_ms)
    edge_modules = {s: rng.choice(overlay.device_ids) for s in sensors.sensor_ids}
    cloud_route = {d: rng.choice(cloud_ids) for d in overlay.device_ids}
    return Placement(edge_modules=edge_modules, cloud_route=cloud_route)


@dataclass
class SimulationReport:
    """Counts, delay samples and byte-hop load for one run.

    A kind's delay samples are the loop delays C - t of its tuples emitted
    from the warm-up on and completed within the horizon, in order of
    completion time C; samples tied on C are in emission order (per sensor,
    SPA stream then PC stream).
    """

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


def _serve(
    times: list[float],
    works: list[float],
    streams: list[float],
    sizes: list[int],
    n_servers: int,
    duration_ms: float,
    warmup_ms: float,
) -> tuple[tuple[int, int], int, list[float], list[float]]:
    """Lindley's recursion for every server over flat per-tuple arrays.

    ``times`` and ``works`` hold each routed tuple's emit time and work in
    emission order.  ``streams`` holds five numbers per routed stream, its
    (leg ms, leg hops, kind index, server index, server MIPS), and ``sizes``
    its tuple count, of ``n_servers``.  Returns the completed count per kind,
    the link hops travelled and the SPA and PC delays in report order.
    """
    n = len(times)
    cols = np.empty((8, n))
    cols[1] = np.fromiter(works, float, n)
    cols[2] = np.fromiter(times, float, n)
    cols[3:] = np.array(streams, dtype=float).reshape(-1, 5).T.repeat(sizes, axis=1)
    arrive, service, emit, leg, _, _, server, mips = cols
    np.add(emit, leg, out=arrive)
    service /= mips
    service *= 1000.0
    # Every server's arrivals in FIFO order: (A, t, emission index).  A small
    # integer key lets numpy sort the servers by radix.
    order = np.lexsort((emit, arrive, server.astype(np.min_scalar_type(n_servers))))
    arrive, service, emit, leg, hops, kind, server = cols[:7, order]
    first = np.concatenate(((True,), server[1:] != server[:-1]))

    # D = max(A, D_prev) + s: the start is A on an idle server and D_prev
    # otherwise, equal when the two tie.  D never falls along a server's
    # arrivals, so the tuples with D within the horizon are the ones the
    # server reaches and finishes in time; later ones never depart.
    # An array("d") hands out its items as Python floats more cheaply than
    # a list from tolist() holds them.
    dones: list[float] = []
    done = -math.inf
    for arrive_ms, service_ms, is_first in zip(
        array("d", arrive.tobytes()), array("d", service.tobytes()), first.tolist()
    ):
        done = (arrive_ms if is_first or arrive_ms > done else done) + service_ms
        dones.append(done)
    done = np.fromiter(dones, float, n)
    complete = done + leg
    # Every routed tuple goes up its leg; a served one comes back down it.
    load_hops = int(hops.sum() + hops[done <= duration_ms].sum())
    # 0/1: a sampled SPA/PC delay, 2/3: completed before the warm-up ended,
    # 4/5: not completed.
    finished = complete <= duration_ms
    group = (kind + np.where(finished, np.where(emit >= warmup_ms, 0.0, 2.0), 4.0)).astype(np.int8)
    tally = np.bincount(group, minlength=6).tolist()

    # Delays in order of C within each kind, ties in emission order: back in
    # emission order, the stable sort leaves tied samples there.
    complete_e, delay_e, group_e = np.empty(n), np.empty(n), np.empty(n, np.int8)
    complete_e[order], delay_e[order], group_e[order] = complete, complete - emit, group
    ranked = np.lexsort((complete_e, group_e))[: tally[0] + tally[1]]
    delays = delay_e[ranked].tolist()
    completed = (tally[0] + tally[2], tally[1] + tally[3])
    return completed, load_hops, delays[: tally[0]], delays[tally[0] :]


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
    departure, so start = max(A, D_prev).  Events after the horizon never
    happen: uplink load counts at t, downlink load at D, the completion at
    C.  A server takes arrivals tied on A in order of t, then of emission
    index; delay samples tied on C are reported in emission order.  Emission
    runs in Python, with its draws in order; the queues run in
    :func:`_serve` over flat arrays.  ``mode`` may be the enum's string
    value, e.g. ``"smartfog"``.
    """
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    mode = _convert(Mode, mode, "mode", ContractError)
    workload = _convert(WorkloadSpec, workload, "workload", ContractError)
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
    # Each server's (index, MIPS): the devices, then the cloud.
    servers: dict[object, tuple[int, float]] = {
        d.id: (i, d.mips) for i, d in enumerate(overlay.devices)
    }
    servers[_CLOUD] = (len(servers), workload.cloud_mips)

    # Emission schedules: per sensor, SPA stream then PC stream, identical
    # across modes; uniform(a, b) spelled out as its own a + (b - a) * random().
    # A routed tuple's emit time and work go onto two flat lists in emission
    # order and its stream's row onto ``streams``; an unrouted stream draws
    # into lists that are dropped.
    draw = random.Random(seed ^ _WORK_SALT).random
    duration_ms = workload.duration_s * 1000.0
    lo, hi = 1 - workload.jitter, 1 + workload.jitter
    spread = hi - lo
    kinds = (
        (0, TupleKind.SPA, workload.spa_interval_s, workload.spa_mips_range),
        (1, TupleKind.PC, workload.pc_interval_s, workload.pc_mips_range),
    )
    emitted, dropped = [0, 0], [0, 0]
    times: list[float] = []
    works: list[float] = []
    streams: list[float] = []
    sizes: list[int] = []
    for s in sensors.sensor_ids:
        for k, kind, interval_s, (a, b) in kinds:
            route = routes.get((s, kind))
            ts, ws = (times, works) if route is not None else ([], [])
            first, width, t = len(ts), b - a, 0.0
            while True:
                t += interval_s * (lo + spread * draw()) * 1000.0
                if t > duration_ms:
                    break
                ts.append(t)
                ws.append(a + width * draw())
            size = len(ts) - first
            emitted[k] += size
            if route is None:
                dropped[k] += size
            elif size:
                server, leg_ms, leg_hops = route
                streams += (leg_ms, leg_hops, k, *servers[server])
                sizes.append(size)

    completed, load_hops, spa, pc = (
        _serve(times, works, streams, sizes, len(servers), duration_ms, workload.warmup_s * 1000.0)
        if streams
        else ((0, 0), 0, [], [])
    )
    report = SimulationReport(
        mode=mode,
        n_devices=n_devices,
        seed=seed,
        spa_delays_ms=spa,
        pc_delays_ms=pc,
        network_load_bytes=workload.tuple_bytes * load_hops,
    )
    for k, kind in enumerate(TupleKind):
        value = kind.value
        report.emitted[value] = emitted[k]
        report.completed[value] = completed[k]
        report.dropped[value] = dropped[k]
        report.in_flight[value] = emitted[k] - completed[k] - dropped[k]
    return report
