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
Placement and routing read the overlay's shortest-path table
(:class:`~smartfog.overlay.PathTable`) by device position: placement as
array expressions over the member and gateway columns, the routes one entry
at a time.  A route names its server by device position, the cloud
following the devices.

Routes are fixed per sensor and links have no capacity, so every tuple
visits one FIFO server (a device or the cloud), and each server runs
Lindley's recursion D = max(A, D_prev) + s over its arrivals on its own.
The tuples live in flat arrays in emission order: one sort puts every
server's arrivals in order, only the arrival, service and server columns
are permuted for a loop over plain floats that runs the recursion, and
counts, load and delay samples are array expressions.  A server takes its
arrivals in order of (A, t, emission index), a tuple's emission index being
its place in the emission schedule; :class:`SimulationReport` states the
order of the delay samples.  All randomness comes from streams derived from
one seed, with draws ordered so that the sensor attachment, emission times
and work sizes are identical across modes for the same seed; they are drawn
once per (seed, workload, device ids) and shared by both modes.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .clustering import FunctionalArea
from .decision import AreaType, GatewayAssignment
from .errors import ConfigurationError, ContractError, _are_plain, _convert, _convert_fields
from .errors import _convert_int, _convert_range
from .overlay import FogOverlay, PathTable, all_pairs_paths

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
    ``access_ms[s]`` the one-way latency of that access hop.  Sensor ids are
    integers >= 0, both maps have the same ones, and every latency is finite
    and > 0.
    """

    access_point: dict[int, int]
    access_ms: dict[int, float]

    def __post_init__(self):
        # Exact ints and floats pass in one C-speed pass; anything else is
        # converted or refused by name.
        for name, hint in (("access_point", int), ("access_ms", float)):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise ContractError(f"{name} must be a mapping keyed by sensor id, got {value!r}")
            if not (_are_plain(value, int) and _are_plain(value.values(), hint)):
                value = {
                    _convert(int, s, f"{name} sensor id", ContractError): _convert(
                        hint, v, f"sensor {s}: {name}", ContractError
                    )
                    for s, v in value.items()
                }
                object.__setattr__(self, name, value)
        points, ms = self.access_point, self.access_ms
        if points.keys() != ms.keys():
            s = min(points.keys() ^ ms.keys())
            raise ContractError(f"access_ms must have the sensor ids of access_point; {s} is in one only")
        if min(points, default=0) < 0:
            raise ContractError(f"access_point sensor id must be an integer >= 0, got {min(points)}")
        for s, v in ms.items():
            if not 0 < v < math.inf:
                raise ContractError(f"sensor {s}: access_ms must be finite and > 0, got {v}")

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
    return _attach(overlay.device_ids, n_sensors, rng, access_ms_range)


def _attach(
    device_ids: Sequence[int],
    n_sensors: int,
    rng: random.Random,
    access_ms_range: tuple[float, float],
) -> SensorAttachment:
    access_point = {}
    access_ms = {}
    for s in range(n_sensors):
        access_point[s] = rng.choice(device_ids)
        access_ms[s] = rng.uniform(*access_ms_range)
    return SensorAttachment(access_point=access_point, access_ms=access_ms)


def _nearest(
    table: PathTable,
    sources: Sequence[int],
    targets: Sequence[int],
    allowed: np.ndarray | None = None,
) -> list[int]:
    """Each source's nearest allowed target by (latency, id), as an index into ``targets``.

    ``sources`` and ``targets`` hold device positions, ``targets`` ascending,
    so argmin's first tied minimum is the lower id.  ``allowed``, if given,
    marks each source's targets by row.  A source that reaches no allowed
    target gets -1.
    """
    cells = np.array(sources)[:, None], targets
    latency = table.latency_ms[cells]
    if allowed is not None:
        latency = np.where(allowed, latency, math.inf)
    best = latency.argmin(axis=1)
    # A nearest latency of inf may be unreachable or not allowed.  The first
    # reachable allowed target is then the lowest id at inf (a sum past the
    # largest double), if there is one.
    if np.isinf(latency.min(axis=1)).any():
        reach = table.hops[cells] >= 0
        if allowed is not None:
            reach &= allowed
        stuck = ~reach[np.arange(len(best)), best]
        best[stuck] = np.where(reach[stuck].any(axis=1), reach[stuck].argmax(axis=1), -1)
    return best.tolist()


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

    if mode is Mode.SMARTFOG:
        if assignment is None or not areas:
            raise ContractError("smartfog placement requires a gateway assignment and areas")
        spa_area = next(
            (a for a in areas if a.area_type is AreaType.COMPUTE_OPTIMIZED), areas[0]
        )
        table = all_pairs_paths(overlay)
        ids, position = overlay.device_ids, overlay._position
        sensor_ids = sensors.sensor_ids
        access = [position[sensors.access_point[s]] for s in sensor_ids]
        members = sorted(spa_area.members)
        hosts = _nearest(table, access, [position[m] for m in members])
        if -1 in hosts:
            ap = ids[access[hosts.index(-1)]]
            raise ContractError(f"no functional-area member reachable from device {ap}")
        edge_modules = {s: members[h] for s, h in zip(sensor_ids, hosts)}
        # A gateway forwards its own PC tuples.  Every other device's
        # candidates are the owners of its areas, else every gateway.
        gateway_ids = set(assignment.device_ids)
        targets = sorted(gateway_ids.union(a.owner_gateway for a in areas))
        column = {g: j for j, g in enumerate(targets)}
        allowed = np.zeros((len(ids), len(targets)), bool)
        for area in areas:
            allowed[[position[m] for m in area.members], column[area.owner_gateway]] = True
        allowed[~allowed.any(axis=1)] = [g in gateway_ids for g in targets]
        nearest = _nearest(table, range(len(ids)), [position[g] for g in targets], allowed)
        cloud_route = {}
        for d, g in zip(ids, nearest):
            if d in gateway_ids:
                cloud_route[d] = d
            elif g < 0:
                raise ContractError(f"no gateway reachable from device {d}")
            else:
                cloud_route[d] = targets[g]
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


def _stream_routes(
    overlay: FogOverlay, sensors: SensorAttachment, placement: Placement
) -> list[tuple[float, int, int] | None]:
    """Each stream's (one-way leg ms, one-way leg hops, server), or None if unroutable.

    Stream 2i is the i-th sensor's SPA stream and 2i + 1 its PC stream; a
    tuple returns over its leg.  The server is a device position, and
    ``len(overlay.devices)`` the cloud.  SPA: the access hop and the path to
    the host, served by the host.  PC: the path from the host to its
    forwarder and the forwarder's cloud link, served by the cloud.  A linked
    forwarder uses its own cloud link; one without relays through its
    :attr:`FogOverlay.cloud_exit` device.
    """
    # A memoryview hands out one entry as a Python number more cheaply than
    # numpy's indexing does.
    latency, hops = map(memoryview, all_pairs_paths(overlay))
    position = overlay._position
    cloud = overlay.cloud_latency_ms
    exits = overlay.cloud_exit
    access_point, access_ms = sensors.access_point, sensors.access_ms
    edge_modules, cloud_route = placement.edge_modules, placement.cloud_route
    cloud_server = len(position)
    routes: list[tuple[float, int, int] | None] = []
    for s in sensors.sensor_ids:
        ap = position[access_point[s]]
        host = edge_modules[s]
        h = position[host]
        path_hops = hops[ap, h]
        spa = (access_ms[s] + latency[ap, h], 1 + path_hops, h) if path_hops >= 0 else None
        fwd = cloud_route[host]
        f = position[fwd]
        path_hops = hops[h, f]
        pc = None
        if path_hops >= 0 and fwd in exits:
            # A linked forwarder is its own relay: latency[f, f] is 0.0, and
            # adding 0.0 leaves the leg's float unchanged.
            relay = fwd if fwd in cloud else exits[fwd][1]
            r = position[relay]
            leg_ms = latency[h, f] + latency[f, r] + cloud[relay]
            pc = (leg_ms, path_hops + hops[f, r] + 1, cloud_server)
        routes += (spa, pc)
    return routes


@lru_cache(maxsize=1)
def _draws(
    seed: int, workload: WorkloadSpec, device_ids: tuple[int, ...]
) -> tuple[SensorAttachment, np.ndarray, np.ndarray, tuple[int, ...]]:
    """A run's mode-independent draws, once per (seed, workload, device ids).

    ``workload.n_sensors`` sensors, or one per two devices, are attached by
    :func:`attach_sensors`'s draws from the seed's attachment stream.  Then
    each sensor's emission schedule is drawn from the seed's work stream:
    per sensor, the SPA stream then the PC stream, whether routed or not;
    uniform(a, b) is spelled out as its own a + (b - a) * random().  Returns
    the attachment, every tuple's emit time and work in emission order, as
    read-only float64 arrays, and each stream's tuple count.  The one cached
    result serves both modes of a replicate, which run back to back under
    one seed, so no caller may change it.
    """
    n_sensors = workload.n_sensors
    if n_sensors is None:
        n_sensors = max(1, len(device_ids) // 2)
    sensors = _attach(device_ids, n_sensors, random.Random(seed ^ _ATTACH_SALT), workload.access_ms)
    draw = random.Random(seed ^ _WORK_SALT).random
    duration_ms = workload.duration_s * 1000.0
    lo, hi = 1 - workload.jitter, 1 + workload.jitter
    spread = hi - lo
    kinds = (
        (workload.spa_interval_s, workload.spa_mips_range),
        (workload.pc_interval_s, workload.pc_mips_range),
    )
    times, works = array("d"), array("d")
    sizes = []
    for _ in range(n_sensors):
        for interval_s, (a, b) in kinds:
            first, width, t = len(times), b - a, 0.0
            while True:
                t += interval_s * (lo + spread * draw()) * 1000.0
                if t > duration_ms:
                    break
                times.append(t)
                works.append(a + width * draw())
            sizes.append(len(times) - first)
    emit, work = np.frombuffer(times), np.frombuffer(works)
    emit.flags.writeable = work.flags.writeable = False
    return sensors, emit, work, tuple(sizes)


def _serve(
    emit: np.ndarray,
    work: np.ndarray,
    streams: list[float],
    sizes: Sequence[int],
    n_servers: int,
    duration_ms: float,
    warmup_ms: float,
) -> tuple[tuple[int, int], int, list[float], list[float]]:
    """Lindley's recursion for every server over flat per-tuple arrays.

    ``emit`` and ``work`` hold each routed tuple's emit time and work in
    emission order.  ``streams`` holds five numbers per routed stream, its
    (leg ms, leg hops, kind index, server index, server MIPS), and ``sizes``
    its tuple count, of ``n_servers``.  Only the arrival, service and server
    columns are permuted into the servers' FIFO order for the recursion; the
    departures come back in emission order, where the rest is computed.
    Returns the completed count per kind, the link hops travelled and the
    SPA and PC delays in report order.
    """
    leg, hops, kind, server, mips = np.array(streams).reshape(-1, 5).T.repeat(sizes, axis=1)
    arrive = emit + leg
    service = work / mips
    service *= 1000.0
    # Every server's arrivals in FIFO order: (A, t, emission index).  A small
    # integer key lets numpy sort the servers by radix.
    order = np.lexsort((emit, arrive, server.astype(np.min_scalar_type(n_servers))))
    server = server[order]
    bounds = [0, *(np.flatnonzero(server[1:] != server[:-1]) + 1).tolist(), len(order)]

    # D = max(A, D_prev) + s over each server's arrivals, the run between two
    # ``bounds``: the start is A on an idle server, as at the first arrival,
    # and D_prev otherwise, equal when the two tie.  D never falls along a
    # server's arrivals, so the tuples with D within the horizon are the ones
    # the server reaches and finishes in time; later ones never depart.  An
    # array("d") hands out its items as Python floats more cheaply than a
    # list from tolist() holds them.
    arrivals, services = (array("d", column[order].tobytes()) for column in (arrive, service))
    dones: list[float] = []
    append = dones.append
    for lo, hi in zip(bounds, bounds[1:]):
        done = -math.inf
        for arrive_ms, service_ms in zip(arrivals[lo:hi], services[lo:hi]):
            done = (arrive_ms if arrive_ms > done else done) + service_ms
            append(done)
    done = np.empty_like(emit)
    done[order] = np.fromiter(dones, float, len(dones))
    complete = done + leg
    # Every routed tuple goes up its leg; a served one comes back down it.
    load_hops = int(hops.sum() + hops[done <= duration_ms].sum())
    # 0/1: a sampled SPA/PC delay, 2/3: completed before the warm-up ended,
    # 4/5: not completed.
    finished = complete <= duration_ms
    group = (kind + np.where(finished, np.where(emit >= warmup_ms, 0.0, 2.0), 4.0)).astype(np.int8)
    tally = np.bincount(group, minlength=6).tolist()

    # Delays in order of C within each kind, ties in emission order, which
    # the stable sort keeps.
    ranked = np.lexsort((complete, group))[: tally[0] + tally[1]]
    delays = (complete[ranked] - emit[ranked]).tolist()
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
    and routing.  :func:`_draws` draws all three once per (seed, workload,
    device ids) and keeps the last, so modes run back to back under one seed
    share them.

    A tuple without a route (:func:`_stream_routes`) is dropped.  One emitted
    at t arrives at A = t + leg, departs at D = start + service and completes
    at C = D + leg; it starts at A on an idle server, else at the previous
    departure, so start = max(A, D_prev).  Events after the horizon never
    happen: uplink load counts at t, downlink load at D, the completion at
    C.  A server takes arrivals tied on A in order of t, then of emission
    index; delay samples tied on C are reported in emission order.  The
    routed streams' tuples are kept from the schedule, and the queues run
    in :func:`_serve` over flat arrays.  ``mode`` may be the enum's string
    value, e.g. ``"smartfog"``.
    """
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    mode = _convert(Mode, mode, "mode", ContractError)
    workload = _convert(WorkloadSpec, workload, "workload", ContractError)
    seed = _convert_int(seed, "seed", 0, ContractError)

    sensors, emit, work, sizes = _draws(seed, workload, overlay.device_ids)
    placement = place_edge_ward(
        overlay,
        sensors,
        mode,
        assignment=assignment,
        areas=areas,
        rng=random.Random(seed ^ _PLACE_SALT),
    )
    routes = _stream_routes(overlay, sensors, placement)
    # Each server's MIPS by its position in the routes: the devices, then the cloud.
    mips = [d.mips for d in overlay.devices] + [workload.cloud_mips]

    # A routed stream's row goes onto ``streams``; an unrouted one is dropped.
    emitted, dropped = [sum(sizes[0::2]), sum(sizes[1::2])], [0, 0]
    streams: list[float] = []
    for i, route in enumerate(routes):
        if route is None:
            dropped[i % 2] += sizes[i]
        else:
            leg_ms, leg_hops, server = route
            streams += (leg_ms, leg_hops, i % 2, server, mips[server])
    routed = [route is not None for route in routes]
    if not all(routed):
        keep = np.repeat(routed, sizes)
        emit, work, sizes = emit[keep], work[keep], [n for n, kept in zip(sizes, routed) if kept]

    completed, load_hops, spa, pc = _serve(
        emit, work, streams, sizes, len(mips), workload.duration_s * 1e3, workload.warmup_s * 1e3
    )
    report = SimulationReport(
        mode=mode,
        n_devices=len(overlay.devices),
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
