"""Fog overlay model: devices, latency-weighted links, cloud attachment, churn.

The overlay is a connected mesh of fog devices built from a uniformly random
spanning tree plus random chords up to a target mean degree.  Every quantity
that the generator draws (device resources, link latencies, cloud latencies)
comes from a single seeded stream in a fixed order, so the same seed always
yields the same overlay, byte for byte after serialization.

The cached ``path_table`` and ``cloud_exit`` come from the module's one
Dijkstra, run from each device or once from every cloud-attached device.
The same search counts shortest paths for weighted betweenness, whose rows
only :meth:`FogOverlay._offer_path_table` writes into ``path_table``.  The
search runs on device positions (indices into ``device_ids``, whose order is
id order, so every tie rule is unchanged) over :attr:`FogOverlay.neighbours`,
with its state in lists; only the rows and maps it returns are keyed by id.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, Sequence, Union

from .errors import (
    ChurnRejectedError,
    ConfigurationError,
    ConflictError,
    ContractError,
    TopologyError,
    _are_plain,
    _convert,
    _convert_fields,
    _convert_int,
    _convert_range,
    _is_int,
)

# The value objects below test exact classes and plain comparisons first and
# call _convert only when those fail.  Every device and link runs these tests,
# so exact classes are tested inline and math.inf is read from a global.
_INF = math.inf


def _plain(number):
    """A checked number as the value objects store it: a plain int kept, else a float.

    An int keeps an overlay's ``to_json()`` bytes; numpy's floats become
    floats, which JSON can write.
    """
    return number if type(number) is int else float(number)


class Arch(str, Enum):
    """Instruction-set architecture of a fog device."""

    ARM = "arm"
    X86 = "x86"


@dataclass(frozen=True)
class FogDevice:
    """A single fog node with its compute resources; an ``arch`` value becomes its member."""

    id: int
    mips: float
    memory_gb: float
    storage_gb: float
    arch: Arch

    def __post_init__(self):
        if not (
            type(self.id) is int
            and type(self.arch) is Arch
            and type(self.mips) is float
            and type(self.memory_gb) is float
            and type(self.storage_gb) is float
        ):
            object.__setattr__(self, "id", _convert(int, self.id, "device id"))
            object.__setattr__(self, "arch", _convert(Arch, self.arch, f"device {self.id}: arch"))
            for name in ("mips", "memory_gb", "storage_gb"):
                value = getattr(self, name)
                _convert(float, value, f"device {self.id}: {name}")
                object.__setattr__(self, name, _plain(value))
        # Comparisons with NaN are false, so these checks refuse NaN as well.
        if not 0 < self.mips < _INF:
            raise ConfigurationError(
                f"device {self.id}: mips must be finite and > 0, got {self.mips}"
            )
        if not 0 < self.memory_gb < _INF:
            raise ConfigurationError(
                f"device {self.id}: memory_gb must be finite and > 0, got {self.memory_gb}"
            )
        if not 0 <= self.storage_gb < _INF:
            raise ConfigurationError(
                f"device {self.id}: storage_gb must be finite and >= 0, got {self.storage_gb}"
            )


@dataclass(frozen=True)
class Link:
    """Undirected overlay link; endpoints are stored with ``a < b``."""

    a: int
    b: int
    latency_ms: float

    def __post_init__(self):
        if not (
            type(self.a) is int and type(self.b) is int and type(self.latency_ms) is float
        ):
            object.__setattr__(self, "a", _convert(int, self.a, "link endpoint a"))
            object.__setattr__(self, "b", _convert(int, self.b, "link endpoint b"))
            _convert(float, self.latency_ms, f"link ({self.a}, {self.b}): latency_ms")
            object.__setattr__(self, "latency_ms", _plain(self.latency_ms))
        if self.a == self.b:
            raise ConfigurationError(f"link ({self.a}, {self.b}) is a self-loop")
        if self.a > self.b:
            raise ConfigurationError(f"link endpoints must satisfy a < b, got ({self.a}, {self.b})")
        if not 0 < self.latency_ms < _INF:
            raise ConfigurationError(
                f"link ({self.a}, {self.b}): latency_ms must be finite and > 0,"
                f" got {self.latency_ms}"
            )


@dataclass(frozen=True)
class FogOverlay:
    """Immutable snapshot of the overlay network.

    ``cloud_latency_ms`` maps cloud-attached device ids to their direct
    device-to-cloud latency.  At least one device must be cloud-attached.
    Churn never mutates an overlay; :func:`apply_churn` returns a new one.

    Devices are stored by ascending id, links by ascending ``(a, b)`` and
    ``cloud_latency_ms`` as a dict with ascending keys, so overlays with the
    same devices, links and cloud map are equal whatever order they were
    given in.  ``path_table`` keeps the first weighted betweenness's searches.
    """

    devices: tuple[FogDevice, ...]
    links: tuple[Link, ...]
    cloud_latency_ms: Mapping[int, float]

    def __post_init__(self):
        # Exact classes pass in one C-speed pass; anything else is refused by name.
        for name, hint in (("devices", FogDevice), ("links", Link)):
            parts = getattr(self, name)
            if not (type(parts) in (tuple, list) and _are_plain(parts, hint)):
                _convert(tuple[hint, ...], parts, name)
        if not isinstance(self.cloud_latency_ms, Mapping):
            raise ConfigurationError(
                f"cloud_latency_ms must be a mapping of device id to latency_ms,"
                f" got {self.cloud_latency_ms!r}"
            )
        object.__setattr__(self, "devices", tuple(sorted(self.devices, key=lambda d: d.id)))
        object.__setattr__(self, "links", tuple(sorted(self.links, key=lambda l: (l.a, l.b))))
        ids = [d.id for d in self.devices]
        known = set(ids)
        if len(known) != len(ids):
            raise ConfigurationError("duplicate device ids in overlay")
        ends = {(link.a, link.b) for link in self.links}
        if len(ends) != len(self.links):
            raise ConfigurationError("duplicate links in overlay")
        if not known.issuperset(chain.from_iterable(ends)):
            unknown = set(chain.from_iterable(ends)) - known
            raise ConfigurationError(f"links reference unknown devices {sorted(unknown)}")
        cloud = self.cloud_latency_ms
        if not cloud:
            raise ConfigurationError("overlay must have at least one cloud-attached device")
        # Only a type test refuses True or 1.0, which are in ``known`` when 1 is.
        if not (_are_plain(cloud, int) and _are_plain(cloud.values(), float)):
            for dev_id, ms in cloud.items():
                _convert(int, dev_id, "cloud_latency_ms key")
                _convert(float, ms, f"device {dev_id}: cloud_latency_ms")
            cloud = {int(dev_id): _plain(ms) for dev_id, ms in cloud.items()}
        cloud = dict(sorted(cloud.items()))
        object.__setattr__(self, "cloud_latency_ms", cloud)
        for dev_id, ms in cloud.items():
            if dev_id not in known:
                raise ConfigurationError(f"cloud_latency_ms names unknown device {dev_id}")
            if not 0 < ms < _INF:
                raise ConfigurationError(
                    f"device {dev_id}: cloud_latency_ms must be finite and > 0, got {ms}"
                )

    @cached_property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(d.id for d in self.devices)

    @cached_property
    def _position(self) -> dict[int, int]:
        """Each device id's index in ``devices`` and ``device_ids``."""
        return {d.id: i for i, d in enumerate(self.devices)}

    def device(self, device_id: int) -> FogDevice:
        if device_id not in self:
            _convert(int, device_id, "device_id", ContractError)
            raise ContractError(f"device_id {device_id} names no device")
        return self.devices[self._position[device_id]]

    def __contains__(self, device_id: object) -> bool:
        """Whether ``device_id`` is an integer (not a bool) naming a device."""
        return _is_int(device_id) and device_id in self._position

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Row i holds device i's ``((position, latency_ms), ...)``, built ascending.

        Positions index ``device_ids``, whose order is id order.
        """
        position = self._position
        rows: list[list[tuple[int, float]]] = [[] for _ in self.devices]
        for link in self.links:
            a, b, ms = position[link.a], position[link.b], link.latency_ms
            rows[a].append((b, ms))
            rows[b].append((a, ms))
        return tuple(map(tuple, rows))

    @cached_property
    def path_table(self) -> dict[int, dict[int, tuple[float, int]]]:
        """Every device's search row, unless weighted betweenness offered its own."""
        ids = self.device_ids
        return {v: _search(self.neighbours, ids, i) for i, v in enumerate(ids)}

    def _offer_path_table(self, rows: dict[int, dict[int, tuple[float, int]]]) -> None:
        """Cache ``rows``, every device's search row, as ``path_table`` unless one is cached."""
        vars(self).setdefault("path_table", rows)

    @cached_property
    def cloud_exit(self) -> dict[int, tuple[float, int]]:
        """Each device's ``(latency_ms, exit_device)`` to the cloud; ties to the lower exit."""
        ids, position = self.device_ids, self._position
        roots = {position[g]: ms for g, ms in self.cloud_latency_ms.items()}
        search = _settle(self.neighbours, roots)
        return {ids[node]: (dist, ids[root]) for dist, _, node, root in search}

    def is_connected(self) -> bool:
        """Whether the links join every device; searched once per overlay."""
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        return _reaches_all(self)

    def to_json(self) -> str:
        """Serialize deterministically; `from_json` round-trips exactly."""
        doc = {
            "devices": [
                {
                    "id": d.id,
                    "mips": d.mips,
                    "memory_gb": d.memory_gb,
                    "storage_gb": d.storage_gb,
                    "arch": d.arch.value,
                }
                for d in self.devices
            ],
            "links": [{"a": l.a, "b": l.b, "latency_ms": l.latency_ms} for l in self.links],
            "cloud": [
                {"id": dev_id, "latency_ms": ms} for dev_id, ms in self.cloud_latency_ms.items()
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FogOverlay":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed overlay document: {exc}") from exc
        # Device and link records hold exactly their object's fields, which check them.
        try:
            devices = tuple(FogDevice(**d) for d in doc["devices"])
            links = tuple(Link(**l) for l in doc["links"])
            cloud = {c["id"]: c["latency_ms"] for c in doc["cloud"]}
        except KeyError as exc:
            raise ConfigurationError(f"overlay document missing field: {exc}") from exc
        except TypeError as exc:  # a section or a record that is not what the format says
            raise ConfigurationError(f"malformed overlay document: {exc}") from exc
        return cls(devices=devices, links=links, cloud_latency_ms=cloud)


@dataclass(frozen=True)
class OverlayParams:
    """Generator knobs, checked at construction; defaults mirror the reference evaluation setup."""

    mips_range: tuple[float, float] = (800.0, 1200.0)
    memory_choices_gb: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    storage_gb: float = 16.0
    mean_degree: float = 3.0
    link_latency_ms: tuple[float, float] = (1.0, 10.0)
    cloud_latency_ms: tuple[float, float] = (50.0, 100.0)

    def __post_init__(self):
        _convert_fields(self)
        for name in ("mips_range", "link_latency_ms", "cloud_latency_ms"):
            _convert_range(getattr(self, name), name)
        if not self.memory_choices_gb or min(self.memory_choices_gb) <= 0:
            raise ConfigurationError(f"memory_choices_gb invalid: {self.memory_choices_gb}")
        if self.storage_gb < 0:
            raise ConfigurationError(f"storage_gb invalid: {self.storage_gb}")
        if self.mean_degree < 1:
            raise ConfigurationError(f"mean_degree must be >= 1, got {self.mean_degree}")


_DEFAULT_PARAMS = OverlayParams()


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on ``n`` nodes via Pruefer decoding."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def build_overlay(n_devices: int, seed: int, params: OverlayParams | None = None) -> FogOverlay:
    """Generate a connected overlay of ``n_devices`` fog devices.

    Structure: uniform spanning tree plus random chords until the link count
    reaches ``round(mean_degree * n / 2)`` (capped at the complete graph).
    All randomness comes from ``random.Random(seed)`` in a fixed draw order.
    """
    n_devices = _convert_int(n_devices, "n_devices", 2)
    seed = _convert_int(seed, "seed", 0)
    params = _convert(OverlayParams | None, params, "params", ContractError) or _DEFAULT_PARAMS
    rng = random.Random(seed)

    devices = []
    for i in range(n_devices):
        mips = rng.uniform(*params.mips_range)
        memory = rng.choice(params.memory_choices_gb)
        arch = rng.choice((Arch.ARM, Arch.X86))
        devices.append(
            FogDevice(id=i, mips=mips, memory_gb=memory, storage_gb=params.storage_gb, arch=arch)
        )

    edge_set = set(_random_tree_edges(n_devices, rng))
    max_links = n_devices * (n_devices - 1) // 2
    target = min(max(round(params.mean_degree * n_devices / 2), n_devices - 1), max_links)
    while len(edge_set) < target:
        a = rng.randrange(n_devices)
        b = rng.randrange(n_devices)
        if a == b:
            continue
        edge = (min(a, b), max(a, b))
        if edge not in edge_set:
            edge_set.add(edge)

    links = tuple(
        Link(a=a, b=b, latency_ms=rng.uniform(*params.link_latency_ms))
        for a, b in sorted(edge_set)
    )
    cloud = {i: rng.uniform(*params.cloud_latency_ms) for i in range(n_devices)}
    return FogOverlay(devices=tuple(devices), links=links, cloud_latency_ms=cloud)


@dataclass(frozen=True)
class Join:
    """A device joining the overlay with its attachment links.

    ``links`` holds ``(existing_device_id, latency_ms)`` pairs; the joining
    device may optionally be cloud-attached.
    """

    device: FogDevice
    links: tuple[tuple[int, float], ...]
    cloud_latency_ms: float | None = None

    def __post_init__(self):
        # Ranges are checked by the links and the overlay that apply_churn builds.
        _convert(FogDevice, self.device, "device")
        _convert(tuple[tuple[int, float], ...], self.links, "links of (device id, latency_ms)")
        object.__setattr__(self, "links", tuple((int(t), _plain(ms)) for t, ms in self.links))
        _convert(float | None, self.cloud_latency_ms, "cloud_latency_ms")
        if self.cloud_latency_ms is not None:
            object.__setattr__(self, "cloud_latency_ms", _plain(self.cloud_latency_ms))


@dataclass(frozen=True)
class Leave:
    """A device leaving the overlay together with all of its links."""

    device_id: int

    def __post_init__(self):
        object.__setattr__(self, "device_id", _convert(int, self.device_id, "device_id"))


ChurnEvent = Union[Join, Leave]


def apply_churn(overlay: FogOverlay, event: ChurnEvent) -> FogOverlay:
    """Apply one churn event, returning a new overlay.

    A ``Leave`` that would disconnect the residual overlay or remove its last
    cloud attachment is rejected with :class:`ChurnRejectedError`; the input
    overlay is never modified.
    """
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    if isinstance(event, Join):
        return _apply_join(overlay, event)
    if isinstance(event, Leave):
        return _apply_leave(overlay, event)
    raise ContractError(f"unknown churn event {event!r}")


def _apply_join(overlay: FogOverlay, event: Join) -> FogOverlay:
    dev = event.device
    if dev.id in overlay:
        raise ConflictError(f"device id {dev.id} already present")
    if not event.links:
        raise ChurnRejectedError(f"join of device {dev.id} has no attachment links")
    targets = set()
    for target, _ in event.links:
        if target not in overlay:
            raise ContractError(f"join of device {dev.id} references unknown device {target}")
        if target in targets:
            raise ContractError(f"join of device {dev.id} repeats attachment to {target}")
        targets.add(target)
    new_links = overlay.links + tuple(
        Link(a=min(dev.id, t), b=max(dev.id, t), latency_ms=ms) for t, ms in event.links
    )
    cloud = dict(overlay.cloud_latency_ms)
    if event.cloud_latency_ms is not None:
        cloud[dev.id] = event.cloud_latency_ms
    return FogOverlay(devices=overlay.devices + (dev,), links=new_links, cloud_latency_ms=cloud)


def _apply_leave(overlay: FogOverlay, event: Leave) -> FogOverlay:
    if event.device_id not in overlay:
        raise ContractError(f"no device with id {event.device_id} to remove")
    if len(overlay.devices) == 1:
        raise ChurnRejectedError("cannot remove the last device")
    devices = tuple(d for d in overlay.devices if d.id != event.device_id)
    links = tuple(l for l in overlay.links if event.device_id not in (l.a, l.b))
    cloud = {k: v for k, v in overlay.cloud_latency_ms.items() if k != event.device_id}
    if not cloud:
        raise ChurnRejectedError(
            f"removing device {event.device_id} would detach the overlay from the cloud"
        )
    candidate = FogOverlay(devices=devices, links=links, cloud_latency_ms=cloud)
    if not candidate.is_connected():
        raise ChurnRejectedError(f"removing device {event.device_id} would disconnect the overlay")
    return candidate


def _reaches_all(overlay: FogOverlay) -> bool:
    """Whether a depth-first search from the first device reaches every device."""
    neighbours = overlay.neighbours
    seen = {0}
    stack = [0]
    while stack:
        for nbr, _ in neighbours[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(neighbours)


#: Neighbour rows by device position: row i is ``((position, length), ...)``.
_Neighbours = Sequence[Sequence[tuple[int, float]]]


def _settle(
    neighbours: _Neighbours, roots: Mapping[int, float], sigma=None, preds=None
) -> Iterator[tuple[float, int, int, int]]:
    """Dijkstra from every root at once, yielding ``(latency_ms, hops, device, root)``.

    Devices and roots are positions in ``neighbours``.  Each root starts at
    its own latency.  Heap keys are ``(latency, root, hops, position)``:
    latency ties settle the lower root's path first, then the fewer-hop one,
    then the lower position, which is the lower id.  One root compares as
    ``(latency, hops, position)``.  A device is pushed only when that
    improves its tentative ``(latency, root, hops)``.

    Given lists ``sigma`` and ``preds`` over positions, holding 1 and ``[]``
    at the one root, it counts shortest paths as Brandes (2001) does: a push
    at a device's tentative latency adds the pusher's count and records it as
    predecessor, and a lower latency starts both afresh.  Only settled devices
    push, so predecessors stay acyclic even when ``dist + ms == dist``.
    """
    # Each device's least heap entry so far, and whether it has settled.
    best: list = [None] * len(neighbours)
    for root, ms in roots.items():
        best[root] = (ms, root, 0, root)
    heap = [best[root] for root in roots]
    heapq.heapify(heap)
    settled = [False] * len(neighbours)
    while heap:
        dist, root, hops, node = heapq.heappop(heap)
        if settled[node]:
            continue
        settled[node] = True
        yield dist, hops, node, root
        hops += 1
        for nbr, ms in neighbours[node]:
            if settled[nbr]:
                continue
            latency = dist + ms
            old = best[nbr]
            if old is None or latency < old[0]:
                if sigma is not None:
                    sigma[nbr], preds[nbr] = sigma[node], [node]
            elif latency == old[0]:
                if sigma is not None:
                    sigma[nbr] += sigma[node]
                    preds[nbr].append(node)
                if (latency, root, hops, nbr) >= old:
                    continue
            else:
                continue
            best[nbr] = entry = (latency, root, hops, nbr)
            heapq.heappush(heap, entry)


def _search(neighbours: _Neighbours, ids, source: int, sigma=None, preds=None) -> dict:
    """The search from position ``source``: its ``id -> (latency_ms, hops)`` row in settle order."""
    search = _settle(neighbours, {source: 0.0}, sigma, preds)
    return {ids[node]: (dist, hops) for dist, hops, node, _ in search}


def latency_to_cloud(overlay: FogOverlay, device_id: int) -> float:
    """Lowest total latency from ``device_id`` to the cloud.

    Minimum over cloud-attached devices ``g`` of (shortest-path latency to
    ``g``) + (``g``'s cloud latency); a device that is itself cloud-attached
    may still be better served through a neighbour.  Every device reads it
    from the one search behind :attr:`FogOverlay.cloud_exit`, the float as
    summed: inf if finite latencies sum past the largest double.
    """
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    if _convert(int, device_id, "device_id", ContractError) not in overlay:
        raise ContractError(f"device_id {device_id} names no device")
    try:
        return overlay.cloud_exit[device_id][0]
    except KeyError:
        raise TopologyError(f"device {device_id} cannot reach any cloud-attached device") from None


def all_pairs_paths(overlay: FogOverlay) -> dict[int, dict[int, tuple[float, int]]]:
    """The overlay's cached shortest-path table (:attr:`FogOverlay.path_table`).

    Row ``source`` maps each device reachable from ``source`` to ``(latency_ms,
    hops)`` of its minimum-latency path, ``hops`` being the fewest among
    latency ties, so the chosen route is deterministic.  Keys are in settle
    order (ascending latency); unreachable devices are absent.
    """
    return _convert(FogOverlay, overlay, "overlay", ContractError).path_table
