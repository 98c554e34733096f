"""Independent reference implementations used to check the package.

Every oracle here recomputes its quantity by a different route than the
implementation under test: betweenness by exhaustive shortest-path
enumeration over Floyd-Warshall bounds, fronts by direct all-pairs peeling,
k-means by exhaustive bipartition search and by running its restarts one at
a time, eigenvalues by the Faddeev-LeVerrier characteristic polynomial,
gateway selection by a literal replay of the ranking rules, the simulation
by one global event heap whose delay samples are sorted by (C, emission
index) once at the end, weighted betweenness by re-deriving each source's
shortest-path DAG from a finished path table, cloud exits by a search
that pushes every unsettled neighbour, the sample stddev by
:class:`Fraction` sums and midpoint bracketing.  None of them import the
corresponding package module's internals, with two exceptions.
:func:`laplacian_eigensystem` is not an oracle: it exposes the package's own
Laplacian and eigensolver to the spectral tests, which check it against the
oracles.  :func:`event_loop_run` reuses the package's unchanged
``attach_sensors``, ``place_edge_ward`` and ``_stream_routes``, so it
checks only the queueing, the order of events and delay samples, and that
each route names its server by device position.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, count
from typing import Sequence

import numpy as np

from smartfog.clustering import (
    KMEANS_MAX_ITER,
    FunctionalArea,
    _normalized_laplacian,
    jacobi_eigh,
    kmeans_cost,
)
from smartfog.decision import GatewayAssignment
from smartfog.errors import ChurnRejectedError, ContractError, _convert
from smartfog.overlay import (
    Arch,
    FogDevice,
    FogOverlay,
    Join,
    Leave,
    Link,
    apply_churn,
    build_overlay,
)
from smartfog.simulation import (
    _ATTACH_SALT,
    _PLACE_SALT,
    _WORK_SALT,
    Mode,
    SimulationReport,
    TupleKind,
    WorkloadSpec,
    _stream_routes,
    attach_sensors,
    place_edge_ward,
)

# ---------------------------------------------------------------------------
# Betweenness centrality


def link_adjacency(
    overlay: FogOverlay, weighted: bool = True
) -> dict[int, list[tuple[int, float]]]:
    """Neighbour lists ``id -> [(neighbour id, length), ...]`` read off the links.

    Lengths are latencies, or 1.0 each unless ``weighted``; lists are ascending.
    """
    adj: dict[int, list[tuple[int, float]]] = {d.id: [] for d in overlay.devices}
    for link in overlay.links:
        w = link.latency_ms if weighted else 1.0
        adj[link.a].append((link.b, w))
        adj[link.b].append((link.a, w))
    return adj


def _floyd_warshall(ids: list[int], adj) -> dict[int, dict[int, float]]:
    dist = {u: {v: math.inf for v in ids} for u in ids}
    for u in ids:
        dist[u][u] = 0.0
    for u in ids:
        for v, w in adj[u]:
            if w < dist[u][v]:
                dist[u][v] = w
                dist[v][u] = w
    for k in ids:
        for i in ids:
            dik = dist[i][k]
            if dik == math.inf:
                continue
            for j in ids:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def _all_shortest_paths(s, d, adj, dist, tol):
    """Every shortest s-d path, by DFS pruned with Floyd-Warshall distances."""
    target = dist[s][d]
    paths = []
    stack = [(s, [s], 0.0)]
    while stack:
        node, path, length = stack.pop()
        if node == d:
            if abs(length - target) <= tol:
                paths.append(path)
            continue
        for nbr, w in adj[node]:
            if nbr in path:
                continue
            nl = length + w
            if nl + dist[nbr][d] <= target + tol:
                stack.append((nbr, path + [nbr], nl))
    return paths


def oracle_betweenness(overlay: FogOverlay, weighted: bool) -> dict[int, float]:
    """Exhaustive ratio-sum betweenness over unordered device pairs.

    The ratios are summed as :class:`Fraction` and converted once, so the
    result is the double nearest the exact score in both modes.
    """
    ids = sorted(overlay.device_ids)
    adj = link_adjacency(overlay, weighted)
    dist = _floyd_warshall(ids, adj)
    tol = 1e-9 if weighted else 0.0
    acc = {v: Fraction(0) for v in ids}
    for s, d in combinations(ids, 2):
        if dist[s][d] == math.inf:
            continue
        paths = _all_shortest_paths(s, d, adj, dist, tol)
        sigma = len(paths)
        interior: dict[int, int] = {}
        for path in paths:
            for v in path[1:-1]:
                interior[v] = interior.get(v, 0) + 1
        for v, cnt in interior.items():
            acc[v] += Fraction(cnt, sigma)
    return {v: float(acc[v]) for v in ids}


def fraction_brandes_unweighted(overlay: FogOverlay) -> dict[int, float]:
    """Unweighted Brandes accumulation in exact :class:`Fraction` arithmetic.

    Same BFS and dependency recurrence as the package, but each dependency is
    a normalised rational and the sum is converted to float once, so it checks
    the package's integer-scaled arithmetic bit for bit at sizes the
    exhaustive path enumeration cannot reach.
    """
    ids = sorted(overlay.device_ids)
    adj = link_adjacency(overlay, weighted=False)
    acc = {v: Fraction(0) for v in ids}
    for s in ids:
        dist = {s: 0}
        sigma = {v: 0 for v in ids}
        sigma[s] = 1
        preds: dict[int, list[int]] = {v: [] for v in ids}
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w, _ in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: Fraction(0) for v in ids}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != s:
                acc[w] += delta[w]
    # Each unordered pair was counted from both endpoints.
    return {v: float(acc[v] / 2) for v in ids}


def settle_row(overlay: FogOverlay, source: int) -> dict[int, tuple[float, int]]:
    """Row ``source`` of ``overlay.path_table`` as the search settled it.

    Maps each device reachable from ``source`` (hops >= 0) to ``(latency_ms,
    hops)``, keyed by id in settle order: ascending (latency, hops, position),
    which the search's heap keys give.  Unreachable devices are absent.
    """
    ids = overlay.device_ids
    table = overlay.path_table
    latency, hops = (column[ids.index(source)] for column in table)
    positions = np.flatnonzero(hops >= 0)
    order = positions[np.lexsort((positions, hops[positions], latency[positions]))]
    return {ids[p]: (float(latency[p]), int(hops[p])) for p in order.tolist()}


def table_dag_betweenness(overlay: FogOverlay, unit: bool = False):
    """Brandes betweenness as the package ran it before its search counted paths.

    Returns ``(scores, table)``.  A Dijkstra that pushes every unsettled
    neighbour builds ``table``, each device's ``id -> (latency_ms, hops)`` row
    in settle order, with sources in ``overlay.devices`` order like
    ``FogOverlay.path_table``.  A second pass re-derives each source's
    shortest-path DAG from its row: v precedes w if v settled first and
    ``dist[v] + ms == dist[w]``.  The integer dependency recurrence then gives
    scores that must equal the package's byte for byte.  ``unit`` runs it on
    unit lengths, as the package's hop-count fallback past 2**53 does.
    """
    adjacency = link_adjacency(overlay, weighted=not unit)
    table = {}
    for s in adjacency:
        row = {}
        heap = [(0.0, 0, s)]
        while heap:
            dist, hops, node = heapq.heappop(heap)
            if node in row:
                continue
            row[node] = (dist, hops)
            for nbr, ms in adjacency[node]:
                if nbr not in row:
                    heapq.heappush(heap, (dist + ms, hops + 1, nbr))
        table[s] = row
    ids = sorted(adjacency)
    num = dict.fromkeys(ids, 0)
    den = 1
    for s, row in table.items():
        dist = {v: ms for v, (ms, _) in row.items()}
        rank = {v: i for i, v in enumerate(dist)}
        sigma = dict.fromkeys(dist, 0)
        sigma[s] = 1
        preds: dict[int, list[int]] = {v: [] for v in dist}
        for v, dv in dist.items():
            for w, ms in adjacency[v]:
                if dv + ms == dist[w] and rank[w] > rank[v]:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        scale = math.lcm(*sigma.values())
        up = scale // math.gcd(den, scale)
        for v in ids:
            num[v] *= up
        den *= up
        down = den // scale
        dep = dict.fromkeys(dist, 0)
        for w in reversed(dist):
            share = (scale + dep[w]) // sigma[w]
            for v in preds[w]:
                dep[v] += sigma[v] * share
            if w != s:
                num[w] += dep[w] * down
    return {v: num[v] / (2 * den) for v in ids}, table


def oracle_pair_path_stats(overlay: FogOverlay, weighted: bool):
    """Per-pair (sigma, mean interior-vertex count) for the sum identity."""
    ids = sorted(overlay.device_ids)
    adj = link_adjacency(overlay, weighted)
    dist = _floyd_warshall(ids, adj)
    tol = 1e-9 if weighted else 0.0
    stats = {}
    for s, d in combinations(ids, 2):
        if dist[s][d] == math.inf:
            continue
        paths = _all_shortest_paths(s, d, adj, dist, tol)
        mean_interior = sum(len(p) - 2 for p in paths) / len(paths)
        stats[(s, d)] = (len(paths), mean_interior)
    return stats


# ---------------------------------------------------------------------------
# Non-dominated sorting


def oracle_fronts(values: np.ndarray, senses_min_mask: np.ndarray) -> list[list[int]]:
    """Front peeling via an explicit all-pairs domination matrix.

    ``values`` is (n, m); ``senses_min_mask`` marks minimized columns (others
    are maximized and get negated here, independently of the implementation).
    """
    v = np.array(values, dtype=float)
    v[:, ~senses_min_mask] *= -1.0
    le = np.all(v[:, None, :] <= v[None, :, :], axis=-1)
    lt = np.any(v[:, None, :] < v[None, :, :], axis=-1)
    dominates = le & lt  # dominates[i, j]: i dominates j
    remaining = np.ones(len(v), dtype=bool)
    fronts = []
    while remaining.any():
        idx = np.flatnonzero(remaining)
        sub = dominates[np.ix_(idx, idx)]
        nondom = ~sub.any(axis=0)
        front = idx[nondom]
        fronts.append([int(i) for i in front])
        remaining[front] = False
    return fronts


# ---------------------------------------------------------------------------
# Sample statistics


def _odd_significand(x: float) -> bool:
    return struct.unpack("<Q", struct.pack("<d", x))[0] & 1 == 1


def fraction_stdev(values: Sequence[float]) -> float:
    """Sample stddev: the double nearest the square root of the exact variance.

    The variance is summed in :class:`Fraction`.  A first guess from an
    integer square root then moves one double at a time until the exact root
    lies between the midpoints to its two neighbours; a root exactly on a
    midpoint goes to the even significand, as IEEE rounding does.
    """
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    if var == 0:
        return 0.0
    shift = 2 * ((120 - var.numerator.bit_length() + var.denominator.bit_length()) // 2)
    root = math.isqrt(math.floor(var * Fraction(2) ** shift))
    r = float(root / Fraction(2) ** (shift // 2))
    while True:
        up, down = math.nextafter(r, math.inf), math.nextafter(r, 0.0)
        hi, lo = (Fraction(r) + Fraction(up)) / 2, (Fraction(r) + Fraction(down)) / 2
        if var > hi * hi or (var == hi * hi and _odd_significand(r)):
            r = up
        elif var < lo * lo or (var == lo * lo and _odd_significand(r)):
            r = down
        else:
            return r


# ---------------------------------------------------------------------------
# k-means

def bipartition_best_cost(points: np.ndarray) -> float:
    """Exhaustive best 2-cluster cost (both clusters non-empty)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        in_a = [(mask >> i) & 1 == 1 for i in range(n)]
        a = points[np.array(in_a)]
        b = points[~np.array(in_a)]
        if len(a) == 0 or len(b) == 0:
            continue
        cost = float(((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum())
        if cost < best:
            best = cost
    return best


def sequential_k_means(
    points: np.ndarray, k: int, seed: int, n_init: int, max_iter: int = KMEANS_MAX_ITER
) -> np.ndarray:
    """Best-of-``n_init`` k-means, one restart at a time.

    This is the restart loop ``clustering.k_means`` ran before it batched
    its restarts: each restart draws its k-means++ seeding from the shared
    stream, then runs Lloyd's iterations on its own until the labels stop
    changing; the cheapest restart wins and ties keep the earliest.  The
    batched version must return ``np.array_equal`` labels.
    """
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    best_labels = None
    best_cost = math.inf
    for _ in range(n_init):
        labels = _lloyd_once(points, k, rng, max_iter)
        cost = kmeans_cost(points, labels)
        if cost < best_cost:
            best_cost = cost
            best_labels = labels
    return best_labels


def kmeanspp_seeding(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """One k-means++ seeding, shape ``(k, d)``, drawn as ``clustering`` drew it
    one restart at a time: a uniform first centroid, then ``rng.choice`` over
    the squared distances, or a uniform pick once they are all 0."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd_once(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int) -> np.ndarray:
    n = points.shape[0]
    centroids = kmeanspp_seeding(points, k, rng)

    labels = np.full(n, -1, dtype=int)
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        new_labels = dists.argmin(axis=1)
        stolen: set[int] = set()
        for j in range(k):
            if not np.any(new_labels == j):
                counts = np.bincount(new_labels, minlength=k)
                own = dists[np.arange(n), new_labels].copy()
                own[counts[new_labels] <= 1] = -1.0
                if stolen:
                    own[list(stolen)] = -1.0
                idx = int(own.argmax())
                new_labels[idx] = j
                stolen.add(idx)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = points[labels == j].mean(axis=0)
    return labels


# ---------------------------------------------------------------------------
# Eigenvalues via the characteristic polynomial


def charpoly_eigvals(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues from Faddeev-LeVerrier characteristic polynomial roots."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def laplacian_eigensystem(similarity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full (eigenvalues, eigenvectors) of the package's symmetric normalized Laplacian."""
    return jacobi_eigh(_normalized_laplacian(similarity))


# ---------------------------------------------------------------------------
# Adjusted Rand index


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Standard pair-counting ARI from the contingency table."""
    a = list(labels_a)
    b = list(labels_b)
    assert len(a) == len(b)
    n = len(a)
    table: dict[tuple, int] = {}
    row: dict[object, int] = {}
    col: dict[object, int] = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
        row[x] = row.get(x, 0) + 1
        col[y] = col.get(y, 0) + 1
    comb2 = lambda m: m * (m - 1) // 2
    sum_ij = sum(comb2(v) for v in table.values())
    sum_i = sum(comb2(v) for v in row.values())
    sum_j = sum(comb2(v) for v in col.values())
    expected = sum_i * sum_j / comb2(n) if comb2(n) else 0.0
    max_index = (sum_i + sum_j) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# Gateway-selection replay


def oracle_select(evaluations, areas) -> list[tuple[int, str]]:
    """Independent replay of front-peeling selection.

    ``evaluations`` are (device_id, betweenness, mips, cloud_latency,
    memory_gb) tuples; ``areas`` are "compute" / "memory" strings.
    """
    values = np.array([[e[1], e[2], e[3]] for e in evaluations])
    fronts = oracle_fronts(values, np.array([False, False, True]))
    taken: set[int] = set()
    picks = []
    for area in areas:
        chosen = None
        for front in fronts:
            candidates = [evaluations[i] for i in front if evaluations[i][0] not in taken]
            if not candidates:
                continue
            if area == "compute":
                key = lambda e: (-e[2], e[3], -e[1], e[0])
            else:
                key = lambda e: (-e[4], e[3], -e[1], e[0])
            chosen = sorted(candidates, key=key)[0]
            break
        assert chosen is not None, "selection exhausted every front"
        taken.add(chosen[0])
        picks.append((chosen[0], area))
    return picks


# ---------------------------------------------------------------------------
# Shortest paths by brute force


def brute_force_min_latency(overlay: FogOverlay, src: int, dst: int) -> float:
    """Minimum path latency by enumerating every simple path."""
    if src == dst:
        return 0.0
    adj = link_adjacency(overlay, weighted=True)
    best = math.inf
    stack = [(src, {src}, 0.0)]
    while stack:
        node, visited, length = stack.pop()
        if length >= best:
            continue
        for nbr, w in adj[node]:
            if nbr == dst:
                best = min(best, length + w)
            elif nbr not in visited:
                stack.append((nbr, visited | {nbr}, length + w))
    return best


def heap_cloud_exit(overlay: FogOverlay) -> dict[int, tuple[float, int]]:
    """Each device's ``(latency_ms, exit_device)``, in settle order, like ``cloud_exit``.

    One heap starts at every cloud-attached device's own cloud latency, and
    each settled device pushes every unsettled neighbour, keyed ``(latency,
    exit, hops, id)`` as the package's search is.  That search pushes only
    keys that improve a device's tentative one, which leaves the least key,
    and so the settle order, unchanged.
    """
    adj = link_adjacency(overlay)
    heap = [(ms, g, 0, g) for g, ms in overlay.cloud_latency_ms.items()]
    heapq.heapify(heap)
    exits: dict[int, tuple[float, int]] = {}
    while heap:
        dist, exit_device, hops, node = heapq.heappop(heap)
        if node in exits:
            continue
        exits[node] = (dist, exit_device)
        for nbr, ms in adj[node]:
            if nbr not in exits:
                heapq.heappush(heap, (dist + ms, exit_device, hops + 1, nbr))
    return exits


def brute_force_latency_to_cloud(overlay: FogOverlay, device_id: int) -> float:
    return min(
        brute_force_min_latency(overlay, device_id, gw) + ms
        for gw, ms in overlay.cloud_latency_ms.items()
    )


# ---------------------------------------------------------------------------
# Discrete-event simulation


# The oracle's server key of the cloud, beside the integer device ids.
_CLOUD = "cloud"


@dataclass
class _TupleState:
    kind: TupleKind
    index: int
    emit_ms: float
    work_mips: float
    route: tuple[float, int, object] | None  # (leg ms, leg hops, server id)


def event_loop_run(
    overlay: FogOverlay,
    mode: Mode,
    workload: WorkloadSpec,
    seed: int,
    assignment: GatewayAssignment | None = None,
    areas: Sequence[FunctionalArea] | None = None,
) -> SimulationReport:
    """:func:`smartfog.simulation.run` as one global event heap.

    Every event is a heap entry keyed by (time, sequence number): ``emit``
    drops an unroutable tuple or sends it up its leg, ``arrive`` queues or
    serves it, ``done`` sends it back down the leg and serves the next queued
    tuple, and ``complete`` records its (C, emission index, loop delay).  The
    loop stops at the first event past the horizon; the samples are then
    sorted once, so ties on C are reported in emission order.  Attachment,
    placement and routes come from the package, so this checks the queueing
    and the order of events and samples.  Each route's server is named by
    device id, checked against the placement, and its MIPS read by id.
    """
    mode = _convert(Mode, mode, "mode", ContractError)
    if _convert(int, seed, "seed", ContractError) < 0:
        raise ContractError(f"seed must be an integer >= 0, got {seed!r}")
    seed = int(seed)  # random.Random refuses numpy integers
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
    # The package's routes name a server by device position, the cloud
    # after the devices; the oracle's name it by device id.
    routes = []
    for i, route in enumerate(_stream_routes(overlay, sensors, placement)):
        if route is not None:
            leg_ms, leg_hops, server = route
            server = overlay.device_ids[server] if server < n_devices else _CLOUD
            placed = placement.edge_modules[sensors.sensor_ids[i // 2]] if i % 2 == 0 else _CLOUD
            assert server == placed, f"stream {i} is served by {server}, not {placed}"
            route = (leg_ms, leg_hops, server)
        routes.append(route)
    server_mips: dict[object, float] = {d: overlay.device(d).mips for d in overlay.device_ids}
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
    emission = count()
    stream_routes = iter(routes)
    duration_ms = workload.duration_s * 1000.0
    warmup_ms = workload.warmup_s * 1000.0
    for _ in sensors.sensor_ids:
        for kind, interval_s, mips_range in (
            (TupleKind.SPA, workload.spa_interval_s, workload.spa_mips_range),
            (TupleKind.PC, workload.pc_interval_s, workload.pc_mips_range),
        ):
            route = next(stream_routes)
            t = 0.0
            while True:
                gap = interval_s * work_rng.uniform(1 - workload.jitter, 1 + workload.jitter)
                t += gap * 1000.0
                if t > duration_ms:
                    break
                work = work_rng.uniform(*mips_range)
                state = _TupleState(kind, next(emission), t, work, route)
                push(t, "emit", state)
                report.emitted[kind.value] += 1

    queue: dict[object, deque] = {server: deque() for server in server_mips}
    busy = dict.fromkeys(server_mips, False)
    bytes_per_tuple = int(workload.tuple_bytes)

    def serve(now: float, state: _TupleState) -> None:
        service_ms = state.work_mips / server_mips[state.route[2]] * 1000.0
        push(now + service_ms, "done", state)

    samples: dict[TupleKind, list[tuple[float, int, float]]] = {kind: [] for kind in TupleKind}

    while heap:
        now, _, event, state = heapq.heappop(heap)
        if now > duration_ms:
            break

        if event == "emit":
            if state.route is None:
                report.dropped[state.kind.value] += 1
                continue
            leg_ms, leg_hops, _ = state.route
            report.network_load_bytes += bytes_per_tuple * leg_hops
            push(now + leg_ms, "arrive", state)

        elif event == "arrive":
            server = state.route[2]
            if busy[server]:
                queue[server].append(state)
            else:
                busy[server] = True
                serve(now, state)

        elif event == "done":
            leg_ms, leg_hops, server = state.route
            report.network_load_bytes += bytes_per_tuple * leg_hops
            push(now + leg_ms, "complete", state)
            if queue[server]:
                serve(now, queue[server].popleft())
            else:
                busy[server] = False

        elif event == "complete":
            report.completed[state.kind.value] += 1
            if state.emit_ms >= warmup_ms:
                samples[state.kind].append((now, state.index, now - state.emit_ms))

    report.spa_delays_ms = [delay for _, _, delay in sorted(samples[TupleKind.SPA])]
    report.pc_delays_ms = [delay for _, _, delay in sorted(samples[TupleKind.PC])]
    for k in report.emitted:
        report.in_flight[k] = report.emitted[k] - report.completed[k] - report.dropped[k]
    return report


# ---------------------------------------------------------------------------
# Test overlay builders


def planted_overlay(n_per_group: int, seed: int, noise: float = 0.05) -> tuple[FogOverlay, list[int]]:
    """Two-population overlay: high-MIPS/low-memory vs low-MIPS/high-memory.

    Features sit at (1200, 1) and (800, 4) with +-``noise`` multiplicative
    jitter; the chain topology is irrelevant to feature clustering.  Returns
    the overlay and the planted group label per device (id order).
    """
    rng = random.Random(seed)
    centers = [(1200.0, 1.0), (800.0, 4.0)]
    devices = []
    labels = []
    n = 2 * n_per_group
    for i in range(n):
        group = 0 if i < n_per_group else 1
        mips_c, mem_c = centers[group]
        jitter = lambda: 1.0 + rng.uniform(-noise, noise)
        devices.append(
            FogDevice(
                id=i,
                mips=mips_c * jitter(),
                memory_gb=mem_c * jitter(),
                storage_gb=16.0,
                arch=Arch.ARM,
            )
        )
        labels.append(group)
    links = tuple(Link(a=i, b=i + 1, latency_ms=1.0) for i in range(n - 1))
    overlay = FogOverlay(devices=tuple(devices), links=links, cloud_latency_ms={0: 60.0})
    return overlay, labels


def two_component_overlay() -> FogOverlay:
    """Deliberately disconnected overlay (two triangles), for error paths."""
    devices = tuple(
        FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.X86)
        for i in range(6)
    )
    links = tuple(
        Link(a=a, b=b, latency_ms=2.0)
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    return FogOverlay(devices=devices, links=links, cloud_latency_ms={0: 55.0, 3: 70.0})


def tied_overlay(overlay: FogOverlay, rng: random.Random, unit_ms: float = 1.0) -> FogOverlay:
    """``overlay`` with links of 1 or 2 ``unit_ms``, 60 or 62 ms cloud links
    and 1000 or 2000 MIPS devices, drawn from ``rng``.

    With jitter 0 and fixed work every event time is a whole number of
    milliseconds, so simultaneous events are common and only the event order
    separates them.  Links as long as a service (``unit_ms=1000``) also line
    up arrivals over different paths with departures.
    """
    return FogOverlay(
        devices=tuple(replace(d, mips=rng.choice((1000.0, 2000.0))) for d in overlay.devices),
        links=tuple(
            Link(a=link.a, b=link.b, latency_ms=unit_ms * rng.choice((1.0, 2.0)))
            for link in overlay.links
        ),
        cloud_latency_ms={d: rng.choice((60.0, 62.0)) for d in sorted(overlay.cloud_latency_ms)},
    )


def bundle_chain_overlay(widths: list[int]) -> FogOverlay:
    """Hubs joined in a chain, hub ``i`` to hub ``i + 1`` by ``widths[i]``
    parallel two-hop routes.

    The two end hubs (ids 0 and the largest id) are joined by
    ``prod(widths)`` shortest paths.
    """
    links = []
    hub, next_id = 0, 1
    for width in widths:
        mids = range(next_id, next_id + width)
        nxt = next_id + width
        for mid in mids:
            links.append(Link(a=hub, b=mid, latency_ms=1.0))
            links.append(Link(a=mid, b=nxt, latency_ms=1.0))
        hub, next_id = nxt, nxt + 1
    devices = tuple(
        FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
        for i in range(next_id)
    )
    return FogOverlay(devices=devices, links=tuple(links), cloud_latency_ms={0: 60.0})


def churned_overlay(n: int, seed: int, events: int) -> FogOverlay:
    """``build_overlay(n, seed)`` after ``events`` alternating Join/Leave events.

    Events alternate Join, Leave, Join, ...; every second Join has no cloud
    link, so the overlay gains devices that reach the cloud only through
    others.  A Join attaches to two random devices; a refused Leave (cut
    vertex or last cloud link) draws another device.
    """
    rng = random.Random(seed)
    overlay = build_overlay(n, seed)
    next_id = n
    for event in range(events):
        if event % 2 == 0:
            device = FogDevice(
                id=next_id,
                mips=rng.uniform(800.0, 1200.0),
                memory_gb=rng.choice((1.0, 2.0, 3.0, 4.0)),
                storage_gb=16.0,
                arch=rng.choice((Arch.ARM, Arch.X86)),
            )
            targets = rng.sample(sorted(overlay.device_ids), 2)
            links = tuple((t, rng.uniform(1.0, 10.0)) for t in targets)
            cloud = rng.uniform(50.0, 100.0) if event % 4 == 0 else None
            overlay = apply_churn(overlay, Join(device=device, links=links, cloud_latency_ms=cloud))
            next_id += 1
        else:
            while True:
                try:
                    overlay = apply_churn(overlay, Leave(rng.choice(sorted(overlay.device_ids))))
                    break
                except ChurnRejectedError:
                    pass
    return overlay
