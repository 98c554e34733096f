"""Spectral clustering of fog devices into functional areas.

Pipeline (normalized-cuts style): standardize device features (MIPS,
memory), build a Gaussian similarity matrix, form the symmetric normalized
Laplacian ``L = I - D^{-1/2} S D^{-1/2}``, take the eigenvectors of the k
smallest eigenvalues, renormalize rows to unit length and run k-means on the
embedded points.  Each gateway gets its own k-means run (seeded with
``seed XOR gateway_index``) and claims the cluster whose members' mean raw
MIPS or memory is highest, as its area type asks.

Every stage takes and returns plain arrays.  Each array entry checks its
input with ``errors._table``, the package's one array check, and adds only
its own rule: a square similarity or eigensolver matrix, or, for
``similarity_matrix`` and ``k_means``, one bound that keeps squared
distances from overflowing.

All gateways' k-means runs are one call of :func:`k_means`, which takes
their seeds and runs every restart in one batch: every k-means++ seeding is
drawn first, each run's from its own seeded stream, then Lloyd's iterations
update all unconverged restarts together in one array.  Lloyd's
iterations draw no random numbers, and each distance and centroid is summed
in the same order as a restart run on its own, so the labels are bit for
bit those of running the runs, and their restarts, one after another.
Squared distances, there and in the similarity matrix, are added column by
column in whole-array passes, in the order numpy's row sums take.

The eigensolver is LAPACK's symmetric divide-and-conquer routine
(``numpy.linalg.eigh``) plus a deterministic sign normalisation: each
eigenvector is flipped so its largest-magnitude entry is positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .decision import AreaType, GatewayAssignment
from .errors import CapacityError, ConfigurationError, ContractError, NumericalError
from .errors import _are_plain, _convert, _convert_int, _table
from .overlay import FogDevice, FogOverlay

#: k-means restart count and Lloyd iteration cap.
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300

#: ``similarity_matrix`` and ``k_means`` accept rows no coordinate of which
#: exceeds this in magnitude without computing the exact overflow bound.
_FAST_COORDINATE_LIMIT = 1e100


def device_features(devices: Sequence[FogDevice]) -> np.ndarray:
    """Standardized (MIPS, memory) rows of one or more ``devices``, in their order, shape (n, 2).

    Each column has zero mean and unit variance; a constant column is left at
    all-zeros instead of dividing by zero.
    """
    if not (type(devices) in (tuple, list) and _are_plain(devices, FogDevice)):
        devices = _convert(tuple[FogDevice, ...], devices, "devices", ContractError)
    if not devices:
        raise ContractError(f"devices must hold one or more devices, got {devices!r}")
    raw = np.array([[d.mips, d.memory_gb] for d in devices], dtype=float)
    values = raw - raw.mean(axis=0)
    std = raw.std(axis=0)
    for col in range(raw.shape[1]):
        if std[col] > 0:
            values[:, col] /= std[col]
        else:
            values[:, col] = 0.0
    return values


def _sum_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``((a - b) ** 2).sum(axis=-1)`` bit for bit, added column by column.

    numpy adds fewer than 8 terms of a last axis left to right, as this loop
    does, one output element at a time; 8 or more it sums pairwise.
    """
    d = a.shape[-1]
    if not 0 < d < 8:
        return ((a - b) ** 2).sum(axis=-1)
    total = (a[..., 0] - b[..., 0]) ** 2
    for j in range(1, d):
        total += (a[..., j] - b[..., j]) ** 2
    return total


def _check_spread(points: np.ndarray, field: str) -> None:
    """ContractError naming ``field`` unless n * (bounding-box diagonal)**2 is finite.

    That bounds every sum of squared distances between rows.  Within the
    fast limit it is below n * d * 4e200, so it needs computing only past it.
    """
    if float(np.abs(points).max()) > _FAST_COORDINATE_LIMIT:
        with np.errstate(over="ignore"):
            bound = len(points) * float(((points.max(axis=0) - points.min(axis=0)) ** 2).sum())
        if not math.isfinite(bound):
            raise ContractError(f"{field} must lie close enough for squared distances to stay finite")


def _median_distance(d2: np.ndarray) -> float:
    """Median pairwise distance; 1.0 when there are no pairs or all points coincide."""
    n = d2.shape[0]
    if n < 2:
        return 1.0
    dist = np.sqrt(d2[np.triu_indices(n, k=1)])
    half = len(dist) // 2
    # Not np.median: its NaN check imports numpy.ma, which each forked worker would load.
    if len(dist) % 2:
        med = float(np.partition(dist, half)[half])
    else:
        low, high = np.partition(dist, (half - 1, half))[half - 1 : half + 1]
        med = float((low + high) / 2)
    return med if med > 0 else 1.0


def similarity_matrix(features: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian similarity ``S_ij = exp(-|x_i - x_j|^2 / (2 G^2))`` of the (n, d) ``features`` rows.

    ``bandwidth`` (G) defaults to the median pairwise distance, taken from
    the same squared distances the Gaussian uses, or 1.0 when there are no
    pairs or all points coincide.  The result is exactly symmetric with unit
    diagonal and entries in [0, 1].
    """
    x = _table(features, "features")
    _check_spread(x, "features")
    d2 = _sum_squares(x[:, None, :], x[None, :, :])
    if bandwidth is None:
        bandwidth = _median_distance(d2)
    bandwidth = _convert(float, bandwidth, "bandwidth")
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth}")
    denominator = 2.0 * bandwidth * bandwidth
    if not denominator > 0:
        raise ConfigurationError(f"bandwidth {bandwidth} is too small: 2*bandwidth^2 underflows to 0")
    # A tiny bandwidth can overflow d2 / denominator to inf; exp(-inf) = 0 is
    # the value the true quotient's exp underflows to anyway.
    with np.errstate(over="ignore"):
        return np.exp(-d2 / denominator)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by LAPACK's ``numpy.linalg.eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the corresponding columns, each sign-normalized so its
    largest-magnitude component is positive.  Raises ContractError naming
    ``matrix`` for input that is not a finite table, not square or not
    symmetric, and NumericalError if LAPACK reports that it did not converge.

    The name dates from an earlier cyclic Jacobi solver.  It is kept because
    the benchmark's span tracer (``perfbench/spans.py``) wraps it by name.
    """
    a = _table(matrix, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ContractError(f"matrix must be square, got shape {a.shape}")
    if not (np.abs(a - a.T) <= 1e-12).all():
        raise ContractError("matrix must be symmetric to within 1e-12")
    try:
        eigvals, eigvecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}") from exc
    pivots = np.abs(eigvecs).argmax(axis=0)
    eigvecs = eigvecs * np.where(eigvecs[pivots, np.arange(a.shape[0])] < 0, -1.0, 1.0)
    return eigvals, eigvecs


def _normalized_laplacian(similarity: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian ``I - D^{-1/2} S D^{-1/2}``."""
    s = _table(similarity, "similarity")
    if s.shape[0] != s.shape[1]:
        raise ContractError(f"similarity must be square, got shape {s.shape}")
    degrees = s.sum(axis=1)
    if np.any(degrees <= 0):
        raise ContractError("similarity must give every row a positive degree")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(s.shape[0]) - s * inv_sqrt[:, None] * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def spectral_embed(similarity: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k leading Laplacian eigenvectors, renormalized to unit length.

    Accepts any symmetric non-negative similarity matrix (including
    thresholded ones with exact zeros); every row must have positive degree.
    Zero embedding rows are left at zero rather than divided by zero.
    """
    lap = _normalized_laplacian(similarity)
    n = lap.shape[0]
    k = _convert(int, k, "k", ContractError)
    if not 1 <= k <= n:
        raise ContractError(f"k must be an integer in [1, {n}], got {k!r}")
    _, eigvecs = jacobi_eigh(lap)
    u = eigvecs[:, :k].copy()
    row_norms = np.sqrt((u**2).sum(axis=1))
    nonzero = row_norms > 0
    u[nonzero] = u[nonzero] / row_norms[nonzero, None]
    return u


def kmeans_cost(points: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to each point's cluster mean."""
    points = np.asarray(points, dtype=float)
    cost = 0.0
    # Not np.unique: it calls np.ma.is_masked, which imports numpy.ma in each forked worker.
    for label in sorted(set(labels.tolist())):
        members = points[labels == label]
        centroid = members.mean(axis=0)
        cost += float(((members - centroid) ** 2).sum())
    return cost


def _kmeanspp_seedings(
    points: np.ndarray, k: int, rng: np.random.Generator, runs: int
) -> np.ndarray:
    """``runs`` k-means++ seedings drawn one after another from ``rng``, shape ``(runs, k, d)``.

    A seeding draws its first centroid with ``rng.integers(n)`` and each
    further one as ``rng.choice(n, p=d2 / total)`` does, by inverse CDF over
    the squared distances d2 to the nearest centroid so far; with every point
    on a centroid (total 0) it draws ``rng.integers(n)`` instead.  Until a
    total is 0 the draws do not depend on the points, so they are taken up
    front and all runs' picks computed at once; then the generator is rewound
    and the runs are drawn one at a time.
    """
    n = points.shape[0]
    state = rng.bit_generator.state
    draws = [(rng.integers(n), rng.random(k - 1)) for _ in range(runs)]
    idx = np.empty((runs, k), dtype=np.intp)
    idx[:, 0] = [first for first, _ in draws]
    uniform = np.array([u for _, u in draws]).reshape(runs, k - 1)
    d2 = _sum_squares(points, points[idx[:, :1]])
    for j in range(1, k):
        total = d2.sum(axis=1)
        if not (total > 0).all():
            rng.bit_generator.state = state
            if runs > 1:
                return np.concatenate([_kmeanspp_seedings(points, k, rng, 1) for _ in range(runs)])
            # Every later total is 0 too: the remaining picks are plain draws.
            rng.integers(n), rng.random(j - 1)
            idx[0, j:] = [rng.integers(n) for _ in range(j, k)]
            break
        # searchsorted(cdf, u, side="right") of each (sorted) row.
        cdf = (d2 / total[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        idx[:, j] = (cdf <= uniform[:, j - 1 : j]).sum(axis=1)
        d2 = np.minimum(d2, _sum_squares(points, points[idx[:, j : j + 1]]))
    return points[idx]


def _reseed_empty_clusters(labels: np.ndarray, dists: np.ndarray, k: int) -> None:
    """Give each empty cluster the point farthest from its centroid, in place.

    ``dists`` has shape ``(k, n)``.  Never steals from a singleton cluster (that would just move the hole)
    nor a point already moved in this pass.
    """
    n = labels.shape[0]
    stolen: set[int] = set()
    for j in range(k):
        if not np.any(labels == j):
            counts = np.bincount(labels, minlength=k)
            own = dists[labels, np.arange(n)]
            own[counts[labels] <= 1] = -1.0
            if stolen:
                own[list(stolen)] = -1.0
            idx = int(own.argmax())
            labels[idx] = j
            stolen.add(idx)


def _cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Centroids ``(R, k, d)`` of every cluster of every labelling in ``labels`` (R, n).

    ``np.bincount`` adds each group's weights in index order, which is the
    order the axis-0 ``mean`` of a cluster's rows adds them in when d >= 2.
    With one column that ``mean`` sums pairwise instead, so it is taken per
    cluster there.
    """
    r, n = labels.shape
    d = points.shape[1]
    if d == 1:
        return np.array(
            [[points[row == j].mean(axis=0) for j in range(k)] for row in labels]
        )
    groups = (labels + k * np.arange(r)[:, None]).ravel()
    counts = np.bincount(groups, minlength=r * k)
    columns = np.broadcast_to(points.T[:, None, :], (d, r, n)).reshape(d, r * n)
    sums = np.stack([np.bincount(groups, weights=w, minlength=r * k) for w in columns], axis=1)
    return (sums / counts[:, None]).reshape(r, k, d)


def k_means(
    points: np.ndarray, k: int, seeds: Sequence[int], n_init: int = KMEANS_RESTARTS
) -> list[np.ndarray]:
    """Best-of-``n_init`` seeded Lloyd runs for each of ``seeds``: one label array per seed.

    Deterministic for given (points, k, seed): a seed's restarts consume its
    own seeded stream and ties keep the earliest restart.  All seeds' restarts
    run as one batch: each iteration assigns every live restart from one
    ``(k, R, n)`` distance array, computed element by element as a single
    restart computes it, to its first nearest centroid, as ``argmin`` does; a
    restart whose labels did not change is a fixed point and leaves the batch.
    Centroids add each cluster's rows in index order, as a cluster's mean does.
    """
    points = _table(points, "points")
    _check_spread(points, "points")
    n = points.shape[0]
    k = _convert(int, k, "k", ContractError)
    if not 1 <= k <= n:
        raise ContractError(f"k must be an integer in [1, {n}], got {k!r}")
    seeds = _convert(tuple[int, ...], seeds, "seeds", ContractError)
    if not seeds or min(seeds) < 0:
        raise ContractError(f"seeds must be one or more integers >= 0, got {list(seeds)}")
    n_init = _convert_int(n_init, "n_init", 1, ContractError)

    rngs = map(default_rng, seeds)
    centroids = np.concatenate([_kmeanspp_seedings(points, k, rng, n_init) for rng in rngs])
    runs = len(centroids)
    final = np.empty((runs, n), dtype=np.intp)
    live = np.arange(runs)
    labels = np.full((runs, n), -1, dtype=np.intp)
    for _ in range(KMEANS_MAX_ITER):
        dists = _sum_squares(points, centroids.transpose(1, 0, 2)[:, :, None, :])
        new_labels, nearest = np.zeros(dists.shape[1:], dtype=np.intp), dists[0]
        for j in range(1, k):
            new_labels[dists[j] < nearest] = j
            nearest = np.minimum(nearest, dists[j])
        groups = new_labels + k * np.arange(len(live))[:, None]
        sizes = np.bincount(groups.ravel(), minlength=len(live) * k).reshape(-1, k)
        for r in np.flatnonzero((sizes == 0).any(axis=1)):
            _reseed_empty_clusters(new_labels[r], dists[:, r], k)
        changed = (new_labels != labels).any(axis=1)
        final[live[~changed]] = labels[~changed]
        live = live[changed]
        labels = new_labels[changed]
        if not len(live):
            break
        centroids = _cluster_means(points, labels, k)
    final[live] = labels

    # The cheapest restart of each seed wins; ties keep the earliest.
    costs: dict[bytes, float] = {}
    best = []
    for group in final.reshape(len(seeds), n_init, n):
        winner, best_cost = group[0], math.inf
        for row in group:
            key = row.tobytes()
            if key not in costs:
                costs[key] = kmeans_cost(points, row)
            if costs[key] < best_cost:
                winner, best_cost = row, costs[key]
        best.append(winner)
    return best


@dataclass(frozen=True)
class FunctionalArea:
    """A gateway's claimed cluster of member devices.

    ``area_type`` may be the enum's string value, and ``members`` any set,
    list or tuple of device ids; it is stored as a frozenset.
    """

    owner_gateway: int
    area_type: AreaType
    members: frozenset[int]
    cluster_label: int

    def __post_init__(self):
        members = self.members
        if not (type(members) is frozenset and _are_plain(members, int)):
            if not isinstance(members, (set, frozenset, list, tuple)):
                raise ContractError(f"members must be a set of device ids, got {members!r}")
            members = frozenset(_convert(int, m, "members", ContractError) for m in members)
            object.__setattr__(self, "members", members)
        if not members:
            raise ContractError(f"members must hold one or more device ids, got {members!r}")
        for name, hint in (("owner_gateway", int), ("area_type", AreaType), ("cluster_label", int)):
            object.__setattr__(self, name, _convert(hint, getattr(self, name), name, ContractError))
        if self.cluster_label < 0:
            raise ContractError(f"cluster_label must be an integer >= 0, got {self.cluster_label}")


def cluster_functional_areas(
    overlay: FogOverlay,
    assignment: GatewayAssignment,
    k: int,
    bandwidth: float | None = None,
    seed: int = 0,
) -> list[FunctionalArea]:
    """Cluster non-gateway devices and give each gateway its best-fit cluster.

    All gateways cluster the same standardized feature set; runs differ only
    in their k-means seed (``seed XOR gateway_index``).  A compute-optimized
    gateway takes the cluster with the highest mean raw MIPS, a
    memory-optimized one the highest mean raw memory; score ties resolve to
    the lower cluster label.  Gateways claim clusters independently, so two
    areas can coincide: they do in 26 of 60 pipelines at n = 20/30/40.
    """
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    assignment = _convert(GatewayAssignment, assignment, "assignment", ContractError)
    k = _convert_int(k, "k", 1, ContractError)
    seed = _convert_int(seed, "seed", 0, ContractError)
    gateway_ids = assignment.device_ids
    for gw in gateway_ids:
        if gw not in overlay:
            raise ContractError(f"assignment references unknown device {gw}")
    pool = [d for d in overlay.devices if d.id not in gateway_ids]
    if len(pool) < k:
        raise CapacityError(
            f"need at least k={k} non-gateway devices to cluster, have {len(pool)}"
        )
    embedding = spectral_embed(similarity_matrix(device_features(pool), bandwidth), k)
    seeds = [seed ^ gw_index for gw_index in range(len(assignment.gateways))]
    runs = k_means(embedding, k, seeds)
    raw = np.array([[d.mips, d.memory_gb] for d in pool])
    areas = []
    for labels, (gw, area_type) in zip(runs, assignment.gateways):
        column = 0 if area_type is AreaType.COMPUTE_OPTIMIZED else 1
        best_label = -1
        best_score = -math.inf
        for label in sorted(set(int(x) for x in labels)):
            score = float(raw[labels == label, column].mean())
            if score > best_score:
                best_score = score
                best_label = label
        members = frozenset(pool[i].id for i in range(len(pool)) if labels[i] == best_label)
        areas.append(
            FunctionalArea(
                owner_gateway=gw,
                area_type=area_type,
                members=members,
                cluster_label=best_label,
            )
        )
    return areas


def areas_to_json(areas: Sequence[FunctionalArea]) -> str:
    """Deterministic export: one record per area with sorted member lists."""
    areas = _convert(tuple[FunctionalArea, ...], areas, "areas", ContractError)
    doc = [
        {
            "gateway": area.owner_gateway,
            "area_type": area.area_type.value,
            "members": sorted(area.members),
        }
        for area in areas
    ]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
