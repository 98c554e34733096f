"""Spectral clustering of fog devices into functional areas.

Pipeline (normalized-cuts style): standardize device features (MIPS,
memory), build a Gaussian similarity matrix, form the symmetric normalized
Laplacian ``L = I - D^{-1/2} S D^{-1/2}``, take the eigenvectors of the k
smallest eigenvalues, renormalize rows to unit length and run k-means on the
embedded points.  Each gateway gets its own k-means run (seeded with
``seed XOR gateway_index``) and claims the cluster whose raw-feature centroid
best matches its area type.

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

from .decision import AreaType, GatewayAssignment
from .errors import CapacityError, ConfigurationError, ContractError, NumericalError
from .overlay import FogOverlay

#: k-means restart count and Lloyd iteration cap.
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class FeatureMatrix:
    """Standardized (MIPS, memory) features for an ordered set of devices.

    ``values`` columns have zero mean and unit variance; a constant column is
    left at all-zeros instead of dividing by zero.  ``raw`` keeps the
    unstandardized features for centroid scoring.
    """

    device_ids: tuple[int, ...]
    values: np.ndarray
    raw: np.ndarray


def device_features(
    overlay: FogOverlay, device_ids: Sequence[int] | None = None
) -> FeatureMatrix:
    """Standardized feature rows for ``device_ids`` (default: all devices)."""
    if device_ids is None:
        device_ids = sorted(overlay.device_ids)
    else:
        device_ids = list(device_ids)
        if not device_ids:
            raise ContractError("device_features requires at least one device")
    raw = np.array(
        [[overlay.device(d).mips, overlay.device(d).memory_gb] for d in device_ids],
        dtype=float,
    )
    values = raw - raw.mean(axis=0)
    std = raw.std(axis=0)
    for col in range(raw.shape[1]):
        if std[col] > 0:
            values[:, col] /= std[col]
        else:
            values[:, col] = 0.0
    return FeatureMatrix(device_ids=tuple(device_ids), values=values, raw=raw)


def median_bandwidth(features: FeatureMatrix) -> float:
    """Median pairwise distance heuristic for the Gaussian bandwidth.

    Falls back to 1.0 when there are no pairs or all points coincide.
    """
    x = features.values
    n = x.shape[0]
    if n < 2:
        return 1.0
    diff = x[:, None, :] - x[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=-1))
    upper = dists[np.triu_indices(n, k=1)]
    med = float(np.median(upper))
    return med if med > 0 else 1.0


@dataclass(frozen=True)
class SimilarityMatrix:
    """Gaussian similarity ``S_ij = exp(-|x_i - x_j|^2 / (2 G^2))``."""

    values: np.ndarray
    bandwidth: float


def similarity_matrix(
    features: FeatureMatrix, bandwidth: float | None = None
) -> SimilarityMatrix:
    """Pairwise Gaussian similarity of the standardized features.

    ``bandwidth`` (G) defaults to the median pairwise distance.  The result
    is exactly symmetric with unit diagonal and entries in [0, 1].
    """
    if bandwidth is None:
        bandwidth = median_bandwidth(features)
    if not (bandwidth > 0) or not math.isfinite(bandwidth):
        raise ConfigurationError(f"bandwidth must be finite and > 0, got {bandwidth}")
    denominator = 2.0 * bandwidth * bandwidth
    if not denominator > 0:
        raise ConfigurationError(f"bandwidth {bandwidth} is too small: 2*bandwidth^2 underflows to 0")
    x = features.values
    diff = x[:, None, :] - x[None, :, :]
    d2 = (diff**2).sum(axis=-1)
    # A tiny bandwidth can overflow d2 / denominator to inf; exp(-inf) = 0 is
    # the value the true quotient's exp underflows to anyway.
    with np.errstate(over="ignore"):
        s = np.exp(-d2 / denominator)
    return SimilarityMatrix(values=s, bandwidth=bandwidth)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by LAPACK's ``numpy.linalg.eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the corresponding columns, each sign-normalized so its
    largest-magnitude component is positive.  Raises ContractError for
    non-square, non-finite or non-symmetric input and NumericalError if
    LAPACK reports that it did not converge.

    The name dates from an earlier cyclic Jacobi solver.  It is kept so that
    callers, and tooling that looks the eigensolve up by name to time it,
    keep working.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractError("jacobi_eigh requires finite matrix entries")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ContractError("jacobi_eigh requires a symmetric matrix")
    try:
        eigvals, eigvecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}") from exc
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if a.size:
        pivots = np.abs(eigvecs).argmax(axis=0)
        eigvecs = eigvecs * np.where(eigvecs[pivots, np.arange(a.shape[0])] < 0, -1.0, 1.0)
    return eigvals, eigvecs


def _normalized_laplacian(similarity: SimilarityMatrix | np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian ``I - D^{-1/2} S D^{-1/2}``."""
    s = similarity.values if isinstance(similarity, SimilarityMatrix) else similarity
    s = np.array(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ContractError(f"similarity must be square, got shape {s.shape}")
    degrees = s.sum(axis=1)
    if np.any(degrees <= 0):
        raise ContractError("every row of the similarity matrix needs positive degree")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(s.shape[0]) - s * inv_sqrt[:, None] * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def spectral_embed(similarity: SimilarityMatrix | np.ndarray, k: int) -> np.ndarray:
    """Rows of the k leading Laplacian eigenvectors, renormalized to unit length.

    Accepts any symmetric non-negative similarity matrix (including
    thresholded ones with exact zeros); every row must have positive degree.
    Zero embedding rows are left at zero rather than divided by zero.
    """
    lap = _normalized_laplacian(similarity)
    n = lap.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"k must be in [1, {n}], got {k}")
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
    for label in np.unique(labels):
        members = points[labels == label]
        centroid = members.mean(axis=0)
        cost += float(((members - centroid) ** 2).sum())
    return cost


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    # Distance-weighted (k-means++ style) seeding.
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

    labels = np.full(n, -1, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        new_labels = dists.argmin(axis=1)
        # Re-seed any empty cluster with the point farthest from its centroid,
        # never stealing from a singleton cluster (that would just move the hole).
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


def k_means(
    points: np.ndarray, k: int, seed: int, n_init: int = KMEANS_RESTARTS
) -> np.ndarray:
    """Best-of-``n_init`` seeded Lloyd runs; returns the label array.

    Deterministic for a given (points, k, seed): restarts consume a single
    seeded stream and ties keep the earliest restart.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ContractError(f"points must be a non-empty 2-d array, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"k must be in [1, {n}], got {k}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if n_init < 1:
        raise ContractError(f"n_init must be >= 1, got {n_init}")
    rng = np.random.default_rng(seed)
    best_labels = None
    best_cost = math.inf
    for _ in range(n_init):
        labels = _kmeans_once(points, k, rng)
        cost = kmeans_cost(points, labels)
        if cost < best_cost:
            best_cost = cost
            best_labels = labels
    return best_labels


@dataclass(frozen=True)
class FunctionalArea:
    """A gateway's claimed cluster of member devices."""

    owner_gateway: int
    area_type: AreaType
    members: frozenset[int]
    cluster_label: int


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
    the lower cluster label.
    """
    gateway_ids = assignment.device_ids
    for gw in gateway_ids:
        if gw not in overlay:
            raise ContractError(f"assignment references unknown device {gw}")
    pool = [d.id for d in sorted(overlay.devices, key=lambda d: d.id) if d.id not in gateway_ids]
    if len(pool) < k:
        raise CapacityError(
            f"need at least k={k} non-gateway devices to cluster, have {len(pool)}"
        )
    features = device_features(overlay, pool)
    sim = similarity_matrix(features, bandwidth)
    embedding = spectral_embed(sim, k)
    areas = []
    for gw_index, (gw, area_type) in enumerate(assignment.gateways):
        labels = k_means(embedding, k, seed ^ gw_index)
        column = 0 if area_type is AreaType.COMPUTE_OPTIMIZED else 1
        best_label = -1
        best_score = -math.inf
        for label in sorted(set(int(x) for x in labels)):
            score = float(features.raw[labels == label, column].mean())
            if score > best_score:
                best_score = score
                best_label = label
        members = frozenset(pool[i] for i in range(len(pool)) if labels[i] == best_label)
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
    doc = [
        {
            "gateway": area.owner_gateway,
            "area_type": area.area_type.value,
            "members": sorted(area.members),
        }
        for area in areas
    ]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
