"""Large-n robustness tier, deselected by default; run with ``pytest -m slow``.

The paper evaluates n <= 40.  These checks run the full organizing pipeline
and the simulation well past that and hold them to the same structural
guarantees, with no timing gates.
"""

import math
from collections import deque

import numpy as np
import pytest

from smartfog.centrality import CentralityMode
from smartfog.clustering import device_features, similarity_matrix
from smartfog.decision import AreaType
from smartfog.harness import run_smartfog_pipeline
from smartfog.overlay import build_overlay
from smartfog.simulation import Mode, WorkloadSpec, run

from oracles import laplacian_eigensystem, link_adjacency


@pytest.mark.slow
@pytest.mark.parametrize("n", [200, 500])
def test_pipeline_holds_at_large_n(n):
    overlay = build_overlay(n, seed=n)
    assert overlay.is_connected()

    assignment, areas, _, scores = run_smartfog_pipeline(
        overlay, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed=n
    )
    assert set(scores.scores) == set(overlay.device_ids)
    assert all(math.isfinite(v) and v >= 0 for v in scores.scores.values())

    gateways = set(assignment.device_ids)
    assert len(areas) == len(gateways) == 2
    for area in areas:
        assert area.members
        assert not area.members & gateways

    pool = [d for d in sorted(overlay.device_ids) if d not in gateways]
    sim = similarity_matrix(device_features([overlay.device(d) for d in pool])).values
    vals, vecs = laplacian_eigensystem(sim)
    inv_sqrt = 1.0 / np.sqrt(sim.sum(axis=1))
    lap = np.eye(len(pool)) - sim * inv_sqrt[:, None] * inv_sqrt[None, :]
    assert float(np.abs(lap @ vecs - vecs * vals).max()) <= 1e-8


def _hop_distances(adjacency, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w, _ in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@pytest.mark.slow
def test_unweighted_pipeline_and_simulation_at_n_1000():
    n = 1000
    overlay = build_overlay(n, seed=n)
    assignment, areas, _, scores = run_smartfog_pipeline(
        overlay,
        (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED),
        2,
        None,
        seed=n,
        centrality_mode=CentralityMode.UNWEIGHTED,
    )
    # Every shortest s-t path has d(s, t) - 1 interior vertices, so the
    # scores sum to that over unordered pairs.
    adjacency = link_adjacency(overlay)
    interior = sum(
        d - 1
        for s in overlay.device_ids
        for t, d in _hop_distances(adjacency, s).items()
        if s < t
    )
    assert math.fsum(scores.scores.values()) == pytest.approx(interior, rel=1e-12)

    _simulate_both_modes(overlay, assignment, areas, seed=n)


@pytest.mark.slow
def test_weighted_pipeline_and_simulation_share_one_table_at_n_1000(searched_sources):
    n = 1000
    overlay = build_overlay(n, seed=n)
    assignment, areas, _, scores = run_smartfog_pipeline(
        overlay, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed=n
    )
    # Random latencies leave one shortest path per pair, with hops - 1
    # interior devices.
    interior = sum(
        hops - 1
        for s, row in overlay.path_table.items()
        for t, (_, hops) in row.items()
        if s < t
    )
    assert math.fsum(scores.scores.values()) == pytest.approx(interior, rel=1e-9)
    _simulate_both_modes(overlay, assignment, areas, seed=n)
    assert sorted(searched_sources) == sorted(overlay.device_ids)


def _simulate_both_modes(overlay, assignment, areas, seed):
    workload = WorkloadSpec(
        duration_s=120.0, warmup_s=0.0, n_sensors=50, spa_interval_s=20.0, pc_interval_s=60.0
    )
    for mode in Mode:
        smart = mode is Mode.SMARTFOG
        report = run(
            overlay,
            mode,
            workload,
            seed=seed,
            assignment=assignment if smart else None,
            areas=areas if smart else None,
        )
        assert report.total_emitted > 0 and report.total_completed > 0
        assert report.total_dropped == 0
        assert report.total_emitted == (
            report.total_completed + report.total_dropped + report.total_in_flight
        )
