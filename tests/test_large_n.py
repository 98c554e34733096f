"""Large-n robustness tier, deselected by default; run with ``pytest -m slow``.

The paper evaluates n <= 40.  These checks run the full organizing pipeline
well past that and hold it to the same structural guarantees, with no timing
gates.
"""

import math

import numpy as np
import pytest

from smartfog.clustering import device_features, laplacian_eigensystem, similarity_matrix
from smartfog.decision import AreaType
from smartfog.harness import run_smartfog_pipeline
from smartfog.overlay import build_overlay


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
    sim = similarity_matrix(device_features(overlay, pool)).values
    vals, vecs = laplacian_eigensystem(sim)
    inv_sqrt = 1.0 / np.sqrt(sim.sum(axis=1))
    lap = np.eye(len(pool)) - sim * inv_sqrt[:, None] * inv_sqrt[None, :]
    assert float(np.abs(lap @ vecs - vecs * vals).max()) <= 1e-8
