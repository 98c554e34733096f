"""Betweenness centrality of overlay devices (Brandes accumulation).

For a device n the score is ``sum over unordered pairs {s, d} (s != n != d)
of sigma_sd(n) / sigma_sd`` where ``sigma_sd`` counts shortest s-d paths and
``sigma_sd(n)`` those passing through n as an interior vertex.  Scores are
unnormalized; endpoints never count themselves.

Every score is exact: path counts are integers, so every score is a
rational number.  Per source s, dependencies are scaled by the lcm L_s of the
path counts, which makes ``L_s * delta_s(v)`` an integer and every division
of the recurrence exact; the sources' integer numerators are summed over one
common denominator and divided once at the end.  Python's int / int is
correctly rounded, so each score is the double nearest its exact value,
independent of summation order.  The per-source form of that recurrence,
:func:`_brandes_sweep`, serves the weighted mode and the hop-count fallback
below, which differ only in the edge lengths its searches read.

The unweighted mode runs all sources at once on the dense 0/1 adjacency
matrix A, one BFS level per step (Buluç & Gilbert's batched Brandes): row s
of ``front`` holds source s's path counts on the current level, so ``front @
A``, zeroed where already seen, holds the next level's; the backward sweep
computes ``share = (L_s + dep) / sigma`` on level d + 1 and ``dep = sigma *
(share @ A)`` on level d.  These float64 matrices hold integers, and every
entry and partial sum is below 2**53 while ``max sigma < 2**53`` and ``max
L_s * n * n < 2**53`` (a dependency is at most ``L_s * n``, and a product or
a sum of rows adds at most n of them).  Such sums are exact in any order, so
BLAS may block and thread them as it likes, and each division is exact.  A
float sum that reaches 2**53 rounds to at least 2**53, so checking the final
counts suffices.  L_s is numpy's int64 lcm of row s; one that wrapped is no
common multiple of the row (a positive int64 one is at least the true lcm),
which is checked.  The numerators are one int64 product ``(den // L) @ dep``
over den, the lcm of the L_s, exact while ``den * n * n < 2**63``.  Past a
bound (long chains of parallel routes, or sources with coprime L_s), the
per-source sweep runs on unit lengths in Python ints, with no size limit.

The latency-weighted mode runs the overlay's one Dijkstra once per source.
As in Brandes (2001), the search counts shortest paths and records their
predecessors as it settles, ties decided by exact float equality of path
latencies; sums of link latencies are floats, but the counts and the
recurrence stay integers.  The search and the sweep run on device
positions: path counts, predecessors, dependencies and numerators are lists
indexed like :attr:`FogOverlay.neighbours`, mapped to device ids once at the
end.  The searches' rows, keyed by id in settle order, are offered to the
overlay as :attr:`FogOverlay.path_table`, the table the simulation routes
on, so one search per source serves both.  A table already cached is kept,
and the searches still run, so a second weighted call on one overlay costs
as much as the first: seconds at n = 1000.  No caller in the package makes
a second call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, TopologyError, _convert
from .overlay import FogOverlay, _Neighbours, _search

#: Integers below these are exact in float64 (53-bit significand) and int64.
_EXACT_FLOAT = 2**53
_EXACT_INT64 = 2**63


class CentralityMode(Enum):
    UNWEIGHTED = "unweighted"
    WEIGHTED_BY_LATENCY = "weighted_by_latency"


@dataclass(frozen=True)
class CentralityScores:
    """Per-device betweenness scores and the mode that produced them."""

    scores: dict[int, float]
    mode: CentralityMode

    def __getitem__(self, device_id: int) -> float:
        return self.scores[device_id]


def betweenness(
    overlay: FogOverlay, mode: CentralityMode = CentralityMode.WEIGHTED_BY_LATENCY
) -> CentralityScores:
    """Betweenness of every device; raises TopologyError if disconnected.

    ``mode`` may be the enum's string value, such as ``"unweighted"``.  The
    weighted mode hands its per-source search rows to the overlay, which
    keeps them as :attr:`FogOverlay.path_table` unless a table is cached; it
    searches from every source either way, so a second call costs the same.
    """
    overlay = _convert(FogOverlay, overlay, "overlay", ContractError)
    mode = _convert(CentralityMode, mode, "mode", ContractError)
    if not overlay.is_connected():
        raise TopologyError("betweenness requires a connected overlay")
    if mode is CentralityMode.UNWEIGHTED:
        scores = _brandes_all_sources(overlay)
    else:
        rows = {}
        scores = _brandes_sweep(overlay.neighbours, overlay.device_ids, rows)
        overlay._offer_path_table(rows)
    return CentralityScores(scores=scores, mode=mode)


def _brandes_all_sources(overlay: FogOverlay) -> dict[int, float]:
    ids, neighbours = overlay.device_ids, overlay.neighbours
    n = len(ids)
    adj = np.zeros((n, n))
    adj[
        [v for v, row in enumerate(neighbours) for _ in row],
        [w for row in neighbours for w, _ in row],
    ] = 1.0
    # Forward pass, one BFS level of every source per product: row s of
    # ``sigma`` holds source s's path counts, ``front`` those on the current
    # level, ``levels[d]`` marks the devices at distance d.  Values are finite,
    # so products with 0/1 masks are exact (and cheaper than masked stores).
    sigma = np.eye(n)
    front = sigma.copy()
    unseen = ~np.eye(n, dtype=bool)
    levels = [~unseen]
    while True:
        front = front @ adj
        front *= unseen
        frontier = front > 0
        if not frontier.any():
            break
        unseen ^= frontier
        sigma += front
        levels.append(frontier)
    # A sum that reaches 2**53 rounds to at least 2**53, so one check of the
    # final counts shows whether every count is exact.
    if sigma.max() >= _EXACT_FLOAT:
        return _brandes_unweighted(overlay)
    # An int64 lcm that wrapped is no common multiple of its row.
    counts = sigma.astype(np.int64)
    scales = np.lcm.reduce(counts, axis=1)
    if not ((scales > 0).all() and (scales[:, None] % counts == 0).all()):
        return _brandes_unweighted(overlay)
    den = math.lcm(*set(scales.tolist()))
    if int(scales.max()) * n * n >= _EXACT_FLOAT or den * n * n >= _EXACT_INT64:
        return _brandes_unweighted(overlay)
    # Backward pass, deepest level first: dep[s, v] = L_s * delta_s(v), the
    # recurrence of _brandes_unweighted, with every value an integer < 2**53.
    # dep is 0 on level d until its step, so adding it there stores it.
    scale = scales.astype(float)[:, None]
    dep = np.zeros((n, n))
    for lower, upper in zip(levels[-2::-1], levels[:0:-1]):
        share = (scale + dep) / sigma
        share *= upper
        dep += sigma * (share @ adj) * lower
    np.fill_diagonal(dep, 0.0)
    # sum_s dep[s] / L_s over the common denominator den, exact in int64.
    num = (den // scales) @ dep.astype(np.int64)
    # Each unordered pair was counted from both endpoints.  int / int is
    # correctly rounded, so each score is the double nearest the exact value.
    den *= 2
    return {v: x / den for v, x in zip(ids, num.tolist())}


def _brandes_unweighted(overlay: FogOverlay) -> dict[int, float]:
    # The exact path past the 2**53 bound: the per-source sweep on unit lengths.
    hops = [[(w, 1) for w, _ in row] for row in overlay.neighbours]
    return _brandes_sweep(hops, overlay.device_ids)


def _brandes_sweep(
    neighbours: _Neighbours, ids: tuple[int, ...], rows: dict | None = None
) -> dict[int, float]:
    """Exact betweenness from one shortest-path search per source.

    ``neighbours`` holds the edge lengths by device position, ``ids`` each
    position's device id.  Each source's search counts its shortest paths
    and records their predecessors as it settles; given ``rows``, its
    ``id -> (latency, hops)`` row is stored there too, under the source's id.
    """
    n = len(ids)
    position = dict(zip(ids, range(n)))
    # Running sum of every source's dependencies as integer numerators over
    # one common denominator ``den``, by position.
    num = [0] * n
    den = 1
    for s in range(n):
        sigma = [0] * n
        sigma[s] = 1
        preds: list = [None] * n
        preds[s] = []
        row = _search(neighbours, ids, s, sigma, preds)
        if rows is not None:
            rows[ids[s]] = row
        # Dependencies scaled by L = lcm(sigma): D[v] = L * delta(v) is an
        # integer and every division below is exact.  D / L is added into
        # num / den over their least common denominator.  The overlay is
        # connected, so every count is positive.
        scale = math.lcm(*sigma)
        up = scale // math.gcd(den, scale)
        if up != 1:
            num = [x * up for x in num]
            den *= up
        down = den // scale
        dep = [0] * n
        for w in map(position.__getitem__, reversed(row)):
            share = (scale + dep[w]) // sigma[w]
            for v in preds[w]:
                dep[v] += sigma[v] * share
            if w != s:
                num[w] += dep[w] * down
    # Each unordered pair was counted from both endpoints.  int / int is
    # correctly rounded, so each score is the double nearest the exact value.
    den *= 2
    return {v: x / den for v, x in zip(ids, num)}
