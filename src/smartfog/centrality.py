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
matrix A, one BFS level per step (Buluç & Gilbert's batched Brandes): with
row s of ``sigma`` holding source s's path counts, the next level's counts
are ``(sigma on the frontier) @ A``, and the backward sweep computes
``share = (L_s + dep) / sigma`` on level d + 1 and ``dep = sigma * (share @
A)`` on level d.  The matrices are float64, and every entry and partial sum
is an integer below 2**53 as long as ``max sigma < 2**53`` and ``max L_s * n
* n < 2**53`` (a dependency is at most ``L_s * n``, and a product or a sum of
rows adds at most n of them).  Such sums are exact in any order, so BLAS may
block and thread them as it likes, and each division is an exact integer
division.  A float sum that reaches 2**53 rounds to at least 2**53, so
checking the final counts suffices.  Overlays past the bound (long chains of
parallel routes) run the per-source sweep on unit edge lengths in Python ints
instead, which has no size limit.  Both give the same scores.

The latency-weighted mode runs the overlay's one Dijkstra once per source.
As in Brandes (2001), the search counts shortest paths and records their
predecessors as it settles, ties decided by exact float equality of path
latencies; sums of link latencies are floats, but the counts and the
recurrence stay integers.  The searches' rows are those of
:attr:`FogOverlay.path_table`, the table the simulation routes on, and fill
it when it is not cached yet, so one search per source serves both.  When
the table is already cached, the searches still run, so a second weighted
call on one overlay costs as much as the first: seconds at n = 1000.  No
caller in the package makes a second call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, TopologyError, _convert
from .overlay import FogOverlay, _Adjacency, _search

#: Integers below this are exact in float64 (53-bit significand).
_EXACT_FLOAT = 2**53


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
    weighted mode searches from every source even when
    :attr:`FogOverlay.path_table` is cached, so a second call costs the same.
    """
    mode = _convert(CentralityMode, mode, "mode", ContractError)
    if not overlay.is_connected():
        raise TopologyError("betweenness requires a connected overlay")
    if mode is CentralityMode.UNWEIGHTED:
        scores = _brandes_all_sources(overlay)
    else:
        # The searches yield path_table's rows; cache them unless it is cached.
        rows = None if "path_table" in vars(overlay) else {}
        scores = _brandes_sweep(overlay.adjacency, rows)
        if rows is not None:
            vars(overlay).setdefault("path_table", rows)
    return CentralityScores(scores=scores, mode=mode)


def _brandes_all_sources(overlay: FogOverlay) -> dict[int, float]:
    ids = sorted(overlay.device_ids)
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    adj = np.zeros((n, n))
    for link in overlay.links:
        adj[index[link.a], index[link.b]] = adj[index[link.b], index[link.a]] = 1.0
    # Forward pass, one BFS level of every source per product: row s of
    # ``sigma`` holds source s's path counts, ``levels[d]`` marks the devices
    # at distance d.
    sigma = np.eye(n)
    frontier = np.eye(n, dtype=bool)
    seen = frontier.copy()
    levels = [frontier]
    while True:
        reach = np.where(frontier, sigma, 0.0) @ adj
        frontier = (reach > 0) & ~seen
        if not frontier.any():
            break
        seen |= frontier
        sigma = np.where(frontier, reach, sigma)
        levels.append(frontier)
    # A sum that reaches 2**53 rounds to at least 2**53, so one check of the
    # final counts shows whether every count is exact.
    if sigma.max() >= _EXACT_FLOAT:
        return _brandes_unweighted(overlay)
    scales = [math.lcm(*row) for row in sigma.astype(np.int64).tolist()]
    if max(scales) * n * n >= _EXACT_FLOAT:
        return _brandes_unweighted(overlay)
    # Backward pass, deepest level first: dep[s, v] = L_s * delta_s(v), the
    # recurrence of _brandes_unweighted, with every value an integer < 2**53.
    scale = np.array(scales, dtype=float)[:, None]
    dep = np.zeros((n, n))
    for lower, upper in zip(levels[-2::-1], levels[:0:-1]):
        share = np.where(upper, (scale + dep) / sigma, 0.0)
        dep = np.where(lower, sigma * (share @ adj), dep)
    np.fill_diagonal(dep, 0.0)
    # Sum dep[s] / L_s exactly: rows that share L_s sum exactly in floats,
    # the group sums are added as ints over the lcm of the distinct L values.
    distinct, group = np.unique(scales, return_inverse=True)
    distinct = distinct.tolist()
    den = math.lcm(*distinct)
    num = [0] * n
    for g, group_scale in enumerate(distinct):
        up = den // group_scale
        total = dep[group == g].sum(axis=0).tolist()
        num = [acc + int(x) * up for acc, x in zip(num, total)]
    # Each unordered pair was counted from both endpoints.  int / int is
    # correctly rounded, so each score is the double nearest the exact value.
    den *= 2
    return {v: x / den for v, x in zip(ids, num)}


def _brandes_unweighted(overlay: FogOverlay) -> dict[int, float]:
    # The exact path past the 2**53 bound: the per-source sweep on unit lengths.
    hops = {v: [(w, 1) for w, _ in nbrs] for v, nbrs in overlay.adjacency.items()}
    return _brandes_sweep(hops)


def _brandes_sweep(adjacency: _Adjacency, rows: dict | None = None) -> dict[int, float]:
    """Exact betweenness from one shortest-path search per source.

    ``adjacency`` holds the edge lengths.  Each source's search counts its
    shortest paths and records their predecessors as it settles; given
    ``rows``, its ``id -> (latency, hops)`` row is stored there too.
    """
    ids = sorted(adjacency)
    # Running sum of every source's dependencies as integer numerators over
    # one common denominator ``den``.
    num = dict.fromkeys(ids, 0)
    den = 1
    for s in adjacency:
        sigma = {s: 1}
        preds: dict[int, list[int]] = {s: []}
        row = _search(adjacency, s, sigma, preds)
        if rows is not None:
            rows[s] = row
        # Dependencies scaled by L = lcm(sigma): D[v] = L * delta(v) is an
        # integer and every division below is exact.  D / L is added into
        # num / den over their least common denominator.
        scale = math.lcm(*sigma.values())
        up = scale // math.gcd(den, scale)
        if up != 1:
            for v in ids:
                num[v] *= up
            den *= up
        down = den // scale
        dep = dict.fromkeys(row, 0)
        for w in reversed(row):
            share = (scale + dep[w]) // sigma[w]
            for v in preds[w]:
                dep[v] += sigma[v] * share
            if w != s:
                num[w] += dep[w] * down
    # Each unordered pair was counted from both endpoints.  int / int is
    # correctly rounded, so each score is the double nearest the exact value.
    den *= 2
    return {v: num[v] / den for v in ids}
