"""Betweenness centrality of overlay devices (Brandes accumulation).

For a device n the score is ``sum over unordered pairs {s, d} (s != n != d)
of sigma_sd(n) / sigma_sd`` where ``sigma_sd`` counts shortest s-d paths and
``sigma_sd(n)`` those passing through n as an interior vertex.  Scores are
unnormalized; endpoints never count themselves.

The unweighted mode is exact: path counts are integers, so every score is a
rational number.  Per source s, dependencies are scaled by the lcm L of the
path counts, which makes ``L * delta_s(v)`` an integer and every division of
the recurrence exact; the sources' integer numerators are summed over one
common denominator and divided once at the end.  Python's int / int is
correctly rounded, so each score is the double nearest its exact value,
independent of summation order.
The latency-weighted mode uses floats with an absolute tie tolerance when
deciding whether two path lengths are equal.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import count

from .errors import TopologyError
from .overlay import FogOverlay

#: Absolute tolerance for treating two weighted path lengths as equal.
WEIGHT_TIE_TOL = 1e-12


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
    """Betweenness of every device; raises TopologyError if disconnected."""
    if not overlay.is_connected():
        raise TopologyError("betweenness requires a connected overlay")
    if mode is CentralityMode.UNWEIGHTED:
        scores = _brandes_unweighted(overlay)
    else:
        scores = _brandes_weighted(overlay)
    return CentralityScores(scores=scores, mode=mode)


def _brandes_unweighted(overlay: FogOverlay) -> dict[int, float]:
    ids = sorted(overlay.device_ids)
    adjacency = overlay.adjacency
    # Running sum of every source's dependencies as integer numerators over
    # one common denominator ``den``.
    num = dict.fromkeys(ids, 0)
    den = 1
    for s in ids:
        # BFS phase: distances, integer path counts, predecessor lists.
        dist = {s: 0}
        sigma = {s: 1}
        preds: dict[int, list[int]] = {s: []}
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv1 = dist[v] + 1
            sv = sigma[v]
            for w, _ in adjacency[v]:
                dw = dist.get(w)
                if dw is None:
                    dist[w] = dv1
                    queue.append(w)
                    sigma[w] = sv
                    preds[w] = [v]
                elif dw == dv1:
                    sigma[w] += sv
                    preds[w].append(v)
        # Dependency accumulation scaled by L = lcm(sigma): D[v] = L * delta(v)
        # is an integer and every division below is exact.
        scale = math.lcm(*sigma.values())
        dep = dict.fromkeys(order, 0)
        for w in reversed(order):
            share = (scale + dep[w]) // sigma[w]
            for v in preds[w]:
                dep[v] += sigma[v] * share
        # Add dep / scale into num / den over their least common denominator.
        up = scale // math.gcd(den, scale)
        if up != 1:
            for v in ids:
                num[v] *= up
            den *= up
        down = den // scale
        for w in order:
            if w != s:
                num[w] += dep[w] * down
    # Each unordered pair was counted from both endpoints.  int / int is
    # correctly rounded, so each score is the double nearest the exact value.
    den *= 2
    return {v: num[v] / den for v in ids}


def _brandes_weighted(overlay: FogOverlay) -> dict[int, float]:
    ids = sorted(overlay.device_ids)
    acc = {v: 0.0 for v in ids}
    tiebreak = count()
    for s in ids:
        dist: dict[int, float] = {}
        seen = {s: 0.0}
        sigma = {v: 0 for v in ids}
        sigma[s] = 1
        preds: dict[int, list[int]] = {v: [] for v in ids}
        order = []
        heap = [(0.0, next(tiebreak), s)]
        while heap:
            d, _, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            order.append(v)
            for w, ms in overlay.adjacency[v]:
                if w in dist:
                    continue
                nd = d + ms
                if w not in seen or nd < seen[w] - WEIGHT_TIE_TOL:
                    seen[w] = nd
                    heapq.heappush(heap, (nd, next(tiebreak), w))
                    sigma[w] = sigma[v]
                    preds[w] = [v]
                elif abs(nd - seen[w]) <= WEIGHT_TIE_TOL:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in ids}
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                acc[w] += delta[w]
    return {v: acc[v] / 2 for v in ids}
