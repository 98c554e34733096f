"""Pareto dominance and fast non-dominated sorting.

Vectors carry a per-objective sense (minimize or maximize).  ``a`` dominates
``b`` when ``a`` is at least as good on every objective and strictly better
on at least one, each objective judged under its own sense.  Sorting peels
the set into fronts: front 0 is the non-dominated set, front i+1 is the set
dominated only by earlier fronts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ContractError, _are_plain, _convert


class Sense(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True)
class ObjectiveVector:
    """One candidate's objective values and senses; a sense's value becomes its member."""

    values: tuple[float, ...]
    senses: tuple[Sense, ...]

    def __post_init__(self):
        if len(self.values) != len(self.senses):
            raise ContractError(
                f"objective arity mismatch: {len(self.values)} values, {len(self.senses)} senses"
            )
        if len(self.values) < 2:
            raise ContractError("objective vectors need at least two objectives")
        if not (type(self.senses) is tuple and _are_plain(self.senses, Sense)):
            senses = _convert(tuple[Sense, ...], self.senses, "senses", ContractError)
            object.__setattr__(self, "senses", senses)
        # Values are checked, not converted, so a hand-built vector keeps its numbers.
        if not (_are_plain(self.values, float) and all(map(math.isfinite, self.values))):
            _convert(tuple[float, ...], self.values, "values", ContractError)

    def minimized(self) -> tuple[float, ...]:
        """Values with maximized objectives negated, so lower is always better."""
        return tuple(
            -v if s is Sense.MAXIMIZE else v for v, s in zip(self.values, self.senses)
        )


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True iff ``a`` Pareto-dominates ``b``; senses must match."""
    if a.senses != b.senses:
        raise ContractError("cannot compare vectors with different senses")
    av = a.minimized()
    bv = b.minimized()
    return all(x <= y for x, y in zip(av, bv)) and any(x < y for x, y in zip(av, bv))


def _dominance_matrix(m: np.ndarray) -> np.ndarray:
    """``dom[i, j]`` is True iff row ``i`` of the minimized (n, d) ``m`` dominates row ``j``."""
    n = len(m)
    all_le = np.ones((n, n), dtype=bool)
    any_lt = np.zeros((n, n), dtype=bool)
    for col in m.T:
        all_le &= col[:, None] <= col[None, :]
        any_lt |= col[:, None] < col[None, :]
    return all_le & any_lt


def _fronts(m: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Fronts of the rows of a minimized (n, d) array; see :func:`non_dominated_sort`."""
    dom = _dominance_matrix(m)
    count = dom.sum(axis=0)
    fronts = []
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(tuple(front.tolist()))
        # -1 marks emitted points; nothing not yet emitted dominates them, so it stays.
        count[front] = -1
        count -= dom[front].sum(axis=0)
        front = np.flatnonzero(count == 0)
    return tuple(fronts)


@dataclass(frozen=True)
class ParetoFronts:
    """Front partition; ``fronts[i]`` holds input indices, ascending."""

    fronts: tuple[tuple[int, ...], ...]

    def front_of(self, index: int) -> int:
        for rank, front in enumerate(self.fronts):
            if index in front:
                return rank
        raise ContractError(f"index {index} not in any front")


def non_dominated_sort(points: Sequence[ObjectiveVector]) -> ParetoFronts:
    """Fast non-dominated sort on a boolean dominance matrix.

    ``dom[i, j]`` holds :func:`dominates` ``(points[i], points[j])``, built
    one objective at a time from the minimized values, so memory stays n x n.
    Each column sum counts a point's dominators; points with none form the
    next front, and their rows are subtracted from the counts before the next
    front is read.  Float comparisons are exact, so the fronts are those of
    the scalar definition.  Duplicates are mutually non-dominating and land
    in the same front.  Within a front, indices are ascending.
    """
    if not points:
        raise ContractError("non_dominated_sort requires at least one point")
    if any(p.senses != points[0].senses for p in points):
        raise ContractError("all points must share the same objective senses")
    return ParetoFronts(fronts=_fronts(np.array([p.minimized() for p in points], dtype=float)))


def pareto_front(points: Sequence[ObjectiveVector]) -> tuple[int, ...]:
    """Indices of the non-dominated subset (front 0), in input order."""
    return non_dominated_sort(points).fronts[0]
