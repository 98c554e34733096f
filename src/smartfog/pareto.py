"""Fast non-dominated sorting of an objective table (Deb et al. 2002, NSGA-II).

The table has one row per candidate and one column per objective, and each
column has a sense (minimize or maximize).  Row ``i`` dominates row ``j``
when it is at least as good in every column and strictly better in at least
one, each column judged under its own sense.  Sorting peels the rows into
fronts: front 0 is the non-dominated set, front i+1 is the set dominated
only by earlier fronts.

The table passes ``errors._table``, the package's one array check; the sort
adds only its own rule of two or more columns.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ContractError, _are_plain, _convert, _table


class Sense(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


def _dominance_matrix(m: np.ndarray) -> np.ndarray:
    """``dom[i, j]`` is True iff row ``i`` of the minimized (n, d) ``m`` dominates row ``j``."""
    n = len(m)
    all_le = np.ones((n, n), dtype=bool)
    any_lt = np.zeros((n, n), dtype=bool)
    for col in m.T:
        all_le &= col[:, None] <= col[None, :]
        any_lt |= col[:, None] < col[None, :]
    return all_le & any_lt


def non_dominated_sort(values, senses: Sequence[Sense]) -> tuple[tuple[int, ...], ...]:
    """Fronts of the rows of the (n, d) table ``values``, each front's row indices ascending.

    ``senses`` gives each column's :class:`Sense`, or its value such as
    ``"min"``.  Maximized columns are negated, which is exact, so every
    column is then minimized.  ``dom[i, j]`` (row ``i`` dominates row ``j``)
    is built one column at a time, so memory stays n x n.  Each column sum
    counts a row's dominators; rows with none form the next front, and their
    rows of ``dom`` are subtracted from the counts before the next front is
    read.  Duplicate rows are mutually non-dominating and share a front.

    Raises ContractError naming ``values`` for a table that is empty, not
    2-D, ragged or narrower than two columns, or that holds anything but
    finite numbers (a bool is not one), and naming ``senses`` for an unknown
    sense or a count that differs from the columns.
    """
    table = _table(values, "values")
    if table.shape[1] < 2:
        raise ContractError(f"values must have d >= 2 columns, got shape {table.shape}")
    if not (type(senses) is tuple and _are_plain(senses, Sense)):
        senses = _convert(tuple[Sense, ...], senses, "senses", ContractError)
    if len(senses) != table.shape[1]:
        raise ContractError(
            f"senses must give one sense per column: {table.shape[1]} columns, {len(senses)} senses"
        )
    dom = _dominance_matrix(table * [-1.0 if s is Sense.MAXIMIZE else 1.0 for s in senses])
    count = dom.sum(axis=0)
    fronts = []
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(tuple(front.tolist()))
        # -1 marks emitted rows; nothing not yet emitted dominates them, so it stays.
        count[front] = -1
        count -= dom[front].sum(axis=0)
        front = np.flatnonzero(count == 0)
    return tuple(fronts)
