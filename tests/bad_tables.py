"""Malformed tables that every array entry of the package must refuse by name.

Each is refused by ``errors._table`` before any entry's own shape rule is
read: a cell that is not a finite number (a bool is not one), a table that
is empty, not 2-D or ragged.  ``test_pareto`` feeds them to the sort and
``test_arguments`` to every array entry.
"""

import numpy as np

# (case id, table)
BAD_TABLES = [
    ("value-str", [["x", 1.0]]),
    ("value-bool", [[True, 1.0]]),
    ("value-none", [[1.0, None]]),
    ("value-nan", [[1.0, float("nan")]]),
    ("value-inf", [[1.0, float("inf")]]),
    ("value-minus-inf", [[1.0, -float("inf")]]),
    ("array-inf", np.array([[1.0, np.inf]])),
    ("array-bool", np.array([[True, False]])),
    ("one-bool-among-floats", [[1.0, 2.0], [3.0, True]]),
    ("int-past-float", [[1.0, 10**400]]),
    ("empty-list", []),
    ("empty-array", np.empty((0, 2))),
    ("one-dim-list", [1.0, 2.0]),
    ("one-dim-array", np.array([1.0, 2.0])),
    ("scalar", 5.0),
    ("ragged", [[1.0, 2.0], [3.0]]),
    ("ragged-nested", [[1.0, 2.0], [3.0, [4.0, 5.0]]]),
    ("ragged-arrays", [np.zeros((2, 2)), np.zeros((2, 3))]),
    ("three-dim", np.array([[1.0, 2.0, 3.0]]).reshape(1, 3, 1)),
]
