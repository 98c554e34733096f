import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartfog.errors import ContractError
from smartfog.pareto import Sense, _dominance_matrix, non_dominated_sort

from bad_tables import BAD_TABLES
from oracles import oracle_fronts

MIN2 = (Sense.MINIMIZE, Sense.MINIMIZE)
MIXED3 = (Sense.MAXIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)


def fronts(*rows, senses=MIN2):
    return non_dominated_sort(np.array(rows, dtype=float), senses)


def minimized(table, senses):
    return np.array(
        [[-v if s is Sense.MAXIMIZE else v for v, s in zip(row, senses)] for row in table]
    )


def dominates(a, b):
    """The scalar definition on minimized rows: no worse anywhere, better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# dyadic lattice with a 1/8 gap: every transform below is injective on it,
# which adjacent doubles would not guarantee (rounding can merge them)
lattice = st.integers(-1000, 1000).map(lambda i: i / 8.0)


# few distinct values, both signed zeros among them, so columns tie exactly
tie_prone = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5]) | finite


def tables(n_objectives, elements=finite, max_size=40):
    row = st.tuples(*[elements] * n_objectives)
    return st.lists(row, min_size=1, max_size=max_size).map(np.array)


def tables_with_duplicates(n_objectives, max_size=60):
    """Up to ``max_size`` rows drawn from a smaller pool, so rows repeat."""
    pool = st.lists(st.tuples(*[tie_prone] * n_objectives), min_size=1, max_size=max_size // 2)
    return pool.flatmap(
        lambda rows: st.lists(st.sampled_from(rows), min_size=1, max_size=max_size)
    ).map(np.array)


class TestDominates:
    """Dominance between two rows, read from the fronts of a two-row table."""

    def test_strictly_better_everywhere(self):
        assert fronts((1, 1), (2, 2)) == ((0,), (1,))
        assert fronts((2, 2), (1, 1)) == ((1,), (0,))

    def test_equal_vectors_do_not_dominate(self):
        assert fronts((3, 4), (3, 4)) == ((0, 1),)

    def test_tradeoff_is_incomparable(self):
        assert fronts((1, 5), (5, 1)) == ((0, 1),)

    def test_weakly_better_with_one_strict(self):
        assert fronts((1, 4), (1, 5)) == ((0,), (1,))

    def test_senses_flip_direction(self):
        maximize = (Sense.MAXIMIZE, Sense.MAXIMIZE)
        assert fronts((9, 9), (1, 1), senses=maximize) == ((0,), (1,))
        assert fronts((1, 1), (9, 9), senses=maximize) == ((1,), (0,))
        # one column each way: (1, 9) is better in both
        assert fronts((1, 9), (5, 5), senses=(Sense.MINIMIZE, Sense.MAXIMIZE)) == ((0,), (1,))

    def test_mismatched_senses_rejected(self):
        table = np.array([[1.0, 1.0], [2.0, 2.0]])
        for senses in [MIN2[:1], (*MIN2, Sense.MAXIMIZE), ()]:
            with pytest.raises(ContractError, match="^senses must give one sense per column"):
                non_dominated_sort(table, senses)

    def test_vector_validation(self):
        with pytest.raises(ContractError, match="^values"):
            non_dominated_sort(np.array([[1.0], [2.0]]), (Sense.MINIMIZE,))
        with pytest.raises(ContractError, match="^values"):
            non_dominated_sort(np.array([[1.0, float("nan")]]), MIN2)
        with pytest.raises(ContractError, match="^senses"):
            non_dominated_sort(np.array([[1.0, 2.0, 3.0]]), MIN2)

    def test_sense_values_become_members(self):
        # Raw strings must be read as their members, or these fronts reverse.
        assert fronts((1, 1), (9, 9), senses=("max", "max")) == ((1,), (0,))
        assert fronts((1, 1), (9, 9), senses=["max", Sense.MAXIMIZE]) == ((1,), (0,))
        assert fronts((1, 1), (9, 9), senses=list(MIN2)) == ((0,), (1,))

    @pytest.mark.parametrize(
        "values,senses,field",
        [(table, MIN2, "values") for _, table in BAD_TABLES]
        + [
            ([[1.0, 2.0]], ("max", "up"), "senses"),
            ([[1.0, 2.0]], (Sense.MAXIMIZE, None), "senses"),
            ([[1.0], [2.0]], MIN2[:1], "values"),
            ([[1.0, 2.0]], MIN2[:1], "senses"),
            ([[1.0, 2.0]], "min", "senses"),
            ([[1.0, 2.0]], None, "senses"),
        ],
        ids=[name for name, _ in BAD_TABLES]
        + ["sense-unknown", "sense-none", "one-column", "senses-short", "senses-str",
           "senses-none-at-all"],
    )
    def test_bad_entries_refused_by_name(self, values, senses, field):
        with pytest.raises(ContractError, match=f"^{field} must"):
            non_dominated_sort(values, senses)

    @given(table=tables(2))
    def test_antisymmetric_and_irreflexive(self, table):
        dom = _dominance_matrix(table)
        assert not dom.diagonal().any()
        assert not (dom & dom.T).any()

    @given(table=tables(2, max_size=8) | tables_with_duplicates(2, max_size=8))
    def test_transitive(self, table):
        dom = _dominance_matrix(table).astype(int)
        # i dominates j and j dominates k: i dominates k
        assert ((dom @ dom > 0) <= (dom > 0)).all()


class TestNonDominatedSort:
    def test_chain_peels_one_per_front(self):
        assert fronts((3, 3), (1, 1), (2, 2)) == ((1,), (2,), (0,))

    def test_antichain_single_front(self):
        assert fronts((1, 4), (2, 3), (3, 2), (4, 1)) == ((0, 1, 2, 3),)

    def test_duplicates_share_a_front(self):
        assert fronts((2, 2), (1, 1), (1, 1)) == ((1, 2), (0,))

    def test_single_point(self):
        assert fronts((5, 5)) == ((0,),)

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="^values"):
            non_dominated_sort(np.empty((0, 3)), MIXED3)

    def test_integer_and_listed_tables_sort_as_floats(self):
        as_floats = non_dominated_sort(np.array([[3.0, 1.0], [1.0, 3.0], [4.0, 4.0]]), MIN2)
        assert non_dominated_sort(np.array([[3, 1], [1, 3], [4, 4]]), MIN2) == as_floats
        assert non_dominated_sort([(3, 1.0), [1, np.float32(3)], (4, 4)], MIN2) == as_floats
        assert as_floats == ((0, 1), (2,))

    @given(table=tables(3, max_size=60) | tables_with_duplicates(3))
    def test_matches_matrix_oracle(self, table):
        got = non_dominated_sort(table, MIXED3)
        expected = oracle_fronts(table, np.array([s is Sense.MINIMIZE for s in MIXED3]))
        assert [list(f) for f in got] == [sorted(f) for f in expected]
        # the sort's matrix is the scalar definition, entry by entry
        rows = minimized(table, MIXED3)
        assert _dominance_matrix(rows).tolist() == [[dominates(a, b) for b in rows] for a in rows]

    @given(table=tables(2))
    def test_partition_covers_all_points(self, table):
        flat = [i for front in non_dominated_sort(table, MIN2) for i in front]
        assert sorted(flat) == list(range(len(table)))
        assert len(flat) == len(set(flat))

    @given(table=tables(2))
    def test_front_semantics(self, table):
        """No intra-front domination; every later point dominated by an earlier front."""
        got = non_dominated_sort(table, MIN2)
        for rank, front in enumerate(got):
            for i in front:
                for j in front:
                    assert not dominates(table[i], table[j])
                if rank > 0:
                    assert any(
                        dominates(table[j], table[i]) for j in got[rank - 1]
                    ), "front assignment must be tight"

    def test_pareto_front_shortcut(self):
        # front 0 is the non-dominated subset, in input order
        assert fronts((1, 4), (3, 3), (2, 2), (4, 1))[0] == (0, 2, 3)


class TestMonotoneTransformInvariance:
    """Dominance depends on per-objective order only, so applying any strictly
    increasing map column-wise must leave the whole front structure unchanged.
    """

    TRANSFORMS = [
        lambda x: 3.0 * x + 7.0,
        lambda x: x**3,
        lambda x: float(np.arctan(x)),
        lambda x: float(np.expm1(x / 100.0)),
    ]

    @settings(max_examples=1000)
    @given(
        table=tables(3, elements=lattice),
        picks=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    def test_fronts_invariant(self, table, picks):
        maps = [self.TRANSFORMS[p] for p in picks]
        transformed = np.array([[m(x) for m, x in zip(maps, row)] for row in table.tolist()])
        assert non_dominated_sort(table, MIXED3) == non_dominated_sort(transformed, MIXED3)

    @given(
        table=tables(2, elements=lattice),
        a=st.sampled_from([0.5, 2.0, 3.0]),
        b=lattice,
    )
    def test_dominance_invariant_under_affine(self, table, a, b):
        head = table[:6]
        assert (_dominance_matrix(head) == _dominance_matrix(a * head + b)).all()
