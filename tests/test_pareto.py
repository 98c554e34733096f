import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartfog.errors import ContractError
from smartfog.pareto import (
    ObjectiveVector,
    ParetoFronts,
    Sense,
    _dominance_matrix,
    dominates,
    non_dominated_sort,
    pareto_front,
)

from oracles import oracle_fronts

MIN2 = (Sense.MINIMIZE, Sense.MINIMIZE)
MIXED3 = (Sense.MAXIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)


def vec(*values, senses=MIN2):
    return ObjectiveVector(values=tuple(float(v) for v in values), senses=senses)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# dyadic lattice with a 1/8 gap: every transform below is injective on it,
# which adjacent doubles would not guarantee (rounding can merge them)
lattice = st.integers(-1000, 1000).map(lambda i: i / 8.0)


# few distinct values, both signed zeros among them, so columns tie exactly
tie_prone = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5]) | finite


def vectors(n_objectives, senses, elements=finite, max_size=40):
    point = st.tuples(*[elements] * n_objectives).map(
        lambda t: ObjectiveVector(values=t, senses=senses)
    )
    return st.lists(point, min_size=1, max_size=max_size)


def vectors_with_duplicates(n_objectives, senses, max_size=60):
    """Up to ``max_size`` draws from a smaller pool, so points repeat."""
    return vectors(n_objectives, senses, tie_prone, max_size=max_size // 2).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=max_size)
    )


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates(vec(1, 1), vec(2, 2))
        assert not dominates(vec(2, 2), vec(1, 1))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(vec(3, 4), vec(3, 4))

    def test_tradeoff_is_incomparable(self):
        assert not dominates(vec(1, 5), vec(5, 1))
        assert not dominates(vec(5, 1), vec(1, 5))

    def test_weakly_better_with_one_strict(self):
        assert dominates(vec(1, 4), vec(1, 5))

    def test_senses_flip_direction(self):
        hi = ObjectiveVector(values=(9.0, 9.0), senses=(Sense.MAXIMIZE, Sense.MAXIMIZE))
        lo = ObjectiveVector(values=(1.0, 1.0), senses=(Sense.MAXIMIZE, Sense.MAXIMIZE))
        assert dominates(hi, lo)
        assert not dominates(lo, hi)

    def test_mismatched_senses_rejected(self):
        a = ObjectiveVector(values=(1.0, 1.0), senses=MIN2)
        b = ObjectiveVector(values=(1.0, 1.0), senses=(Sense.MAXIMIZE, Sense.MINIMIZE))
        with pytest.raises(ContractError):
            dominates(a, b)

    def test_vector_validation(self):
        with pytest.raises(ContractError):
            ObjectiveVector(values=(1.0,), senses=(Sense.MINIMIZE,))
        with pytest.raises(ContractError):
            ObjectiveVector(values=(1.0, float("nan")), senses=MIN2)
        with pytest.raises(ContractError):
            ObjectiveVector(values=(1.0, 2.0, 3.0), senses=MIN2)

    def test_sense_values_become_members(self):
        # Raw strings were stored and read as "minimize", which reversed these fronts.
        points = [ObjectiveVector(values=(v, v), senses=("max", "max")) for v in (1.0, 9.0)]
        assert points[0].senses == (Sense.MAXIMIZE, Sense.MAXIMIZE)
        assert non_dominated_sort(points).fronts == ((1,), (0,))
        # A list of members becomes the tuple, which dominates() compares.
        assert ObjectiveVector(values=(1.0, 2.0), senses=list(MIN2)).senses == MIN2

    @pytest.mark.parametrize(
        "values,senses,field",
        [
            (("x", 1.0), MIN2, "values"),
            ((True, 1.0), MIN2, "values"),
            ((1.0, 2.0), ("max", "up"), "senses"),
            ((1.0, 2.0), (Sense.MAXIMIZE, None), "senses"),
        ],
        ids=["value-str", "value-bool", "sense-unknown", "sense-none"],
    )
    def test_bad_entries_refused_by_name(self, values, senses, field):
        with pytest.raises(ContractError, match=f"^{field} must"):
            ObjectiveVector(values=values, senses=senses)

    @given(vs=vectors(2, MIN2))
    def test_antisymmetric_and_irreflexive(self, vs):
        for a in vs:
            assert not dominates(a, a)
            for b in vs:
                assert not (dominates(a, b) and dominates(b, a))

    @given(vs=st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
    def test_transitive(self, vs):
        a, b, c = (vec(*t) for t in vs)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestNonDominatedSort:
    def test_chain_peels_one_per_front(self):
        points = [vec(3, 3), vec(1, 1), vec(2, 2)]
        fronts = non_dominated_sort(points).fronts
        assert fronts == ((1,), (2,), (0,))

    def test_antichain_single_front(self):
        points = [vec(1, 4), vec(2, 3), vec(3, 2), vec(4, 1)]
        assert non_dominated_sort(points).fronts == ((0, 1, 2, 3),)

    def test_duplicates_share_a_front(self):
        points = [vec(2, 2), vec(1, 1), vec(1, 1)]
        assert non_dominated_sort(points).fronts == ((1, 2), (0,))

    def test_single_point(self):
        assert non_dominated_sort([vec(5, 5)]).fronts == ((0,),)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            non_dominated_sort([])

    def test_mixed_senses_rejected(self):
        a = ObjectiveVector(values=(1.0, 1.0), senses=MIN2)
        b = ObjectiveVector(values=(1.0, 1.0), senses=(Sense.MAXIMIZE, Sense.MINIMIZE))
        with pytest.raises(ContractError):
            non_dominated_sort([a, b])

    def test_front_of(self):
        fronts = non_dominated_sort([vec(3, 3), vec(1, 1), vec(2, 2)])
        assert fronts.front_of(1) == 0
        assert fronts.front_of(0) == 2
        with pytest.raises(ContractError):
            fronts.front_of(9)

    @given(vs=vectors(3, MIXED3, max_size=60) | vectors_with_duplicates(3, MIXED3))
    def test_matches_matrix_oracle(self, vs):
        got = non_dominated_sort(vs).fronts
        expected = oracle_fronts(
            np.array([v.values for v in vs]),
            np.array([s is Sense.MINIMIZE for s in MIXED3]),
        )
        assert [list(f) for f in got] == [sorted(f) for f in expected]
        # the sort's matrix is the scalar definition, entry by entry
        minimized = np.array([v.minimized() for v in vs])
        assert _dominance_matrix(minimized).tolist() == [[dominates(a, b) for b in vs] for a in vs]

    @given(vs=vectors(2, MIN2))
    def test_partition_covers_all_points(self, vs):
        fronts = non_dominated_sort(vs).fronts
        flat = [i for front in fronts for i in front]
        assert sorted(flat) == list(range(len(vs)))
        assert len(flat) == len(set(flat))

    @given(vs=vectors(2, MIN2))
    def test_front_semantics(self, vs):
        """No intra-front domination; every later point dominated by an earlier front."""
        fronts = non_dominated_sort(vs).fronts
        for rank, front in enumerate(fronts):
            for i in front:
                for j in front:
                    assert not dominates(vs[i], vs[j])
                if rank > 0:
                    assert any(
                        dominates(vs[j], vs[i]) for j in fronts[rank - 1]
                    ), "front assignment must be tight"

    def test_pareto_front_shortcut(self):
        points = [vec(1, 4), vec(3, 3), vec(2, 2), vec(4, 1)]
        assert pareto_front(points) == (0, 2, 3)


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
        vs=vectors(3, MIXED3, elements=lattice),
        picks=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    def test_fronts_invariant(self, vs, picks):
        maps = [self.TRANSFORMS[p] for p in picks]
        transformed = [
            ObjectiveVector(
                values=tuple(m(x) for m, x in zip(maps, v.values)), senses=v.senses
            )
            for v in vs
        ]
        assert non_dominated_sort(vs).fronts == non_dominated_sort(transformed).fronts

    @given(
        vs=vectors(2, MIN2, elements=lattice),
        a=st.sampled_from([0.5, 2.0, 3.0]),
        b=lattice,
    )
    def test_dominance_invariant_under_affine(self, vs, a, b):
        for u in vs[:6]:
            for w in vs[:6]:
                tu = ObjectiveVector(
                    values=tuple(a * x + b for x in u.values), senses=u.senses
                )
                tw = ObjectiveVector(
                    values=tuple(a * x + b for x in w.values), senses=w.senses
                )
                assert dominates(u, w) == dominates(tu, tw)
