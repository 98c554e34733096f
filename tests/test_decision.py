import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartfog.centrality import CentralityMode, CentralityScores, betweenness
from smartfog.decision import AreaType, GatewayAssignment, evaluate_devices, select_gateways
from smartfog.errors import CapacityError, ContractError, TopologyError
from smartfog.overlay import (
    Arch,
    FogDevice,
    FogOverlay,
    Link,
    build_overlay,
    latency_to_cloud,
)
from smartfog.pareto import Sense, non_dominated_sort

from oracles import oracle_select


def chain_overlay(attrs):
    """Chain 0-1-...-n with given (mips, memory) per device; cloud at device 0."""
    devices = tuple(
        FogDevice(id=i, mips=m, memory_gb=g, storage_gb=16.0, arch=Arch.ARM)
        for i, (m, g) in enumerate(attrs)
    )
    links = tuple(Link(a=i, b=i + 1, latency_ms=2.0) for i in range(len(attrs) - 1))
    return FogOverlay(devices=devices, links=links, cloud_latency_ms={0: 60.0})


def scores_for(overlay):
    return betweenness(overlay, CentralityMode.WEIGHTED_BY_LATENCY)


def cloud_attached_chain(rows):
    """Chain of devices from (mips, memory_gb, cloud latency) rows, each cloud-attached.

    The 100 ms links are longer than any cloud link here, so every device's
    cloud latency is its own link's.
    """
    devices = tuple(
        FogDevice(id=i, mips=m, memory_gb=g, storage_gb=16.0, arch=Arch.ARM)
        for i, (m, g, _) in enumerate(rows)
    )
    links = tuple(Link(a=i, b=i + 1, latency_ms=100.0) for i in range(len(rows) - 1))
    cloud = {i: latency for i, (_, _, latency) in enumerate(rows)}
    return FogOverlay(devices=devices, links=links, cloud_latency_ms=cloud)


def given_scores(values):
    return CentralityScores(scores=dict(enumerate(values)), mode=CentralityMode.UNWEIGHTED)


#: betweenness and MIPS are maximized, cloud latency minimized
SENSES = (Sense.MAXIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)


def one_front(overlay, scores):
    _, objectives, _ = evaluate_devices(overlay, scores)
    return non_dominated_sort(objectives, SENSES) == (tuple(range(len(overlay.devices))),)


def evaluation_rows(overlay, scores):
    """(device_id, betweenness, mips, cloud_latency, memory_gb) per device, as the oracle takes them."""
    ids, objectives, memory = evaluate_devices(overlay, scores)
    return [(d, *row, m) for d, row, m in zip(ids, objectives.tolist(), memory.tolist())]


class TestEvaluateDevices:
    def test_values_and_order(self):
        ov = build_overlay(9, seed=6)
        scores = scores_for(ov)
        ids, objectives, memory = evaluate_devices(ov, scores)
        assert ids == tuple(sorted(ov.device_ids))
        assert objectives.shape == (len(ids), 3) and memory.shape == (len(ids),)
        assert objectives.dtype == memory.dtype == float
        for dev_id, (b, mips, latency), memory_gb in zip(ids, objectives.tolist(), memory.tolist()):
            dev = ov.device(dev_id)
            assert b == scores[dev_id]
            assert mips == dev.mips
            assert latency == latency_to_cloud(ov, dev_id)
            assert memory_gb == dev.memory_gb

    def test_missing_score_rejected(self):
        ov = build_overlay(4, seed=0)
        partial = CentralityScores(
            scores={0: 0.0, 1: 0.0}, mode=CentralityMode.UNWEIGHTED
        )
        with pytest.raises(ContractError):
            evaluate_devices(ov, partial)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, True, "0.5"],
        ids=["nan", "inf", "-inf", "bool", "str"],
    )
    def test_bad_score_refused_by_name(self, bad):
        ov = build_overlay(4, seed=0)
        scores = CentralityScores(
            scores={**scores_for(ov).scores, 2: bad}, mode=CentralityMode.WEIGHTED_BY_LATENCY
        )
        with pytest.raises(ContractError, match="centrality"):
            evaluate_devices(ov, scores)
        with pytest.raises(ContractError, match="centrality"):
            select_gateways(ov, [AreaType.COMPUTE_OPTIMIZED], scores)

    def test_component_without_cloud_refused(self):
        # Devices 2 and 3 form a second component with no cloud attachment.
        ov = FogOverlay(
            devices=chain_overlay([(1000.0, 2.0)] * 4).devices,
            links=(Link(a=0, b=1, latency_ms=2.0), Link(a=2, b=3, latency_ms=2.0)),
            cloud_latency_ms={0: 60.0},
        )
        scores = given_scores([0.0] * 4)
        with pytest.raises(TopologyError, match="device 2"):
            evaluate_devices(ov, scores)
        with pytest.raises(TopologyError, match="device 2"):
            select_gateways(ov, [AreaType.COMPUTE_OPTIMIZED], scores)

    def test_overflowed_cloud_latency_refused(self):
        # Devices 1 and 2 reach the cloud only past 1.5e308 + 1.5e308, which
        # sums to inf; device 0's own latency is finite.
        ov = FogOverlay(
            devices=chain_overlay([(1000.0, 2.0)] * 3).devices,
            links=(Link(a=0, b=1, latency_ms=1.5e308), Link(a=1, b=2, latency_ms=1.0)),
            cloud_latency_ms={0: 1.5e308},
        )
        assert latency_to_cloud(ov, 0) == 1.5e308
        assert latency_to_cloud(ov, 1) == latency_to_cloud(ov, 2) == math.inf
        scores = scores_for(ov)
        with pytest.raises(TopologyError, match="device 1"):
            evaluate_devices(ov, scores)
        with pytest.raises(TopologyError, match="device 1"):
            select_gateways(ov, [AreaType.COMPUTE_OPTIMIZED], scores)


class TestPriorityWithinFront:
    """The area's priority orders candidates that share a front."""

    def test_compute_orders_by_mips(self):
        # Device 1 has more MIPS; device 0 has the better latency and betweenness.
        ov = cloud_attached_chain([(900.0, 2.0, 60.0), (1100.0, 2.0, 62.0)])
        scores = given_scores([1.0, 0.0])
        assert one_front(ov, scores)
        got = select_gateways(ov, [AreaType.COMPUTE_OPTIMIZED] * 2, scores)
        assert got.device_ids == (1, 0)

    def test_memory_orders_by_memory(self):
        # Device 1 has more memory; device 0 has the more MIPS and the better latency.
        ov = cloud_attached_chain([(1100.0, 1.0, 60.0), (900.0, 4.0, 62.0)])
        scores = given_scores([0.0, 1.0])
        assert one_front(ov, scores)
        got = select_gateways(ov, [AreaType.MEMORY_OPTIMIZED] * 2, scores)
        assert got.device_ids == (1, 0)

    def test_tie_break_chain(self):
        # equal primary -> lower cloud latency -> higher betweenness -> lower id.
        # Memory is the primary here, so MIPS can keep all four in one front:
        # 3 has the most MIPS and betweenness but the worst latency, 2 more
        # MIPS but less betweenness than 0 and 1, which are identical.
        ov = cloud_attached_chain(
            [(1000.0, 2.0, 62.0), (1000.0, 2.0, 62.0), (1100.0, 2.0, 62.0), (1200.0, 2.0, 64.0)]
        )
        scores = given_scores([2.0, 2.0, 1.0, 3.0])
        assert one_front(ov, scores)
        got = select_gateways(ov, [AreaType.MEMORY_OPTIMIZED] * 4, scores)
        assert got.device_ids == (0, 1, 2, 3)


class TestGatewayAssignment:
    def test_fields_converted(self):
        assignment = GatewayAssignment([[3, "compute"], (1, AreaType.MEMORY_OPTIMIZED)])
        assert assignment.gateways == (
            (3, AreaType.COMPUTE_OPTIMIZED),
            (1, AreaType.MEMORY_OPTIMIZED),
        )
        assert type(assignment.gateways[0][1]) is AreaType
        assert assignment.to_json_obj() == [
            {"gateway": 3, "area_type": "compute"},
            {"gateway": 1, "area_type": "memory"},
        ]

    @pytest.mark.parametrize(
        "gateways",
        [None, (), ((1, "compute"), (1, "memory")), ((1, "fast"),), ((1.0, "compute"),), (1,)],
        ids=["none", "empty", "duplicate", "area-type", "device-float", "flat"],
    )
    def test_bad_gateways_rejected_by_name(self, gateways):
        with pytest.raises(ContractError, match="^gateways must"):
            GatewayAssignment(gateways)


class TestSelectGateways:
    def test_small_chain_scenario(self):
        # front 0 is {0, 1} (0 wins mips+latency, 1 wins betweenness);
        # device 2 is dominated by 0 and sits in front 1.
        ov = chain_overlay([(1200.0, 1.0), (800.0, 4.0), (1000.0, 2.0)])
        assignment = select_gateways(
            ov,
            [AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED],
            scores_for(ov),
        )
        assert assignment.gateways == (
            (0, AreaType.COMPUTE_OPTIMIZED),
            (1, AreaType.MEMORY_OPTIMIZED),
        )

    def test_front_precedence_beats_raw_mips(self):
        # both compute areas come from front 0 even though the front-1
        # device has more MIPS than the weaker front-0 member
        ov = chain_overlay([(1200.0, 1.0), (800.0, 4.0), (1000.0, 2.0)])
        assignment = select_gateways(
            ov,
            [AreaType.COMPUTE_OPTIMIZED, AreaType.COMPUTE_OPTIMIZED],
            scores_for(ov),
        )
        assert assignment.device_ids == (0, 1)

    def test_area_order_controls_pairing(self):
        ov = chain_overlay([(1200.0, 1.0), (800.0, 4.0), (1000.0, 2.0)])
        flipped = select_gateways(
            ov,
            [AreaType.MEMORY_OPTIMIZED, AreaType.COMPUTE_OPTIMIZED],
            scores_for(ov),
        )
        assert flipped.gateways == (
            (1, AreaType.MEMORY_OPTIMIZED),
            (0, AreaType.COMPUTE_OPTIMIZED),
        )

    def test_validation(self):
        ov = build_overlay(3, seed=0)
        scores = scores_for(ov)
        with pytest.raises(ContractError):
            select_gateways(ov, [], scores)
        with pytest.raises(CapacityError):
            select_gateways(ov, [AreaType.COMPUTE_OPTIMIZED] * 4, scores)

    def test_string_areas_rank_as_their_enum(self):
        ov = build_overlay(20, seed=1000)
        scores = scores_for(ov)
        by_value = select_gateways(ov, ["compute", "memory"], scores)
        assert by_value == select_gateways(
            ov, [AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED], scores
        )
        assert by_value.to_json_obj() == [
            {"gateway": 14, "area_type": "compute"},
            {"gateway": 6, "area_type": "memory"},
        ]
        for bad in (["cpu"], [None], ["compute", 1]):
            with pytest.raises(ContractError, match="areas"):
                select_gateways(ov, bad, scores)

    def test_json_shape(self):
        ov = build_overlay(5, seed=1)
        assignment = select_gateways(ov, [AreaType.COMPUTE_OPTIMIZED], scores_for(ov))
        (obj,) = assignment.to_json_obj()
        assert set(obj) == {"gateway", "area_type"}
        assert obj["area_type"] == "compute"

    @given(
        seed=st.integers(0, 2000),
        n=st.integers(2, 15),
        areas=st.lists(st.sampled_from(list(AreaType)), min_size=1, max_size=4),
    )
    def test_gateways_distinct_one_per_area(self, seed, n, areas):
        areas = areas[: n]
        ov = build_overlay(n, seed)
        assignment = select_gateways(ov, areas, scores_for(ov))
        assert len(assignment.gateways) == len(areas)
        assert len(set(assignment.device_ids)) == len(areas)
        assert [a for _, a in assignment.gateways] == areas
        assert set(assignment.device_ids) <= set(ov.device_ids)

    @settings(max_examples=max(200, settings.default.max_examples))
    @given(
        seed=st.integers(0, 2000),
        n=st.integers(2, 12),
        areas=st.lists(st.sampled_from(list(AreaType)), min_size=1, max_size=3),
        mode=st.sampled_from(list(CentralityMode)),
    )
    def test_matches_replay_oracle(self, seed, n, areas, mode):
        areas = areas[: n]
        ov = build_overlay(n, seed)
        scores = betweenness(ov, mode)
        expected = oracle_select(evaluation_rows(ov, scores), [a.value for a in areas])
        got = select_gateways(ov, areas, scores)
        assert [(d, a.value) for d, a in got.gateways] == expected


class TestMipsScalingInvariance:
    """Scaling every device's MIPS by one positive constant reorders nothing:
    fronts are rank-based and the compute priority compares MIPS only against
    other MIPS.  Power-of-two factors keep the float products exact.
    """

    @settings(max_examples=1000)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 10),
        factor=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
        areas=st.lists(st.sampled_from(list(AreaType)), min_size=1, max_size=2),
    )
    def test_assignment_invariant(self, seed, n, factor, areas):
        areas = areas[: n]
        ov = build_overlay(n, seed)
        scaled = FogOverlay(
            devices=tuple(
                FogDevice(
                    id=d.id,
                    mips=d.mips * factor,
                    memory_gb=d.memory_gb,
                    storage_gb=d.storage_gb,
                    arch=d.arch,
                )
                for d in ov.devices
            ),
            links=ov.links,
            cloud_latency_ms=ov.cloud_latency_ms,
        )
        scores = scores_for(ov)  # links unchanged, so centrality carries over
        assert select_gateways(ov, areas, scores) == select_gateways(
            scaled, areas, scores
        )


class TestComputeGatewayIdentity:
    """With distinct MIPS and ``compute`` requested first, the compute gateway is
    the device with the most MIPS, whatever the centrality mode: no device can
    dominate it, and front 0 ranks compute candidates by MIPS first.
    """

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 10_000),
        mips=st.lists(st.floats(1.0, 1e4), min_size=2, max_size=30, unique=True),
        mode=st.sampled_from(list(CentralityMode)),
        rest=st.lists(st.sampled_from(list(AreaType)), max_size=2),
    )
    def test_compute_first_takes_the_most_mips(self, seed, mips, mode, rest):
        built = build_overlay(len(mips), seed)
        ov = FogOverlay(
            devices=tuple(
                FogDevice(
                    id=d.id, mips=m, memory_gb=d.memory_gb, storage_gb=d.storage_gb, arch=d.arch
                )
                for d, m in zip(built.devices, mips)
            ),
            links=built.links,
            cloud_latency_ms=built.cloud_latency_ms,
        )
        areas = [AreaType.COMPUTE_OPTIMIZED, *rest][: len(mips)]
        assignment = select_gateways(ov, areas, betweenness(ov, mode))
        strongest = max(ov.devices, key=lambda d: d.mips).id
        assert assignment.gateways[0] == (strongest, AreaType.COMPUTE_OPTIMIZED)


class TestDominatedRemovalScoped:
    """Dropping never-selectable dominated devices from the candidate list must
    not change the outcome while every pick still comes from front 0.  (With
    front peeling plus the memory priority this is false in general - see the
    sibling front-1 counterexample in the module history - so the property is
    asserted exactly where it is a theorem: enough front-0 candidates for
    every area.)
    """

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(seed=st.integers(0, 3000), n=st.integers(3, 12))
    def test_dropping_deep_fronts_is_neutral(self, seed, n):
        ov = build_overlay(n, seed)
        scores = scores_for(ov)
        rows = evaluation_rows(ov, scores)
        front0 = [rows[i] for i in non_dominated_sort([row[1:4] for row in rows], SENSES)[0]]
        areas = [AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED][: len(front0)]
        full = select_gateways(ov, areas, scores)
        assert set(full.device_ids) <= {row[0] for row in front0}
        restricted = oracle_select(front0, [a.value for a in areas])
        assert [(d, a.value) for d, a in full.gateways] == restricted
