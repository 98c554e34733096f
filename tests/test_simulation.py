import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smartfog.overlay
from smartfog.clustering import FunctionalArea
from smartfog.decision import AreaType, GatewayAssignment
from smartfog.errors import ConfigurationError, ContractError
from smartfog.harness import run_smartfog_pipeline
from smartfog.overlay import Arch, FogDevice, FogOverlay, Join, Link, apply_churn, build_overlay
from smartfog.simulation import (
    Mode,
    Placement,
    SensorAttachment,
    TupleKind,
    WorkloadSpec,
    attach_sensors,
    place_edge_ward,
    run,
)

from oracles import two_component_overlay


def single_device_overlay(mips=1000.0):
    dev = FogDevice(id=0, mips=mips, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
    return FogOverlay(devices=(dev,), links=(), cloud_latency_ms={0: 60.0})


def chain(n, latency=2.0, cloud=None):
    devices = tuple(
        FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
        for i in range(n)
    )
    links = tuple(Link(a=i, b=i + 1, latency_ms=latency) for i in range(n - 1))
    return FogOverlay(devices=devices, links=links, cloud_latency_ms=cloud or {0: 60.0})


class TestWorkloadSpec:
    def test_defaults_valid(self):
        WorkloadSpec().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration_s", 0.0),
            ("warmup_s", -1.0),
            ("warmup_s", 300.0),
            ("n_sensors", 0),
            ("spa_interval_s", 0.0),
            ("pc_interval_s", -5.0),
            ("jitter", 1.0),
            ("jitter", -0.1),
            ("spa_mips_range", (0.0, 10.0)),
            ("pc_mips_range", (5.0, 1.0)),
            ("tuple_bytes", 0),
            ("access_ms", (-1.0, 2.0)),
            ("cloud_mips", 0.0),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        workload = WorkloadSpec()
        setattr(workload, field, value)
        with pytest.raises(ConfigurationError):
            workload.validate()


class TestAttachSensors:
    def test_ranges_and_determinism(self):
        ov = build_overlay(10, seed=3)
        a = attach_sensors(ov, 6, random.Random(5), (1.0, 5.0))
        b = attach_sensors(ov, 6, random.Random(5), (1.0, 5.0))
        assert a == b
        assert a.sensor_ids == tuple(range(6))
        for s in a.sensor_ids:
            assert a.access_point[s] in ov.device_ids
            assert 1.0 <= a.access_ms[s] <= 5.0

    def test_rejects_zero_sensors(self):
        with pytest.raises(ContractError):
            attach_sensors(build_overlay(4, 0), 0, random.Random(0))


class TestPlacement:
    def area(self, owner, members, area_type=AreaType.COMPUTE_OPTIMIZED):
        return FunctionalArea(
            owner_gateway=owner,
            area_type=area_type,
            members=frozenset(members),
            cluster_label=0,
        )

    def test_smartfog_nearest_member_hosts(self):
        ov = chain(4)
        sensors = SensorAttachment(access_point={0: 1}, access_ms={0: 2.0})
        assignment = GatewayAssignment(gateways=((0, AreaType.COMPUTE_OPTIMIZED),))
        placement = place_edge_ward(
            ov,
            sensors,
            Mode.SMARTFOG,
            assignment=assignment,
            areas=[self.area(0, {2, 3})],
        )
        # device 2 is one hop (2 ms) from the access point, device 3 two hops
        assert placement.edge_modules == {0: 2}
        # every device forwards via the only gateway; the gateway via itself
        assert placement.cloud_route == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_smartfog_tie_breaks_to_lower_id(self):
        ov = chain(4)
        sensors = SensorAttachment(access_point={0: 2}, access_ms={0: 2.0})
        assignment = GatewayAssignment(gateways=((0, AreaType.COMPUTE_OPTIMIZED),))
        placement = place_edge_ward(
            ov,
            sensors,
            Mode.SMARTFOG,
            assignment=assignment,
            areas=[self.area(0, {1, 3})],  # both one hop from device 2
        )
        assert placement.edge_modules == {0: 1}

    def test_smartfog_requires_assignment(self):
        ov = chain(3)
        sensors = SensorAttachment(access_point={0: 0}, access_ms={0: 1.0})
        with pytest.raises(ContractError):
            place_edge_ward(ov, sensors, Mode.SMARTFOG)

    def test_unoptimized_requires_rng(self):
        ov = chain(3)
        sensors = SensorAttachment(access_point={0: 0}, access_ms={0: 1.0})
        with pytest.raises(ContractError):
            place_edge_ward(ov, sensors, Mode.UNOPTIMIZED)

    def test_unoptimized_targets_valid(self):
        ov = build_overlay(12, seed=9)
        sensors = attach_sensors(ov, 5, random.Random(1))
        placement = place_edge_ward(
            ov, sensors, Mode.UNOPTIMIZED, rng=random.Random(2)
        )
        assert set(placement.edge_modules) == set(sensors.sensor_ids)
        for host in placement.edge_modules.values():
            assert host in ov.device_ids
        for fwd in placement.cloud_route.values():
            assert fwd in ov.cloud_latency_ms

    def test_no_sensors_rejected(self):
        ov = chain(3)
        empty = SensorAttachment(access_point={}, access_ms={})
        with pytest.raises(ContractError):
            place_edge_ward(ov, empty, Mode.UNOPTIMIZED, rng=random.Random(0))


class TestSingleDeviceLoop:
    """One device, one sensor, one tuple: every delay term known in closed form."""

    def workload(self):
        return WorkloadSpec(
            duration_s=300.0,
            warmup_s=10.0,
            n_sensors=1,
            spa_interval_s=200.0,
            pc_interval_s=400.0,  # first emission would land past the horizon
            jitter=0.0,
            spa_mips_range=(1000.0, 1000.0),
            access_ms=(5.0, 5.0),
        )

    def test_exact_delay_and_load(self):
        report = run(single_device_overlay(), Mode.UNOPTIMIZED, self.workload(), seed=0)
        assert report.emitted == {"spa": 1, "pc": 0}
        assert report.completed == {"spa": 1, "pc": 0}
        assert report.dropped == {"spa": 0, "pc": 0}
        # 5 ms access up + 1000 M-instr at 1000 MIPS + 5 ms down
        assert report.spa_delays_ms == [1010.0]
        # one hop up and one hop down at 100 bytes each
        assert report.network_load_bytes == 200

    def test_mode_has_no_effect_on_degenerate_topology(self):
        ov = single_device_overlay()
        assignment = GatewayAssignment(gateways=((0, AreaType.COMPUTE_OPTIMIZED),))
        areas = [
            FunctionalArea(
                owner_gateway=0,
                area_type=AreaType.COMPUTE_OPTIMIZED,
                members=frozenset({0}),
                cluster_label=0,
            )
        ]
        smart = run(
            ov, Mode.SMARTFOG, self.workload(), seed=0, assignment=assignment, areas=areas
        )
        base = run(ov, Mode.UNOPTIMIZED, self.workload(), seed=0)
        assert smart.spa_delays_ms == base.spa_delays_ms
        assert smart.network_load_bytes == base.network_load_bytes


class TestQueueing:
    def test_back_to_back_tuples_wait_in_fifo(self):
        # two sensors on one device emitting at the same nominal time: the
        # second 1000 ms job waits for the first, all terms deterministic
        workload = WorkloadSpec(
            duration_s=300.0,
            warmup_s=0.0,
            n_sensors=2,
            spa_interval_s=100.0,
            pc_interval_s=400.0,
            jitter=0.0,
            spa_mips_range=(1000.0, 1000.0),
            access_ms=(5.0, 5.0),
        )
        report = run(single_device_overlay(), Mode.UNOPTIMIZED, workload, seed=0)
        # two sensors emitting at t=100, 200 and 300 s; the t=300 s pair lands
        # exactly on the horizon and stays in flight
        assert report.emitted["spa"] == 6
        assert report.in_flight["spa"] == 2
        assert sorted(report.spa_delays_ms) == [1010.0, 1010.0, 2010.0, 2010.0]


class TestWarmup:
    def test_pre_warmup_completions_not_sampled(self):
        workload = WorkloadSpec(
            duration_s=100.0,
            warmup_s=50.0,
            n_sensors=1,
            spa_interval_s=10.0,
            pc_interval_s=400.0,
            jitter=0.0,
            spa_mips_range=(1000.0, 1000.0),
            access_ms=(5.0, 5.0),
        )
        report = run(single_device_overlay(), Mode.UNOPTIMIZED, workload, seed=0)
        # emissions every 10 s from t=10 to t=100; the t=100 s tuple hits the
        # horizon mid-flight, and completions sampled only for t >= 50
        assert report.emitted["spa"] == 10
        assert report.completed["spa"] == 9
        assert report.in_flight["spa"] == 1
        assert len(report.spa_delays_ms) == 5

    def test_zero_warmup_samples_every_completion(self):
        ov = build_overlay(6, seed=4)
        workload = WorkloadSpec(
            duration_s=60.0, warmup_s=0.0, spa_interval_s=10.0, pc_interval_s=15.0
        )
        report = run(ov, Mode.UNOPTIMIZED, workload, seed=4)
        assert len(report.spa_delays_ms) == report.completed["spa"]
        assert len(report.pc_delays_ms) == report.completed["pc"]


class TestDeterminismAndPairing:
    def test_rerun_byte_identical(self):
        ov = build_overlay(12, seed=6)
        workload = WorkloadSpec(duration_s=60.0)
        a = run(ov, Mode.UNOPTIMIZED, workload, seed=6)
        b = run(ov, Mode.UNOPTIMIZED, workload, seed=6)
        assert a.to_json() == b.to_json()

    def test_workload_identical_across_modes(self):
        ov = build_overlay(12, seed=6)
        workload = WorkloadSpec(duration_s=60.0)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 6
        )
        smart = run(ov, Mode.SMARTFOG, workload, seed=6, assignment=assignment, areas=areas)
        base = run(ov, Mode.UNOPTIMIZED, workload, seed=6)
        assert smart.emitted == base.emitted

    def test_empty_horizon(self):
        workload = WorkloadSpec(
            duration_s=1.0, warmup_s=0.0, spa_interval_s=100.0, pc_interval_s=100.0
        )
        report = run(build_overlay(4, 0), Mode.UNOPTIMIZED, workload, seed=0)
        assert report.total_emitted == 0
        assert report.network_load_bytes == 0
        assert report.spa_delays_ms == []


class TestDrops:
    def test_cross_component_traffic_dropped_not_lost(self):
        ov = two_component_overlay()
        workload = WorkloadSpec(
            duration_s=120.0, n_sensors=6, spa_interval_s=20.0, pc_interval_s=30.0
        )
        report = run(ov, Mode.UNOPTIMIZED, workload, seed=1)
        assert report.total_dropped > 0
        for kind in ("spa", "pc"):
            assert (
                report.emitted[kind]
                == report.completed[kind] + report.dropped[kind] + report.in_flight[kind]
            )


class TestCloudRelay:
    """A forwarder without its own cloud link relays through the best-linked device."""

    def test_closed_form_relay_leg(self):
        # gateway 2 has no cloud link; via 0 costs 4 + 60 = 64 ms over 3 hops,
        # via the nearer 3 costs 2 + 70 = 72 ms, so the relay is device 0
        ov = chain(4, cloud={0: 60.0, 3: 70.0})
        assignment = GatewayAssignment(gateways=((2, AreaType.COMPUTE_OPTIMIZED),))
        areas = [
            FunctionalArea(
                owner_gateway=2,
                area_type=AreaType.COMPUTE_OPTIMIZED,
                members=frozenset({2}),
                cluster_label=0,
            )
        ]
        workload = WorkloadSpec(
            duration_s=300.0,
            warmup_s=0.0,
            n_sensors=1,
            spa_interval_s=400.0,
            pc_interval_s=200.0,
            jitter=0.0,
            pc_mips_range=(44800.0, 44800.0),
        )
        report = run(ov, Mode.SMARTFOG, workload, 0, assignment=assignment, areas=areas)
        assert report.completed == {"spa": 0, "pc": 1}
        # 64 ms up + 1000 ms at the cloud + 64 ms back; 3 hops each way
        assert report.pc_delays_ms == [1128.0]
        assert report.network_load_bytes == 600

    def test_joined_gateway_without_cloud_link_completes_pc(self):
        joiner = FogDevice(id=12, mips=5000.0, memory_gb=8.0, storage_gb=16.0, arch=Arch.ARM)
        ov = apply_churn(
            build_overlay(12, 0), Join(device=joiner, links=((0, 1.0), (5, 1.0), (7, 1.0)))
        )
        assert 12 not in ov.cloud_latency_ms
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 0
        )
        assert (12, AreaType.COMPUTE_OPTIMIZED) in assignment.gateways
        workload = WorkloadSpec(duration_s=600.0)
        smart = run(ov, Mode.SMARTFOG, workload, 0, assignment=assignment, areas=areas)
        base = run(ov, Mode.UNOPTIMIZED, workload, 0)
        assert smart.emitted["pc"] == base.emitted["pc"] > 0
        assert smart.dropped["pc"] == 0
        assert smart.completed["pc"] == base.completed["pc"]


class TestConservation:
    """Every emitted tuple is eventually completed, dropped, or in flight."""

    @settings(max_examples=1000)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(2, 6),
        smart=st.booleans(),
        duration=st.integers(5, 40),
        spa_every=st.integers(1, 8),
        pc_every=st.integers(1, 8),
        sensors=st.integers(1, 3),
    )
    def test_counts_balance(self, seed, n, smart, duration, spa_every, pc_every, sensors):
        ov = build_overlay(n, seed)
        workload = WorkloadSpec(
            duration_s=float(duration),
            warmup_s=0.0,
            n_sensors=sensors,
            spa_interval_s=float(spa_every),
            pc_interval_s=float(pc_every),
        )
        assignment = None
        areas = None
        mode = Mode.UNOPTIMIZED
        if smart and n >= 4:
            mode = Mode.SMARTFOG
            assignment, areas, _, _ = run_smartfog_pipeline(
                ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
            )
        report = run(ov, mode, workload, seed, assignment=assignment, areas=areas)
        for kind in ("spa", "pc"):
            assert report.emitted[kind] == (
                report.completed[kind] + report.dropped[kind] + report.in_flight[kind]
            )
            assert report.in_flight[kind] >= 0
            assert report.dropped[kind] >= 0
            assert len(report.spa_delays_ms) <= report.completed["spa"]
        assert report.network_load_bytes % workload.tuple_bytes == 0
        for delay in report.spa_delays_ms + report.pc_delays_ms:
            assert delay > 0 and math.isfinite(delay)


class TestLatencyMonotonicityScoped:
    """With a single sensor, every server carries one FIFO stream, so doubling
    link latencies shifts each arrival uniformly and no completed loop gets
    faster.  (Under contention the claim is false: stretched uplinks can
    reorder queue arrivals and shrink an individual tuple's wait.)
    """

    @settings(max_examples=200)
    @given(seed=st.integers(0, 5000), n=st.integers(2, 8))
    def test_doubled_links_never_speed_a_loop(self, seed, n):
        ov = build_overlay(n, seed)
        doubled = FogOverlay(
            devices=ov.devices,
            links=tuple(
                Link(a=l.a, b=l.b, latency_ms=l.latency_ms * 2.0) for l in ov.links
            ),
            cloud_latency_ms=ov.cloud_latency_ms,
        )
        workload = WorkloadSpec(
            duration_s=60.0, warmup_s=0.0, n_sensors=1, spa_interval_s=5.0, pc_interval_s=7.0
        )
        base = run(ov, Mode.UNOPTIMIZED, workload, seed)
        slow = run(doubled, Mode.UNOPTIMIZED, workload, seed)
        for fast_delays, slow_delays in (
            (base.spa_delays_ms, slow.spa_delays_ms),
            (base.pc_delays_ms, slow.pc_delays_ms),
        ):
            for a, b in zip(fast_delays, slow_delays):
                assert b >= a - 1e-9
        # uplink loads match hop for hop; the doubled run can only lose
        # downlink legs to the horizon cutoff
        assert slow.network_load_bytes <= base.network_load_bytes


class TestSmartfogEndToEnd:
    def test_pipeline_and_both_modes(self):
        ov = build_overlay(20, seed=1005)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 1005
        )
        workload = WorkloadSpec()
        smart = run(ov, Mode.SMARTFOG, workload, 1005, assignment=assignment, areas=areas)
        base = run(ov, Mode.UNOPTIMIZED, workload, 1005)
        for report in (smart, base):
            assert report.completed["spa"] > 0
            assert report.completed["pc"] > 0
            assert report.network_load_bytes > 0
            assert all(d > 0 for d in report.spa_delays_ms)
        assert smart.mode is Mode.SMARTFOG
        hosts = place_edge_ward(
            ov,
            attach_sensors(ov, 10, random.Random(1005 ^ 0x617474)),
            Mode.SMARTFOG,
            assignment=assignment,
            areas=areas,
        ).edge_modules
        compute_area = next(
            a for a in areas if a.area_type is AreaType.COMPUTE_OPTIMIZED
        )
        assert set(hosts.values()) <= set(compute_area.members)

    def test_one_path_table_per_overlay(self, monkeypatch):
        """Placement and the event loop of both modes share one table."""
        ov = build_overlay(20, seed=1005)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 1005
        )
        # Cloud-latency evaluation runs its own Dijkstras and caches no table,
        # so long-lived overlays that are only organized stay small.
        assert "path_table" not in ov.__dict__
        calls = []
        original = smartfog.overlay.shortest_paths

        def counting(overlay, source):
            calls.append(source)
            return original(overlay, source)

        monkeypatch.setattr(smartfog.overlay, "shortest_paths", counting)
        workload = WorkloadSpec()
        run(ov, Mode.SMARTFOG, workload, 1005, assignment=assignment, areas=areas)
        run(ov, Mode.UNOPTIMIZED, workload, 1005)
        assert sorted(calls) == sorted(ov.device_ids)


DENSE_SPEC = WorkloadSpec(duration_s=3600.0, spa_interval_s=60.0, pc_interval_s=60.0)
# jitter 0 and fixed work: every sensor emits at the same instants, so
# arrivals and completions tie exactly and only the event order separates them
TIES_SPEC = WorkloadSpec(
    duration_s=600.0,
    warmup_s=0.0,
    jitter=0.0,
    spa_interval_s=30.0,
    pc_interval_s=30.0,
    spa_mips_range=(4000.0, 4000.0),
    pc_mips_range=(44800.0, 44800.0),
    access_ms=(2.0, 2.0),
)

# sha256 of SimulationReport.to_json(), recorded with the event loop that had
# separate device and cloud handlers and routed each tuple at emission.
PINNED_REPORTS = [
    (20, 1000, "default", Mode.SMARTFOG, "fc3c3109868b1f767efcff2f09b2ae7f213ae8d0022ac2ad2ba2f0b61bf39216"),
    (20, 1000, "default", Mode.UNOPTIMIZED, "282f0746937b436c5afa7948b2d3875505c577a3dea9106ebde72950443fea27"),
    (40, 1042, "default", Mode.SMARTFOG, "b2fe4259bdfc339d06ebca9e090d98f8a45eabaf391e98029377d5bd9ae674dd"),
    (40, 1042, "default", Mode.UNOPTIMIZED, "94322ef7dc8bb4bb426017a0b3566bd3dd53032f0ed24b6ec0ac5a0c5841f912"),
    (80, 3000, "dense", Mode.SMARTFOG, "f0129bcfc556baf8071920ee77a8b17eb7e2ff9c8a41250151270815a6dbe841"),
    (80, 3000, "dense", Mode.UNOPTIMIZED, "5b9afd591b0e24f0459ec103db7a47f3d7c0afd6f54470049efa5437902bb15f"),
    (12, 4000, "ties", Mode.SMARTFOG, "c380294d2dbd86686ca5b4a0fceee90f2f9a17e2e19917296e79e7ed62f89c89"),
    (12, 4000, "ties", Mode.UNOPTIMIZED, "8578d8063db33a679595b479574628e1a860faf79ad21b31fe48528eaf526bbb"),
    (None, 1, "drops", Mode.UNOPTIMIZED, "d53020bc34d4cf9e0422b5df8e9d184085a219d25c99c89a580c39b3f99bfd54"),
]


@pytest.mark.parametrize("n,seed,spec,mode,digest", PINNED_REPORTS)
def test_pinned_simulation_reports(n, seed, spec, mode, digest):
    if spec == "drops":
        ov = two_component_overlay()
        workload = WorkloadSpec(
            duration_s=120.0, n_sensors=6, spa_interval_s=20.0, pc_interval_s=30.0
        )
    else:
        ov = build_overlay(n, seed)
        workload = {"default": WorkloadSpec(), "dense": DENSE_SPEC, "ties": TIES_SPEC}[spec]
    kwargs = {}
    if mode is Mode.SMARTFOG:
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
        )
        kwargs = {"assignment": assignment, "areas": areas}
    report = run(ov, mode, workload, seed, **kwargs)
    if spec == "drops":
        assert report.total_dropped > 0
    if spec == "ties":
        delays = report.spa_delays_ms + report.pc_delays_ms
        assert len(set(delays)) < len(delays)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
