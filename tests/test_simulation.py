import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartfog.centrality import CentralityMode
from smartfog.clustering import FunctionalArea
from smartfog.decision import AreaType, GatewayAssignment
from smartfog.errors import ConfigurationError, ContractError, SmartFogError
from smartfog.harness import run_smartfog_pipeline
from smartfog.overlay import (
    Arch,
    FogDevice,
    FogOverlay,
    Join,
    Leave,
    Link,
    apply_churn,
    build_overlay,
)
from smartfog.simulation import (
    _ATTACH_SALT,
    Mode,
    Placement,
    SensorAttachment,
    TupleKind,
    WorkloadSpec,
    _draws,
    attach_sensors,
    place_edge_ward,
    run,
)

from oracles import event_loop_run, tied_overlay, two_component_overlay


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
        WorkloadSpec()

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
            ("duration_s", math.inf),
            ("duration_s", math.nan),
            ("warmup_s", math.nan),
            ("n_sensors", math.inf),
            ("spa_interval_s", math.nan),
            ("pc_interval_s", math.inf),
            ("jitter", math.nan),
            ("spa_mips_range", (1.0, math.inf)),
            ("pc_mips_range", (math.nan, 10.0)),
            ("tuple_bytes", math.inf),
            ("access_ms", (1.0, math.inf)),
            ("cloud_mips", math.nan),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            WorkloadSpec(**{field: value})


SHORT_SPEC = dict(duration_s=10.0, warmup_s=0.0)


@pytest.mark.parametrize(
    "name,call",
    [
        ("n_devices", lambda: build_overlay(2.5, 1)),
        ("n_devices", lambda: build_overlay("5", 1)),
        ("seed", lambda: build_overlay(5, -1)),
        ("seed", lambda: build_overlay(5, 1.5)),
        ("seed", lambda: run(chain(3), Mode.UNOPTIMIZED, WorkloadSpec(**SHORT_SPEC), 1.5)),
        ("seed", lambda: run(chain(3), Mode.UNOPTIMIZED, WorkloadSpec(**SHORT_SPEC), -1)),
        ("n_sensors", lambda: run(chain(3), Mode.UNOPTIMIZED, WorkloadSpec(n_sensors=2.5), 1)),
        ("n_sensors", lambda: WorkloadSpec(n_sensors=True)),
        ("tuple_bytes", lambda: WorkloadSpec(tuple_bytes=1.5)),
    ],
    ids=[
        "overlay-size-float",
        "overlay-size-str",
        "overlay-seed-negative",
        "overlay-seed-float",
        "run-seed-float",
        "run-seed-negative",
        "sensors-float",
        "sensors-bool",
        "tuple-bytes-float",
    ],
)
def test_integer_parameters_refused_by_name(name, call):
    with pytest.raises(SmartFogError, match=name):
        call()


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

    @pytest.mark.parametrize(
        "bad",
        [(math.nan, 2.0), (5.0, -2.0), ("x", 2.0), (1.0,)],
        ids=["nan", "order", "str", "arity"],
    )
    def test_bad_access_range_refused_by_name(self, bad):
        with pytest.raises(ConfigurationError, match="^access_ms_range must"):
            attach_sensors(build_overlay(4, 0), 2, random.Random(0), bad)

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

    @pytest.mark.parametrize("mode", list(Mode))
    def test_unknown_access_point_rejected_by_name(self, mode):
        ov = build_overlay(6, 1)
        assignment, areas, _, _ = run_smartfog_pipeline(ov, ("compute",), 1, None, 1)
        sensors = SensorAttachment(access_point={0: 99}, access_ms={0: 1.0})
        with pytest.raises(ContractError, match="access_point"):
            place_edge_ward(ov, sensors, mode, assignment, areas, random.Random(0))

    @pytest.mark.parametrize(
        "access_point, access_ms, match",
        [
            ([3], [1.0], "access_point must be a mapping"),
            ({0: 3, "x": 4}, {0: 1.0, "x": 1.0}, "access_point sensor id"),
            ({True: 3}, {True: 1.0}, "access_point sensor id"),
            ({-1: 3}, {-1: 1.0}, "access_point sensor id"),
            ({0: 3, 1: 4}, {0: 1.0}, "access_ms must have the sensor ids"),
            ({0: 3}, {0: -5.0}, "sensor 0: access_ms"),
            ({0: 3}, {0: math.nan}, "sensor 0: access_ms"),
        ],
        ids=["list", "str-id", "bool-id", "negative-id", "missing-ms", "negative-ms", "nan-ms"],
    )
    def test_malformed_attachment_rejected_by_name(self, access_point, access_ms, match):
        ov = build_overlay(6, 1)
        with pytest.raises(ContractError, match=match):
            sensors = SensorAttachment(access_point, access_ms)
            place_edge_ward(ov, sensors, Mode.UNOPTIMIZED, rng=random.Random(1))

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "place, match",
        [("member", "member 99 names"), ("owner", "owner_gateway 99 names"),
         ("gateway", "gateway 99 names")],
        ids=["member", "owner", "gateway"],
    )
    def test_unknown_area_ids_rejected_by_name(self, mode, place, match):
        """An id naming no device is refused in either mode, before any route is sought."""
        ov = chain(4)
        sensors = SensorAttachment(access_point={0: 1}, access_ms={0: 2.0})
        gateways = [(0, AreaType.COMPUTE_OPTIMIZED)]
        area = self.area(0, {2, 3})
        if place == "member":
            area = self.area(0, {2, 3, 99})
        elif place == "owner":
            area = self.area(99, {2, 3})
        else:
            gateways.append((99, AreaType.MEMORY_OPTIMIZED))
        with pytest.raises(ContractError, match=match):
            place_edge_ward(
                ov, sensors, mode, GatewayAssignment(gateways), [area], random.Random(0)
            )


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


# The closed form of TestQueueing.test_completion_ties_reported_in_emission_order.
CLOSED_TIES_SPEC = WorkloadSpec(
    duration_s=6.0,
    warmup_s=0.0,
    n_sensors=3,
    spa_interval_s=1.0,
    pc_interval_s=400.0,
    jitter=0.0,
    spa_mips_range=(1000.0, 1000.0),
    access_ms=(1000.0, 1000.0),
)


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

    def test_completion_ties_reported_in_emission_order(self):
        # Two 1000 MIPS devices joined by a 1000 ms link; seed 0 wires all
        # three sensors to device 0 with 1000 ms access hops, hosts sensors 0
        # and 1 on device 0 (leg 1 s) and sensor 2 on device 1 (leg 2 s).
        # Each emits a 1 s job every second from t = 1 s.  Device 0 gets two
        # arrivals a second and serves them back to back: sensor 0's t = 1
        # job completes at C = 4 s, sensor 1's at 5 s, sensor 0's t = 2 job
        # at 6 s; device 1 never queues, so sensor 2's t = 1 job also
        # completes at 6 s, on the horizon.  The two C = 6 s samples are
        # reported in emission order, sensor 0's before sensor 2's.
        workload = CLOSED_TIES_SPEC
        ov = chain(2, latency=1000.0)
        report = run(ov, Mode.UNOPTIMIZED, workload, seed=0)
        assert report.spa_delays_ms == [3000.0, 4000.0, 4000.0, 5000.0]
        assert report.completed["spa"] == 4
        assert report.to_json() == event_loop_run(ov, Mode.UNOPTIMIZED, workload, 0).to_json()


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

    def test_mode_by_string_value(self):
        ov = build_overlay(12, seed=6)
        workload = WorkloadSpec(duration_s=60.0)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 6
        )
        for mode in Mode:
            kwargs = {"assignment": assignment, "areas": areas} if mode is Mode.SMARTFOG else {}
            by_value = run(ov, mode.value, workload, seed=6, **kwargs)
            assert by_value.mode is mode
            assert by_value.to_json() == run(ov, mode, workload, seed=6, **kwargs).to_json()

    def test_paired_modes_draw_one_schedule(self):
        ov = build_overlay(12, seed=6)
        workload = WorkloadSpec(duration_s=60.0)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 6
        )
        _draws.cache_clear()
        run(ov, Mode.SMARTFOG, workload, seed=6, assignment=assignment, areas=areas)
        run(ov, Mode.UNOPTIMIZED, workload, seed=6)
        info = _draws.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # Another seed, jitter and sensor count (7 for 14 devices, 6 for 12)
        # each draw a schedule of their own.
        for ov_, workload_, seed in (
            (ov, workload, 7),
            (ov, dataclasses.replace(workload, jitter=0.1), 6),
            (build_overlay(14, seed=6), workload, 6),
        ):
            misses = _draws.cache_info().misses
            run(ov_, Mode.UNOPTIMIZED, workload_, seed)
            assert _draws.cache_info().misses == misses + 1
            assert _draws.cache_info().currsize <= 1
        _, emit, work, sizes = _draws(6, workload, ov.device_ids)
        assert len(emit) == len(work) == sum(sizes) > 0
        for column in (emit, work):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_paired_modes_draw_one_attachment(self):
        ov = build_overlay(12, seed=6)
        workload = WorkloadSpec(duration_s=60.0)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 6
        )
        _draws.cache_clear()
        run(ov, Mode.SMARTFOG, workload, seed=6, assignment=assignment, areas=areas)
        run(ov, Mode.UNOPTIMIZED, workload, seed=6)
        info = _draws.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # The draws read only the device ids: another overlay on the same ids
        # shares them.
        run(build_overlay(12, seed=7), Mode.UNOPTIMIZED, workload, seed=6)
        assert _draws.cache_info().hits == 2
        # Another seed, access range, sensor count (5, not the 6 for 12
        # devices) and set of device ids (at 6 sensors) each draw their own.
        for ov_, workload_, seed in (
            (ov, workload, 7),
            (ov, dataclasses.replace(workload, access_ms=(2.0, 3.0)), 6),
            (ov, dataclasses.replace(workload, n_sensors=5), 6),
            (build_overlay(14, seed=6), dataclasses.replace(workload, n_sensors=6), 6),
        ):
            misses = _draws.cache_info().misses
            run(ov_, Mode.UNOPTIMIZED, workload_, seed)
            assert _draws.cache_info().misses == misses + 1
            assert _draws.cache_info().currsize <= 1
        # The attachment is attach_sensors's, from the seed's attachment stream.
        expected = attach_sensors(ov, 6, random.Random(6 ^ _ATTACH_SALT), workload.access_ms)
        assert _draws(6, workload, ov.device_ids)[0] == expected

    @given(
        seed=st.integers(0, 10_000),
        n=st.one_of(st.none(), st.integers(4, 10)),
        sensors=st.one_of(st.none(), st.integers(1, 8)),
        duration=st.integers(1, 60),
        warmup=st.sampled_from((0.0, 0.25, 0.5)),
        spa_every=st.integers(1, 10),
        pc_every=st.integers(1, 10),
        jitter=st.sampled_from((0.0, 0.2, 0.5)),
        unoptimized_first=st.booleans(),
    )
    def test_shared_schedule_leaves_reports_unchanged(
        self, seed, n, sensors, duration, warmup, spa_every, pc_every, jitter, unoptimized_first
    ):
        # n=None is the two-triangle overlay, where unoptimized placement
        # leaves some sensors without a route.
        if n is None:
            ov = two_component_overlay()
            assignment = GatewayAssignment(
                gateways=((0, AreaType.COMPUTE_OPTIMIZED), (3, AreaType.MEMORY_OPTIMIZED))
            )
            areas = [
                FunctionalArea(0, AreaType.COMPUTE_OPTIMIZED, frozenset(range(6)), 0),
                FunctionalArea(3, AreaType.MEMORY_OPTIMIZED, frozenset({3, 4, 5}), 1),
            ]
        else:
            ov = build_overlay(n, seed)
            assignment, areas, _, _ = run_smartfog_pipeline(
                ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
            )
        workload = WorkloadSpec(
            duration_s=float(duration),
            warmup_s=warmup * duration,
            n_sensors=sensors,
            spa_interval_s=float(spa_every),
            pc_interval_s=float(pc_every),
            jitter=jitter,
        )
        smart = {"assignment": assignment, "areas": areas}
        modes = [(Mode.SMARTFOG, smart), (Mode.UNOPTIMIZED, {})]
        if unoptimized_first:
            modes.reverse()
        _draws.cache_clear()
        warm = [run(ov, mode, workload, seed, **kwargs).to_json() for mode, kwargs in modes]
        assert _draws.cache_info().hits == 1
        cold = []
        for mode, kwargs in modes:
            _draws.cache_clear()
            cold.append(run(ov, mode, workload, seed, **kwargs).to_json())
        oracle = [event_loop_run(ov, mode, workload, seed, **kw).to_json() for mode, kw in modes]
        assert warm == cold == oracle

    @pytest.mark.parametrize("bad", ["optimized", None, 0, "SMARTFOG"])
    def test_unknown_mode_rejected(self, bad):
        ov = build_overlay(6, seed=1)
        with pytest.raises(ContractError, match="mode"):
            run(ov, bad, WorkloadSpec(duration_s=60.0), seed=1)
        sensors = attach_sensors(ov, 2, random.Random(1))
        with pytest.raises(ContractError, match="mode"):
            place_edge_ward(ov, sensors, bad, rng=random.Random(2))

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

    @staticmethod
    def run_unlinked_gateway(cloud):
        """One PC tuple from chain(4)'s gateway 2, which has no cloud link."""
        ov = chain(4, cloud=cloud)
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
        return report

    def test_closed_form_relay_leg(self):
        # via 0 costs 4 + 60 = 64 ms over 3 hops, via the nearer 3 costs
        # 2 + 70 = 72 ms, so the relay is device 0
        report = self.run_unlinked_gateway({0: 60.0, 3: 70.0})
        # 64 ms up + 1000 ms at the cloud + 64 ms back; 3 hops each way
        assert report.pc_delays_ms == [1128.0]
        assert report.network_load_bytes == 600

    def test_relay_tie_goes_to_lower_id(self):
        # via 0 costs 61 + 2 + 2 = 65 ms over 2 links, via 3 costs 63 + 2 =
        # 65 ms over 1; the lower id wins the tie, not the fewer hops
        report = self.run_unlinked_gateway({0: 61.0, 3: 63.0})
        assert report.pc_delays_ms == [1130.0]
        # 3 hops each way; relay 3 would give 2
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

    def test_smartfog_placement_skips_unreachable_members(self):
        # 1e308 + 1e308 overflows: device 3 is reached at inf, device 1 not at
        # all, so its inf in the table must not win the lower-id tie.
        devices = tuple(
            FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
            for i in range(4)
        )
        links = (Link(a=0, b=2, latency_ms=1e308), Link(a=2, b=3, latency_ms=1e308))
        ov = FogOverlay(devices=devices, links=links, cloud_latency_ms={0: 60.0, 1: 60.0})
        sensors = SensorAttachment(access_point={0: 0}, access_ms={0: 1.0})
        assignment = GatewayAssignment(
            gateways=((0, AreaType.COMPUTE_OPTIMIZED), (1, AreaType.MEMORY_OPTIMIZED))
        )
        areas = [FunctionalArea(0, AreaType.COMPUTE_OPTIMIZED, frozenset({1, 3}), 0)]
        placement = place_edge_ward(ov, sensors, Mode.SMARTFOG, assignment, areas)
        assert placement.edge_modules == {0: 3}
        # Device 3's one candidate is reached at inf; device 2 has no area
        # and falls back to the gateways, of which only 0 is reachable.
        assert placement.cloud_route == {0: 0, 1: 1, 2: 0, 3: 0}
        # Device 2 in an area of the unreachable gateway 1 has no route.
        areas.append(FunctionalArea(1, AreaType.MEMORY_OPTIMIZED, frozenset({2}), 1))
        with pytest.raises(ContractError, match="no gateway reachable from device 2"):
            place_edge_ward(ov, sensors, Mode.SMARTFOG, assignment, areas)

    def test_one_path_table_per_overlay(self, searched_sources):
        """Weighted centrality, placement and the event loop of both modes share one table.

        Centrality's one search per device fills the table, so no other search runs.
        """
        ov = build_overlay(20, seed=1005)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 1005
        )
        workload = WorkloadSpec()
        run(ov, Mode.SMARTFOG, workload, 1005, assignment=assignment, areas=areas)
        run(ov, Mode.UNOPTIMIZED, workload, 1005)
        assert sorted(searched_sources) == list(range(len(ov.devices)))

    def test_unweighted_organizing_caches_no_table(self):
        # Cloud-latency evaluation reads the n-entry cloud_exit table, so
        # long-lived overlays that are only organized stay small.
        ov = build_overlay(20, seed=1005)
        run_smartfog_pipeline(
            ov,
            (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED),
            2,
            None,
            1005,
            CentralityMode.UNWEIGHTED,
        )
        assert "path_table" not in ov.__dict__


DENSE_SPEC = WorkloadSpec(duration_s=3600.0, spa_interval_s=60.0, pc_interval_s=60.0)
# jitter 0 and fixed work: every sensor emits at the same instants, so
# arrivals tie exactly and a server takes them in order of (t, emission index)
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
# separate device and cloud handlers and routed each tuple at emission.  The
# "closed" case, the only one with delay samples tied on completion time, was
# recorded with the per-server queues and pins the order of those ties.
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
    (2, 0, "closed", Mode.UNOPTIMIZED, "d324fdae7787b0a7128da7b735709bf2572045fd47eec47f714392b86494fd4d"),
]


def pinned_case(n, seed, spec, mode):
    """The overlay, workload and organization of one ``PINNED_REPORTS`` case."""
    if spec == "drops":
        ov = two_component_overlay()
        workload = WorkloadSpec(
            duration_s=120.0, n_sensors=6, spa_interval_s=20.0, pc_interval_s=30.0
        )
    elif spec == "closed":
        # The closed form with a PC stream as well, so samples of both kinds
        # and two SPA samples tied on completion time share one report.
        ov = chain(n, latency=1000.0)
        workload = dataclasses.replace(CLOSED_TIES_SPEC, pc_interval_s=1.0)
    else:
        ov = build_overlay(n, seed)
        workload = {"default": WorkloadSpec(), "dense": DENSE_SPEC, "ties": TIES_SPEC}[spec]
    kwargs = {}
    if mode is Mode.SMARTFOG:
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
        )
        kwargs = {"assignment": assignment, "areas": areas}
    return ov, workload, kwargs


@pytest.mark.parametrize("n,seed,spec,mode,digest", PINNED_REPORTS)
def test_pinned_simulation_reports(n, seed, spec, mode, digest):
    ov, workload, kwargs = pinned_case(n, seed, spec, mode)
    report = run(ov, mode, workload, seed, **kwargs)
    if spec == "drops":
        assert report.total_dropped > 0
    if spec == "ties":
        delays = report.spa_delays_ms + report.pc_delays_ms
        assert len(set(delays)) < len(delays)
    if spec == "closed":
        assert report.spa_delays_ms == [3000.0, 4000.0, 4000.0, 5000.0]
        assert len(report.pc_delays_ms) == 5
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


class TestEventHeapOracle:
    """``run`` equals the global event-heap loop it replaced, byte for byte.

    The loop records each delay sample with its completion time C and
    emission index and sorts them once at the end, so the tie cases check the
    rule that samples tied on C are reported in emission order.
    """

    @pytest.mark.parametrize("n,seed,spec,mode", [case[:4] for case in PINNED_REPORTS])
    def test_pinned_cases_match_oracle(self, n, seed, spec, mode):
        ov, workload, kwargs = pinned_case(n, seed, spec, mode)
        report = run(ov, mode, workload, seed, **kwargs)
        assert report.to_json() == event_loop_run(ov, mode, workload, seed, **kwargs).to_json()

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 10),
        rng=st.randoms(use_true_random=False),
        unit_ms=st.sampled_from((1.0, 1000.0)),
        sensors=st.integers(2, 10),
        spa_every=st.integers(1, 4),
        pc_every=st.integers(1, 4),
        spa_work=st.sampled_from((1000.0, 2000.0, 4000.0)),
        access=st.sampled_from((1.0, 2.0)),
    )
    def test_tie_order_matches_oracle(
        self, seed, n, rng, unit_ms, sensors, spa_every, pc_every, spa_work, access
    ):
        # Whole-millisecond link, access, cloud and service times with jitter
        # 0: sensors emit at the same instants and servers saturate, so events
        # tie exactly.
        ov = tied_overlay(build_overlay(n, seed), rng, unit_ms)
        workload = WorkloadSpec(
            duration_s=60.0,
            warmup_s=0.0,
            n_sensors=sensors,
            spa_interval_s=float(spa_every),
            pc_interval_s=float(pc_every),
            jitter=0.0,
            spa_mips_range=(spa_work, spa_work),
            pc_mips_range=(44800.0, 44800.0),
            access_ms=(unit_ms * access, unit_ms * access),
        )
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
        )
        for mode, kwargs in (
            (Mode.SMARTFOG, {"assignment": assignment, "areas": areas}),
            (Mode.UNOPTIMIZED, {}),
        ):
            report = run(ov, mode, workload, seed, **kwargs)
            assert report.to_json() == event_loop_run(ov, mode, workload, seed, **kwargs).to_json()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_churned_ids_match_oracle(self, seed):
        # Device 2 leaves, which moves every later device one position down,
        # and device 20 joins at the last position, so ids are not positions.
        joiner = FogDevice(id=20, mips=6000.0, memory_gb=4.0, storage_gb=16.0, arch=Arch.X86)
        ov = apply_churn(build_overlay(12, seed), Leave(device_id=2))
        ov = apply_churn(ov, Join(device=joiner, links=((0, 1.0), (7, 1.0)), cloud_latency_ms=40.0))
        assert ov.device_ids[1:3] == (1, 3) and ov.device_ids[-1] == 20
        workload = WorkloadSpec(duration_s=120.0, spa_interval_s=4.0, pc_interval_s=8.0)
        assignment, areas, _, _ = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
        )
        for mode, kwargs in (
            (Mode.SMARTFOG, {"assignment": assignment, "areas": areas}),
            (Mode.UNOPTIMIZED, {}),
        ):
            report = run(ov, mode, workload, seed, **kwargs)
            assert report.total_completed > 0
            assert report.to_json() == event_loop_run(ov, mode, workload, seed, **kwargs).to_json()

    def test_deep_tie_chain_matches_oracle(self):
        # Two equal devices, each hosting one sensor with the same leg, stay
        # busy from the first arrival on and depart at the same instants, so
        # about 2000 pairs of delay samples tie on C, all within one busy
        # period per device that lasts the whole run.  The tie rule looks
        # only at C and the emission index, so the length of a busy period
        # does not matter to it.
        devices = tuple(
            FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
            for i in range(2)
        )
        ov = FogOverlay(
            devices=devices, links=(Link(a=0, b=1, latency_ms=1.0),), cloud_latency_ms={0: 60.0}
        )
        kwargs = {
            "assignment": GatewayAssignment(gateways=((0, AreaType.COMPUTE_OPTIMIZED),)),
            "areas": [
                FunctionalArea(
                    owner_gateway=0,
                    area_type=AreaType.COMPUTE_OPTIMIZED,
                    members=frozenset({0, 1}),
                    cluster_label=0,
                )
            ],
        }
        workload = WorkloadSpec(
            duration_s=3000.0,
            warmup_s=0.0,
            n_sensors=2,
            spa_interval_s=1.0,
            pc_interval_s=4000.0,
            jitter=0.0,
            spa_mips_range=(1500.0, 1500.0),
            access_ms=(2.0, 2.0),
        )
        # seed 2 attaches the two sensors to different devices
        report = run(ov, Mode.SMARTFOG, workload, 2, **kwargs)
        oracle = event_loop_run(ov, Mode.SMARTFOG, workload, 2, **kwargs)
        assert report.completed["spa"] > 3000
        assert report.to_json() == oracle.to_json()

    def test_run_without_tuples_matches_oracle(self):
        # Every first emission gap is at least 0.8 of the 30 s PC interval,
        # so nothing is emitted in 10 s and every array is empty.
        workload = WorkloadSpec(duration_s=10.0, warmup_s=0.0)
        ov, _, kwargs = pinned_case(20, 1000, "default", Mode.SMARTFOG)
        for mode, mode_kwargs in ((Mode.SMARTFOG, kwargs), (Mode.UNOPTIMIZED, {})):
            report = run(ov, mode, workload, 1000, **mode_kwargs)
            oracle = event_loop_run(ov, mode, workload, 1000, **mode_kwargs)
            assert report.total_emitted == 0
            assert report.to_json() == oracle.to_json()


class TestHorizon:
    """Every event at or before ``duration_s`` happens and nothing later does.

    One device at 1000 MIPS and one sensor emitting once, at whole seconds:
    the access hop takes 1000 ms each way and 1000 M-instr take 1000 ms, so
    each case puts one event exactly on the 100 s horizon.
    """

    @staticmethod
    def run_once(emit_s):
        workload = WorkloadSpec(
            duration_s=100.0,
            warmup_s=0.0,
            n_sensors=1,
            spa_interval_s=emit_s,
            pc_interval_s=400.0,
            jitter=0.0,
            spa_mips_range=(1000.0, 1000.0),
            access_ms=(1000.0, 1000.0),
        )
        report = run(single_device_overlay(), Mode.UNOPTIMIZED, workload, seed=0)
        assert report.emitted == {"spa": 1, "pc": 0}
        return report

    def test_arrival_on_horizon_adds_uplink_load_only(self):
        report = self.run_once(99.0)
        assert report.network_load_bytes == 100
        assert report.in_flight["spa"] == 1

    def test_departure_on_horizon_adds_downlink_load_and_stays_in_flight(self):
        report = self.run_once(98.0)
        assert report.network_load_bytes == 200
        assert report.in_flight["spa"] == 1
        assert report.spa_delays_ms == []

    def test_completion_on_horizon_is_counted_and_sampled(self):
        report = self.run_once(97.0)
        assert report.completed["spa"] == 1
        assert report.spa_delays_ms == [3000.0]
        assert report.network_load_bytes == 200

    def test_arrival_on_departure_is_served_next_in_fifo_order(self):
        # Two sensors emit every 2 s; their 1 s jobs queue back to back, so
        # the second departs exactly as the next pair arrives, and the first
        # of that pair (sensor 0, the lower emission index) starts at once.
        workload = WorkloadSpec(
            duration_s=10.0,
            warmup_s=0.0,
            n_sensors=2,
            spa_interval_s=2.0,
            pc_interval_s=400.0,
            jitter=0.0,
            spa_mips_range=(1000.0, 1000.0),
            access_ms=(5.0, 5.0),
        )
        report = run(single_device_overlay(), Mode.UNOPTIMIZED, workload, seed=0)
        assert report.spa_delays_ms == [1010.0, 2010.0] * 3 + [1010.0]
        # the second job of the t = 8 s pair departs at 10.005 s
        assert report.in_flight["spa"] == 3
        assert report.network_load_bytes == 100 * (10 + 7)
