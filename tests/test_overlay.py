import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smartfog.overlay
from smartfog.centrality import CentralityMode, betweenness
from smartfog.clustering import areas_to_json
from smartfog.decision import AreaType
from smartfog.errors import (
    ChurnRejectedError,
    ConfigurationError,
    ConflictError,
    ContractError,
    TopologyError,
)
from smartfog.harness import run_smartfog_pipeline
from smartfog.overlay import (
    Arch,
    FogDevice,
    FogOverlay,
    Join,
    Leave,
    Link,
    OverlayParams,
    all_pairs_paths,
    apply_churn,
    build_overlay,
    latency_to_cloud,
)
from smartfog.simulation import Mode, WorkloadSpec, run

from oracles import (
    brute_force_latency_to_cloud,
    brute_force_min_latency,
    churned_overlay,
    settle_row,
    table_dag_betweenness,
    two_component_overlay,
)


def chain_overlay(n=3, cloud=None):
    devices = tuple(
        FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
        for i in range(n)
    )
    links = tuple(Link(a=i, b=i + 1, latency_ms=2.0) for i in range(n - 1))
    return FogOverlay(
        devices=devices, links=links, cloud_latency_ms=cloud or {0: 60.0}
    )


class TestBuildOverlay:
    def test_two_devices_single_link(self):
        ov = build_overlay(2, seed=0)
        assert len(ov.devices) == 2
        assert len(ov.links) == 1
        assert {ov.links[0].a, ov.links[0].b} == {0, 1}

    def test_connected_and_sized(self):
        for n in (5, 20, 40):
            ov = build_overlay(n, seed=3)
            assert len(ov.devices) == n
            assert ov.is_connected()
            # spanning tree + chords up to the mean-degree target
            assert len(ov.links) == min(round(3.0 * n / 2), n * (n - 1) // 2)

    def test_attribute_ranges(self):
        ov = build_overlay(30, seed=11)
        for dev in ov.devices:
            assert 800.0 <= dev.mips <= 1200.0
            assert dev.memory_gb in (1.0, 2.0, 3.0, 4.0)
            assert dev.storage_gb == 16.0
            assert dev.arch in (Arch.ARM, Arch.X86)
        for link in ov.links:
            assert 1.0 <= link.latency_ms <= 10.0
        assert set(ov.cloud_latency_ms) == set(ov.device_ids)
        for ms in ov.cloud_latency_ms.values():
            assert 50.0 <= ms <= 100.0

    def test_deterministic(self):
        a = build_overlay(15, seed=42)
        b = build_overlay(15, seed=42)
        assert a == b
        assert a.to_json() == b.to_json()
        assert build_overlay(15, seed=43).to_json() != a.to_json()

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError, match="n_devices"):
            build_overlay(1, seed=0)
        with pytest.raises(ConfigurationError, match="mips_range"):
            build_overlay(5, seed=0, params=OverlayParams(mips_range=(0.0, 100.0)))
        with pytest.raises(ConfigurationError, match="mean_degree"):
            build_overlay(5, seed=0, params=OverlayParams(mean_degree=0.5))
        with pytest.raises(ConfigurationError, match="link_latency_ms"):
            build_overlay(5, seed=0, params=OverlayParams(link_latency_ms=(5.0, 1.0)))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    def test_generated_overlays_connected(self, seed, n):
        ov = build_overlay(n, seed)
        assert ov.is_connected()
        assert len({d.id for d in ov.devices}) == n

    @pytest.mark.parametrize("key", [True, 1.0, [1], "1"])
    def test_lookups_take_only_ints(self, key):
        ov = build_overlay(4, 1)
        assert key not in ov
        with pytest.raises(ContractError, match="device_id"):
            ov.device(key)
        assert np.int64(1) in ov and ov.device(np.int64(1)) is ov.device(1)


class TestSerialization:
    def test_round_trip_exact(self):
        ov = build_overlay(12, seed=5)
        text = ov.to_json()
        back = FogOverlay.from_json(text)
        assert back == ov
        assert back.to_json() == text

    def test_document_fields(self):
        import json

        doc = json.loads(build_overlay(4, seed=1).to_json())
        assert set(doc) == {"devices", "links", "cloud"}
        assert set(doc["devices"][0]) == {"id", "mips", "memory_gb", "storage_gb", "arch"}
        assert set(doc["links"][0]) == {"a", "b", "latency_ms"}
        assert set(doc["cloud"][0]) == {"id", "latency_ms"}

    def test_arch_value_becomes_member(self):
        ov = chain_overlay(2)
        by_value = FogOverlay(
            devices=tuple(replace(d, arch="arm") for d in ov.devices),
            links=ov.links,
            cloud_latency_ms=ov.cloud_latency_ms,
        )
        assert by_value.devices[0].arch is Arch.ARM
        assert by_value.to_json() == ov.to_json()

    def test_hand_built_numbers_kept(self):
        # The checks do not convert, so an int stays an int in the document.
        dev = FogDevice(id=0, mips=1000, memory_gb=2, storage_gb=0, arch=Arch.ARM)
        ov = FogOverlay(devices=(dev,), links=(), cloud_latency_ms={0: 60})
        assert '"mips":1000,' in ov.to_json() and '"latency_ms":60}' in ov.to_json()
        assert FogOverlay.from_json(ov.to_json()).to_json() == ov.to_json()

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            FogOverlay.from_json("not json")
        with pytest.raises(ConfigurationError):
            FogOverlay.from_json('{"devices": []}')


def _device(**overrides):
    values = dict(id=0, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
    return FogDevice(**{**values, **overrides})


def _overlay_json_with(section, key, value):
    """``build_overlay(3, 1)`` serialized with one number of ``section[0]`` replaced."""
    doc = json.loads(build_overlay(3, seed=1).to_json())
    doc[section][0][key] = value
    text = json.dumps(doc)
    assert "NaN" in text or "Infinity" in text  # the bare non-JSON tokens
    return text


def _overlay_json_setting(section, key, value):
    """``build_overlay(3, 1)`` serialized with one field of ``section[0]`` set to any value."""
    doc = json.loads(build_overlay(3, seed=1).to_json())
    doc[section][0][key] = value
    return json.dumps(doc)


def _join(cloud_ms=None, link_ms=4.0):
    return apply_churn(
        chain_overlay(3), Join(device=_device(id=7), links=((1, link_ms),), cloud_latency_ms=cloud_ms)
    )


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "make,field",
    [
        pytest.param(lambda: _device(mips=NAN), "mips", id="device-mips-nan"),
        pytest.param(lambda: _device(mips=INF), "mips", id="device-mips-inf"),
        pytest.param(lambda: _device(memory_gb=NAN), "memory_gb", id="device-memory-nan"),
        pytest.param(lambda: _device(storage_gb=NAN), "storage_gb", id="device-storage-nan"),
        pytest.param(lambda: _device(storage_gb=INF), "storage_gb", id="device-storage-inf"),
        pytest.param(lambda: Link(a=0, b=1, latency_ms=NAN), "latency_ms", id="link-nan"),
        pytest.param(lambda: Link(a=0, b=1, latency_ms=INF), "latency_ms", id="link-inf"),
        pytest.param(
            lambda: chain_overlay(3, cloud={0: INF}), "cloud_latency_ms", id="overlay-cloud-inf"
        ),
        pytest.param(
            lambda: chain_overlay(3, cloud={0: 60.0, 2: NAN}),
            "cloud_latency_ms",
            id="overlay-cloud-nan",
        ),
        pytest.param(lambda: _join(cloud_ms=NAN), "cloud_latency_ms", id="join-cloud-nan"),
        pytest.param(lambda: _join(link_ms=NAN), "latency_ms", id="join-link-nan"),
        pytest.param(
            lambda: FogOverlay.from_json(_overlay_json_with("devices", "mips", NAN)),
            "mips",
            id="json-mips-nan",
        ),
        pytest.param(
            lambda: FogOverlay.from_json(_overlay_json_with("links", "latency_ms", NAN)),
            "latency_ms",
            id="json-link-nan",
        ),
        pytest.param(
            lambda: FogOverlay.from_json(_overlay_json_with("cloud", "latency_ms", INF)),
            "cloud_latency_ms",
            id="json-cloud-inf",
        ),
        pytest.param(
            lambda: build_overlay(5, 0, OverlayParams(mips_range=(800.0, INF))),
            "mips_range",
            id="params-mips-inf",
        ),
        pytest.param(
            lambda: build_overlay(5, 0, OverlayParams(memory_choices_gb=(1.0, INF))),
            "memory_choices_gb",
            id="params-memory-inf",
        ),
        pytest.param(
            lambda: build_overlay(5, 0, OverlayParams(storage_gb=NAN)),
            "storage_gb",
            id="params-storage-nan",
        ),
        pytest.param(
            lambda: build_overlay(5, 0, OverlayParams(mean_degree=NAN)),
            "mean_degree",
            id="params-degree-nan",
        ),
        pytest.param(
            lambda: build_overlay(5, 0, OverlayParams(cloud_latency_ms=(50.0, INF))),
            "cloud_latency_ms",
            id="params-cloud-inf",
        ),
        pytest.param(lambda: _device(id="x"), "device id", id="device-id-str"),
        pytest.param(lambda: _device(id=2.5), "device id", id="device-id-float"),
        pytest.param(lambda: _device(id=NAN), "device id", id="device-id-nan"),
        pytest.param(lambda: _device(id=True), "device id", id="device-id-bool"),
        pytest.param(lambda: _device(arch="mips"), "arch", id="device-arch-unknown"),
        pytest.param(lambda: _device(mips="x"), "mips", id="device-mips-str"),
        pytest.param(lambda: _device(storage_gb=True), "storage_gb", id="device-storage-bool"),
        pytest.param(lambda: Link(a=0, b=1, latency_ms="x"), "latency_ms", id="link-str"),
        pytest.param(lambda: Link(a=True, b=2, latency_ms=1.0), "endpoint", id="link-bool"),
        pytest.param(lambda: _join(link_ms="x"), "latency_ms", id="join-link-str"),
        pytest.param(lambda: _join(cloud_ms="x"), "cloud_latency_ms", id="join-cloud-str"),
        pytest.param(
            lambda: Join(device=_device(id=7), links=((NAN, 4.0),)), "links", id="join-target-nan"
        ),
        pytest.param(lambda: Leave(True), "device_id", id="leave-bool"),
        pytest.param(lambda: Leave(NAN), "device_id", id="leave-nan"),
        pytest.param(
            lambda: chain_overlay(3, cloud={True: 60.0}),
            "cloud_latency_ms",
            id="overlay-cloud-bool",
        ),
        pytest.param(
            lambda: chain_overlay(3, cloud={0: "x"}), "cloud_latency_ms", id="overlay-cloud-str"
        ),
        pytest.param(
            lambda: FogOverlay.from_json(_overlay_json_setting("devices", "arch", "mips")),
            "arch",
            id="json-arch-unknown",
        ),
        pytest.param(
            lambda: FogOverlay.from_json(_overlay_json_setting("devices", "mips", "x")),
            "mips",
            id="json-mips-str",
        ),
    ],
)
def test_non_finite_values_rejected_by_name(make, field):
    with pytest.raises(ConfigurationError, match=field):
        make()


@pytest.mark.parametrize(
    "part,value",
    [
        ("devices", ({"id": 0},)),
        ("devices", None),
        ("links", ((0, 1, 2.0),)),
        ("cloud_latency_ms", [(0, 1.0)]),
    ],
    ids=["device-dict", "devices-none", "link-tuple", "cloud-pairs"],
)
def test_malformed_parts_rejected_by_name(part, value):
    ov = chain_overlay(3)
    parts = {"devices": ov.devices, "links": ov.links, "cloud_latency_ms": ov.cloud_latency_ms}
    with pytest.raises(ConfigurationError, match=f"^{part} "):
        FogOverlay(**{**parts, part: value})
    # Lists are accepted and stored as tuples.
    assert FogOverlay(list(ov.devices), list(ov.links), ov.cloud_latency_ms) == ov


class TestChurn:
    def test_leaf_leave_ok(self):
        ov = chain_overlay(3)
        after = apply_churn(ov, Leave(device_id=2))
        assert after.is_connected()
        assert 2 not in after
        # value semantics: the original is untouched
        assert 2 in ov and len(ov.devices) == 3

    def test_connectivity_searched_once_per_overlay(self, monkeypatch):
        """A Leave's check and the betweenness of its result share one search."""
        runs = []
        original = smartfog.overlay._reaches_all

        def counting(overlay):
            runs.append(overlay)
            return original(overlay)

        monkeypatch.setattr(smartfog.overlay, "_reaches_all", counting)
        after = apply_churn(chain_overlay(4), Leave(device_id=3))
        for mode in CentralityMode:
            betweenness(after, mode)
        assert after.is_connected()
        assert runs == [after]

    def test_cut_vertex_rejected(self):
        ov = chain_overlay(3)
        with pytest.raises(ChurnRejectedError):
            apply_churn(ov, Leave(device_id=1))
        assert len(ov.devices) == 3

    def test_leave_unknown_device(self):
        with pytest.raises(ContractError):
            apply_churn(chain_overlay(3), Leave(device_id=99))

    def test_leave_last_cloud_attachment_rejected(self):
        ov = chain_overlay(3, cloud={2: 80.0})
        with pytest.raises(ChurnRejectedError, match="cloud"):
            apply_churn(ov, Leave(device_id=2))

    def test_join(self):
        ov = chain_overlay(3)
        dev = FogDevice(id=7, mips=900.0, memory_gb=1.0, storage_gb=16.0, arch=Arch.X86)
        after = apply_churn(ov, Join(device=dev, links=((1, 4.0),), cloud_latency_ms=70.0))
        assert 7 in after
        assert after.is_connected()
        assert after.cloud_latency_ms[7] == 70.0

    def test_numpy_integer_ids_stored_as_int(self):
        # The int rule admits numpy integers; each object stores the plain
        # int, so the churned overlay still serializes.
        one, nine = np.int64(1), np.int64(9)
        dev = FogDevice(id=nine, mips=900.0, memory_gb=1.0, storage_gb=16.0, arch=Arch.X86)
        join = Join(device=dev, links=((one, 3.0),))
        after = apply_churn(build_overlay(4, 1), join)
        doc = json.loads(after.to_json())
        assert {"a": 1, "b": 9, "latency_ms": 3.0} in doc["links"]
        link = Link(a=np.int64(0), b=3, latency_ms=2.0)
        ov = FogOverlay(devices=(_device(),), links=(), cloud_latency_ms={np.int64(0): 60.0})
        stored = (dev.id, join.links[0][0], link.a, Leave(device_id=nine).device_id)
        assert all(type(value) is int for value in stored + tuple(ov.cloud_latency_ms))

    def test_numpy_floats_stored_as_float(self):
        # The number rule admits numpy floats; checking one must not cast the
        # bound to float32 (an overflow warning, an error here), and each object
        # stores the plain float, so the overlay serializes.
        f32 = np.float32
        dev = _device(mips=f32(1000.0), memory_gb=f32(2.0), storage_gb=f32(16.0))
        ov = FogOverlay(devices=(dev,), links=(), cloud_latency_ms={0: f32(60.0)})
        assert json.loads(ov.to_json())["cloud"] == [{"id": 0, "latency_ms": 60.0}]
        link = Link(a=0, b=1, latency_ms=f32(2.5))
        join = Join(device=_device(id=9), links=((0, f32(3.0)),), cloud_latency_ms=f32(70.0))
        after = apply_churn(ov, join)
        assert json.loads(after.to_json())["links"] == [{"a": 0, "b": 9, "latency_ms": 3.0}]
        stored = (
            dev.mips,
            dev.memory_gb,
            dev.storage_gb,
            link.latency_ms,
            join.links[0][1],
            join.cloud_latency_ms,
            *after.cloud_latency_ms.values(),
        )
        assert all(type(value) is float for value in stored)

    def test_join_duplicate_id(self):
        ov = chain_overlay(3)
        dup = FogDevice(id=1, mips=900.0, memory_gb=1.0, storage_gb=16.0, arch=Arch.X86)
        with pytest.raises(ConflictError):
            apply_churn(ov, Join(device=dup, links=((0, 3.0),)))

    def test_join_without_links_rejected(self):
        ov = chain_overlay(3)
        dev = FogDevice(id=9, mips=900.0, memory_gb=1.0, storage_gb=16.0, arch=Arch.X86)
        with pytest.raises(ChurnRejectedError):
            apply_churn(ov, Join(device=dev, links=()))

    @settings(max_examples=1000)
    @given(data=st.data())
    def test_churn_preserves_connectivity(self, data):
        """Any accepted churn sequence leaves a connected, cloud-attached overlay."""
        n = data.draw(st.integers(2, 8), label="n")
        ov = build_overlay(n, data.draw(st.integers(0, 999), label="seed"))
        next_id = n
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            if data.draw(st.booleans(), label="join"):
                targets = data.draw(
                    st.lists(st.sampled_from(sorted(ov.device_ids)), min_size=1, max_size=3, unique=True),
                    label="targets",
                )
                dev = FogDevice(
                    id=next_id, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM
                )
                event = Join(
                    device=dev,
                    links=tuple((t, 5.0) for t in targets),
                    cloud_latency_ms=data.draw(
                        st.one_of(st.none(), st.floats(50, 100)), label="cloud"
                    ),
                )
                next_id += 1
            else:
                event = Leave(device_id=data.draw(st.sampled_from(sorted(ov.device_ids)), label="leave"))
            try:
                ov = apply_churn(ov, event)
            except ChurnRejectedError:
                continue
            assert ov.is_connected()
            assert len(ov.cloud_latency_ms) >= 1


def permuted(overlay, rng):
    """``overlay`` rebuilt from its devices, links and cloud map, each shuffled."""
    parts = [list(overlay.devices), list(overlay.links), list(overlay.cloud_latency_ms.items())]
    for part in parts:
        rng.shuffle(part)
    devices, links, cloud = parts
    return FogOverlay(devices=tuple(devices), links=tuple(links), cloud_latency_ms=dict(cloud))


@st.composite
def overlays_with_low_joins(draw):
    """Generated or churned overlays, some after a Join whose id is below an existing one.

    The joining id fills a gap that a Leave left, or lies below every id.
    """
    n = draw(st.integers(4, 14), label="n")
    seed = draw(st.integers(0, 10_000), label="seed")
    overlay = churned_overlay(n, seed, draw(st.sampled_from([0, 3, 6]), label="events"))
    if draw(st.booleans(), label="low join"):
        ids = overlay.device_ids
        free = sorted(set(range(max(ids))) - set(ids)) or [min(ids) - 1]
        targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        device = FogDevice(
            id=draw(st.sampled_from(free), label="join id"),
            mips=draw(st.floats(800.0, 1200.0)),
            memory_gb=draw(st.sampled_from([1.0, 2.0, 4.0])),
            storage_gb=16.0,
            arch=Arch.X86,
        )
        links = tuple((t, draw(st.floats(1.0, 10.0))) for t in targets)
        cloud = draw(st.one_of(st.none(), st.floats(50.0, 100.0)), label="join cloud")
        overlay = apply_churn(overlay, Join(device=device, links=links, cloud_latency_ms=cloud))
    return overlay


class TestCanonicalOrder:
    """An overlay stores one order, so the order it was given in is invisible."""

    @given(overlay=overlays_with_low_joins(), rng=st.randoms(use_true_random=False))
    def test_permuted_inputs_build_the_same_overlay(self, overlay, rng):
        shuffled = permuted(overlay, rng)
        assert shuffled == overlay
        assert shuffled.device_ids == overlay.device_ids == tuple(sorted(overlay.device_ids))
        assert shuffled.to_json() == overlay.to_json()
        areas = (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED)
        workload = WorkloadSpec(duration_s=120.0, pc_interval_s=20.0)
        for mode in CentralityMode:
            outputs = []
            for ov in (overlay, shuffled):
                gateways, functional, _, scores = run_smartfog_pipeline(ov, areas, 2, None, 3, mode)
                reports = [
                    run(ov, sim, workload, 3, assignment=gateways, areas=functional).to_json()
                    for sim in Mode
                ]
                scores = list(scores.scores.items())
                outputs.append((scores, gateways, areas_to_json(functional), reports))
            assert outputs[0] == outputs[1]

    def test_adjacency_rows_ascending(self):
        devices = tuple(_device(id=i) for i in (4, 0, 3, 1, 2))
        ends = ((3, 4), (1, 2), (0, 4), (2, 3), (0, 1), (1, 3))
        links = tuple(Link(a=a, b=b, latency_ms=float(a + b)) for a, b in ends)
        ov = FogOverlay(devices=devices, links=links, cloud_latency_ms={3: 60.0, 0: 70.0})
        assert ov.neighbours == (
            ((1, 1.0), (4, 4.0)),
            ((0, 1.0), (2, 3.0), (3, 4.0)),
            ((1, 3.0), (3, 5.0)),
            ((1, 4.0), (2, 5.0), (4, 7.0)),
            ((0, 4.0), (3, 7.0)),
        )
        assert [(l.a, l.b) for l in ov.links] == sorted(ends)
        assert list(ov.cloud_latency_ms) == [0, 3]


def full_search_latency_to_cloud(overlay, device_id):
    """The cloud latency read off a complete shortest-path table."""
    table = settle_row(overlay, device_id)
    return min(table[g][0] + ms for g, ms in overlay.cloud_latency_ms.items() if g in table)


def virtual_cloud_latencies(overlay):
    """Every device's cloud latency, from a single-source search out of the cloud.

    A virtual device joins with a link to each cloud-attached ``g`` at
    ``g``'s cloud latency, so its shortest paths add the latencies up from
    the cloud end, as the multi-source search does.
    """
    cloud_id = max(overlay.device_ids) + 1
    virtual = FogDevice(id=cloud_id, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
    joined = apply_churn(
        overlay, Join(device=virtual, links=tuple(overlay.cloud_latency_ms.items()))
    )
    row = settle_row(joined, cloud_id)
    return {dev: ms for dev, (ms, _) in row.items() if dev != cloud_id}


def integer_latency_overlay(seed, n=30, n_links=50, n_cloud=6):
    """Links of 1-3 ms and cloud links of 5-7 ms, so many routes tie exactly."""
    rng = random.Random(seed)
    devices = tuple(
        FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
        for i in range(n)
    )
    edges = {(i - 1, i) for i in range(1, n)}
    while len(edges) < n_links:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    links = tuple(Link(a=a, b=b, latency_ms=float(rng.randint(1, 3))) for a, b in sorted(edges))
    cloud = {g: float(rng.randint(5, 7)) for g in rng.sample(range(n), n_cloud)}
    return FogOverlay(devices=devices, links=links, cloud_latency_ms=cloud)


class CountingNeighbours(tuple):
    """Neighbour rows that record which device positions' rows are read."""

    def __new__(cls, neighbours):
        rows = super().__new__(cls, neighbours)
        rows.reads = []
        return rows

    def __getitem__(self, position):
        self.reads.append(position)
        return super().__getitem__(position)


def assert_matches_searches(ov):
    """Exactly the virtual-cloud search; the per-device full search up to summation order."""
    expected = virtual_cloud_latencies(ov)
    assert set(expected) == set(ov.device_ids)
    for dev in ov.device_ids:
        ms = latency_to_cloud(ov, dev)
        assert ms == expected[dev]
        assert ms == pytest.approx(full_search_latency_to_cloud(ov, dev), rel=1e-14)


class TestLatencyToCloud:
    """One search from every cloud link gives each device its cloud latency.

    The search adds latencies up from the cloud end, so a total may differ
    from a per-device search's in the last bits; exact ties stay exact.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 21, 40, 80, 160])
    def test_equals_full_search_on_generated_overlays(self, n):
        assert_matches_searches(build_overlay(n, seed=7000 + n))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_full_search_after_churn(self, seed):
        ov = churned_overlay(100, seed, 41)
        assert set(ov.device_ids) - set(ov.cloud_latency_ms), "no unlinked joins"
        assert_matches_searches(ov)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_full_search_with_exact_ties(self, seed):
        ov = integer_latency_overlay(seed)
        tied = 0
        for dev in ov.device_ids:
            table = settle_row(ov, dev)
            totals = sorted(table[g][0] + ms for g, ms in ov.cloud_latency_ms.items())
            tied += totals[0] == totals[1]
            assert latency_to_cloud(ov, dev) == totals[0]
        assert tied > 0, "no device has two equally short cloud routes"

    def test_one_search_serves_every_device(self):
        """Every device's neighbour list is read once for all the overlay's lookups."""
        ov = churned_overlay(100, 1, 40)
        counting = CountingNeighbours(ov.neighbours)
        ov.__dict__["neighbours"] = counting  # replaces the cached_property value
        for dev in ov.device_ids:
            latency_to_cloud(ov, dev)
        assert sorted(ov.device_ids[i] for i in counting.reads) == sorted(ov.device_ids)

    def test_unreachable_cloud_rejected(self):
        ov = two_component_overlay()
        ov = FogOverlay(devices=ov.devices, links=ov.links, cloud_latency_ms={0: 55.0})
        with pytest.raises(TopologyError):
            latency_to_cloud(ov, 4)

    def test_matches_brute_force_oracle(self):
        ov = build_overlay(10, seed=21)
        for dev in ov.devices:
            expected = brute_force_latency_to_cloud(ov, dev.id)
            assert latency_to_cloud(ov, dev.id) == pytest.approx(expected, abs=1e-9)

    def test_attached_device_bounded_by_own_latency(self):
        ov = build_overlay(10, seed=4)
        for gw, ms in ov.cloud_latency_ms.items():
            assert latency_to_cloud(ov, gw) <= ms

    @given(seed=st.integers(0, 2000), n=st.integers(2, 12))
    def test_triangle_property(self, seed, n):
        """Adjacent devices' cloud latencies differ by at most the link latency."""
        ov = build_overlay(n, seed)
        ltc = {d.id: latency_to_cloud(ov, d.id) for d in ov.devices}
        for link in ov.links:
            assert abs(ltc[link.a] - ltc[link.b]) <= link.latency_ms + 1e-9

    def test_unknown_device(self):
        with pytest.raises(ContractError):
            latency_to_cloud(build_overlay(4, 0), 123)


class TestShortestPaths:
    @given(seed=st.integers(0, 500), n=st.integers(2, 8))
    def test_matches_brute_force(self, seed, n):
        ov = build_overlay(n, seed)
        for src in ov.device_ids:
            table = settle_row(ov, src)
            for dst in ov.device_ids:
                assert table[dst][0] == pytest.approx(
                    brute_force_min_latency(ov, src, dst), abs=1e-9
                )

    def test_hop_counts_on_chain(self):
        ov = chain_overlay(4)
        table = settle_row(ov, 0)
        assert table[3] == (6.0, 3)
        assert table[0] == (0.0, 0)

    def test_table_arrays_are_read_only(self):
        built = build_overlay(6, seed=3)
        offered = build_overlay(6, seed=3)
        betweenness(offered)
        assert "path_table" in vars(offered)
        for ov in (built, offered):
            latency, hops = all_pairs_paths(ov)
            assert (latency.dtype, hops.dtype) == (np.float64, np.int32)
            assert latency.shape == hops.shape == (6, 6)
            for column in (latency, hops):
                with pytest.raises(ValueError):
                    column[0, 1] = 1

    def test_disconnected_table_matches_table_dag_oracle(self):
        # Two generated components, the second's ids shifted past a gap.
        left, right = build_overlay(5, seed=11), build_overlay(4, seed=12)
        ov = FogOverlay(
            devices=left.devices + tuple(replace(d, id=d.id + 20) for d in right.devices),
            links=left.links
            + tuple(replace(l, a=l.a + 20, b=l.b + 20) for l in right.links),
            cloud_latency_ms=left.cloud_latency_ms,
        )
        assert not ov.is_connected()
        _, oracle = table_dag_betweenness(ov)
        latency, hops = all_pairs_paths(ov)
        for i, s in enumerate(ov.device_ids):
            assert list(settle_row(ov, s).items()) == list(oracle[s].items())
            for j, t in enumerate(ov.device_ids):
                assert (latency[i, j], hops[i, j]) == oracle[s].get(t, (math.inf, -1))
        assert (hops < 0).sum() == 2 * 5 * 4
