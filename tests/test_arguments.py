"""One argument rule for the public API.

Every scalar a public function or input object takes is judged by
``errors._convert``'s rule: ints are ints (not bools, floats or strings),
numbers are finite, enum values become members.  Fed a bool, a float for an
int, NaN, an infinity, a negative value or a string, each call either
succeeds or raises a SmartFogError whose message names the parameter.

Every array a public function takes is judged by ``errors._table``'s rule:
a finite float (n, d) table with n, d >= 1.  Fed a malformed table, each
array entry raises a ContractError whose message starts with the
parameter's name.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import smartfog
from smartfog import (
    Arch,
    AreaType,
    CentralityMode,
    ContractError,
    FogDevice,
    FogOverlay,
    FunctionalArea,
    GatewayAssignment,
    Join,
    Leave,
    Link,
    Mode,
    Sense,
    SmartFogError,
    WorkloadSpec,
    apply_churn,
    areas_to_json,
    attach_sensors,
    betweenness,
    build_overlay,
    cluster_functional_areas,
    device_features,
    evaluate_devices,
    jacobi_eigh,
    k_means,
    latency_to_cloud,
    non_dominated_sort,
    place_edge_ward,
    run_simulation,
    run_smartfog_pipeline,
    select_gateways,
    similarity_matrix,
    spectral_embed,
)
from smartfog.errors import _convert
from smartfog.overlay import all_pairs_paths

from bad_tables import BAD_TABLES

OVERLAY = build_overlay(10, 3)
SCORES = betweenness(OVERLAY)
ASSIGNMENT, AREAS = run_smartfog_pipeline(OVERLAY, ("compute", "memory"), 2, None, 3)[:2]
FEATURES = device_features(OVERLAY.devices)
SIMILARITY = similarity_matrix(FEATURES)
POINTS = spectral_embed(SIMILARITY, 2)
SENSORS = attach_sensors(OVERLAY, 3, random.Random(0))
WORKLOAD = WorkloadSpec(duration_s=20.0, warmup_s=0.0)
ORGANIZED = {"assignment": ASSIGNMENT, "areas": AREAS}


def device(**fields):
    valid = {"id": 7, "mips": 900.0, "memory_gb": 1.0, "storage_gb": 8.0, "arch": Arch.ARM}
    return FogDevice(**{**valid, **fields})


def join(target=1, latency_ms=4.0, cloud_latency_ms=None):
    return Join(device(), ((target, latency_ms),), cloud_latency_ms)


def overlay_with_cloud(key=0, latency_ms=60.0):
    return FogOverlay(OVERLAY.devices, OVERLAY.links, {key: latency_ms})


def from_json_with(section, key, value):
    doc = json.loads(OVERLAY.to_json())
    doc[section][0][key] = value
    return FogOverlay.from_json(json.dumps(doc))


# (case id, word the message must hold, the annotated type, a call with the value in that place)
CASES = [
    ("build_overlay.n_devices", "n_devices", int, lambda v: build_overlay(v, 1)),
    ("build_overlay.seed", "seed", int, lambda v: build_overlay(6, v)),
    ("betweenness.mode", "mode", CentralityMode, lambda v: betweenness(OVERLAY, v)),
    ("select_gateways.areas", "areas", AreaType, lambda v: select_gateways(OVERLAY, [v], SCORES)),
    ("cluster_functional_areas.k", "k", int,
     lambda v: cluster_functional_areas(OVERLAY, ASSIGNMENT, k=v)),
    ("cluster_functional_areas.bandwidth", "bandwidth", float,
     lambda v: cluster_functional_areas(OVERLAY, ASSIGNMENT, k=2, bandwidth=v)),
    ("cluster_functional_areas.seed", "seed", int,
     lambda v: cluster_functional_areas(OVERLAY, ASSIGNMENT, k=2, seed=v)),
    ("run_smartfog_pipeline.areas", "areas", AreaType,
     lambda v: run_smartfog_pipeline(OVERLAY, [v], 2, None, 0)),
    ("run_smartfog_pipeline.k", "k", int,
     lambda v: run_smartfog_pipeline(OVERLAY, ["compute"], v, None, 0)),
    ("run_smartfog_pipeline.bandwidth", "bandwidth", float,
     lambda v: run_smartfog_pipeline(OVERLAY, ["compute"], 2, v, 0)),
    ("run_smartfog_pipeline.seed", "seed", int,
     lambda v: run_smartfog_pipeline(OVERLAY, ["compute"], 2, None, v)),
    ("run_smartfog_pipeline.centrality_mode", "mode", CentralityMode,
     lambda v: run_smartfog_pipeline(OVERLAY, ["compute"], 2, None, 0, v)),
    ("similarity_matrix.bandwidth", "bandwidth", float, lambda v: similarity_matrix(FEATURES, v)),
    ("spectral_embed.k", "k", int, lambda v: spectral_embed(SIMILARITY, v)),
    ("k_means.k", "k", int, lambda v: k_means(POINTS, v, [0])),
    ("k_means.seeds", "seeds", int, lambda v: k_means(POINTS, 2, [1, v])),
    ("k_means.n_init", "n_init", int, lambda v: k_means(POINTS, 2, [0], v)),
    ("device_features.devices", "devices", FogDevice, lambda v: device_features([v])),
    ("latency_to_cloud.device_id", "device_id", int, lambda v: latency_to_cloud(OVERLAY, v)),
    ("FogOverlay.device.device_id", "device_id", int, lambda v: OVERLAY.device(v)),
    ("attach_sensors.n_sensors", "n_sensors", int,
     lambda v: attach_sensors(OVERLAY, v, random.Random(0))),
    ("attach_sensors.access_ms_range.lo", "access_ms_range", float,
     lambda v: attach_sensors(OVERLAY, 2, random.Random(0), (v, 5.0))),
    ("attach_sensors.access_ms_range.hi", "access_ms_range", float,
     lambda v: attach_sensors(OVERLAY, 2, random.Random(0), (1.0, v))),
    ("place_edge_ward.mode", "mode", Mode,
     lambda v: place_edge_ward(OVERLAY, SENSORS, v, rng=random.Random(1), **ORGANIZED)),
    ("run_simulation.mode", "mode", Mode,
     lambda v: run_simulation(OVERLAY, v, WORKLOAD, 1, **ORGANIZED)),
    ("run_simulation.seed", "seed", int,
     lambda v: run_simulation(OVERLAY, "unoptimized", WORKLOAD, v)),
    ("FogDevice.id", "device id", int, lambda v: device(id=v)),
    ("FogDevice.mips", "mips", float, lambda v: device(mips=v)),
    ("FogDevice.memory_gb", "memory_gb", float, lambda v: device(memory_gb=v)),
    ("FogDevice.storage_gb", "storage_gb", float, lambda v: device(storage_gb=v)),
    ("FogDevice.arch", "arch", Arch, lambda v: device(arch=v)),
    ("Link.a", "endpoint", int, lambda v: Link(a=v, b=5, latency_ms=1.0)),
    ("Link.b", "endpoint", int, lambda v: Link(a=0, b=v, latency_ms=1.0)),
    ("Link.latency_ms", "latency_ms", float, lambda v: Link(a=0, b=5, latency_ms=v)),
    ("Join.links.device_id", "links", int, lambda v: join(target=v)),
    ("Join.links.latency_ms", "latency_ms", float, lambda v: join(latency_ms=v)),
    ("Join.cloud_latency_ms", "cloud_latency_ms", float, lambda v: join(cloud_latency_ms=v)),
    ("Leave.device_id", "device_id", int, lambda v: Leave(v)),
    ("FogOverlay.cloud_latency_ms.key", "cloud_latency_ms", int,
     lambda v: overlay_with_cloud(key=v)),
    ("FogOverlay.cloud_latency_ms.value", "cloud_latency_ms", float,
     lambda v: overlay_with_cloud(latency_ms=v)),
    ("FogOverlay.from_json.mips", "mips", float, lambda v: from_json_with("devices", "mips", v)),
    ("FogOverlay.from_json.arch", "arch", Arch, lambda v: from_json_with("devices", "arch", v)),
    ("FogOverlay.from_json.latency_ms", "latency_ms", float,
     lambda v: from_json_with("links", "latency_ms", v)),
    ("non_dominated_sort.values", "values", float,
     lambda v: non_dominated_sort([(v, 1.0), (2.0, 3.0)], (Sense.MAXIMIZE, Sense.MINIMIZE))),
    ("non_dominated_sort.senses", "senses", Sense,
     lambda v: non_dominated_sort([(1.0, 2.0)], (v, "min"))),
    ("GatewayAssignment.gateways.device", "gateways", int,
     lambda v: GatewayAssignment(((v, "compute"),))),
    ("GatewayAssignment.gateways.area_type", "gateways", AreaType,
     lambda v: GatewayAssignment(((0, v),))),
    ("FunctionalArea.owner_gateway", "owner_gateway", int,
     lambda v: FunctionalArea(v, "compute", {1}, 0)),
    ("FunctionalArea.area_type", "area_type", AreaType, lambda v: FunctionalArea(0, v, {1}, 0)),
    ("FunctionalArea.members", "members", int, lambda v: FunctionalArea(0, "compute", [1, v], 0)),
    ("FunctionalArea.cluster_label", "cluster_label", int,
     lambda v: FunctionalArea(0, "compute", {1}, v)),
]

# Public names with no scalar argument of their own, each with the reason.
NO_SCALARS = {
    # enums and errors: the values the rule converts to, and what it raises
    "Arch", "AreaType", "CentralityMode", "Mode", "Sense", "TupleKind", "ChurnEvent",
    "CapacityError", "ChurnRejectedError", "ConfigurationError", "ConflictError",
    "ContractError", "NumericalError", "SmartFogError", "TopologyError",
    # result records, built by the package from checked inputs
    "CentralityScores", "Placement", "SensorAttachment", "SimulationReport",
    # config objects: test_harness's JSON property feeds every field of all three
    "ExperimentConfig", "OverlayParams", "WorkloadSpec", "run_experiment",
    # objects, arrays and overlays only
    "apply_churn", "areas_to_json", "evaluate_devices", "jacobi_eigh",
}

SCALARS = st.one_of(
    st.booleans(),
    st.floats(),  # NaN, both infinities, negatives and floats where ints belong
    st.integers(-3, -1),
    st.text(max_size=2),
)


def test_every_public_name_is_covered():
    covered = {case[0].split(".")[0] for case in CASES}
    assert covered | NO_SCALARS == set(smartfog.__all__)
    assert not covered & NO_SCALARS


@pytest.mark.parametrize("word,hint,call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@given(value=SCALARS)
def test_scalar_arguments_refused_by_name(word, hint, call, value):
    try:
        call(value)
    except SmartFogError as exc:
        assert word in str(exc)
    else:
        # Success is only for a value the rule accepts; ranges may refuse more.
        _convert(hint, value, word)


# (case id, word the message must hold, a call with an object of the wrong type)
WRONG_OBJECTS = [
    ("betweenness.overlay", "overlay", lambda: betweenness(None)),
    ("run_smartfog_pipeline.overlay", "overlay",
     lambda: run_smartfog_pipeline(None, ["compute"], 2, None, 0)),
    ("run_simulation.overlay", "overlay", lambda: run_simulation(None, "unoptimized", WORKLOAD, 1)),
    ("select_gateways.centrality", "centrality",
     lambda: select_gateways(OVERLAY, ["compute"], {0: 1.0})),
    ("evaluate_devices.overlay", "overlay", lambda: evaluate_devices(OVERLAY.devices, SCORES)),
    ("evaluate_devices.centrality", "centrality", lambda: evaluate_devices(OVERLAY, None)),
    ("cluster_functional_areas.assignment", "assignment",
     lambda: cluster_functional_areas(OVERLAY, None, 2)),
    ("place_edge_ward.sensors", "sensors",
     lambda: place_edge_ward(OVERLAY, "x", "smartfog", **ORGANIZED)),
    ("place_edge_ward.assignment", "assignment",
     lambda: place_edge_ward(OVERLAY, SENSORS, "smartfog", ASSIGNMENT.gateways, AREAS)),
    ("place_edge_ward.areas", "areas",
     lambda: place_edge_ward(OVERLAY, SENSORS, "smartfog", ASSIGNMENT, [AREAS[0], 1])),
    ("place_edge_ward.rng", "rng", lambda: place_edge_ward(OVERLAY, SENSORS, "unoptimized", rng=5)),
    ("attach_sensors.rng", "rng", lambda: attach_sensors(OVERLAY, 3, 5)),
    ("attach_sensors.overlay", "overlay", lambda: attach_sensors(None, 3, random.Random(0))),
    ("latency_to_cloud.overlay", "overlay", lambda: latency_to_cloud(None, 0)),
    ("all_pairs_paths.overlay", "overlay", lambda: all_pairs_paths(None)),
    ("apply_churn.overlay", "overlay", lambda: apply_churn(None, Leave(1))),
    ("similarity_matrix.features", "features", lambda: similarity_matrix(None)),
    ("areas_to_json.areas", "areas", lambda: areas_to_json([1])),
    ("device_features.devices", "devices", lambda: device_features(OVERLAY)),
    ("k_means.seeds", "seeds", lambda: k_means(POINTS, 2, 0)),
    ("GatewayAssignment.gateways", "gateways", lambda: GatewayAssignment(None)),
    ("GatewayAssignment.gateways.distinct", "gateways",
     lambda: GatewayAssignment(((1, "compute"), (1, "memory")))),
    ("FunctionalArea.members", "members", lambda: FunctionalArea(0, "compute", 5, 0)),
]


@pytest.mark.parametrize(
    "word,call", [c[1:] for c in WRONG_OBJECTS], ids=[c[0] for c in WRONG_OBJECTS]
)
def test_objects_of_the_wrong_type_rejected_by_name(word, call):
    with pytest.raises(ContractError, match=word):
        call()


# (the array argument's name, a call with a table in its place)
ARRAY_ENTRIES = [
    ("values", lambda table: non_dominated_sort(table, (Sense.MINIMIZE, Sense.MINIMIZE))),
    ("features", similarity_matrix),
    ("similarity", lambda table: spectral_embed(table, 1)),
    ("matrix", jacobi_eigh),
    ("points", lambda table: k_means(table, 1, [0])),
]
ENTRY_IDS = [field for field, _ in ARRAY_ENTRIES]


@pytest.mark.parametrize("field,call", ARRAY_ENTRIES, ids=ENTRY_IDS)
@pytest.mark.parametrize("table", [t for _, t in BAD_TABLES], ids=[c for c, _ in BAD_TABLES])
def test_bad_tables_rejected_by_name(table, field, call):
    with pytest.raises(ContractError, match=f"^{field} must"):
        call(table)


BAD_CELLS = st.one_of(
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), None, 10**400, 1j]),
    st.text(max_size=2),
)


@pytest.mark.parametrize("field,call", ARRAY_ENTRIES, ids=ENTRY_IDS)
@given(data=st.data(), n=st.integers(1, 4), cell=BAD_CELLS)
def test_bad_cells_rejected_by_name(field, call, data, n, cell):
    """One bad cell anywhere in an otherwise finite square table, as lists or an object array."""
    row = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=n, max_size=n), label="rows")
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="cell")
    rows[i][j] = cell
    for table in (rows, np.array(rows, dtype=object)):
        with pytest.raises(ContractError, match=f"^{field} must"):
            call(table)
