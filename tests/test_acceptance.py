"""Acceptance gate: one test per shipped guarantee, one printed verdict line each.

Each test prints a single PASS/FAIL line (bypassing capture so the verdicts
always appear in the run log) and then asserts, so a red suite still shows
which guarantees held.
"""

import csv
import json
import math
import random
import statistics
import time

import numpy as np

from smartfog.centrality import CentralityMode, betweenness
from smartfog.clustering import (
    cluster_functional_areas,
    device_features,
    jacobi_eigh,
    k_means,
    kmeans_cost,
    similarity_matrix,
    spectral_embed,
)
from smartfog.decision import AreaType, select_gateways
from smartfog.errors import ChurnRejectedError
from smartfog.harness import ExperimentConfig, run_experiment, run_smartfog_pipeline
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
from smartfog.pareto import Sense, non_dominated_sort
from smartfog.simulation import Mode, WorkloadSpec, run

from oracles import (
    adjusted_rand_index,
    bipartition_best_cost,
    event_loop_run,
    laplacian_eigensystem,
    oracle_betweenness,
    oracle_fronts,
    planted_overlay,
    tied_overlay,
)
from test_simulation import TIES_SPEC

#: the gateway decision's senses: betweenness and MIPS maximized, cloud latency minimized
DECISION_SENSES = (Sense.MAXIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE)


def verdict(capsys, ok, line):
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def test_betweenness_matches_exhaustive_oracle(capsys):
    started = time.perf_counter()
    failures = []
    for i in range(200):
        n = 2 + i % 11  # sizes 2..12
        overlay = build_overlay(n, seed=9000 + i)
        exact = betweenness(overlay, CentralityMode.UNWEIGHTED).scores
        if exact != oracle_betweenness(overlay, weighted=False):
            failures.append((i, "unweighted"))
        weighted = betweenness(overlay, CentralityMode.WEIGHTED_BY_LATENCY).scores
        if weighted != oracle_betweenness(overlay, weighted=True):
            failures.append((i, "weighted"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    verdict(
        capsys,
        ok,
        "betweenness matches the exhaustive path-enumeration oracle on 200 graphs "
        f"(exact in both modes) in {elapsed:.1f}s"
        + (f"; mismatches: {failures[:3]}" if failures else ""),
    )


def test_front_partition_matches_peeling_oracle(capsys):
    rng = np.random.default_rng(31)
    sense_patterns = [
        DECISION_SENSES,
        (Sense.MINIMIZE, Sense.MAXIMIZE, Sense.MINIMIZE),
        (Sense.MAXIMIZE, Sense.MINIMIZE, Sense.MINIMIZE),
    ]
    started = time.perf_counter()
    failures = 0
    for i in range(100):
        n = int(rng.integers(1, 201))
        senses = sense_patterns[i % len(sense_patterns)]
        if i % 2 == 0:
            values = rng.uniform(-10, 10, size=(n, 3))
        else:  # heavy ties and duplicate rows
            values = rng.integers(0, 5, size=(n, 3)).astype(float)
        got = [list(front) for front in non_dominated_sort(values, senses)]
        expected = [
            sorted(front)
            for front in oracle_fronts(
                values, np.array([s is Sense.MINIMIZE for s in senses])
            )
        ]
        if got != expected:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 5.0
    verdict(
        capsys,
        ok,
        "non-dominated sorting equals the domination-matrix peeling oracle on "
        f"100 instances (up to 200 points, mixed senses) in {elapsed:.1f}s"
        + (f"; {failures} mismatching instances" if failures else ""),
    )


def test_kmeans_reaches_exhaustive_bipartition_optimum(capsys):
    rng = np.random.default_rng(7)
    hits = 0
    sane = True
    for trial in range(100):
        n = int(rng.integers(4, 9))
        points = rng.normal(size=(n, 2))
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        points = np.where(norms > 0, points / norms, points)  # embedding-like rows
        cost = kmeans_cost(points, k_means(points, 2, [trial], n_init=10)[0])
        best = bipartition_best_cost(points)
        if cost < best - 1e-9:  # impossible unless the oracle is broken
            sane = False
        if cost <= best + 1e-9:
            hits += 1
    ok = hits >= 95 and sane
    verdict(
        capsys,
        ok,
        f"seeded 10-restart k-means hit the exhaustive 2-partition optimum in {hits}/100 "
        "unit-row point sets (required >= 95, tolerance 1e-9)"
        + ("" if sane else "; oracle sanity violated"),
    )


def test_eigensolver_residuals_spectrum_and_multiplicity(capsys):
    rng = np.random.default_rng(13)
    worst_residual = 0.0
    spectrum_ok = True
    for _ in range(40):
        n = int(rng.integers(2, 17))
        feats_values = rng.normal(size=(n, 2))
        from smartfog.clustering import FeatureMatrix

        feats = FeatureMatrix(
            device_ids=tuple(range(n)), values=feats_values, raw=feats_values.copy()
        )
        sim = similarity_matrix(feats, bandwidth=1.0)
        vals, vecs = laplacian_eigensystem(sim)
        degrees = sim.values.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(degrees)
        lap = np.eye(n) - sim.values * inv_sqrt[:, None] * inv_sqrt[None, :]
        lap = (lap + lap.T) / 2.0
        worst_residual = max(
            worst_residual, float(np.abs(lap @ vecs - vecs * vals).max())
        )
        if vals[0] < -1e-8 or vals[-1] > 2.0 + 1e-8:
            spectrum_ok = False

    multiplicity_ok = True
    for blocks in (2, 3):
        size = 3
        n = blocks * size
        s = np.zeros((n, n))
        for b in range(blocks):
            s[b * size : (b + 1) * size, b * size : (b + 1) * size] = 1.0
        vals, _ = laplacian_eigensystem(s)
        if int(np.sum(np.abs(vals) <= 1e-8)) != blocks:
            multiplicity_ok = False

    ok = worst_residual <= 1e-8 and spectrum_ok and multiplicity_ok
    verdict(
        capsys,
        ok,
        f"eigensystem: max residual {worst_residual:.2e} (<= 1e-8), Laplacian "
        "spectrum within [0, 2] +- 1e-8, zero-eigenvalue multiplicity equals block count",
    )


def test_planted_two_population_recovery(capsys):
    recovered = 0
    for seed in range(50):
        overlay, truth = planted_overlay(10, seed=seed)
        feats = device_features(overlay.devices)
        emb = spectral_embed(similarity_matrix(feats), 2)
        [labels] = k_means(emb, 2, [seed])
        if adjusted_rand_index([int(x) for x in labels], truth) >= 0.9:
            recovered += 1
    ok = recovered >= 45
    verdict(
        capsys,
        ok,
        f"spectral pipeline recovered planted populations (ARI >= 0.9) in {recovered}/50 "
        "seeds (required >= 45, +-5% feature noise)",
    )


def test_full_sweep_latency_and_load_trends(capsys, tmp_path):
    config = ExperimentConfig(out_dir=str(tmp_path / "sweep"))
    started = time.perf_counter()
    results_path, _ = run_experiment(config)
    elapsed = time.perf_counter() - started

    cells: dict[tuple[str, int], list[dict]] = {}
    with open(results_path, newline="") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault((row["mode"], int(row["n_devices"])), []).append(row)

    details = []
    trend_ok = True
    for size in config.sizes:
        smart = cells[("smartfog", size)]
        base = cells[("unoptimized", size)]
        if len(smart) != config.replications or len(base) != config.replications:
            trend_ok = False
        smart_spa = statistics.median(float(r["spa_median_ms"]) for r in smart)
        base_spa = statistics.median(float(r["spa_median_ms"]) for r in base)
        smart_load = statistics.median(int(r["network_load_bytes"]) for r in smart)
        base_load = statistics.median(int(r["network_load_bytes"]) for r in base)
        reduction = 1.0 - smart_load / base_load
        if not (smart_spa <= base_spa and 0.0 < reduction <= 0.25):
            trend_ok = False
        details.append(
            f"n={size}: SPA {smart_spa:.0f}ms vs {base_spa:.0f}ms, load -{reduction:.1%}"
        )
    ok = trend_ok and elapsed < 300.0
    verdict(
        capsys,
        ok,
        "smartfog SPA medians <= baseline and load reduction in (0%, 25%] at every "
        f"size over 100 seeds ({'; '.join(details)}) in {elapsed:.0f}s",
    )


def test_pipeline_stage_timing_shape(capsys, tmp_path):
    # One worker, so each clock reads a process doing nothing else.
    config = ExperimentConfig(
        sizes=(20, 30, 40),
        modes=(Mode.SMARTFOG,),
        replications=30,
        out_dir=str(tmp_path / "timing"),
        jobs=1,
    )
    run_experiment(config)
    summary_path = tmp_path / "timing" / "timing_summary.csv"
    with summary_path.open(newline="") as fh:
        medians = {int(row["n_devices"]): row for row in csv.DictReader(fh)}
    betw = [float(medians[size]["betweenness_median_ms"]) for size in (20, 30, 40)]
    sort_decide_at_40 = float(medians[40]["sorting_decision_median_ms"])
    monotone = betw[0] <= betw[1] <= betw[2]
    ok = monotone and sort_decide_at_40 < 20.0
    verdict(
        capsys,
        ok,
        "stage timing: betweenness medians non-decreasing over sizes "
        f"({betw[0]:.2f} <= {betw[1]:.2f} <= {betw[2]:.2f} ms) and sorting+decision "
        f"median at n=40 is {sort_decide_at_40:.2f} ms (< 20 ms)",
    )


def test_every_operation_serializes_byte_identically(capsys, tmp_path):
    mismatches = []

    def check(name, produce):
        if produce() != produce():
            mismatches.append(name)

    overlay = build_overlay(14, seed=77)
    check("overlay", lambda: build_overlay(14, seed=77).to_json())
    for mode in CentralityMode:
        check(
            f"betweenness-{mode.value}",
            lambda m=mode: json.dumps(betweenness(overlay, m).scores, sort_keys=True),
        )
    table = np.array([(i % 5, i % 3, i % 7) for i in range(40)], dtype=float)
    check(
        "fronts",
        lambda: json.dumps([list(f) for f in non_dominated_sort(table, DECISION_SENSES)]),
    )
    scores = betweenness(overlay)
    area_profiles = (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED)
    check(
        "selection",
        lambda: json.dumps(
            select_gateways(overlay, area_profiles, scores).to_json_obj(), sort_keys=True
        ),
    )
    assignment = select_gateways(overlay, area_profiles, scores)
    from smartfog.clustering import areas_to_json

    check(
        "clustering",
        lambda: areas_to_json(cluster_functional_areas(overlay, assignment, k=2, seed=77)),
    )
    workload = WorkloadSpec(duration_s=40.0, spa_interval_s=8.0, pc_interval_s=10.0)
    functional = cluster_functional_areas(overlay, assignment, k=2, seed=77)
    check(
        "simulation-smartfog",
        lambda: run(
            overlay, Mode.SMARTFOG, workload, 77, assignment=assignment, areas=functional
        ).to_json(),
    )
    check(
        "simulation-unoptimized",
        lambda: run(overlay, Mode.UNOPTIMIZED, workload, 77).to_json(),
    )

    def sweep_bytes(tag):
        config = ExperimentConfig(
            sizes=(6,),
            replications=2,
            seed_base=5,
            out_dir=str(tmp_path / tag),
            jobs=2,
            workload=workload,
        )
        results, summary = run_experiment(config)
        return results.read_bytes() + summary.read_bytes()

    if sweep_bytes("x") != sweep_bytes("y"):
        mismatches.append("experiment-sweep")

    ok = not mismatches
    verdict(
        capsys,
        ok,
        "repeated runs of every top-level operation serialized byte-identically "
        "(overlay, centrality, fronts, selection, clustering, both simulation modes, "
        "parallel sweep)" + (f"; diverged: {mismatches}" if mismatches else ""),
    )


def test_simulation_matches_event_heap_oracle(capsys):
    """The per-server simulation against the global event-heap loop it
    replaced, over a fixed grid of sizes, seeds, workloads and overlays, both
    modes.  The oracle sorts its delay samples by (C, emission index), so the
    cases whose samples tie on C check the model's tie rule.  Overlays as built
    have random-float times; the rewritten ones have whole-millisecond times
    at link scales of 1 ms and 1 s, which together with the tie and saturated
    workloads make simultaneous events common.
    """
    saturated = WorkloadSpec(
        duration_s=120.0,
        warmup_s=0.0,
        jitter=0.0,
        spa_interval_s=2.0,
        pc_interval_s=2.0,
        spa_mips_range=(2000.0, 2000.0),
        pc_mips_range=(44800.0, 44800.0),
        access_ms=(1.0, 1.0),
    )
    cases = ties = 0
    mismatches = []
    for n in (6, 12, 20, 40):
        for seed in (1000, 1001):
            built = build_overlay(n, seed)
            for unit_ms in (None, 1.0, 1000.0):
                overlay = built
                if unit_ms is not None:
                    overlay = tied_overlay(built, random.Random(seed), unit_ms)
                assignment, areas, _, _ = run_smartfog_pipeline(
                    overlay, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, seed
                )
                for workload in (WorkloadSpec(), TIES_SPEC, saturated):
                    for mode, kwargs in (
                        (Mode.SMARTFOG, {"assignment": assignment, "areas": areas}),
                        (Mode.UNOPTIMIZED, {}),
                    ):
                        report = run(overlay, mode, workload, seed, **kwargs)
                        oracle = event_loop_run(overlay, mode, workload, seed, **kwargs)
                        cases += 1
                        delays = report.spa_delays_ms + report.pc_delays_ms
                        ties += len(set(delays)) < len(delays)
                        if report.to_json() != oracle.to_json():
                            mismatches.append((n, seed, unit_ms, mode.value))
    verdict(
        capsys,
        not mismatches,
        f"simulation equals the event-heap oracle byte for byte on {cases} cases "
        f"({ties} with exact delay ties)" + (f"; differ: {mismatches}" if mismatches else ""),
    )


def test_generative_invariant_suites(capsys):
    """Four 1000-case seeded property suites, mirrored as hypothesis suites in
    the module tests: order-preserving objective transforms, MIPS-scaling
    selection invariance, simulation conservation, churn connectivity.
    """
    def transform_suite():
        transforms = [
            lambda x: 3.0 * x + 7.0,
            lambda x: x**3,
            lambda x: float(np.arctan(x)),
            lambda x: float(np.expm1(x / 100.0)),
        ]
        rng = random.Random(424242)
        for case in range(1000):
            n = rng.randint(1, 25)
            values = [
                tuple(rng.randint(-1000, 1000) / 8.0 for _ in range(3))
                for _ in range(n)
            ]
            maps = [rng.choice(transforms) for _ in range(3)]
            mapped = [tuple(m(x) for m, x in zip(maps, v)) for v in values]
            assert non_dominated_sort(values, DECISION_SENSES) == non_dominated_sort(
                mapped, DECISION_SENSES
            ), f"transform invariance broke at case {case}"

    def scaling_suite():
        rng = random.Random(515151)
        for case in range(1000):
            n = rng.randint(2, 10)
            overlay = build_overlay(n, seed=rng.randrange(1 << 30))
            factor = rng.choice([0.25, 0.5, 2.0, 8.0])
            scaled = FogOverlay(
                devices=tuple(
                    FogDevice(
                        id=d.id,
                        mips=d.mips * factor,
                        memory_gb=d.memory_gb,
                        storage_gb=d.storage_gb,
                        arch=d.arch,
                    )
                    for d in overlay.devices
                ),
                links=overlay.links,
                cloud_latency_ms=overlay.cloud_latency_ms,
            )
            areas = [
                rng.choice(list(AreaType)) for _ in range(rng.randint(1, min(2, n)))
            ]
            scores = betweenness(overlay)
            assert select_gateways(overlay, areas, scores) == select_gateways(
                scaled, areas, scores
            ), f"MIPS-scaling invariance broke at case {case}"

    def conservation_suite():
        rng = random.Random(616161)
        for case in range(1000):
            n = rng.randint(2, 5)
            seed = rng.randrange(1 << 30)
            overlay = build_overlay(n, seed)
            workload = WorkloadSpec(
                duration_s=float(rng.randint(5, 25)),
                warmup_s=0.0,
                n_sensors=rng.randint(1, 3),
                spa_interval_s=float(rng.randint(1, 6)),
                pc_interval_s=float(rng.randint(1, 6)),
            )
            assignment = functional = None
            mode = Mode.UNOPTIMIZED
            if n >= 4 and rng.random() < 0.3:
                mode = Mode.SMARTFOG
                assignment, functional, _, _ = run_smartfog_pipeline(
                    overlay,
                    (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED),
                    2,
                    None,
                    seed,
                )
            report = run(
                overlay, mode, workload, seed, assignment=assignment, areas=functional
            )
            for kind in ("spa", "pc"):
                balance = (
                    report.completed[kind]
                    + report.dropped[kind]
                    + report.in_flight[kind]
                )
                assert report.emitted[kind] == balance and report.in_flight[kind] >= 0, (
                    f"conservation broke at case {case} ({kind})"
                )

    def churn_suite():
        rng = random.Random(717171)
        for case in range(1000):
            n = rng.randint(2, 8)
            overlay = build_overlay(n, seed=rng.randrange(1 << 30))
            next_id = n
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    ids = sorted(overlay.device_ids)
                    targets = rng.sample(ids, k=min(len(ids), rng.randint(1, 3)))
                    event = Join(
                        device=FogDevice(
                            id=next_id,
                            mips=1000.0,
                            memory_gb=2.0,
                            storage_gb=16.0,
                            arch=Arch.ARM,
                        ),
                        links=tuple((t, 5.0) for t in targets),
                        cloud_latency_ms=rng.choice([None, 60.0]),
                    )
                    next_id += 1
                else:
                    event = Leave(device_id=rng.choice(sorted(overlay.device_ids)))
                try:
                    overlay = apply_churn(overlay, event)
                except ChurnRejectedError:
                    continue
                assert overlay.is_connected() and overlay.cloud_latency_ms, (
                    f"churn connectivity broke at case {case}"
                )

    failure = None
    try:
        transform_suite()
        scaling_suite()
        conservation_suite()
        churn_suite()
    except AssertionError as exc:
        failure = str(exc)
    verdict(
        capsys,
        failure is None,
        "generative invariants held for 1000 cases each: objective-transform front "
        "invariance, MIPS-scaling selection invariance, tuple conservation, "
        "churn connectivity" + (f"; {failure}" if failure else ""),
    )
