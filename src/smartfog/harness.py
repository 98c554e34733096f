"""Experiment harness: seeded sweeps over sizes and modes, CSV outputs, timings.

Replication r of any cell uses seed ``seed_base + r``; the same seed drives
overlay generation, the selection/clustering pipeline and the simulation, so
both modes of a replication see the same overlay and workload.  Result rows
are emitted in (size, mode, replication) order regardless of how the worker
pool schedules them, and reruns with identical config produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .centrality import CentralityMode, CentralityScores, betweenness
from .clustering import FunctionalArea, cluster_functional_areas
from .decision import AreaType, GatewayAssignment, evaluate_devices, select_gateways
from .errors import ConfigurationError
from .overlay import FogOverlay, OverlayParams, build_overlay
from .simulation import Mode, WorkloadSpec, run

log = logging.getLogger(__name__)

RESULT_COLUMNS = (
    "mode",
    "n_devices",
    "seed",
    "spa_median_ms",
    "spa_stddev",
    "pc_median_ms",
    "pc_stddev",
    "network_load_bytes",
    "completed",
    "dropped",
)

TIMING_COLUMNS = (
    "n_devices",
    "seed",
    "betweenness_ms",
    "sorting_decision_ms",
    "clustering_ms",
)


def _convert(field_name: str, convert, value):
    """``convert(value)``, with a failure reported as a ConfigurationError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{field_name}: invalid value {value!r}") from exc


def _convert_list(field_name: str, convert, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{field_name} must be a list, got {value!r}")
    return tuple(_convert(field_name, convert, v) for v in value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_list_of_numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


#: What a ``workload``/``overlay`` entry must hold, by its field annotation.
_SECTION_KINDS = {
    "float": ("a number", _is_number),
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "tuple[float, float]": (
        "a [low, high] pair of numbers",
        lambda v: _is_list_of_numbers(v) and len(v) == 2,
    ),
    "tuple[float, ...]": ("a list of numbers", _is_list_of_numbers),
}


def _set_section(target, section: str, doc) -> None:
    """Apply a ``workload``/``overlay`` JSON object to its dataclass, checking each entry."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{section} must be an object, got {doc!r}")
    fields = target.__dataclass_fields__
    for name, value in doc.items():
        if name not in fields:
            raise ConfigurationError(f"unknown {section} field: {name}")
        expected, accepts = _SECTION_KINDS[fields[name].type]
        if not accepts(value):
            raise ConfigurationError(f"{section}.{name} must be {expected}, got {value!r}")
        setattr(target, name, tuple(value) if isinstance(value, list) else value)


@dataclass
class ExperimentConfig:
    """Full description of a sweep; JSON-loadable with flag overrides."""

    sizes: tuple[int, ...] = (20, 30, 40)
    modes: tuple[Mode, ...] = (Mode.SMARTFOG, Mode.UNOPTIMIZED)
    replications: int = 100
    seed_base: int = 1000
    areas: tuple[AreaType, ...] = (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED)
    k: int = 2
    bandwidth: float | None = None
    centrality_mode: CentralityMode = CentralityMode.WEIGHTED_BY_LATENCY
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    overlay_params: OverlayParams = field(default_factory=OverlayParams)
    out_dir: str = "results"
    jobs: int | None = None

    def validate(self) -> None:
        if not self.sizes:
            raise ConfigurationError("sizes must not be empty")
        for n in self.sizes:
            if n < 2:
                raise ConfigurationError(f"sizes entries must be >= 2, got {n}")
        if not self.modes:
            raise ConfigurationError("modes must not be empty")
        if self.replications < 1:
            raise ConfigurationError(f"replications must be >= 1, got {self.replications}")
        if not self.areas:
            raise ConfigurationError("areas must not be empty")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        self.workload.validate()
        self.overlay_params.validate()

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        config = cls()
        for key, value in doc.items():
            if key == "sizes":
                config.sizes = _convert_list(key, int, value)
            elif key == "modes":
                config.modes = _convert_list(key, Mode, value)
            elif key == "replications":
                config.replications = _convert(key, int, value)
            elif key == "seed_base":
                config.seed_base = _convert(key, int, value)
            elif key == "areas":
                config.areas = _convert_list(key, AreaType, value)
            elif key == "k":
                config.k = _convert(key, int, value)
            elif key == "bandwidth":
                config.bandwidth = None if value is None else _convert(key, float, value)
            elif key == "centrality_mode":
                config.centrality_mode = _convert(key, CentralityMode, value)
            elif key == "out_dir":
                config.out_dir = str(value)
            elif key == "jobs":
                config.jobs = None if value is None else _convert(key, int, value)
            elif key == "workload":
                _set_section(config.workload, key, value)
            elif key == "overlay":
                _set_section(config.overlay_params, key, value)
            else:
                raise ConfigurationError(f"unknown config field: {key}")
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        return cls.from_dict(doc)


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock milliseconds per pipeline stage for one replication."""

    betweenness_ms: float
    sorting_decision_ms: float
    clustering_ms: float


def run_smartfog_pipeline(
    overlay: FogOverlay,
    areas: Sequence[AreaType],
    k: int,
    bandwidth: float | None,
    seed: int,
    centrality_mode: CentralityMode = CentralityMode.WEIGHTED_BY_LATENCY,
) -> tuple[GatewayAssignment, list[FunctionalArea], StageTimings, CentralityScores]:
    """Centrality -> evaluation -> selection -> clustering, each stage timed.

    Objective evaluation (per-device cloud latencies) is preparation and is
    deliberately excluded from the sorting/decision stage time.
    """
    t0 = time.perf_counter()
    scores = betweenness(overlay, centrality_mode)
    t1 = time.perf_counter()
    evaluations = evaluate_devices(overlay, scores)
    t2 = time.perf_counter()
    assignment = select_gateways(overlay, areas, scores, evaluations=evaluations)
    t3 = time.perf_counter()
    functional_areas = cluster_functional_areas(
        overlay, assignment, k=k, bandwidth=bandwidth, seed=seed
    )
    t4 = time.perf_counter()
    timings = StageTimings(
        betweenness_ms=(t1 - t0) * 1000.0,
        sorting_decision_ms=(t3 - t2) * 1000.0,
        clustering_ms=(t4 - t3) * 1000.0,
    )
    return assignment, functional_areas, timings, scores


def _delay_stats(delays: Sequence[float]) -> tuple[float, float]:
    if not delays:
        return (math.nan, math.nan)
    median = statistics.median(delays)
    stddev = statistics.stdev(delays) if len(delays) > 1 else 0.0
    return (median, stddev)


def _experiment_cell(args: tuple) -> dict:
    config, size, mode, rep = args
    seed = config.seed_base + rep
    overlay = build_overlay(size, seed, config.overlay_params)
    assignment = None
    areas = None
    if mode is Mode.SMARTFOG:
        assignment, areas, _, _ = run_smartfog_pipeline(
            overlay, config.areas, config.k, config.bandwidth, seed, config.centrality_mode
        )
    report = run(overlay, mode, config.workload, seed, assignment=assignment, areas=areas)
    spa_median, spa_stddev = _delay_stats(report.spa_delays_ms)
    pc_median, pc_stddev = _delay_stats(report.pc_delays_ms)
    return {
        "mode": mode.value,
        "n_devices": size,
        "seed": seed,
        "spa_median_ms": spa_median,
        "spa_stddev": spa_stddev,
        "pc_median_ms": pc_median,
        "pc_stddev": pc_stddev,
        "network_load_bytes": report.network_load_bytes,
        "completed": report.total_completed,
        "dropped": report.total_dropped,
    }


def run_experiment(config: ExperimentConfig) -> tuple[Path, Path]:
    """Run the sweep, write results.csv and summary.csv, return their paths."""
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (config, size, mode, rep)
        for size in config.sizes
        for mode in config.modes
        for rep in range(config.replications)
    ]
    jobs = config.jobs if config.jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(tasks))
    log.info("running %d cells with %d worker(s)", len(tasks), jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(tasks) // (jobs * 4))
            rows = list(pool.map(_experiment_cell, tasks, chunksize=chunk))
    else:
        rows = [_experiment_cell(task) for task in tasks]

    results_path = out_dir / "results.csv"
    with results_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary_path = out_dir / "summary.csv"
    write_summary(rows, summary_path)
    return results_path, summary_path


def summarize(rows: Sequence[dict]) -> list[dict]:
    """Per (mode, size) cell: median and stddev over replications."""
    cells: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        cells.setdefault((row["mode"], row["n_devices"]), []).append(row)
    out = []
    for (mode, size), cell_rows in sorted(cells.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        spa = [r["spa_median_ms"] for r in cell_rows if not math.isnan(r["spa_median_ms"])]
        pc = [r["pc_median_ms"] for r in cell_rows if not math.isnan(r["pc_median_ms"])]
        load = [r["network_load_bytes"] for r in cell_rows]
        out.append(
            {
                "mode": mode,
                "n_devices": size,
                "replications": len(cell_rows),
                "spa_median_ms": statistics.median(spa) if spa else math.nan,
                "spa_stddev": statistics.stdev(spa) if len(spa) > 1 else 0.0,
                "pc_median_ms": statistics.median(pc) if pc else math.nan,
                "pc_stddev": statistics.stdev(pc) if len(pc) > 1 else 0.0,
                "network_load_median_bytes": statistics.median(load),
                "network_load_stddev": statistics.stdev(load) if len(load) > 1 else 0.0,
                "completed_total": sum(r["completed"] for r in cell_rows),
                "dropped_total": sum(r["dropped"] for r in cell_rows),
            }
        )
    return out


def write_summary(rows: Sequence[dict], path: Path) -> None:
    summary = summarize(rows)
    columns = (
        "mode",
        "n_devices",
        "replications",
        "spa_median_ms",
        "spa_stddev",
        "pc_median_ms",
        "pc_stddev",
        "network_load_median_bytes",
        "network_load_stddev",
        "completed_total",
        "dropped_total",
    )
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(summary)


def timing_report(config: ExperimentConfig) -> tuple[Path, Path]:
    """Benchmark pipeline stages per size; serial execution for stable clocks.

    Writes timing.csv (one row per replication) and timing_summary.csv
    (median and stddev per stage per size); returns both paths.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for size in config.sizes:
        for rep in range(config.replications):
            seed = config.seed_base + rep
            overlay = build_overlay(size, seed, config.overlay_params)
            _, _, timings, _ = run_smartfog_pipeline(
                overlay, config.areas, config.k, config.bandwidth, seed, config.centrality_mode
            )
            rows.append(
                {
                    "n_devices": size,
                    "seed": seed,
                    "betweenness_ms": timings.betweenness_ms,
                    "sorting_decision_ms": timings.sorting_decision_ms,
                    "clustering_ms": timings.clustering_ms,
                }
            )
    timing_path = out_dir / "timing.csv"
    with timing_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TIMING_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary_rows = []
    for size in config.sizes:
        cell = [r for r in rows if r["n_devices"] == size]
        entry = {"n_devices": size, "replications": len(cell)}
        for stage in ("betweenness_ms", "sorting_decision_ms", "clustering_ms"):
            values = [r[stage] for r in cell]
            entry[f"{stage[:-3]}_median_ms"] = statistics.median(values)
            entry[f"{stage[:-3]}_stddev"] = statistics.stdev(values) if len(values) > 1 else 0.0
        summary_rows.append(entry)
    summary_path = out_dir / "timing_summary.csv"
    with summary_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(summary_rows)
    return timing_path, summary_path


def timing_medians(timing_path: Path) -> dict[int, dict[str, float]]:
    """Parse timing.csv back into per-size stage medians (test convenience)."""
    by_size: dict[int, dict[str, list[float]]] = {}
    with Path(timing_path).open() as fh:
        for row in csv.DictReader(fh):
            size = int(row["n_devices"])
            cell = by_size.setdefault(size, {})
            for stage in ("betweenness_ms", "sorting_decision_ms", "clustering_ms"):
                cell.setdefault(stage, []).append(float(row[stage]))
    return {
        size: {stage: statistics.median(vals) for stage, vals in cell.items()}
        for size, cell in by_size.items()
    }
