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
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # The bound rejects NaN, infinities and ints too large to become a float.
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _or_null(kind):
    expected, accepts, convert = kind
    return (
        f"{expected} or null",
        lambda v: v is None or accepts(v),
        lambda v: None if v is None else convert(v),
    )


def _list_of(expected: str, item, arity: int | None = None):
    _, accepts, convert = item
    return (
        expected,
        lambda v: isinstance(v, (list, tuple))
        and (arity is None or len(v) == arity)
        and all(map(accepts, v)),
        lambda v: tuple(map(convert, v)),
    )


def _enum(enum):
    values = tuple(member.value for member in enum)
    return (f"one of {', '.join(values)}", lambda v: isinstance(v, str) and v in values, enum)


_INT = ("an integer", _is_int, int)
_NUMBER = ("a number", _is_number, float)
_MODE = _enum(Mode)
_AREA = _enum(AreaType)

#: ``(expected, accepts, convert)`` for a config value, by its field annotation.
#: Ints are strict: bools, floats and numeric strings are refused, not truncated.
_KINDS = {
    "int": _INT,
    "float": _NUMBER,
    "str": ("a string", lambda v: isinstance(v, str), str),
    "int | None": _or_null(_INT),
    "float | None": _or_null(_NUMBER),
    "tuple[int, ...]": _list_of("a list of integers", _INT),
    "tuple[float, ...]": _list_of("a list of numbers", _NUMBER),
    "tuple[float, float]": _list_of("a [low, high] pair of numbers", _NUMBER, arity=2),
    "tuple[Mode, ...]": _list_of(f"a list of modes, each {_MODE[0]}", _MODE),
    "tuple[AreaType, ...]": _list_of(f"a list of area types, each {_AREA[0]}", _AREA),
    "CentralityMode": _enum(CentralityMode),
}

#: Annotations that are nested JSON objects, built field by field like the config.
_SECTIONS = {"WorkloadSpec": WorkloadSpec, "OverlayParams": OverlayParams}

#: JSON keys that differ from their field name.
_JSON_KEYS = {"overlay_params": "overlay"}


def _build(cls, doc, section: str | None = None):
    """``cls`` built from a JSON object, each entry coerced by its field annotation.

    Fields missing from ``doc`` keep their defaults; unknown keys and values
    of the wrong type raise a ConfigurationError naming the field.
    """
    label = section or "config"
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{label} must be an object, got {doc!r}")
    by_key = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    values = {}
    for key, value in doc.items():
        if key not in by_key:
            raise ConfigurationError(f"unknown {label} field: {key}")
        name = f"{section}.{key}" if section else key
        annotation = by_key[key].type
        if annotation in _SECTIONS:
            value = _build(_SECTIONS[annotation], value, name)
        else:
            expected, accepts, convert = _KINDS[annotation]
            if not accepts(value):
                raise ConfigurationError(f"{name} must be {expected}, got {value!r}")
            value = convert(value)
        values[by_key[key].name] = value
    return cls(**values)


def read_config_file(path: str | Path) -> dict:
    """The JSON object held in ``path``; ConfigurationError if unreadable or not an object."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return doc


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
        for name in ("sizes", "modes", "areas"):
            values = [getattr(v, "value", v) for v in getattr(self, name)]
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} entries must be distinct, got {values}")
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
        config = _build(cls, doc)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))


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
