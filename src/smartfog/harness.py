"""Experiment harness: seeded sweeps over sizes and modes, CSV outputs, timings.

The unit of work is one replicate: a size and replication r, whose seed
``seed_base + r`` drives overlay generation, the selection/clustering pipeline
and the simulation.  Every configured mode of a replicate runs on one overlay
object, back to back under one seed, so the modes share its workload, its
cached path table and one emission schedule, and the pipeline runs once.  Weighted centrality fills that table from its own
searches; after unweighted centrality the first simulation builds it.
Result rows are emitted in (size, mode, replication) order, so results.csv
is the same bytes at any ``jobs``, and reruns with identical config produce
byte-identical files, on any Python version: the CSV medians and sample
stddevs are exact.
The pipeline's stage timings ride along with each replicate's rows into
timing.csv, so no second loop rebuilds an overlay to time it; clocks read in
child processes are noisier, so stable timings need ``jobs=1``.

``jobs`` counts the processes that compute, the caller included.  The
replicates are dealt into ``jobs`` strided shares, share i holding every
``jobs``-th replicate from the i-th: the caller runs share 0 itself and
``jobs - 1`` children run the rest, each sending its rows back in one message
on a pipe of its own.  A sweep of a dozen replicates is over in tens of
milliseconds, and a process pool's fixed cost (executor threads, a call queue,
a message per task) outweighed the second core there, so ``--jobs 2`` lost to
``--jobs 1``; a child per share has no executor and no per-task messages, and
``jobs=1`` is the same code with no child.  If any share fails, every child
still running is terminated before any is joined, and no child outlives the
sweep.

Every replicate runs at one OpenBLAS thread, at any ``jobs``, and the caller's
count is restored afterwards.  Child processes would otherwise each run
OpenBLAS's helper threads beside them, and the spectral eigensolve's bytes
could depend on the thread count, so results.csv would depend on ``jobs`` and
on the host.  On Linux the children are forked, named explicitly because
Python 3.14 defaults to ``forkserver``.  They inherit the count and leave it
alone, since setting it in a forked child starts an OpenBLAS helper thread
that spins beside the caller's share.  They start warm: ``import smartfog``
already loads every module a replicate uses, so no child imports one during
its first replicate.  Elsewhere the platform's default start method applies.

The frozen config objects check and convert every value by its annotation when
built, in code or by ``ExperimentConfig.from_dict``, which only maps JSON keys.
"""

from __future__ import annotations

import csv
import ctypes
import json
import logging
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from .centrality import CentralityMode, CentralityScores, betweenness
from .clustering import FunctionalArea, cluster_functional_areas
from .decision import AreaType, GatewayAssignment, select_gateways
from .errors import ConfigurationError, ContractError, _convert, _convert_fields, _convert_int
from .errors import _field_hints
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

SUMMARY_COLUMNS = (
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

TIMING_COLUMNS = (
    "n_devices",
    "seed",
    "betweenness_ms",
    "sorting_decision_ms",
    "clustering_ms",
)


#: JSON keys that differ from their field name.
_JSON_KEYS = {"overlay_params": "overlay"}


def _build(cls, doc, section: str | None = None):
    """``cls`` built from a JSON object, with nested objects built the same way.

    Missing fields keep their defaults and unknown keys raise a
    ConfigurationError naming the field; ``cls`` checks the values.
    """
    label = section or "config"
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{label} must be an object, got {doc!r}")
    hints = _field_hints(cls)
    by_key = {_JSON_KEYS.get(name, name): name for name in hints}
    values = {}
    for key, value in doc.items():
        if key not in by_key:
            raise ConfigurationError(f"unknown {label} field: {key}")
        name = by_key[key]
        values[name] = _build(hints[name], value, key) if is_dataclass(hints[name]) else value
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise exc if section is None else ConfigurationError(f"{section}.{exc}") from None


def read_config_file(path: str | Path) -> dict:
    """The JSON object held in ``path``; ConfigurationError if unreadable or not an object."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return doc


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a sweep, checked at construction; JSON-loadable with flag overrides."""

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

    def __post_init__(self):
        _convert_fields(self)
        for name in ("sizes", "modes", "areas"):
            values = [getattr(v, "value", v) for v in getattr(self, name)]
            if not values:
                raise ConfigurationError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} entries must be distinct, got {values}")
        _convert_int(min(self.sizes), "sizes entries", 2)
        _convert_int(self.replications, "replications", 1)
        _convert_int(self.seed_base, "seed_base", 0)
        _convert_int(self.k, "k", 1)
        if self.jobs is not None:
            _convert_int(self.jobs, "jobs", 1)
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {self.bandwidth}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return _build(cls, doc)


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
    """Centrality -> selection -> clustering, each stage timed.

    ``sorting_decision_ms`` holds reading the objective table, the sort and
    the picks; the cloud-latency search (``overlay.cloud_exit``) is left out.
    In weighted mode ``betweenness_ms`` includes the searches that fill ``overlay.path_table``.
    """
    t0 = time.perf_counter()
    scores = betweenness(overlay, centrality_mode)
    t1 = time.perf_counter()
    overlay.cloud_exit  # cached here, so the selection below only reads it
    t2 = time.perf_counter()
    assignment = select_gateways(overlay, areas, scores)
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


def _stats(name: str, unit: str, values: Sequence[float], empty_stddev: float = 0.0) -> dict:
    """``{name}_median_{unit}`` and ``{name}_stddev`` of ``values``.

    The stddev is the sample stddev, 0.0 for a single value; with no values
    the median is NaN and the stddev ``empty_stddev``.  An even count's
    median is the mean of the two middle values.
    """
    if not values:
        median, stddev = math.nan, empty_stddev
    else:
        ordered = sorted(values)
        mid = len(ordered) // 2
        median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        stddev = _stdev(values) if len(values) > 1 else 0.0
    return {f"{name}_median_{unit}": median, f"{name}_stddev": stddev}


def _stdev(values: Sequence[float]) -> float:
    """Sample stddev of two or more finite numbers, the double nearest the exact root.

    Over the largest denominator 2**e of the values, the variance is
    ``(n*S2 - S1**2) / (n*(n-1) * 4**e)`` in ints, S1 and S2 summing the
    numerators and their squares.  As in Python 3.11's ``statistics.stdev``
    (https://bugs.python.org/msg407078), the root is taken to 2*53 + 3 bits
    with round-to-odd, then rounded once.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    nums = [n * (scale // d) for n, d in ratios]
    count = len(nums)
    top = count * sum(x * x for x in nums) - sum(nums) ** 2
    bottom = count * (count - 1) * scale * scale
    q = (top.bit_length() - bottom.bit_length() - 109) // 2
    top, bottom = (top, bottom << 2 * q) if q >= 0 else (top << -2 * q, bottom)
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top
    return float(root << q) if q >= 0 else root / (1 << -q)


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def _replicate(config: ExperimentConfig, size: int, rep: int) -> tuple[list[dict], list[dict]]:
    """One result row per configured mode, in ``config.modes`` order, and the timing rows.

    Every mode runs on one overlay object, back to back under one seed, so
    all of them read one cached path table and one cached emission schedule.
    The smartfog pipeline runs only when smartfog is configured, and then its
    stage timings make the one timing row; otherwise there is none.
    """
    seed = config.seed_base + rep
    overlay = build_overlay(size, seed, config.overlay_params)
    organized, timing_rows = (None, None), []  # the unoptimized mode ignores (assignment, areas)
    if Mode.SMARTFOG in config.modes:
        *organized, timings, _ = run_smartfog_pipeline(
            overlay, config.areas, config.k, config.bandwidth, seed, config.centrality_mode
        )
        timing_rows = [{"n_devices": size, "seed": seed, **asdict(timings)}]
    rows = []
    for mode in config.modes:
        report = run(overlay, mode, config.workload, seed, *organized)
        rows.append(
            {
                "mode": mode.value,
                "n_devices": size,
                "seed": seed,
                **_stats("spa", "ms", report.spa_delays_ms, math.nan),
                **_stats("pc", "ms", report.pc_delays_ms, math.nan),
                "network_load_bytes": report.network_load_bytes,
                "completed": report.total_completed,
                "dropped": report.total_dropped,
            }
        )
    return rows, timing_rows


#: OpenBLAS's thread-count functions as numpy's wheels and other builds name
#: them, ``{}`` standing for ``get`` or ``set``.
_BLAS_THREAD_FUNCTIONS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@cache
def _blas_threads():
    """OpenBLAS's ``(get, set)`` thread-count functions as numpy links them, or None.

    dlsym on numpy's linalg extension searches the libraries it links too, so
    no library path is needed; a BLAS other than OpenBLAS resolves no name.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _BLAS_THREAD_FUNCTIONS:
        get = getattr(lib, name.format("get"), None)
        put = getattr(lib, name.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block at one OpenBLAS thread, then restore the caller's count.

    Processes forked inside the block inherit the count; without OpenBLAS,
    or at a count of one already, this does nothing.  The second case is a
    sweep's forked child: the fork stopped OpenBLAS's server, setting any
    count restarts it, and its idle helper thread spins for about 0.1 s of
    CPU, on the core the caller's share runs on.
    """
    threads = _blas_threads()
    count = threads[0]() if threads else 1
    if count == 1:
        yield
        return
    put = threads[1]
    put(1)
    try:
        yield
    finally:
        put(count)


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a child, chained as its cause."""


def _child_share(sender, replicate, share) -> None:
    """Run ``share`` in a child and send one message: ``(True, results)`` or ``(False, error)``.

    The error travels with its traceback text, which the caller chains to it.
    """
    try:
        with _one_blas_thread():
            message = True, [replicate(*task) for task in share]
    except Exception as exc:  # sent to the caller, which re-raises it
        message = False, (exc, traceback.format_exc())
    sender.send(message)


def _run_shares(replicate, tasks: list, jobs: int) -> list:
    """``replicate(*task)`` for every task, in order, computed by ``jobs`` processes.

    Share i is ``tasks[i::jobs]``.  The caller runs share 0; each other share
    runs in a child process, which sends its results back in one message on a
    one-way pipe.  The caller then receives the shares in order.  A child's
    exception is re-raised here with its traceback as the cause, and a child
    that exits without sending raises a RuntimeError naming its exit code.
    On any failure every child still running is terminated before any is
    joined, so a child blocked on a full pipe cannot hang the caller.
    """
    out = [None] * len(tasks)
    children = []
    try:
        if jobs > 1:
            # Imported here: only a sweep with children needs multiprocessing.
            import multiprocessing

            # Forked children inherit the BLAS thread count and every loaded module.
            context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
            for i in range(1, jobs):
                receiver, sender = context.Pipe(duplex=False)
                child = context.Process(
                    target=_child_share, args=(sender, replicate, tasks[i::jobs]), daemon=True
                )
                child.start()
                sender.close()  # the child holds the only write end, so its exit reads as EOF
                children.append((child, receiver))
        out[0::jobs] = [replicate(*task) for task in tasks[0::jobs]]
        for i, (child, receiver) in enumerate(children, 1):
            try:
                ok, payload = receiver.recv()
            except EOFError:
                child.join()  # its write end closed, so it has exited
                raise RuntimeError(
                    f"sweep child {i} exited with code {child.exitcode} before sending its share"
                ) from None
            if not ok:
                exc, remote = payload
                raise exc from _RemoteTraceback(remote)
            out[i::jobs] = payload
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> tuple[Path, Path]:
    """Run the sweep, write its four CSV files, return the results and summary paths.

    The unit of work is one replicate ``(size, seed)`` with all its modes.
    Beside results.csv and summary.csv go timing.csv, one row per smartfog
    replicate in (size, seed) order, and timing_summary.csv, one row per size;
    a sweep without smartfog writes them with no replicates.

    ``jobs`` processes compute, the caller included; by default one per CPU
    this process may use.  The (size, seed) replicates are dealt into
    ``jobs`` strided shares: the caller runs the first and ``jobs - 1``
    children the others (see ``_run_shares``), and the rows are put back in
    order, so every CSV is the same bytes at any ``jobs``.  No child is left
    running when this returns or raises.

    Replicates run at one OpenBLAS thread at any ``jobs``, so results.csv does
    not depend on ``jobs`` or on the host's cores, and the caller's thread
    count is restored on return or error.  The children inherit that count,
    and the caller's loaded modules, because on Linux they are forked.
    """
    config = _convert(ExperimentConfig, config, "config", ContractError)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = list(product(config.sizes, range(config.replications)))
    jobs = min(config.jobs or _usable_cpus(), len(tasks))
    log.info("running %d replicates in %d process(es)", len(tasks), jobs)
    with _one_blas_thread():
        replicates = _run_shares(partial(_replicate, config), tasks, jobs)
    results, timings = zip(*replicates)
    # Replicates come size-major; transpose each size's block to mode-major.
    per_size = config.replications
    rows = [
        row
        for start in range(0, len(results), per_size)
        for mode_rows in zip(*results[start : start + per_size])
        for row in mode_rows
    ]
    results_path = _write_csv(out_dir / "results.csv", RESULT_COLUMNS, rows)
    summary_path = _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, summarize(rows))
    timing_rows = [row for replicate_rows in timings for row in replicate_rows]
    _write_csv(out_dir / "timing.csv", TIMING_COLUMNS, timing_rows)
    timing_summary = []
    for size in config.sizes:
        cell = [row for row in timing_rows if row["n_devices"] == size]
        entry = {"n_devices": size, "replications": len(cell)}
        for stage in TIMING_COLUMNS[2:]:
            entry.update(_stats(stage.removesuffix("_ms"), "ms", [row[stage] for row in cell]))
        timing_summary.append(entry)
    _write_csv(out_dir / "timing_summary.csv", list(timing_summary[0]), timing_summary)
    return results_path, summary_path


def summarize(rows: Sequence[dict]) -> list[dict]:
    """Per (mode, size) cell: median and stddev over replications."""
    cells: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        cells.setdefault((row["mode"], row["n_devices"]), []).append(row)
    out = []
    for (mode, size), cell_rows in sorted(cells.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        entry = {"mode": mode, "n_devices": size, "replications": len(cell_rows)}
        for kind in ("spa", "pc"):
            medians = [r[f"{kind}_median_ms"] for r in cell_rows]
            entry.update(_stats(kind, "ms", [m for m in medians if not math.isnan(m)]))
        entry.update(_stats("network_load", "bytes", [r["network_load_bytes"] for r in cell_rows]))
        entry["completed_total"] = sum(r["completed"] for r in cell_rows)
        entry["dropped_total"] = sum(r["dropped"] for r in cell_rows)
        out.append(entry)
    return out
