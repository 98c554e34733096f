"""The benchmark's four workloads, driven through smartfog's public API.

A workload turns a seed into inputs (:meth:`Workload.prepare`) and then runs
numbered calls (:meth:`Workload.call`).  Each call is one timed unit and
covers ``cells_per_call`` cells:

* ``paper-sweep`` / ``sim-dense``: a cell is one seed that runs both modes
  (a paired replicate).
* ``organize-churn``: a cell is one accepted churn event plus a re-organize.
* ``sweep-parallel``: a cell is one harness row ``(size, mode, seed)``; one
  call is one ``run_experiment`` sweep of :data:`SWEEP_ROWS` rows.

Every call checks the invariants of its outputs and raises
:class:`CheckFailed` when one breaks, so the caller can count the cells as
failed.  The digest of a call hashes its outputs (``areas_to_json``, the
assignment JSON, ``SimulationReport.to_json`` or the ``results.csv`` bytes).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import smartfog as sf

AREAS = (sf.AreaType.COMPUTE_OPTIMIZED, sf.AreaType.MEMORY_OPTIMIZED)
K = 2
PAPER_SIZES = (20, 30, 40)
# Jacobi sweep counts differ between overlays (3.1-4.1 s per organize at
# n = 160 on six seeds), so a run averages over several independent churn
# streams, and n = 100 keeps ~20 cells in a 25 s run.
CHURN_SIZE = 100
CHURN_STREAMS = 8
DENSE_SIZE = 80
DENSE_OVERLAYS = 3
# The default WorkloadSpec saturates the cloud above n ~ 61 (n/2 sensors send
# 0.98 s of cloud work every 30 s).  With PC every 60 s the cloud stays below
# saturation at n = 80, so loop delays measure routing, not a runaway queue.
DENSE_SPEC = dict(duration_s=3600.0, spa_interval_s=60.0, pc_interval_s=60.0)
SWEEP_REPS = 4
SWEEP_ROWS = len(PAPER_SIZES) * 2 * SWEEP_REPS

class CheckFailed(Exception):
    """A cell's output broke one of the benchmark's invariants."""


@dataclass
class CallResult:
    """Outputs of one call: its digest and, per simulated run, the paper's payoff."""

    digest: str
    # (mode, SPA median ms, PC median ms, network load in byte-hops) per run.
    runs: list[tuple[str, float, float, float]] = field(default_factory=list)


def base_seed(seed: int) -> int:
    """The first overlay/workload seed derived from the benchmark seed."""
    return random.Random(seed).randrange(1 << 30)


def check_organization(overlay, assignment, areas, scores) -> None:
    ids = set(overlay.device_ids)
    if set(scores.scores) != ids:
        raise CheckFailed("betweenness does not cover every device")
    gateways = assignment.device_ids
    if tuple(area for _, area in assignment.gateways) != AREAS:
        raise CheckFailed(f"gateways do not follow the requested areas: {assignment.gateways}")
    if len(set(gateways)) != len(AREAS) or not set(gateways) <= ids:
        raise CheckFailed(f"gateways are not distinct overlay devices: {gateways}")
    if [(a.owner_gateway, a.area_type) for a in areas] != list(assignment.gateways):
        raise CheckFailed("functional areas do not match the gateway assignment")
    for area in areas:
        if not area.members:
            raise CheckFailed(f"functional area of gateway {area.owner_gateway} is empty")
        if area.members & set(gateways):
            raise CheckFailed(f"functional area of gateway {area.owner_gateway} holds a gateway")
        if not area.members <= ids:
            raise CheckFailed(f"functional area of gateway {area.owner_gateway} names unknown devices")


def _emission(spec, n_devices: int, kind: str) -> tuple[int, float, float]:
    """Sensors, shortest and longest gap in seconds between two of one sensor's tuples."""
    sensors = spec.n_sensors if spec.n_sensors is not None else max(1, n_devices // 2)
    interval = spec.spa_interval_s if kind == "spa" else spec.pc_interval_s
    return sensors, interval * (1 - spec.jitter), interval * (1 + spec.jitter)


def emitted_range(spec, n_devices: int, kind: str) -> tuple[int, int]:
    """Bounds on the tuples of one kind a run emits, from the spec alone."""
    sensors, shortest, longest = _emission(spec, n_devices, kind)
    return sensors * int(spec.duration_s // longest), sensors * int(spec.duration_s // shortest)


def check_report(report, spec) -> None:
    """Tuple accounting of one run, checked against bounds the report cannot set itself.

    The report computes ``in_flight`` as ``emitted - completed - dropped``, so
    a run that loses tuples shows them as in flight.  Queues are FIFO, so a
    tuple still in flight at the end was emitted within about the longest
    loop delay seen (twice that is allowed), and each sensor emits at most
    one tuple per shortest gap: that caps ``in_flight``.  A saturated host
    raises both the longest delay and its backlog, so the cap follows it.
    """
    delays = {"spa": report.spa_delays_ms, "pc": report.pc_delays_ms}
    for kind in ("spa", "pc"):
        where = f"{report.mode.value} {kind}"
        emitted = report.emitted[kind]
        parts = (report.completed[kind], report.dropped[kind], report.in_flight[kind])
        if min(parts) < 0 or emitted != sum(parts):
            raise CheckFailed(f"{where}: emitted {emitted} != completed+dropped+in_flight {parts}")
        lo, hi = emitted_range(spec, report.n_devices, kind)
        if not lo <= emitted <= hi:
            raise CheckFailed(f"{where}: emitted {emitted}, the spec allows {lo}..{hi}")
        if report.dropped[kind]:
            raise CheckFailed(f"{where}: {report.dropped[kind]} tuples dropped on a routable overlay")
        if len(delays[kind]) > report.completed[kind]:
            raise CheckFailed(f"{where}: more delay samples than completed tuples")
        if not all(0.0 < d < math.inf for d in delays[kind]):
            raise CheckFailed(f"{where}: a loop delay is not a positive finite number")
        sensors, shortest, _ = _emission(spec, report.n_devices, kind)
        window_s = 2 * max(delays[kind], default=0.0) / 1000
        cap = sensors * (int(window_s // shortest) + 1)
        if report.in_flight[kind] > cap:
            raise CheckFailed(
                f"{where}: {report.in_flight[kind]} tuples still in flight; at most {cap}"
                f" can have been emitted within {window_s:.1f} s of the end"
            )


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _run_summary(report) -> tuple[str, float, float, float]:
    return (
        report.mode.value,
        _median(report.spa_delays_ms),
        _median(report.pc_delays_ms),
        float(report.network_load_bytes),
    )


def _organization_json(assignment, areas) -> str:
    return sf.areas_to_json(areas) + json.dumps(assignment.to_json_obj(), sort_keys=True)


def _paired_runs(overlay, assignment, areas, spec, seed, digest) -> list:
    smart = sf.run_simulation(
        overlay, sf.Mode.SMARTFOG, spec, seed, assignment=assignment, areas=areas
    )
    base = sf.run_simulation(overlay, sf.Mode.UNOPTIMIZED, spec, seed)
    if smart.emitted != base.emitted:
        raise CheckFailed(f"the modes emit different tuples: {smart.emitted} != {base.emitted}")
    runs = []
    for report in (smart, base):
        check_report(report, spec)
        digest.update(report.to_json().encode())
        runs.append(_run_summary(report))
    return runs


class Workload:
    name: str
    cells_per_call = 1
    runs_both_modes = True
    # Fixed tail percentile, chosen so that a run of the default length keeps
    # at least ten cells beyond it; None where a run has too few cells.
    tail_percentile: int | None = None

    def prepare(self, seed: int) -> dict:
        raise NotImplementedError

    def call(self, state: dict, index: int) -> CallResult:
        raise NotImplementedError

    def verify(self, state: dict) -> list[str]:
        """Checks that need the whole run; returns error messages."""
        return []

    def close(self, state: dict) -> None:
        pass


class PaperSweep(Workload):
    """The paper's evaluation: n in {20, 30, 40}, weighted centrality, k = 2."""

    name = "paper-sweep"
    tail_percentile = 90

    def prepare(self, seed: int) -> dict:
        return {"base": base_seed(seed), "spec": sf.WorkloadSpec()}

    def call(self, state: dict, index: int) -> CallResult:
        n = PAPER_SIZES[index % len(PAPER_SIZES)]
        seed = state["base"] + index // len(PAPER_SIZES)
        overlay = sf.build_overlay(n, seed)
        assignment, areas, _, scores = sf.run_smartfog_pipeline(overlay, AREAS, K, None, seed)
        check_organization(overlay, assignment, areas, scores)
        digest = hashlib.sha256(_organization_json(assignment, areas).encode())
        runs = _paired_runs(overlay, assignment, areas, state["spec"], seed, digest)
        return CallResult(digest.hexdigest(), runs)


class OrganizeChurn(Workload):
    """n = 100 overlays under alternating Join/Leave, re-organized after each event."""

    name = "organize-churn"
    runs_both_modes = False

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        streams = []
        for _ in range(CHURN_STREAMS):
            stream_rng = random.Random(rng.randrange(1 << 30))
            overlay = sf.build_overlay(CHURN_SIZE, stream_rng.randrange(1 << 30))
            streams.append({"rng": stream_rng, "overlay": overlay, "next_id": CHURN_SIZE})
        return {"streams": streams, "base": rng.randrange(1 << 30)}

    def _join(self, stream: dict) -> sf.Join:
        rng = stream["rng"]
        device = sf.FogDevice(
            id=stream["next_id"],
            mips=rng.uniform(800.0, 1200.0),
            memory_gb=rng.choice((1.0, 2.0, 3.0, 4.0)),
            storage_gb=16.0,
            arch=rng.choice((sf.Arch.ARM, sf.Arch.X86)),
        )
        targets = rng.sample(sorted(stream["overlay"].device_ids), 2)
        links = tuple((t, rng.uniform(1.0, 10.0)) for t in targets)
        cloud = rng.uniform(50.0, 100.0) if rng.random() < 0.5 else None
        stream["next_id"] += 1
        return sf.Join(device=device, links=links, cloud_latency_ms=cloud)

    def call(self, state: dict, index: int) -> CallResult:
        # Calls 2s and 2s+1 are a Join and a Leave on stream s, and so on
        # round the streams, so every stream alternates Join and Leave.
        stream = state["streams"][(index // 2) % CHURN_STREAMS]
        rng = stream["rng"]
        if index % 2 == 0:
            stream["overlay"] = sf.apply_churn(stream["overlay"], self._join(stream))
        else:
            # A refused Leave (it would disconnect the overlay or cut it off
            # from the cloud) is an expected outcome: draw another device.
            # Every connected graph has a non-cut vertex, so this ends.
            for _ in range(1000):
                leave = sf.Leave(device_id=rng.choice(sorted(stream["overlay"].device_ids)))
                try:
                    stream["overlay"] = sf.apply_churn(stream["overlay"], leave)
                    break
                except sf.ChurnRejectedError:
                    continue
            else:
                raise CheckFailed("no Leave accepted in 1000 draws")
        overlay = stream["overlay"]
        assignment, areas, _, scores = sf.run_smartfog_pipeline(
            overlay, AREAS, K, None, state["base"] + index, sf.CentralityMode.UNWEIGHTED
        )
        check_organization(overlay, assignment, areas, scores)
        digest = hashlib.sha256(_organization_json(assignment, areas).encode())
        return CallResult(digest.hexdigest())


class SimDense(Workload):
    """Simulation-bound: n = 80 overlays organized in set-up, dense SPA/PC traffic."""

    name = "sim-dense"
    tail_percentile = 90

    def prepare(self, seed: int) -> dict:
        base = base_seed(seed)
        organized = []
        for j in range(DENSE_OVERLAYS):
            overlay = sf.build_overlay(DENSE_SIZE, base + j)
            assignment, areas, _, scores = sf.run_smartfog_pipeline(overlay, AREAS, K, None, base + j)
            check_organization(overlay, assignment, areas, scores)
            organized.append((overlay, assignment, areas))
        return {"base": base, "organized": organized, "spec": sf.WorkloadSpec(**DENSE_SPEC)}

    def call(self, state: dict, index: int) -> CallResult:
        overlay, assignment, areas = state["organized"][index % DENSE_OVERLAYS]
        digest = hashlib.sha256(_organization_json(assignment, areas).encode())
        seed = state["base"] + DENSE_OVERLAYS + index
        runs = _paired_runs(overlay, assignment, areas, state["spec"], seed, digest)
        return CallResult(digest.hexdigest(), runs)


class SweepParallel(Workload):
    """``run_experiment`` on the paper-sweep configuration through the process pool."""

    name = "sweep-parallel"
    cells_per_call = SWEEP_ROWS

    def __init__(self, out_root: Path, jobs: int):
        self.out_root = out_root
        self.jobs = jobs
        self.prepared = 0

    def prepare(self, seed: int) -> dict:
        self.prepared += 1
        out = self.out_root / f"state{self.prepared}"
        return {"base": base_seed(seed), "jobs": self.jobs, "out": out}

    def config(self, state: dict, index: int, jobs: int, out: Path) -> sf.ExperimentConfig:
        return sf.ExperimentConfig(
            sizes=PAPER_SIZES,
            replications=SWEEP_REPS,
            seed_base=state["base"] + index * SWEEP_REPS,
            out_dir=str(out),
            jobs=jobs,
        )

    def call(self, state: dict, index: int) -> CallResult:
        config = self.config(state, index, state["jobs"], state["out"] / f"sweep{index}")
        results_path, _ = sf.run_experiment(config)
        data = results_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        expected = [
            (mode.value, str(size), str(config.seed_base + rep))
            for size in config.sizes
            for mode in config.modes
            for rep in range(config.replications)
        ]
        if [(r["mode"], r["n_devices"], r["seed"]) for r in rows] != expected:
            raise CheckFailed(f"results.csv of sweep {index} does not list the expected rows")
        for row in rows:
            n = int(row["n_devices"])
            hi = sum(emitted_range(config.workload, n, k)[1] for k in ("spa", "pc"))
            if int(row["dropped"]) != 0 or int(row["completed"]) > hi:
                raise CheckFailed(
                    f"results.csv row ({row['mode']}, n={n}, seed={row['seed']})"
                    f" drops tuples or completes {row['completed']}, more than {hi} emitted"
                )
        runs = [
            (r["mode"], float(r["spa_median_ms"]), float(r["pc_median_ms"]),
             float(r["network_load_bytes"]))
            for r in rows
        ]
        return CallResult(hashlib.sha256(data).hexdigest(), runs)

    def verify(self, state: dict) -> list[str]:
        """Checks on the first sweep's ``results.csv``.

        It must match a ``jobs=1`` run byte for byte, and every row must match
        the same run made directly through the public API, whose report must
        pass :func:`check_report`.
        """
        first = state["out"] / "sweep0" / "results.csv"
        if not first.exists():
            return []
        config = self.config(state, 0, 1, state["out"] / "serial0")
        serial, _ = sf.run_experiment(config)
        errors = []
        if serial.read_bytes() != first.read_bytes():
            errors.append(f"results.csv at jobs={state['jobs']} differs from jobs=1")
        for row in csv.DictReader(io.StringIO(first.read_text())):
            n, seed, mode = int(row["n_devices"]), int(row["seed"]), sf.Mode(row["mode"])
            where = f"results.csv row ({mode.value}, n={n}, seed={seed})"
            overlay = sf.build_overlay(n, seed)
            organized = {}
            if mode is sf.Mode.SMARTFOG:
                assignment, areas, _, _ = sf.run_smartfog_pipeline(overlay, AREAS, K, None, seed)
                organized = {"assignment": assignment, "areas": areas}
            report = sf.run_simulation(overlay, mode, config.workload, seed, **organized)
            try:
                check_report(report, config.workload)
            except CheckFailed as exc:
                errors.append(f"direct run of {where}: {exc}")
            direct = (report.total_completed, report.total_dropped, report.network_load_bytes)
            if direct != (int(row["completed"]), int(row["dropped"]), int(row["network_load_bytes"])):
                errors.append(f"{where} differs from a direct run: {direct}")
        return errors

    def close(self, state: dict) -> None:
        shutil.rmtree(state["out"], ignore_errors=True)


def all_workloads(out_root: Path, jobs: int) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (PaperSweep(), OrganizeChurn(), SimDense(), SweepParallel(out_root, jobs))
    }
