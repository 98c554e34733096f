#!/usr/bin/env python3
"""smartfog benchmark: four workloads, cell-level end-to-end metrics, traced per-layer split.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs untraced and then traced cells and reports the per-layer split.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are the
ones listed in ``BENCHMARK.json``.  Lines before it print every metric,
including those that are defined on only some workloads.  A full record of
the run (environment, digests, tail percentile, payoff gains) is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.

Other modes::

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare BASE NEW   # files or directories of records
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference.json

The program under test is imported from ``src/`` of the checkout and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

from spans import TRACED, Tracer, check_self_times, self_times_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE_FILE = HERE / "reference.json"
WORKLOAD_NAMES = ("paper-sweep", "organize-churn", "sim-dense", "sweep-parallel")

# setup_s is the import time plus the median of this many input
# preparations, so one slow repetition does not decide it.
SETUP_REPEATS = 3
# Outputs at this seed are pinned in reference.json and re-checked on every run.
REFERENCE_SEED = 1000
REFERENCE_CALLS = {"paper-sweep": 3, "organize-churn": 1, "sim-dense": 2, "sweep-parallel": 1}
# Metrics printed and recorded but not listed in BENCHMARK.json.
UNLISTED_UNITS = {
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "error_rate": "ratio",
    "spa_delay_gain_pct": "%",
    "pc_delay_gain_pct": "%",
    "load_gain_pct": "%",
}
# Traced runs make a fixed number of calls, about this many per second of
# --seconds at the seed commit on a shared 2-core VM, so their counts repeat.
TRACE_CALLS_PER_S = {"paper-sweep": 3.75, "organize-churn": 0.4, "sim-dense": 3.0, "sweep-parallel": 0.25}
# Never used while the benchmark was tuned: re-check later claims on it.
HELD_OUT_SEED = 7919


def fail(message: str, status: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(status)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "smartfog" / "__init__.py").is_file():
        fail(f"no smartfog sources under {src.relative_to(ROOT)}/; run from the root of a checkout")
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "held_out_seed": HELD_OUT_SEED,
        "reference_seed": REFERENCE_SEED,
    }


class Phase:
    """Outcome of the calls one workload ran on one set of inputs."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.wall_s = 0.0
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.cell_ms: list[float] = []
        self.digests: list[str] = []
        self.runs: list = []
        self.errors: list[str] = []

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.wall_s if self.wall_s else 0.0

    def call(self, index: int, tracer=None) -> None:
        """Run and time call ``index``; a raising or failing call counts its cells as failed."""
        per_call = self.workload.cells_per_call
        if tracer is not None:
            tracer.cell = index
        t0 = time.perf_counter_ns()
        try:
            result = self.workload.call(self.state, index)
        except Exception as exc:  # a raising cell is counted as failed, the run goes on
            result = None
            error = f"call {index}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.cell = None
        self.wall_s += (t1 - t0) / 1e9
        self.attempted += per_call
        if result is None:
            self.failed += per_call
            if len(self.errors) < 20:
                self.errors.append(error)
            return
        self.cells += per_call
        self.cell_ms.append((t1 - t0) / 1e6 * self.state.get("jobs", 1) / per_call)
        self.digests.append(result.digest)
        self.runs.extend(result.runs)


def run_for(workload, state, seconds: float) -> Phase:
    """Run calls from index 0 until ``seconds`` of wall time have passed."""
    phase = Phase(workload, state)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        phase.call(index)
        index += 1
        if time.perf_counter() >= deadline:
            return phase


def gains(runs) -> dict:
    """Paper payoff: 100 * (1 - median_smartfog / median_unoptimized) per quantity."""
    out = {}
    for key, column in (("spa_delay_gain_pct", 1), ("pc_delay_gain_pct", 2), ("load_gain_pct", 3)):
        medians = {}
        for mode in ("smartfog", "unoptimized"):
            values = [r[column] for r in runs if r[0] == mode and not math.isnan(r[column])]
            medians[mode] = statistics.median(values) if values else None
        if medians["smartfog"] is None or not medians["unoptimized"]:
            out[key] = None
        else:
            out[key] = 100.0 * (1.0 - medians["smartfog"] / medians["unoptimized"])
    return out


def tail(cell_ms: list[float], percentile: int | None) -> dict:
    """The workload's fixed tail percentile, if the run has ten cells beyond it."""
    beyond = len(cell_ms) * (100 - percentile) / 100 if percentile else 0
    value = None
    if percentile and beyond >= 10:
        value = statistics.quantiles(cell_ms, n=100, method="inclusive")[percentile - 1]
    return {"percentile": percentile, "cells": len(cell_ms), "cells_beyond": beyond, "value": value}


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process, plus that of its largest waited-for child.

    ``RUSAGE_CHILDREN.ru_maxrss`` is the peak of the single largest child,
    not a sum over children.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def layer_metrics(spans, phase: Phase) -> dict:
    """Per-cell means of self time and call counts, from spans inside timed cells."""
    names = [n for n in TRACED if n != "centrality.betweenness"]
    names += ["centrality.betweenness.weighted", "centrality.betweenness.unweighted"]
    self_ns = dict.fromkeys(names, 0)
    calls = dict.fromkeys(names, 0)
    top_ns = tuples = rejected = 0
    for span, own in zip(spans, self_times_ns(spans)):
        if span.cell is None:
            continue
        self_ns[span.name] += own
        calls[span.name] += 1
        if span.parent is None:
            top_ns += span.duration_ns
        if span.tuples is not None:
            tuples += span.tuples
        if span.name == "overlay.apply_churn" and span.error == "ChurnRejectedError":
            rejected += 1
    cells = phase.cells or 1
    out = {}
    for name in names:
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / cells
        out[f"{name}.calls"] = calls[name] / cells
    runs = calls["simulation.run"]
    out["simulation.run.us_per_tuple"] = self_ns["simulation.run"] / 1e3 / tuples if tuples else 0.0
    out["simulation.tuples_per_run"] = tuples / runs if runs else 0.0
    out["overlay.apply_churn.rejected"] = rejected / cells
    out["trace.coverage_pct"] = 100.0 * top_ns / 1e9 / phase.wall_s if phase.wall_s else 0.0
    return out


def reference_digest(workload, seed: int, calls: int) -> str:
    state = workload.prepare(seed)
    try:
        chain = hashlib.sha256()
        for index in range(calls):
            chain.update(workload.call(state, index).digest.encode())
        return chain.hexdigest()
    finally:
        workload.close(state)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    spec = load_spec()
    import_program()
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    env = environment()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{name}-{os.getpid()}"
    workload = workloads.all_workloads(scratch, env["nproc"])[name]

    prep_s = []
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.prepare(seed)
        prep_s.append(time.perf_counter() - t0)
        if repeat < SETUP_REPEATS - 1:
            workload.close(state)
    setup_s = import_s + statistics.median(prep_s)

    errors: list[str] = []
    extra: dict = {"setup": {"import_s": import_s, "prepare_s": prep_s}}
    metrics: dict[str, float | None] = {}
    tracer = None
    try:
        if not traced:
            phase = run_for(workload, state, seconds)
            phases = [phase]
            metrics.update(
                setup_s=setup_s,
                cells_per_s=phase.cells_per_s,
                cell_ms_p50=statistics.median(phase.cell_ms) if phase.cell_ms else None,
                peak_rss_mb=peak_rss_mb(include_children=name == "sweep-parallel"),
                error_rate=phase.failed / phase.attempted,
            )
            t = tail(phase.cell_ms, workload.tail_percentile)
            metrics["cell_ms_tail"] = t["value"]
            extra["tail"] = t
            extra["cell_ms"] = phase.cell_ms
            if workload.runs_both_modes:
                metrics.update(gains(phase.runs))
            errors += workload.verify(state)
        else:
            errors += [f"tracer self-check: {e}" for e in check_self_times()]
            # Untraced and traced lanes run the same calls on inputs of their
            # own, interleaved call by call, so both see the same machine
            # state, the overhead compares identical work and every count
            # repeats exactly for a seed.  On sweep-parallel a third lane
            # runs the sweeps at jobs=nproc for the pool speed-up; the
            # untraced and traced lanes run them at jobs=1, in-process.
            calls = max(1, int(seconds * TRACE_CALLS_PER_S[name]))
            untraced = Phase(workload, state)
            traced_lane = Phase(workload, workload.prepare(seed))
            lanes = [untraced, traced_lane]
            parallel = None
            if name == "sweep-parallel":
                parallel = Phase(workload, workload.prepare(seed))
                lanes.append(parallel)
                untraced.state["jobs"] = traced_lane.state["jobs"] = 1
            tracer = Tracer()
            try:
                for index in range(calls):
                    untraced.call(index)
                    if parallel is not None:
                        parallel.call(index)
                    tracer.install()
                    try:
                        traced_lane.call(index, tracer)
                    finally:
                        tracer.uninstall()
                if parallel is not None:
                    errors += workload.verify(parallel.state)
            finally:
                for lane in lanes[1:]:
                    workload.close(lane.state)
            phases = lanes
            metrics.update(layer_metrics(tracer.spans, traced_lane))
            if untraced.cells:
                metrics["harness.run_experiment.speedup"] = (
                    parallel.cells_per_s / untraced.cells_per_s if parallel is not None else 0.0
                )
                metrics["trace.overhead_pct"] = 100.0 * (
                    1.0 - traced_lane.cells_per_s / untraced.cells_per_s
                )
            extra["cells_per_s"] = {
                lane: p.cells_per_s
                for lane, p in zip(("untraced", "traced", "parallel"), lanes)
            }
    finally:
        workload.close(state)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        errors += p.errors
    # Per-call output digests for this seed, in call order, so two commits'
    # records of one seed can be compared on the calls both made.
    extra["digests"] = phases[0].digests

    reference = json.loads(REFERENCE_FILE.read_text()).get(name)
    try:
        got = reference_digest(workload, REFERENCE_SEED, REFERENCE_CALLS[name])
    except Exception as exc:  # reported as a failed check, like a failing cell
        got = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    extra["reference_digest"] = got
    if got != reference:
        errors.append(f"reference digest at seed {REFERENCE_SEED} is {got}, expected {reference}")

    if tracer is not None:
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")

    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNLISTED_UNITS)
    for key in metrics:
        units.setdefault(key, "ms" if key.endswith("_ms") else "count")
    reported = {}
    for m in spec[section]:
        value = metrics.get(m["name"])
        if value is None:
            errors.append(f"metric {m['name']} was not measured")
            continue
        reported[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = failed == 0 and not errors
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "environment": env,
    }
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))

    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    for key, value in metrics.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<15} {key:<46} {text:>12} {units[key]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process, so each reports its own set-up and memory."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = value
    print(json.dumps(summary))
    return status


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        doc = json.loads(file.read_text())
        if "workload" in doc and "metrics" in doc:
            records.append(doc)
    return records


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median; infinite for one run."""
    if len(values) < 2:
        return math.inf
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Regression verdict for one bounded metric, by the benchmark's own bound."""
    if min(len(base), len(new)) < 2:
        return "unresolved: needs two runs per side"
    b, n = statistics.median(base), statistics.median(new)
    lower = better == "lower"
    if max(spread(base), spread(new)) > bound:
        every_run_better = max(new) < min(base) if lower else min(new) > max(base)
        return "better on every run" if every_run_better else "unresolved: spread wider than bound"
    worse = ((n - b) if lower else (b - n)) / abs(b)
    if worse > bound:
        return f"regressed beyond bound {bound}"
    if -worse > spread(base):
        return "better by more than the base's spread"
    return f"within bound {bound}"


def compare(base_path: Path, new_path: Path) -> int:
    """Per-workload, per-metric ratios of two sets of run records."""
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    groups: dict[tuple, dict[str, list[list[float]]]] = {}
    units: dict[str, str] = {}
    digests: dict[tuple, list[list[str]]] = {}
    for side, path in ((0, base_path), (1, new_path)):
        for record in load_records(path):
            group = groups.setdefault((record["workload"], record["trace"]), {})
            run_key = (record["workload"], record["seed"], record["trace"])
            digests.setdefault(run_key, [[], []])[side] = record.get("extra", {}).get("digests", [])
            for key, metric in record["metrics"].items():
                units[key] = metric["unit"]
                if metric["value"] is not None:
                    group.setdefault(key, [[], []])[side].append(metric["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"== {workload} (trace {trace})")
        for key, (base, new) in sorted(metrics.items()):
            if not base or not new:
                continue
            b, n = statistics.median(base), statistics.median(new)
            ratio = f"{n / b:.4f}" if b else "n/a"
            line = (
                f"  {key:<46} new/base = {ratio} (base {b:.6g} {units[key]}, {len(base)} runs;"
                f" new {n:.6g} {units[key]}, {len(new)} runs)"
            )
            if key in bounds and b:
                line += " -> " + verdict(base, new, bounds[key]["better"], bounds[key]["bound"])
            print(line)
    status = 0
    for (workload, seed, trace), (base, new) in sorted(digests.items()):
        shared = min(len(base), len(new))
        if base[:shared] != new[:shared]:
            print(f"!! {workload} seed {seed} (trace {trace}): outputs differ within the first {shared} calls")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.record_reference:
        import_program()
        import workloads

        OUT.mkdir(exist_ok=True)
        scratch = OUT / f"tmp-reference-{os.getpid()}"
        table = workloads.all_workloads(scratch, len(os.sched_getaffinity(0)))
        doc = {
            name: reference_digest(table[name], REFERENCE_SEED, REFERENCE_CALLS[name])
            for name in WORKLOAD_NAMES
        }
        shutil.rmtree(scratch, ignore_errors=True)
        REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
        print(json.dumps(doc, indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
