import csv
import dataclasses
import json
import math
import multiprocessing
import os
import re
import shlex
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smartfog.clustering
import smartfog.harness
from smartfog.centrality import CentralityMode
from smartfog.cli import build_parser, main
from smartfog.decision import AreaType
from smartfog.errors import ConfigurationError, SmartFogError
from smartfog.harness import (
    RESULT_COLUMNS,
    TIMING_COLUMNS,
    ExperimentConfig,
    _stats,
    _stdev,
    read_config_file,
    run_experiment,
    run_smartfog_pipeline,
    summarize,
)
from smartfog.overlay import OverlayParams, build_overlay
from smartfog.simulation import Mode, WorkloadSpec, run

from oracles import fraction_stdev


def tiny_config(out_dir, **overrides):
    fields = dict(
        sizes=(6, 8),
        replications=2,
        seed_base=50,
        out_dir=str(out_dir),
        jobs=1,
        workload=WorkloadSpec(
            duration_s=40.0, warmup_s=2.0, spa_interval_s=8.0, pc_interval_s=10.0
        ),
    )
    return ExperimentConfig(**{**fields, **overrides})


#: Every config, workload and overlay key, so generated documents hit real fields.
KNOWN_KEYS = sorted(
    {"overlay"}
    | {f for f in ExperimentConfig.__dataclass_fields__ if f != "overlay_params"}
    | set(WorkloadSpec.__dataclass_fields__)
    | set(OverlayParams.__dataclass_fields__)
)
ENUM_VALUES = sorted(m.value for enum in (Mode, AreaType, CentralityMode) for m in enum)
JSON_KEYS = st.sampled_from(KNOWN_KEYS) | st.text(max_size=8)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(ENUM_VALUES),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=12,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


#: OpenBLAS's (get, set) thread-count functions, or None where numpy links another BLAS.
BLAS_THREADS = smartfog.harness._blas_threads()
needs_openblas = pytest.mark.skipif(BLAS_THREADS is None, reason="no OpenBLAS thread setter")
_REPLICATE = smartfog.harness._replicate


def replicate_noting_blas_threads(config, size, rep):
    """``harness._replicate``, writing its process's BLAS thread count beside the results."""
    get, _ = BLAS_THREADS
    (Path(config.out_dir) / f"blas-threads-{os.getpid()}-{size}-{rep}").write_text(str(get()))
    return _REPLICATE(config, size, rep)


#: Tests whose replicates behave differently in the children patch ``_replicate``,
#: which only forked children see.
needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="children fork only on Linux")


class Hang(Exception):
    """Not an OSError, which ``multiprocessing``'s join would swallow."""


@contextmanager
def deadline(seconds):
    """Raise Hang in the block once ``seconds`` have passed, so a hang fails the test."""

    def expire(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def replicate_raising(config, size, rep):
    raise RuntimeError(f"replicate {size}/{rep} failed")


class TestExperimentConfig:
    def test_defaults_validate(self):
        ExperimentConfig()

    def test_from_dict_overrides(self):
        config = ExperimentConfig.from_dict(
            {
                "sizes": [10, 12],
                "modes": ["smartfog"],
                "replications": 3,
                "seed_base": 7,
                "areas": ["memory", "compute"],
                "k": 3,
                "workload": {"duration_s": 30.0, "spa_interval_s": 5.0},
                "overlay": {"mean_degree": 2.5},
            }
        )
        assert config.sizes == (10, 12)
        assert config.modes == (Mode.SMARTFOG,)
        assert config.areas == (AreaType.MEMORY_OPTIMIZED, AreaType.COMPUTE_OPTIMIZED)
        assert config.k == 3
        assert config.workload.duration_s == 30.0
        assert config.overlay_params.mean_degree == 2.5

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            ExperimentConfig.from_dict({"sices": [10]})
        with pytest.raises(ConfigurationError, match="unknown workload field"):
            ExperimentConfig.from_dict({"workload": {"durationz": 1}})
        with pytest.raises(ConfigurationError, match="unknown overlay field"):
            ExperimentConfig.from_dict({"overlay": {"degree": 3}})

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"sizes": "20"}, "sizes"),
            ({"sizes": [20, "x"]}, "sizes"),
            ({"modes": ["bogus"]}, "modes"),
            ({"k": "two"}, "k"),
            ({"centrality_mode": "fastest"}, "centrality_mode"),
            ({"workload": {"duration_s": "300"}}, "workload.duration_s"),
            ({"workload": {"tuple_bytes": 1.5}}, "workload.tuple_bytes"),
            ({"workload": {"access_ms": [1, 2, 3]}}, "workload.access_ms"),
            ({"workload": [1]}, "workload"),
            ({"overlay": {"mips_range": [1]}}, "overlay.mips_range"),
            ({"overlay": {"memory_choices_gb": "big"}}, "overlay.memory_choices_gb"),
            ({"replications": 2.9}, "replications"),
            ({"k": True}, "k"),
            ({"sizes": [20.5]}, "sizes"),
            ({"jobs": 1.5}, "jobs"),
            ({"bandwidth": True}, "bandwidth"),
            ({"out_dir": 5}, "out_dir"),
            ({"bandwidth": math.nan}, "bandwidth"),
            ({"workload": {"duration_s": math.inf}}, "workload.duration_s"),
            ({"overlay": {"storage_gb": 10**400}}, "overlay.storage_gb"),
            ({"sizes": [20, 20]}, "sizes"),
            ({"modes": ["smartfog", "smartfog"]}, "modes"),
            ({"areas": ["compute", "compute"]}, "areas"),
            ({"seed_base": -1}, "seed_base"),
            ({"workload": {"warmup_s": 500.0}}, "workload.warmup_s"),
            ({"overlay": {"mips_range": [5.0, 1.0]}}, "overlay.mips_range"),
        ],
    )
    def test_malformed_values_name_the_field(self, doc, field):
        with pytest.raises(ConfigurationError, match=f"^{field}[ :]"):
            ExperimentConfig.from_dict(doc)

    @given(doc=st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=6) | JSON_VALUES)
    def test_arbitrary_json_validates_or_is_rejected(self, doc):
        try:
            config = ExperimentConfig.from_dict(doc)
        except ConfigurationError:
            return
        assert dataclasses.replace(config) == config  # the stored values are canonical

    @settings(max_examples=500)
    @given(
        target=st.sampled_from(
            [
                (cls, name)
                for cls in (ExperimentConfig, WorkloadSpec, OverlayParams)
                for name in cls.__dataclass_fields__
            ]
        ),
        # 1_000_000.5 is the float-for-int case: no integer, but inside every
        # float field's range, so a float field takes it without naming another.
        value=st.sampled_from(
            [True, "x", None, 1_000_000.5, math.nan, math.inf, -math.inf]
            + [[1.0], [1.0, 2.0, 3.0], ("bogus",)]
        ),
    )
    def test_bad_field_built_in_code_is_rejected_by_name(self, target, value):
        """Objects built in code meet the check that config files meet."""
        cls, name = target
        try:
            config = cls(**{name: value})
        except ConfigurationError as exc:
            assert str(exc).startswith(f"{name} "), exc
            return
        assert dataclasses.replace(config) == config  # the stored values are canonical

    def test_validate_stores_converted_values(self):
        config = ExperimentConfig(
            sizes=[6],
            modes=["unoptimized"],
            bandwidth=2,
            overlay_params=OverlayParams(mips_range=[800, 1200]),
        )
        assert config.sizes == (6,)
        assert config.modes == (Mode.UNOPTIMIZED,) and type(config.modes[0]) is Mode
        assert type(config.bandwidth) is float
        assert config.overlay_params.mips_range == (800.0, 1200.0)
        assert all(type(v) is float for v in config.overlay_params.mips_range)

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(sizes=())
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replications=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(k=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(jobs=0)
        # configs built in code meet the finiteness check that config files meet
        for bandwidth in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="^bandwidth "):
                ExperimentConfig(bandwidth=bandwidth)

    @pytest.mark.parametrize(
        "cls,name",
        [
            (cls, name)
            for cls in (ExperimentConfig, WorkloadSpec, OverlayParams)
            for name in cls.__dataclass_fields__
        ],
    )
    def test_fields_cannot_be_assigned(self, cls, name):
        config = cls()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, getattr(config, name))

    def test_replace_checks_again(self):
        with pytest.raises(ConfigurationError, match="^jitter "):
            dataclasses.replace(WorkloadSpec(), jitter=5.0)
        with pytest.raises(ConfigurationError, match="^sizes "):
            dataclasses.replace(ExperimentConfig(), sizes=[])

    def test_nested_object_built_in_code_names_its_own_field(self):
        with pytest.raises(ConfigurationError, match="^mean_degree "):
            ExperimentConfig(overlay_params=OverlayParams(mean_degree=0.5))

    @pytest.mark.parametrize(
        "name,call",
        [
            (
                "workload",
                lambda: run(build_overlay(6, 1), "unoptimized", {"duration_s": 5.0}, 0),
            ),
            ("params", lambda: build_overlay(6, 1, {"mean_degree": 2.0})),
            ("config", lambda: run_experiment({"sizes": [6]})),
        ],
    )
    def test_config_of_wrong_type_refused_by_name(self, name, call):
        with pytest.raises(SmartFogError, match=f"^{name} must be an instance of "):
            call()

    def test_from_file(self, tmp_path):
        # The CLI's path from a config file: read_config_file, then from_dict.
        def from_file(path):
            return ExperimentConfig.from_dict(read_config_file(path))

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"replications": 5}))
        assert from_file(path).replications == 5
        with pytest.raises(ConfigurationError):
            from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            from_file(bad)
        bad.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match="cannot read config"):
            from_file(bad)


FINITE = st.floats(-1e300, 1e300)


class TestStats:
    """The CSV median and sample stddev, exact and the same on every Python."""

    @given(
        values=st.one_of(
            st.lists(FINITE, min_size=2, max_size=50),
            st.tuples(FINITE, st.integers(2, 50)).map(lambda pair: [pair[0]] * pair[1]),
            st.lists(st.integers(0, 10**15), min_size=2, max_size=50),
        )
    )
    @example(values=[5e-324, 0.0])
    @example(values=[1e300, -1e300, 0.0])
    def test_matches_fraction_oracle(self, values):
        row = _stats("x", "ms", values)
        assert row["x_stddev"] == _stdev(values) == fraction_stdev(values)
        assert row["x_median_ms"] == statistics.median(values)
        if sys.version_info >= (3, 11):  # where statistics.stdev rounds once
            assert row["x_stddev"] == statistics.stdev(values)

    def test_pinned_list_where_python_3_10_rounds_twice(self):
        # Python 3.10's statistics.stdev returns 5.091168824543144 here.
        assert _stdev([78.5, 85.7]) == 5.091168824543145

    def test_one_and_no_values(self):
        assert _stats("x", "ms", [3.5]) == {"x_median_ms": 3.5, "x_stddev": 0.0}
        row = _stats("x", "ms", [], math.nan)
        assert math.isnan(row["x_median_ms"]) and math.isnan(row["x_stddev"])


class TestPipeline:
    def test_stages_and_outputs(self):
        ov = build_overlay(15, seed=3)
        assignment, areas, timings, scores = run_smartfog_pipeline(
            ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 3
        )
        assert len(assignment.gateways) == 2
        assert len(areas) == 2
        assert scores.mode is CentralityMode.WEIGHTED_BY_LATENCY
        for value in (
            timings.betweenness_ms,
            timings.sorting_decision_ms,
            timings.clustering_ms,
        ):
            assert value >= 0.0

    def test_deterministic_outputs(self):
        ov = build_overlay(15, seed=3)
        args = (ov, (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED), 2, None, 3)
        a_assign, a_areas, _, _ = run_smartfog_pipeline(*args)
        b_assign, b_areas, _, _ = run_smartfog_pipeline(*args)
        assert a_assign == b_assign
        assert a_areas == b_areas


class TestRunExperiment:
    def test_writes_ordered_rows(self, tmp_path):
        config = tiny_config(tmp_path)
        results_path, summary_path = run_experiment(config)
        rows = read_csv(results_path)
        assert list(rows[0]) == list(RESULT_COLUMNS)
        assert len(rows) == 2 * 2 * 2  # sizes x modes x reps
        expected_order = [
            (str(size), mode.value, str(config.seed_base + rep))
            for size in config.sizes
            for mode in config.modes
            for rep in range(config.replications)
        ]
        got_order = [(r["n_devices"], r["mode"], r["seed"]) for r in rows]
        assert got_order == expected_order
        for row in rows:
            assert float(row["spa_median_ms"]) > 0
            assert int(row["network_load_bytes"]) > 0
            assert int(row["completed"]) > 0
        summary = read_csv(summary_path)
        assert len(summary) == 4  # (mode, size) cells
        assert {r["mode"] for r in summary} == {"smartfog", "unoptimized"}

    def test_rerun_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path / "a")
        config_b = tiny_config(tmp_path / "b")
        res_a, sum_a = run_experiment(config_a)
        res_b, sum_b = run_experiment(config_b)
        assert res_a.read_bytes() == res_b.read_bytes()
        assert sum_a.read_bytes() == sum_b.read_bytes()

    def test_string_modes_match_members(self, tmp_path):
        """Modes given as their string values run and write the same bytes."""
        members = run_experiment(tiny_config(tmp_path / "members"))
        strings = run_experiment(
            tiny_config(tmp_path / "strings", modes=("smartfog", "unoptimized"))
        )
        assert strings[0].read_bytes() == members[0].read_bytes()
        assert strings[1].read_bytes() == members[1].read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        # n = 40 reaches the sizes at which the eigensolve starts BLAS threads;
        # 10 replicates make uneven shares at jobs=3.
        for overrides in ({}, {"sizes": (40,), "replications": 3}, {"replications": 5}):
            out = tmp_path / f"{overrides.get('sizes', 'tiny')}-{overrides.get('replications')}"
            serial = run_experiment(tiny_config(out / "serial", jobs=1, **overrides))
            for jobs in (2, 3):
                parallel = run_experiment(tiny_config(out / f"jobs{jobs}", jobs=jobs, **overrides))
                assert serial[0].read_bytes() == parallel[0].read_bytes()
                assert serial[1].read_bytes() == parallel[1].read_bytes()
        assert multiprocessing.active_children() == []

    def test_children_fork_on_linux(self, tmp_path, monkeypatch):
        methods = []
        get_context = multiprocessing.get_context

        def recording_get_context(method=None):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
        run_experiment(tiny_config(tmp_path, jobs=2))
        assert methods == ["fork" if sys.platform == "linux" else None]

    @needs_openblas
    @needs_fork
    def test_every_replicate_runs_at_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(smartfog.harness, "_replicate", replicate_noting_blas_threads)
        run_experiment(tiny_config(tmp_path, sizes=(40,), replications=4, jobs=2))
        counts = {p.name: p.read_text() for p in tmp_path.glob("blas-threads-*")}
        pids = {name.split("-")[2] for name in counts}
        assert len(counts) == 4 and set(counts.values()) == {"1"}
        assert str(os.getpid()) in pids and len(pids) == 2  # the caller and one child

    @needs_openblas
    @needs_fork
    def test_children_start_no_blas_helper_thread(self, tmp_path, monkeypatch):
        """Setting OpenBLAS's count in a forked child would start a helper that spins
        on the core the caller's share needs; the inherited count of one is left as is."""
        caller = os.getpid()

        def replicate(config, size, rep):
            if os.getpid() != caller:
                threads = len(os.listdir("/proc/self/task"))
                (Path(config.out_dir) / f"threads-{size}-{rep}").write_text(str(threads))
            return _REPLICATE(config, size, rep)

        monkeypatch.setattr(smartfog.harness, "_replicate", replicate)
        run_experiment(tiny_config(tmp_path, sizes=(40,), replications=4, jobs=2))
        counts = [p.read_text() for p in tmp_path.glob("threads-*")]
        assert counts == ["1", "1"]

    def test_default_jobs_follow_the_affinity_mask(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with caplog.at_level("INFO", logger="smartfog.harness"):
            run_experiment(tiny_config(tmp_path, jobs=None))
        assert "running 4 replicates in 1 process(es)" in caplog.messages
        assert smartfog.harness._usable_cpus() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert smartfog.harness._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert smartfog.harness._usable_cpus() == 8

    @needs_fork
    def test_child_exception_reraised_in_caller(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def replicate(config, size, rep):
            if os.getpid() != caller:
                raise KeyError(f"replicate {size}/{rep} failed in a child")
            return _REPLICATE(config, size, rep)

        monkeypatch.setattr(smartfog.harness, "_replicate", replicate)
        with deadline(60), pytest.raises(KeyError, match="failed in a child") as raised:
            run_experiment(tiny_config(tmp_path, jobs=2))
        assert "in replicate" in str(raised.value.__cause__)  # the child's traceback text
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_child_exiting_without_sending_names_its_code(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def replicate(config, size, rep):
            if os.getpid() != caller:
                os._exit(3)
            return _REPLICATE(config, size, rep)

        monkeypatch.setattr(smartfog.harness, "_replicate", replicate)
        with deadline(60), pytest.raises(RuntimeError, match="exited with code 3"):
            run_experiment(tiny_config(tmp_path, jobs=3))
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_caller_failure_stops_a_child_blocked_on_its_pipe(self, tmp_path, monkeypatch):
        caller = os.getpid()
        sending = tmp_path / "sending"

        def replicate(config, size, rep):
            if os.getpid() != caller:
                sending.touch()
                return [{"payload": "x" * (8 << 20)}], []  # far more than a pipe holds
            for _ in range(600):  # wait until the child is about to send
                if sending.exists():
                    break
                time.sleep(0.01)
            time.sleep(0.2)
            raise RuntimeError("the caller's share failed")

        monkeypatch.setattr(smartfog.harness, "_replicate", replicate)
        with deadline(20), pytest.raises(RuntimeError, match="the caller's share failed"):
            run_experiment(tiny_config(tmp_path, jobs=2))
        assert sending.exists()
        assert multiprocessing.active_children() == []

    @needs_openblas
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_caller_blas_threads_restored(self, tmp_path, monkeypatch, jobs):
        get, put = BLAS_THREADS
        before = get()
        put(2)
        try:
            run_experiment(tiny_config(tmp_path / "ok", jobs=jobs))
            assert get() == 2
            monkeypatch.setattr(smartfog.harness, "_replicate", replicate_raising)
            with pytest.raises(RuntimeError, match="failed"):
                run_experiment(tiny_config(tmp_path / "raising", jobs=jobs))
            assert get() == 2
        finally:
            put(before)

    def test_one_overlay_and_path_table_per_replicate(
        self, tmp_path, monkeypatch, searched_sources
    ):
        """Both modes of a replicate share one overlay, one pipeline run and one table:
        one shortest-path search per device."""
        calls = Counter()

        def count_calls(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count_calls(smartfog.harness, "build_overlay")
        count_calls(smartfog.harness, "run_smartfog_pipeline")
        config = tiny_config(tmp_path)
        assert config.jobs == 1 and len(config.modes) == 2
        run_experiment(config)
        reps = config.replications
        assert calls == {
            "build_overlay": len(config.sizes) * reps,
            "run_smartfog_pipeline": len(config.sizes) * reps,
        }
        assert len(searched_sources) == sum(config.sizes) * reps

    def test_pipeline_runs_the_public_clustering_entries(self, monkeypatch):
        """Organizing builds the features and runs every gateway's k-means in one call each."""
        calls = Counter()

        def count_calls(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count_calls(smartfog.clustering, "device_features")
        count_calls(smartfog.clustering, "k_means")
        run_smartfog_pipeline(build_overlay(20, 1), ("compute", "memory"), 2, None, 1)
        assert calls == {"device_features": 1, "k_means": 1}

    def test_unoptimized_only_never_organizes(self, tmp_path, monkeypatch):
        # n = 3 has too few non-gateway devices to cluster, so organizing would fail
        monkeypatch.setattr(
            smartfog.harness, "run_smartfog_pipeline", lambda *a, **k: pytest.fail("organized")
        )
        config = tiny_config(tmp_path, sizes=(3,), modes=(Mode.UNOPTIMIZED,))
        results_path, _ = run_experiment(config)
        rows = read_csv(results_path)
        assert [(r["mode"], r["seed"]) for r in rows] == [("unoptimized", "50"), ("unoptimized", "51")]

    def test_mode_order_does_not_change_rows(self, tmp_path):
        # the modes share one overlay, so running one first must not affect the other
        forward = read_csv(run_experiment(tiny_config(tmp_path / "f"))[0])
        modes = (Mode.UNOPTIMIZED, Mode.SMARTFOG)
        backward = read_csv(run_experiment(tiny_config(tmp_path / "b", modes=modes))[0])
        assert [r["mode"] for r in backward[:3]] == ["unoptimized", "unoptimized", "smartfog"]

        def key(row):
            return (row["n_devices"], row["mode"], row["seed"])

        assert sorted(forward, key=key) == sorted(backward, key=key)

    def test_summarize_aggregates(self):
        rows = [
            {
                "mode": "smartfog",
                "n_devices": 10,
                "seed": s,
                "spa_median_ms": float(100 + s),
                "spa_stddev": 1.0,
                "pc_median_ms": 200.0,
                "pc_stddev": 1.0,
                "network_load_bytes": 1000 * (s + 1),
                "completed": 50,
                "dropped": 0,
            }
            for s in range(3)
        ]
        (cell,) = summarize(rows)
        assert cell["spa_median_ms"] == 101.0
        assert cell["network_load_median_bytes"] == 2000
        assert cell["completed_total"] == 150
        assert cell["spa_stddev"] == pytest.approx(statistics.stdev([100.0, 101.0, 102.0]))

    def test_nan_free_summary_for_degenerate_cells(self):
        # a cell whose every replication produced no delay samples
        rows = [
            {
                "mode": "unoptimized",
                "n_devices": 4,
                "seed": 0,
                "spa_median_ms": math.nan,
                "spa_stddev": math.nan,
                "pc_median_ms": math.nan,
                "pc_stddev": math.nan,
                "network_load_bytes": 0,
                "completed": 0,
                "dropped": 0,
            }
        ]
        (cell,) = summarize(rows)
        assert math.isnan(cell["spa_median_ms"])
        assert cell["completed_total"] == 0


class TestTimingFiles:
    def test_files_and_medians(self, tmp_path):
        config = tiny_config(tmp_path, sizes=(6, 10), replications=3)
        run_experiment(config)
        rows = read_csv(tmp_path / "timing.csv")
        assert list(rows[0]) == list(TIMING_COLUMNS)
        assert len(rows) == 6
        summary = read_csv(tmp_path / "timing_summary.csv")
        assert [r["n_devices"] for r in summary] == ["6", "10"]
        for cell in summary:
            for stage in ("betweenness", "sorting_decision", "clustering"):
                assert float(cell[f"{stage}_median_ms"]) >= 0.0

    def test_rows_in_size_seed_order_at_any_jobs(self, tmp_path):
        pairs = []
        for jobs in (1, 2, 3):  # 10 replicates: uneven shares at jobs=3
            out = tmp_path / f"jobs{jobs}"
            run_experiment(tiny_config(out, sizes=(6, 8), replications=5, jobs=jobs))
            pairs.append([(r["n_devices"], r["seed"]) for r in read_csv(out / "timing.csv")])
        assert pairs[0] == pairs[1] == pairs[2] == [
            (str(size), str(seed)) for size in (6, 8) for seed in range(50, 55)
        ]

    def test_sweep_without_smartfog_leaves_no_stale_timings(self, tmp_path):
        run_experiment(tiny_config(tmp_path))
        assert len(read_csv(tmp_path / "timing.csv")) == 4
        run_experiment(tiny_config(tmp_path, modes=(Mode.UNOPTIMIZED,)))
        assert (tmp_path / "timing.csv").read_text().splitlines() == [",".join(TIMING_COLUMNS)]
        summary = read_csv(tmp_path / "timing_summary.csv")
        assert [(r["n_devices"], r["replications"]) for r in summary] == [("6", "0"), ("8", "0")]


class TestCli:
    def test_simulate_with_flags(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "simulate",
                "--sizes",
                "6",
                "--modes",
                "smartfog,unoptimized",
                "--reps",
                "1",
                "--seed",
                "77",
                "--out",
                str(out),
                "--jobs",
                "1",
                "--config",
                str(self.write_config(tmp_path)),
            ]
        )
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert [r["seed"] for r in rows] == ["77", "77"]
        # the printed digest is read back from summary.csv
        summary = {r["mode"]: r for r in read_csv(out / "summary.csv")}
        smart, base = summary["smartfog"], summary["unoptimized"]
        load_s, load_b = smart["network_load_median_bytes"], base["network_load_median_bytes"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split() == ["n", "betweenness", "sort+decide", "clustering"]
        line = lines[1]  # the sweep digest's row; the stage digest follows it
        assert line.split() == [
            "6",
            f"{float(smart['spa_median_ms']):.0f}ms",
            f"{float(base['spa_median_ms']):.0f}ms",
            f"{load_s}B",
            f"{load_b}B",
            f"{1 - float(load_s) / float(load_b):.1%}",
        ]

    def test_simulate_digest_without_load(self, tmp_path, capsys):
        # a workload too short to emit a tuple leaves no load to compare
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"workload": {"duration_s": 1.0, "warmup_s": 0.0}}))
        argv = ["simulate", "--config", str(config), "--sizes", "6", "--reps", "1"]
        assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[1]  # the sweep digest's row
        assert line.split()[3:] == ["0B", "0B", "n/a"]

    @staticmethod
    def write_config(tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"workload": {"duration_s": 30.0, "warmup_s": 1.0}})
        )
        return path

    def test_simulate_stage_digest(self, tmp_path, capsys):
        out = tmp_path / "t"
        argv = ["simulate", "--modes", "smartfog", "--sizes", "6", "--reps", "2", "--jobs", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(read_csv(out / "timing.csv")) == 2
        (summary,) = read_csv(out / "timing_summary.csv")
        _, line = capsys.readouterr().out.strip().splitlines()
        assert line.split() == ["6"] + [
            f"{float(summary[f'{stage}_median_ms']):.2f}ms"
            for stage in ("betweenness", "sorting_decision", "clustering")
        ]

    def test_cluster_subcommand(self, tmp_path):
        out = tmp_path / "areas.json"
        code = main(
            ["cluster", "--n", "10", "--seed", "4", "--k", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 2
        assert {rec["area_type"] for rec in doc} == {"compute", "memory"}

    def test_select_subcommand_stdout(self, capsys):
        assert main(["select", "--n", "8", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert [rec["area_type"] for rec in doc] == ["compute", "memory"]
        gateways = [rec["gateway"] for rec in doc]
        assert len(set(gateways)) == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_select_small_overlay(self, n, capsys):
        # two gateways fit, even though no area could be clustered
        assert main(["select", "--n", str(n), "--seed", "0"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert [rec["area_type"] for rec in doc] == ["compute", "memory"]
        assert len({rec["gateway"] for rec in doc}) == 2

    def test_select_matches_pipeline_assignment(self, capsys):
        areas = (AreaType.COMPUTE_OPTIMIZED, AreaType.MEMORY_OPTIMIZED)
        for seed in range(5):
            assert main(["select", "--n", "20", "--seed", str(seed)]) == 0
            assignment, _, _, _ = run_smartfog_pipeline(build_overlay(20, seed), areas, 2, None, seed)
            assert json.loads(capsys.readouterr().out) == assignment.to_json_obj()

    def test_select_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["select", "--n", "8", "--seed", "2", "--out", str(out_a)])
        main(["select", "--n", "8", "--seed", "2", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_error_exit_code(self, tmp_path):
        # k larger than the non-gateway pool -> CapacityError -> exit 2
        assert main(["cluster", "--n", "3", "--seed", "0", "--k", "2"]) == 2
        # k below 1 is refused, not replaced by the default
        assert main(["cluster", "--n", "10", "--seed", "0", "--k", "0"]) == 2
        # invalid sweep config -> exit 2
        assert (
            main(["simulate", "--sizes", "1", "--reps", "1", "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["simulate", "--modes", "bogus"], "modes"),
            (["simulate", "--sizes", "2x"], "--sizes"),
            (["select", "--areas", "bogus"], "areas"),
            (["simulate", "--modes", "smartfog,smartfog", "--sizes", "6,6", "--reps", "1"], "sizes"),
            (["simulate", "--modes", "smartfog,smartfog", "--sizes", "6", "--reps", "1"], "modes"),
            (["cluster", "--n", "12", "--seed", "0", "--areas", "compute,compute"], "areas"),
            (["select", "--n", "20", "--seed", "-1"], "--seed"),
            (["cluster", "--n", "20", "--seed", "-1"], "--seed"),
            (["simulate", "--sizes", "6", "--reps", "1", "--seed", "-3", "--jobs", "1"], "seed_base"),
            (["cluster", "--n", "30", "--bandwidth", "1e-300"], "bandwidth"),
        ],
    )
    def test_bad_flag_exits_2_naming_it(self, argv, flag, tmp_path, monkeypatch, capsys, caplog):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the flag
            code = exc.code
        assert code == 2
        assert flag in capsys.readouterr().err + caplog.text


def test_readme_commands_parse():
    """Every ``smartfog`` command in README.md's shell blocks is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```(?:sh|bash|shell)\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("smartfog ")
    ]
    assert len(commands) >= 4
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: smartfog {shlex.join(argv)}")


def fresh_interpreter_output(code):
    """What ``code`` prints in a new interpreter that imports smartfog from this tree."""
    src = Path(smartfog.harness.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


def test_import_loads_no_process_pool():
    """``import smartfog`` leaves multiprocessing unloaded; only a sweep with children uses it."""
    code = (
        "import sys, smartfog; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))"
    )
    assert fresh_interpreter_output(code) == "[]"


def test_replicate_imports_no_module():
    """After ``import smartfog`` a replicate loads no module, so forked children start warm."""
    code = (
        "import sys, smartfog\n"
        "from smartfog import harness\n"
        "before = set(sys.modules)\n"
        "for centrality in smartfog.CentralityMode:\n"
        "    config = harness.ExperimentConfig(sizes=(12,), replications=1,\n"
        "                                      centrality_mode=centrality, modes=tuple(smartfog.Mode))\n"
        "    harness._replicate(config, 12, 0)\n"
        "print(sorted(set(sys.modules) - before))"
    )
    assert fresh_interpreter_output(code) == "[]"
