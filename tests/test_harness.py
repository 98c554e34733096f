import csv
import json
import math
import re
import shlex
import statistics
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smartfog.centrality import CentralityMode
from smartfog.cli import build_parser, main
from smartfog.decision import AreaType
from smartfog.errors import ConfigurationError
from smartfog.harness import (
    RESULT_COLUMNS,
    TIMING_COLUMNS,
    ExperimentConfig,
    run_experiment,
    run_smartfog_pipeline,
    summarize,
    timing_report,
)
from smartfog.overlay import OverlayParams, build_overlay
from smartfog.simulation import Mode, WorkloadSpec


def tiny_config(out_dir, **overrides):
    config = ExperimentConfig(
        sizes=(6, 8),
        replications=2,
        seed_base=50,
        out_dir=str(out_dir),
        jobs=1,
        workload=WorkloadSpec(
            duration_s=40.0, warmup_s=2.0, spa_interval_s=8.0, pc_interval_s=10.0
        ),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


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


class TestExperimentConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

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
        config.validate()

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(sizes=()).validate()
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replications=0).validate()
        with pytest.raises(ConfigurationError):
            ExperimentConfig(k=0).validate()
        with pytest.raises(ConfigurationError):
            ExperimentConfig(jobs=0).validate()

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"replications": 5}))
        assert ExperimentConfig.from_file(path).replications == 5
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(bad)
        bad.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match="cannot read config"):
            ExperimentConfig.from_file(bad)


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

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(tiny_config(tmp_path / "serial", jobs=1))
        parallel = run_experiment(tiny_config(tmp_path / "parallel", jobs=2))
        assert serial[0].read_bytes() == parallel[0].read_bytes()

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


class TestTimingReport:
    def test_files_and_medians(self, tmp_path):
        config = tiny_config(tmp_path, sizes=(6, 10), replications=3)
        timing_path, summary_path = timing_report(config)
        rows = read_csv(timing_path)
        assert list(rows[0]) == list(TIMING_COLUMNS)
        assert len(rows) == 6
        summary = read_csv(summary_path)
        assert [r["n_devices"] for r in summary] == ["6", "10"]
        for cell in summary:
            for stage in ("betweenness", "sorting_decision", "clustering"):
                assert float(cell[f"{stage}_median_ms"]) >= 0.0


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
        _, line = capsys.readouterr().out.strip().splitlines()
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
        _, line = capsys.readouterr().out.strip().splitlines()
        assert line.split()[3:] == ["0B", "0B", "n/a"]

    @staticmethod
    def write_config(tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"workload": {"duration_s": 30.0, "warmup_s": 1.0}})
        )
        return path

    def test_timing_subcommand(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["timing", "--sizes", "6", "--reps", "2", "--out", str(out)]) == 0
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
