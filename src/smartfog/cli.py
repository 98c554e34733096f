"""Command-line entry points: simulate, cluster, select.

Every flag that sets an ``ExperimentConfig`` field is stored under that
field's name and merged over the ``--config`` file, so flags and file entries
pass through the same checks in ``ExperimentConfig.from_dict``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .centrality import betweenness
from .clustering import areas_to_json
from .decision import select_gateways
from .errors import SmartFogError
from .harness import ExperimentConfig, read_config_file, run_experiment, run_smartfog_pipeline
from .overlay import build_overlay
from .simulation import Mode

log = logging.getLogger(__name__)

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in _comma_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file (if any) with every given config flag merged over it."""
    doc = read_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {
        name: value
        for name, value in vars(args).items()
        if name in _CONFIG_FIELDS and value is not None
    }
    return ExperimentConfig.from_dict({**doc, **flags})


def _add_single_overlay_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=20, help="overlay size")
    parser.add_argument("--seed", type=_seed, default=0, help="overlay / pipeline seed")
    parser.add_argument(
        "--areas", type=_comma_list, default="compute,memory", help="comma-separated area types"
    )
    parser.add_argument("--out", type=Path, help="write JSON here instead of stdout")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_digest(summary_path: Path) -> str:
    """Per size: smartfog vs unoptimized SPA median, load median and load reduction."""
    cells = {(row["mode"], int(row["n_devices"])): row for row in _read_rows(summary_path)}
    lines = [
        f"{'n':>4} {'spa smart':>10} {'spa base':>10} "
        f"{'load smart':>12} {'load base':>12} {'reduction':>10}"
    ]
    for size in sorted({size for _, size in cells}):
        smart = cells[(Mode.SMARTFOG.value, size)]
        base = cells[(Mode.UNOPTIMIZED.value, size)]
        load_s = float(smart["network_load_median_bytes"])
        load_b = float(base["network_load_median_bytes"])
        reduction = f"{1.0 - load_s / load_b:>9.1%}" if load_b else f"{'n/a':>9}"
        lines.append(
            f"{size:>4} {float(smart['spa_median_ms']):>8.0f}ms "
            f"{float(base['spa_median_ms']):>8.0f}ms "
            f"{smart['network_load_median_bytes']:>11}B "
            f"{base['network_load_median_bytes']:>11}B {reduction}"
        )
    return "\n".join(lines)


def _timing_digest(summary_path: Path) -> str:
    """Per size: median milliseconds of each pipeline stage."""
    lines = [f"{'n':>4} {'betweenness':>12} {'sort+decide':>12} {'clustering':>12}"]
    for row in _read_rows(summary_path):
        lines.append(
            f"{row['n_devices']:>4} {float(row['betweenness_median_ms']):>10.2f}ms "
            f"{float(row['sorting_decision_median_ms']):>10.2f}ms "
            f"{float(row['clustering_median_ms']):>10.2f}ms"
        )
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    results_path, summary_path = run_experiment(config)
    log.info("wrote %s and %s", results_path, summary_path)
    if {Mode.SMARTFOG, Mode.UNOPTIMIZED} <= set(config.modes):
        print(_sweep_digest(summary_path))
    if Mode.SMARTFOG in config.modes:
        print(_timing_digest(summary_path.with_name("timing_summary.csv")))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    config = _load_config(args)
    overlay = build_overlay(args.n, args.seed)
    _, functional_areas, _, _ = run_smartfog_pipeline(
        overlay, config.areas, config.k, config.bandwidth, args.seed
    )
    _emit(areas_to_json(functional_areas), args.out)
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    # Selection only: clustering needs k non-gateway devices per gateway,
    # which small overlays lack, and select prints no areas.
    config = _load_config(args)
    overlay = build_overlay(args.n, args.seed)
    assignment = select_gateways(overlay, config.areas, betweenness(overlay))
    _emit(json.dumps(assignment.to_json_obj(), sort_keys=True, separators=(",", ":")), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartfog",
        description="Fog overlay experiments: gateway selection, clustering, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run the full size x mode x replication sweep and print its per-size digests",
    )
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--sizes", type=_int_list, help="comma-separated overlay sizes, e.g. 20,30,40")
    sim.add_argument("--reps", dest="replications", type=int, help="replications per cell")
    sim.add_argument(
        "--seed", dest="seed_base", type=int, help="base seed; replication r uses seed+r"
    )
    sim.add_argument("--out", dest="out_dir", help="output directory")
    sim.add_argument(
        "--modes", type=_comma_list, help="comma-separated modes: smartfog,unoptimized"
    )
    sim.add_argument(
        "--jobs",
        type=int,
        help="worker processes, each at one BLAS thread (default: cpu count;"
        " 1 for stable stage timings)",
    )
    sim.set_defaults(func=_cmd_simulate)

    clu = sub.add_parser("cluster", help="emit functional areas for one overlay")
    _add_single_overlay_flags(clu)
    clu.add_argument("--k", type=int, default=2, help="clusters per gateway run")
    clu.add_argument("--bandwidth", type=float, help="Gaussian bandwidth (default: median heuristic)")
    clu.set_defaults(func=_cmd_cluster)

    sel = sub.add_parser("select", help="emit the gateway assignment for one overlay")
    _add_single_overlay_flags(sel)
    sel.set_defaults(func=_cmd_select)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmartFogError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
