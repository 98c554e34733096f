"""In-memory span tracer that wraps smartfog's public functions from outside.

The package binds its callees with ``from .x import y``, so wrapping a
function in its defining module is not enough: every module that holds a
reference to it must see the wrapper.  :meth:`Tracer.install` therefore
replaces each binding of a traced function, in every loaded ``smartfog``
module, and :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and the cell that was
running.  Spans are kept in memory; :meth:`Tracer.write` writes them out
once the run has ended.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Span name -> (defining module, function name).  ``betweenness`` is split by
# centrality mode at call time, because the two modes are different
# algorithms (exact-rational BFS Brandes vs. latency-weighted Dijkstra).
TRACED = {
    "overlay.build_overlay": ("smartfog.overlay", "build_overlay"),
    "overlay.apply_churn": ("smartfog.overlay", "apply_churn"),
    "overlay.latency_to_cloud": ("smartfog.overlay", "latency_to_cloud"),
    "overlay.all_pairs_paths": ("smartfog.overlay", "all_pairs_paths"),
    "centrality.betweenness": ("smartfog.centrality", "betweenness"),
    "pareto.non_dominated_sort": ("smartfog.pareto", "non_dominated_sort"),
    "decision.evaluate_devices": ("smartfog.decision", "evaluate_devices"),
    "decision.select_gateways": ("smartfog.decision", "select_gateways"),
    "clustering.similarity_matrix": ("smartfog.clustering", "similarity_matrix"),
    "clustering.jacobi_eigh": ("smartfog.clustering", "jacobi_eigh"),
    "clustering.spectral_embed": ("smartfog.clustering", "spectral_embed"),
    "clustering.k_means": ("smartfog.clustering", "k_means"),
    "clustering.cluster_functional_areas": ("smartfog.clustering", "cluster_functional_areas"),
    "simulation.place_edge_ward": ("smartfog.simulation", "place_edge_ward"),
    "simulation.run": ("smartfog.simulation", "run"),
    "harness.run_smartfog_pipeline": ("smartfog.harness", "run_smartfog_pipeline"),
    "harness.run_experiment": ("smartfog.harness", "run_experiment"),
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    cell: int | None
    error: str | None = None
    tuples: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    The tracer is single-threaded and stack-based, so children of one parent
    never overlap.
    """
    out = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration_ns
    return out


def check_self_times() -> list[str]:
    """Self-time arithmetic on synthetic nested spans; returns the mismatches."""
    spans = [
        Span("a", 0, 100, None, 0),
        Span("b", 10, 40, 0, 0),
        Span("c", 20, 30, 1, 0),
        Span("d", 50, 60, 0, 0),
        Span("e", 200, 210, None, 1),
    ]
    want = [100 - 30 - 10, 30 - 10, 10, 10, 10]
    got = self_times_ns(spans)
    return [
        f"span {spans[i].name}: self {got[i]} ns, expected {want[i]} ns"
        for i in range(len(spans))
        if got[i] != want[i]
    ]


@dataclass
class Tracer:
    """Records one span per call of every function in :data:`TRACED`."""

    spans: list[Span] = field(default_factory=list)
    cell: int | None = None
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_name = name
            if name == "centrality.betweenness":
                mode = args[1] if len(args) > 1 else kwargs.get("mode")
                unweighted = mode is not None and mode.value == "unweighted"
                span_name = f"{name}.{'unweighted' if unweighted else 'weighted'}"
            index = len(spans)
            span = Span(span_name, clock(), 0, stack[-1] if stack else None, self.cell)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
                if name == "simulation.run":
                    span.tuples = result.total_emitted
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in ``smartfog.*``."""
        modules = [m for key, m in sys.modules.items() if key == "smartfog" or key.startswith("smartfog.")]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")
