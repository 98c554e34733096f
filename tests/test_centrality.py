"""Betweenness tests: frozen small graphs, exhaustive-oracle equivalence,
structural invariances, and the interior-count sum identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartfog import centrality
from smartfog.centrality import CentralityMode, betweenness
from smartfog.errors import ContractError, TopologyError
from smartfog.overlay import Arch, FogDevice, FogOverlay, Link, build_overlay

from oracles import (
    bundle_chain_overlay,
    churned_overlay,
    fraction_brandes_unweighted,
    heap_cloud_exit,
    link_adjacency,
    oracle_betweenness,
    oracle_pair_path_stats,
    table_dag_betweenness,
    two_component_overlay,
)


def overlay_from_edges(n, edges, latencies=None):
    devices = tuple(
        FogDevice(id=i, mips=1000.0, memory_gb=2.0, storage_gb=16.0, arch=Arch.ARM)
        for i in range(n)
    )
    latencies = latencies or [1.0] * len(edges)
    links = tuple(
        Link(a=min(a, b), b=max(a, b), latency_ms=w)
        for (a, b), w in zip(edges, latencies)
    )
    return FogOverlay(devices=devices, links=links, cloud_latency_ms={0: 60.0})


def hop_path_counts(ov, source):
    """Number of shortest hop-count paths from ``source`` to every device."""
    adjacency = link_adjacency(ov)
    dist, sigma, frontier = {source: 0}, {source: 1}, [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w, _ in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    sigma[w] = 0
                    nxt.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        frontier = nxt
    return sigma


def bundle_star_overlay(chains):
    """Chains of parallel two-hop routes hanging off hub 0, one list of
    route counts per chain, like ``bundle_chain_overlay``'s one chain."""
    edges, next_id = [], 1
    for widths in chains:
        hub = 0
        for width in widths:
            mids = range(next_id, next_id + width)
            nxt = next_id + width
            edges += [(hub, m) for m in mids] + [(m, nxt) for m in mids]
            hub, next_id = nxt, nxt + 1
    return overlay_from_edges(next_id, edges)


def shortcut_pairs_overlay(counts):
    """Pairs (s, t) joined to hub 0 and by ``c - 1`` two-hop routes, so that
    s and t, and no other two devices, have c shortest paths."""
    edges, next_id = [], 1
    for count in counts:
        s, t = next_id, next_id + 1
        mids = range(next_id + 2, next_id + count + 1)
        edges += [(0, s), (0, t)] + [(s, m) for m in mids] + [(m, t) for m in mids]
        next_id += count + 1
    return overlay_from_edges(next_id, edges)


def count_fallbacks(monkeypatch):
    """The overlays ``_brandes_unweighted`` is called with, in call order."""
    calls = []
    loop = centrality._brandes_unweighted

    def counting_loop(overlay):
        calls.append(overlay)
        return loop(overlay)

    monkeypatch.setattr(centrality, "_brandes_unweighted", counting_loop)
    return calls


class TestFrozenGraphs:
    def test_path_of_three(self):
        ov = overlay_from_edges(3, [(0, 1), (1, 2)])
        scores = betweenness(ov, CentralityMode.UNWEIGHTED)
        assert scores.scores == {0: 0.0, 1: 1.0, 2: 0.0}

    def test_path_of_four(self):
        ov = overlay_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        scores = betweenness(ov, CentralityMode.UNWEIGHTED)
        assert scores.scores == {0: 0.0, 1: 2.0, 2: 2.0, 3: 0.0}

    def test_star_center_counts_all_pairs(self):
        edges = [(0, i) for i in range(1, 5)]
        scores = betweenness(overlay_from_edges(5, edges), CentralityMode.UNWEIGHTED)
        assert scores[0] == 6.0  # C(4, 2) leaf pairs routed through the hub
        assert all(scores[i] == 0.0 for i in range(1, 5))

    def test_cycle_split_evenly(self):
        ov = overlay_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        scores = betweenness(ov, CentralityMode.UNWEIGHTED)
        # each opposite pair has two tied routes, half credit per interior hop
        assert scores.scores == {i: 0.5 for i in range(4)}

    def test_heavy_edge_reroutes_weighted_mode(self):
        ov = overlay_from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], latencies=[1.0, 1.0, 1.0, 10.0]
        )
        scores = betweenness(ov, CentralityMode.WEIGHTED_BY_LATENCY)
        assert scores.scores == {0: 0.0, 1: 2.0, 2: 2.0, 3: 0.0}
        assert scores.scores == oracle_betweenness(ov, weighted=True)

    def test_absorbed_latency_keeps_settle_order(self):
        # 1e17 + 1.0 == 1e17, so 0-1-2 and 0-2 tie at 1e17 and so do 0-2-1
        # and 0-1; only the device that settled first may be a predecessor,
        # or 1 and 2 would each precede the other
        ov = overlay_from_edges(3, [(0, 1), (0, 2), (1, 2)], latencies=[1e17, 1e17, 1.0])
        assert 1e17 + 1.0 == 1e17
        scores = betweenness(ov, CentralityMode.WEIGHTED_BY_LATENCY)
        assert scores.scores == {0: 0.0, 1: 0.5, 2: 0.25}

    def test_complete_graph_all_zero(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        scores = betweenness(overlay_from_edges(4, edges), CentralityMode.UNWEIGHTED)
        assert all(v == 0.0 for v in scores.scores.values())


class TestOracleEquivalence:
    @given(seed=st.integers(0, 3000), n=st.integers(2, 10))
    def test_unweighted_exact(self, seed, n):
        ov = build_overlay(n, seed)
        got = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert got == oracle_betweenness(ov, weighted=False)

    @given(seed=st.integers(0, 3000), n=st.integers(2, 10))
    def test_weighted_exact(self, seed, n):
        ov = build_overlay(n, seed)
        got = betweenness(ov, CentralityMode.WEIGHTED_BY_LATENCY).scores
        assert got == oracle_betweenness(ov, weighted=True)

    def test_default_mode_is_weighted(self):
        ov = build_overlay(8, seed=2)
        assert betweenness(ov).scores == betweenness(
            ov, CentralityMode.WEIGHTED_BY_LATENCY
        ).scores
        assert betweenness(ov).mode is CentralityMode.WEIGHTED_BY_LATENCY

    def test_mode_by_string_value(self):
        ov = build_overlay(12, seed=5)
        for mode in CentralityMode:
            by_value = betweenness(ov, mode.value)
            assert by_value.mode is mode
            assert by_value.scores == betweenness(ov, mode).scores
        # the two modes differ on this overlay, so a wrong mode would show
        assert betweenness(ov, "unweighted").scores != betweenness(ov).scores

    @pytest.mark.parametrize("bad", ["hops", None, 1, "UNWEIGHTED"])
    def test_unknown_mode_rejected(self, bad):
        with pytest.raises(ContractError, match="mode"):
            betweenness(build_overlay(6, seed=1), bad)


class TestExactAtScale:
    """Unweighted scores equal the Fraction accumulation bit for bit."""

    @pytest.mark.parametrize("n", [20, 40, 100])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_overlays(self, n, seed):
        ov = build_overlay(n, seed)
        got = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert got == fraction_brandes_unweighted(ov)

    @pytest.mark.parametrize(
        "widths",
        [[2] * 64, [2, 3, 5, 7] * 10],
        ids=["64-diamonds", "mixed-bundles"],
    )
    def test_path_counts_beyond_int64(self, widths, monkeypatch):
        ov = bundle_chain_overlay(widths)
        # The far end has prod(widths) >= 2**64 shortest paths from the
        # first, past int64 and a double's 53-bit mantissa.
        sigma = hop_path_counts(ov, 0)
        assert sigma[max(ov.device_ids)] == math.prod(widths) >= 2**64
        # Counts past 2**53 send the overlay to the per-source int loop.
        calls = count_fallbacks(monkeypatch)
        got = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert calls == [ov]
        assert got == fraction_brandes_unweighted(ov)

    def test_int64_lcm_wrap_falls_back(self, monkeypatch):
        # Every count is below 2**53, but the hub's counts 2**26, 3**16 and
        # 5**6 have an lcm past 2**63, so numpy's int64 lcm of its row wraps.
        ov = bundle_star_overlay([[2] * 26, [3] * 16, [5] * 6])
        ids = sorted(ov.device_ids)
        counts = [hop_path_counts(ov, s) for s in ids]
        assert max(max(row.values()) for row in counts) < 2**53
        assert math.lcm(*counts[0].values()) >= 2**63
        # The wrapped int64 lcm is not a common multiple of the hub's counts,
        # which is the check that sends the overlay to the fallback.
        hub = np.array([counts[0][v] for v in ids], dtype=np.int64)
        assert (np.lcm.reduce(hub) % hub != 0).any()
        calls = count_fallbacks(monkeypatch)
        got = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert calls == [ov]
        assert got == fraction_brandes_unweighted(ov)

    def test_int64_final_sum_bound_falls_back(self, monkeypatch):
        # Each source's L_s is small (L_s * n**2 < 2**53), but the pairs'
        # coprime path counts give a common denominator with den * n**2 >=
        # 2**63, so the int64 sum of the sources' numerators could wrap.
        ov = shortcut_pairs_overlay([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
        n = len(ov.devices)
        scales = [math.lcm(*hop_path_counts(ov, s).values()) for s in sorted(ov.device_ids)]
        assert max(scales) * n * n < 2**53
        assert math.lcm(*scales) * n * n >= 2**63
        calls = count_fallbacks(monkeypatch)
        got = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert calls == [ov]
        assert got == fraction_brandes_unweighted(ov)


@st.composite
def connected_edge_lists(draw):
    """``(n, edges)`` of a connected graph on 1-30 vertices: a random tree plus
    extra edges, or a complete graph, cycle or grid (many tied shortest paths)."""
    family = draw(st.sampled_from(["random", "complete", "cycle", "grid"]))
    if family == "grid":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        n = rows * cols
        edges = [(i, i + 1) for i in range(n) if (i + 1) % cols]
        return n, edges + [(i, i + cols) for i in range(n - cols)]
    if family == "cycle":
        n = draw(st.integers(3, 30))
        return n, [(i, (i + 1) % n) for i in range(n)]
    n = draw(st.integers(1, 30))
    if family == "complete":
        return n, [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


class TestAllSourcesPath:
    """The all-sources matrix path against the Fraction oracle, and overlays
    that must stay inside its 2**53 bound."""

    # 150 examples, or the profile's count where that is more (CI's thorough run).
    @settings(max_examples=max(150, settings.default.max_examples))
    @given(graph=connected_edge_lists())
    def test_matches_fraction_oracle(self, graph):
        ov = overlay_from_edges(*graph)
        got = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert got == fraction_brandes_unweighted(ov)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_overlay(100, 1),
            lambda: build_overlay(160, 2),
            lambda: build_overlay(500, 3),
            lambda: churned_overlay(100, 1, 40),
            lambda: churned_overlay(100, 2, 41),
        ],
        ids=["n100", "n160", "n500", "churn-1-40", "churn-2-41"],
    )
    def test_overlays_stay_on_matrix_path(self, make, monkeypatch):
        def loop(overlay):
            raise AssertionError("fell back to the per-source loop")

        ov = make()
        monkeypatch.setattr(centrality, "_brandes_unweighted", loop)
        scores = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert sorted(scores) == sorted(ov.device_ids)


class TestExactTies:
    """Weighted mode with latencies from {1.0, 2.0}: sums are exact, so equal
    path lengths tie exactly and tied shortest paths are everywhere."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_tied_latencies_match_oracle(self, data):
        n, edges = data.draw(connected_edge_lists())
        latencies = data.draw(
            st.lists(st.sampled_from([1.0, 2.0]), min_size=len(edges), max_size=len(edges))
        )
        ov = overlay_from_edges(n, edges, latencies)
        got = betweenness(ov, CentralityMode.WEIGHTED_BY_LATENCY).scores
        assert got == oracle_betweenness(ov, weighted=True)

    @settings(max_examples=150)
    @given(graph=connected_edge_lists())
    def test_unit_latencies_match_unweighted(self, graph):
        ov = overlay_from_edges(*graph)
        weighted = betweenness(ov, CentralityMode.WEIGHTED_BY_LATENCY).scores
        unweighted = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert weighted == unweighted


def table_rows(table):
    """A path table as nested item lists, so equality checks key order too."""
    return [(s, list(row.items())) for s, row in table.items()]


@st.composite
def latency_overlays(draw):
    """Connected overlays with integer latencies (exact ties everywhere),
    random latencies, or 1e17 and 1.0 mixed, where ``1e17 + 1.0 == 1e17``
    absorbs the short link and zero-length steps tie."""
    n, edges = draw(connected_edge_lists())
    kind = draw(st.sampled_from(["integer", "random", "absorbed"]))
    lengths = {
        "integer": st.sampled_from([1.0, 2.0, 3.0]),
        "random": st.floats(0.5, 10.0),
        "absorbed": st.sampled_from([1e17, 1.0]),
    }[kind]
    latencies = draw(st.lists(lengths, min_size=len(edges), max_size=len(edges)))
    return overlay_from_edges(n, edges, latencies)


class TestSearchCountsPaths:
    """Path counts taken inside the search equal the table-then-DAG sweep
    that re-derived them, score for score and row for row."""

    @given(ov=latency_overlays())
    def test_matches_table_dag_oracle(self, ov):
        scores, table = table_dag_betweenness(ov)
        assert betweenness(ov).scores == scores
        # Weighted betweenness filled the cache with its own rows.
        assert "path_table" in vars(ov)
        assert table_rows(ov.path_table) == table_rows(table)
        # With the table cached the searches run again, to the same scores.
        assert betweenness(ov).scores == scores
        fresh = FogOverlay(ov.devices, ov.links, ov.cloud_latency_ms)
        assert table_rows(fresh.path_table) == table_rows(table)
        # The hop-count sweep past 2**53 runs the same search on unit lengths.
        assert centrality._brandes_unweighted(ov) == table_dag_betweenness(ov, unit=True)[0]


class TestChurnedIds:
    """Overlays after Join and Leave events: their ids have gaps and run
    past n, so a device's id is not its position in ``device_ids``."""

    @given(seed=st.integers(0, 3000), n=st.integers(3, 9), events=st.sampled_from([3, 5]))
    def test_churned_ids_match_table_dag_oracle(self, seed, n, events):
        # An odd count leaves n + 1 devices, the last joined with an id above n.
        ov = churned_overlay(n, seed, events)
        assert max(ov.device_ids) > n == len(ov.device_ids) - 1
        scores, table = table_dag_betweenness(ov)
        assert betweenness(ov).scores == scores
        assert table_rows(ov.path_table) == table_rows(table)
        fresh = FogOverlay(ov.devices, ov.links, ov.cloud_latency_ms)
        assert table_rows(fresh.path_table) == table_rows(table)
        unweighted = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        assert unweighted == fraction_brandes_unweighted(ov)
        assert centrality._brandes_unweighted(ov) == table_dag_betweenness(ov, unit=True)[0]
        assert list(ov.cloud_exit.items()) == list(heap_cloud_exit(ov).items())


class TestInvariances:
    @given(seed=st.integers(0, 1000))
    def test_relabelling_permutes_scores(self, seed):
        ov = build_overlay(8, seed)
        perm = {i: (i * 3 + 1) % 8 + 100 for i in range(8)}
        relabelled = FogOverlay(
            devices=tuple(
                FogDevice(
                    id=perm[d.id],
                    mips=d.mips,
                    memory_gb=d.memory_gb,
                    storage_gb=d.storage_gb,
                    arch=d.arch,
                )
                for d in ov.devices
            ),
            links=tuple(
                Link(
                    a=min(perm[l.a], perm[l.b]),
                    b=max(perm[l.a], perm[l.b]),
                    latency_ms=l.latency_ms,
                )
                for l in ov.links
            ),
            cloud_latency_ms={perm[g]: ms for g, ms in ov.cloud_latency_ms.items()},
        )
        base = betweenness(ov, CentralityMode.UNWEIGHTED).scores
        mapped = betweenness(relabelled, CentralityMode.UNWEIGHTED).scores
        assert mapped == {perm[d]: v for d, v in base.items()}

    @given(seed=st.integers(0, 1000), scale=st.sampled_from([0.5, 2.0, 7.25]))
    def test_uniform_latency_scaling_is_neutral(self, seed, scale):
        ov = build_overlay(8, seed)
        scaled = FogOverlay(
            devices=ov.devices,
            links=tuple(
                Link(a=l.a, b=l.b, latency_ms=l.latency_ms * scale) for l in ov.links
            ),
            cloud_latency_ms=ov.cloud_latency_ms,
        )
        base = betweenness(ov, CentralityMode.WEIGHTED_BY_LATENCY).scores
        got = betweenness(scaled, CentralityMode.WEIGHTED_BY_LATENCY).scores
        for dev, value in base.items():
            assert got[dev] == pytest.approx(value, abs=1e-9)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 1000), n=st.integers(2, 9), weighted=st.booleans())
    def test_sum_identity(self, seed, n, weighted):
        """Total betweenness equals the summed mean interior count per pair."""
        ov = build_overlay(n, seed)
        mode = (
            CentralityMode.WEIGHTED_BY_LATENCY
            if weighted
            else CentralityMode.UNWEIGHTED
        )
        total = sum(betweenness(ov, mode).scores.values())
        stats = oracle_pair_path_stats(ov, weighted=weighted)
        assert total == pytest.approx(
            sum(mean for _, mean in stats.values()), abs=1e-8
        )

    @given(seed=st.integers(0, 1000), n=st.integers(3, 12))
    def test_leaves_score_zero(self, seed, n):
        ov = build_overlay(n, seed)
        degree = {d.id: 0 for d in ov.devices}
        for link in ov.links:
            degree[link.a] += 1
            degree[link.b] += 1
        scores = betweenness(ov, CentralityMode.UNWEIGHTED)
        for dev, deg in degree.items():
            if deg == 1:
                assert scores[dev] == 0.0


def test_disconnected_overlay_rejected():
    ov = two_component_overlay()
    for mode in CentralityMode:
        with pytest.raises(TopologyError):
            betweenness(ov, mode)
