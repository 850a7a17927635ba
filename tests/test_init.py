"""Informed initialization tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import init as init_module
from repro.core.init import (
    extend_state_informed,
    init_state_informed,
    init_state_spectral,
    spectral_memberships,
)
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler
from repro.core.state import init_state
from repro.graph.graph import Graph
from repro.graph.split import split_heldout


# -- oracles: the scatter/loop formulations the sparse products replaced -----


class _ScatterAdjacency:
    """``A @ x`` as one ``np.add.at`` scatter over a (2|E|, k) gather."""

    def __init__(self, graph):
        self.graph = graph
        self.rows = np.repeat(
            np.arange(graph.n_vertices, dtype=np.int64),
            np.diff(graph._csr_indptr),
        )

    def __matmul__(self, x):
        out = np.zeros_like(x)
        np.add.at(out, self.rows, x[self.graph._csr_indices])
        return out


def _informed_pi_oracle(graph, config, rng, smoothing_rounds=15, damping=0.95):
    """``init_state_informed``'s pi with per-vertex label-propagation loops."""
    n, k = graph.n_vertices, config.n_communities
    order = np.argsort(-(graph.degrees.astype(np.float64) + rng.random(n) * 1e-6))
    chosen, banned = [], set()
    for v in order:
        if len(chosen) >= min(k, n):
            break
        if int(v) in banned:
            continue
        chosen.append(int(v))
        banned.add(int(v))
        for u in graph.neighbors(int(v)):
            banned.add(int(u))
            banned.update(int(w) for w in graph.neighbors(int(u)))
    if len(chosen) < min(k, n):
        rest = [v for v in range(n) if v not in set(chosen)]
        chosen.extend(rest[: min(k, n) - len(chosen)])
    seeds = np.array(chosen, dtype=np.int64)
    onehot = np.full((seeds.size, k), 1e-3)
    onehot[np.arange(seeds.size), np.arange(seeds.size) % k] = 1.0
    onehot /= onehot.sum(axis=1, keepdims=True)
    pi = np.full((n, k), 1.0 / k)
    pi[seeds] = onehot
    for _ in range(smoothing_rounds):
        nbr_avg = np.empty_like(pi)
        for v in range(n):
            nbrs = graph.neighbors(v)
            nbr_avg[v] = pi[nbrs].mean(axis=0) if nbrs.size else pi[v]
        pi = (1.0 - damping) * pi + damping * nbr_avg
        pi[seeds] = onehot
        pi /= pi.sum(axis=1, keepdims=True)
    pi = pi**2 + config.effective_alpha / k
    return pi / pi.sum(axis=1, keepdims=True)


def _with_isolated(graph, extra=5):
    """``graph`` plus ``extra`` trailing vertices that have no edges."""
    return Graph(graph.n_vertices + extra, graph.edges)


class TestSparseProductsMatchOracles:
    """The sparse adjacency products are bit-identical to the formulations
    they replaced, on a planted graph and on one with isolated vertices."""

    @pytest.mark.parametrize("isolated", [0, 5])
    def test_spectral_matches_scatter(self, planted, isolated, monkeypatch):
        graph = _with_isolated(planted[0], isolated)
        got = spectral_memberships(graph, 4, rng=np.random.default_rng(7))
        monkeypatch.setattr(init_module, "_adjacency", _ScatterAdjacency)
        expect = spectral_memberships(graph, 4, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("isolated", [0, 5])
    def test_informed_matches_loop(self, planted, config, isolated):
        graph = _with_isolated(planted[0], isolated)
        state = init_state_informed(graph, config, np.random.default_rng(3))
        expect = _informed_pi_oracle(graph, config, np.random.default_rng(3))
        np.testing.assert_array_equal(state.pi, expect)


class TestInformedInit:
    def test_valid_state(self, planted, config, rng):
        graph, _ = planted
        state = init_state_informed(graph, config, rng)
        state.validate()
        assert state.pi.shape == (graph.n_vertices, config.n_communities)

    def test_damping_validated(self, planted, config, rng):
        graph, _ = planted
        with pytest.raises(ValueError):
            init_state_informed(graph, config, rng, damping=1.5)

    def test_deterministic(self, planted, config):
        graph, _ = planted
        a = init_state_informed(graph, config, np.random.default_rng(3))
        b = init_state_informed(graph, config, np.random.default_rng(3))
        np.testing.assert_array_equal(a.pi, b.pi)

    def test_neighbors_more_similar_than_random_pairs(self, planted, config, rng):
        """Smoothing must make adjacent vertices' memberships correlate."""
        graph, _ = planted
        state = init_state_informed(graph, config, rng)
        edges = graph.edges
        nbr_sim = (state.pi[edges[:, 0]] * state.pi[edges[:, 1]]).sum(axis=1).mean()
        rnd = rng.integers(0, graph.n_vertices, size=(len(edges), 2))
        rnd = rnd[rnd[:, 0] != rnd[:, 1]]
        rnd_sim = (state.pi[rnd[:, 0]] * state.pi[rnd[:, 1]]).sum(axis=1).mean()
        assert nbr_sim > 1.15 * rnd_sim

    def test_head_start_on_planted_graph(self, planted):
        """Informed init starts better and stays at-least-as-good after a
        short budget."""
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        cfg = AMMSBConfig(
            n_communities=4,
            mini_batch_vertices=48,
            neighbor_sample_size=24,
            seed=11,
            step_phi=StepSizeConfig(a=0.05),
            step_theta=StepSizeConfig(a=0.05),
        )

        def initial_single_sample(state):
            est = PerplexityEstimator(
                split.heldout_pairs, split.heldout_labels, cfg.delta
            )
            return est.single_sample_value(state.pi, state.beta)

        random_state = init_state(split.train.n_vertices, cfg, np.random.default_rng(2))
        informed_state = init_state_informed(split.train, cfg, np.random.default_rng(2))
        assert initial_single_sample(informed_state) < initial_single_sample(random_state)

        results = {}
        for name, st in (("random", random_state), ("informed", informed_state)):
            s = AMMSBSampler(split.train, cfg, heldout=split, state=st.copy())
            s.run(800, perplexity_every=100)
            results[name] = s.perplexity_estimator.value()
        assert results["informed"] < results["random"] * 1.05


class TestSpectralInit:
    def test_memberships_on_simplex(self, planted, rng):
        graph, _ = planted
        pi = spectral_memberships(graph, 4, rng=rng)
        assert pi.shape == (graph.n_vertices, 4)
        assert (pi >= 0).all()
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_for_fixed_seed(self, planted):
        graph, _ = planted
        a = spectral_memberships(graph, 4, rng=np.random.default_rng(5))
        b = spectral_memberships(graph, 4, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_separates_planted_communities(self, planted, rng):
        """Vertices sharing a planted community must look more alike
        than cross-community pairs."""
        graph, truth = planted
        pi = spectral_memberships(graph, 4, rng=rng)
        labels = np.argmax(truth.pi, axis=1)
        same = labels[:, None] == labels[None, :]
        sim = pi @ pi.T
        off = ~np.eye(len(labels), dtype=bool)
        assert sim[same & off].mean() > 1.5 * sim[~same].mean()

    def test_degenerate_graphs_rejected(self, tiny_graph, rng):
        with pytest.raises(ValueError):
            spectral_memberships(tiny_graph, 0, rng=rng)
        with pytest.raises(ValueError):
            spectral_memberships(tiny_graph, 6, rng=rng)  # n <= k
        empty = Graph(8, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            spectral_memberships(empty, 2, rng=rng)

    def test_state_valid_and_better_than_random(self, planted, config, rng):
        graph, _ = planted
        split = split_heldout(graph, 0.03, np.random.default_rng(5))
        est = PerplexityEstimator(
            split.heldout_pairs, split.heldout_labels, config.delta
        )
        spectral = init_state_spectral(split.train, config, rng=rng)
        spectral.validate()
        random_st = init_state(
            split.train.n_vertices, config, np.random.default_rng(2)
        )
        assert (
            est.single_sample_value(spectral.pi, spectral.beta)
            < est.single_sample_value(random_st.pi, random_st.beta)
        )


class TestExtendStateInformed:
    def _grown(self, tiny_graph):
        """tiny_graph plus two vertices: 6 linked to {2, 3}, 7 isolated-ish."""
        edges = np.concatenate([tiny_graph.edges, [[2, 6], [3, 6], [6, 7]]])
        return Graph(8, edges)

    def test_old_rows_copied_exactly(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        grown = extend_state_informed(state, self._grown(tiny_graph), config)
        grown.validate()
        np.testing.assert_array_equal(grown.pi[:6], state.pi)
        np.testing.assert_array_equal(grown.phi_sum[:6], state.phi_sum)
        np.testing.assert_array_equal(grown.theta, state.theta)

    def test_new_rows_average_their_neighbors(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        grown = extend_state_informed(
            state, self._grown(tiny_graph), config
        )
        k = config.n_communities
        mean = state.pi[[2, 3]].astype(np.float64).mean(axis=0)
        expected = mean + config.effective_alpha / k
        np.testing.assert_allclose(
            grown.pi[6], expected / expected.sum(), rtol=1e-6
        )
        # Vertex 7's only neighbor is 6 (an earlier new row): chained
        # informed init, not the uniform fallback.
        assert grown.pi[7].argmax() == grown.pi[6].argmax()

    def test_isolated_new_vertex_gets_uniform_row(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        grown_graph = Graph(
            8, np.concatenate([tiny_graph.edges, [[6, 7]]])
        )
        grown = extend_state_informed(state, grown_graph, config)
        np.testing.assert_allclose(
            grown.pi[6], np.full(config.n_communities, 0.25), rtol=1e-6
        )

    def test_same_size_returns_a_copy(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        same = extend_state_informed(state, tiny_graph, config)
        assert same is not state
        np.testing.assert_array_equal(same.pi, state.pi)

    def test_shrinking_rejected(self, tiny_graph, config, rng):
        state = init_state(10, config, rng)
        with pytest.raises(ValueError, match="covers"):
            extend_state_informed(state, tiny_graph, config)

    def test_community_mismatch_rejected(self, tiny_graph, config, rng):
        state = init_state(tiny_graph.n_vertices, config, rng)
        other = AMMSBConfig(n_communities=7, seed=0)
        with pytest.raises(ValueError, match="mismatch"):
            extend_state_informed(state, self._grown(tiny_graph), other)
