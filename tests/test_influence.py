"""Influence-graph and Katz-centrality tests.

Oracles:
- edge weights: an independent with/without command comparison computed
  directly in the test (no shared code path with the builder's cache);
- centrality: the truncated power series sum_k (alpha A)^k 1.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from litelfuzz.influence import (InfluenceGraph, build_influence_graph,
                                 katz_centrality, key_node_sequence)
from litelfuzz.world import AgentState, MissionSpec, WorldState


def make_spec():
    return MissionSpec(goal=np.array([4.0, 0.0]), goal_tolerance=0.05,
                       safe_distance=0.1, v_max=1.5, a_max=3.0,
                       formation_min=0.1, formation_max=0.95, dt=0.05,
                       nominal_steps=100)


class NeighborAverageController:
    """Toy controller: command = mean position of visible peers minus own.

    Purely positional, no internal state; ideal for counterfactual tests.
    """

    def __init__(self, radius=1.0):
        self.radius = radius

    def commands(self, world, spec):
        out = {}
        for a in world.agents:
            peers = [b.position for b in world.agents
                     if b.id != a.id
                     and np.linalg.norm(b.position - a.position) <= self.radius]
            if peers:
                out[a.id] = np.mean(peers, axis=0) - a.position
            else:
                out[a.id] = np.zeros_like(a.position)
        return out


def random_world(rng, n=None):
    n = n if n is not None else int(rng.integers(2, 7))
    agents = [AgentState(k, rng.uniform(-1.0, 1.0, 2), np.zeros(2),
                         np.zeros(2), 0.5, "follower") for k in range(n)]
    return WorldState(0, agents, [])


# -- counterfactual edge weights ---------------------------------------------

class TestBuildInfluenceGraph:
    def test_edges_match_independent_counterfactual(self):
        rng = np.random.default_rng(3)
        spec = make_spec()
        ctl = NeighborAverageController()
        for _ in range(100):
            world = random_world(rng)
            radius = float(rng.uniform(0.3, 1.5))
            graph = build_influence_graph(world, ctl, spec, radius)
            baseline = ctl.commands(world, spec)
            for i in graph.nodes:
                for j in graph.nodes:
                    if i == j:
                        continue
                    gap = np.linalg.norm(world.agent(i).position
                                         - world.agent(j).position)
                    expected = 0.0
                    if gap <= radius:
                        removed = ctl.commands(world.without(i), spec)
                        expected = float(np.linalg.norm(
                            baseline[j] - removed[j])) / spec.v_max
                    assert graph.weight(i, j) == pytest.approx(expected, abs=1e-9)

    def test_no_edges_beyond_radius(self):
        rng = np.random.default_rng(5)
        spec = make_spec()
        ctl = NeighborAverageController(radius=10.0)
        for _ in range(50):
            world = random_world(rng)
            radius = float(rng.uniform(0.2, 1.0))
            graph = build_influence_graph(world, ctl, spec, radius)
            for (i, j) in graph.edges:
                gap = np.linalg.norm(world.agent(i).position
                                     - world.agent(j).position)
                assert gap <= radius

    def test_zero_deviation_edges_omitted(self):
        spec = make_spec()
        # peers out of the controller's interaction range but inside the
        # graph radius: removal changes nothing, so no edge may appear
        ctl = NeighborAverageController(radius=0.1)
        world = WorldState(0, [AgentState(0, np.array([0.0, 0.0]), np.zeros(2),
                                          np.zeros(2), 0.5, "follower"),
                               AgentState(1, np.array([0.5, 0.0]), np.zeros(2),
                                          np.zeros(2), 0.5, "follower")], [])
        graph = build_influence_graph(world, ctl, spec, influence_radius=1.0)
        assert graph.edges == {}

    def test_single_agent_graph_is_empty(self):
        spec = make_spec()
        world = random_world(np.random.default_rng(0), n=1)
        graph = build_influence_graph(world, NeighborAverageController(),
                                      spec, 1.0)
        assert graph.nodes == [0] and graph.edges == {}


# -- Katz centrality ----------------------------------------------------------

def random_digraph(rng, n):
    graph = InfluenceGraph(nodes=list(range(n)))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                graph.edges[(i, j)] = float(rng.uniform(0.05, 1.0))
    return graph


def power_series_scores(graph, alpha_factor, terms=4000):
    """Truncated series x = sum_k (alpha A)^k 1 (independent oracle)."""
    a, order = graph.adjacency()
    lam = max(abs(np.linalg.eigvals(a))) if a.size and np.any(a) else 0.0
    alpha = alpha_factor / lam if lam > 1e-12 else alpha_factor
    x = np.zeros(len(order))
    term = np.ones(len(order))
    for _ in range(terms):
        x = x + term
        term = alpha * (a @ term)   # advance (alpha A)^k 1 -> (alpha A)^(k+1) 1
    return {node: float(s) for node, s in zip(order, x)}


class TestKatzCentrality:
    def test_matches_truncated_power_series(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            graph = random_digraph(rng, n)
            scores = katz_centrality(graph, 0.85)
            oracle = power_series_scores(graph, 0.85)
            err = max(abs(scores[k] - oracle[k]) for k in scores)
            assert err < 1e-6

    def test_key_node_ordering_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            graph = random_digraph(rng, int(rng.integers(2, 13)))
            seq = key_node_sequence(graph, 0.85)
            oracle = power_series_scores(graph, 0.85)
            expected = sorted(oracle, key=lambda k: (-round(oracle[k], 9), k))
            got_key = seq.order[0]
            # orders must agree wherever scores are not within oracle noise
            assert abs(oracle[got_key] - oracle[expected[0]]) < 1e-6

    def test_empty_and_edgeless_graphs(self):
        assert katz_centrality(InfluenceGraph(nodes=[])) == {}
        flat = katz_centrality(InfluenceGraph(nodes=[3, 1, 2]))
        assert flat == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_tie_break_is_ascending_id(self):
        # perfectly symmetric 2-cycle: equal scores, id order decides
        graph = InfluenceGraph(nodes=[4, 2])
        graph.edges[(2, 4)] = 0.5
        graph.edges[(4, 2)] = 0.5
        seq = key_node_sequence(graph)
        assert seq.scores[2] == pytest.approx(seq.scores[4])
        assert seq.order == [2, 4]
        assert seq.key_node == 2

    def test_out_influence_orientation(self):
        # 0 -> 1 -> 2 chain: the source influences most
        graph = InfluenceGraph(nodes=[0, 1, 2])
        graph.edges[(0, 1)] = 1.0
        graph.edges[(1, 2)] = 1.0
        seq = key_node_sequence(graph)
        assert seq.key_node == 0
        assert seq.scores[0] > seq.scores[1] > seq.scores[2]

    def test_periodic_cycle_converges(self):
        # pure 2-cycle breaks naive power-iteration spectral estimates
        graph = InfluenceGraph(nodes=[0, 1])
        graph.edges[(0, 1)] = 1.0
        graph.edges[(1, 0)] = 1.0
        scores = katz_centrality(graph, 0.85)
        expected = 1.0 / (1.0 - 0.85)  # x = 0.85 x + 1, symmetric
        assert scores[0] == pytest.approx(expected, rel=1e-6)

    def test_alpha_validation(self):
        graph = InfluenceGraph(nodes=[0, 1])
        with pytest.raises(ValueError):
            katz_centrality(graph, 0.0)
        with pytest.raises(ValueError):
            katz_centrality(graph, 1.0)

    @given(st.data())
    def test_sinks_exact_and_order_consistent(self, data):
        # nodes without out-edges score exactly 1: a plain LU solve leaves
        # them 1 ulp off, which breaks exact ties in the ranking
        n = data.draw(st.integers(1, 12))
        graph = InfluenceGraph(nodes=list(range(n)))
        for i in range(n):
            if data.draw(st.booleans()):
                continue
            for j in range(n):
                if i != j and data.draw(st.booleans()):
                    graph.edges[(i, j)] = data.draw(st.floats(0.05, 1.0))
        scores = katz_centrality(graph, 0.85)
        sources = {i for i, _ in graph.edges}
        for node, score in scores.items():
            assert score >= 1.0
            if node not in sources:
                assert score == 1.0
        assert key_node_sequence(graph, 0.85).order \
            == sorted(scores, key=lambda k: (-scores[k], k))
