"""Inter-agent influence graph and Katz-centrality key-node ranking.

The influence of agent i on agent j is measured counterfactually: j's
controller command is computed with and without i present, and the
normalized command difference becomes the weight of the directed edge
i -> j. Pairs farther apart than the eligibility radius are ignored.

Centrality uses the out-influence orientation x = alpha * A x + 1, so
the top-ranked node is the strongest influencer rather than the most
influenced one. It is solved in closed form, x = (I - alpha A)^-1 1
(Katz 1953), with alpha a fixed fraction of 1 / spectral radius.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .world import MissionSpec, WorldState, norm


@dataclass
class InfluenceGraph:
    nodes: list[int]
    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    def weight(self, i: int, j: int) -> float:
        return self.edges.get((i, j), 0.0)

    def adjacency(self) -> tuple[np.ndarray, list[int]]:
        order = sorted(self.nodes)
        index = {n: k for k, n in enumerate(order)}
        a = np.zeros((len(order), len(order)))
        for (i, j), w in self.edges.items():
            a[index[i], index[j]] = w
        return a, order


@dataclass
class KeyNodeSequence:
    order: list[int]               # agent ids, descending score, ties by id
    scores: dict[int, float]

    @property
    def key_node(self) -> int:
        return self.order[0]


def build_influence_graph(world: WorldState, controller, spec: MissionSpec,
                          influence_radius: float,
                          node_ids: list[int] | None = None) -> InfluenceGraph:
    """Evaluate every ordered swarm pair; keep only positive-deviation edges."""
    ids = sorted(node_ids) if node_ids is not None \
        else sorted(a.id for a in world.swarm())
    graph = InfluenceGraph(nodes=list(ids))
    if len(ids) < 2:
        return graph
    rows = {a.id: n for n, a in enumerate(world.swarm())}   # table rows
    columns = {a.id: k for k, a in enumerate(world.agents)}
    distances = world.distances().agents.tolist()[0]
    baseline = controller.commands(world, spec)
    removed_cache: dict[int, dict[int, np.ndarray]] = {}
    for i in ids:
        row = distances[rows[i]]
        for j in ids:
            if i == j:
                continue
            if row[columns[j]] > influence_radius:
                continue
            if i not in removed_cache:
                removed_cache[i] = controller.commands(world.without(i), spec)
            dev = norm(baseline[j] - removed_cache[i][j]) / spec.v_max
            if dev > 0.0:
                graph.edges[(i, j)] = dev
    return graph


def _spectral_radius_estimate(a: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix.

    Computed from the full eigenvalue set: power iteration is unreliable
    on periodic structures (e.g. pure cycles), where the ratio estimate
    oscillates and can undershoot badly enough that alpha passes 1 / rho
    and the Katz series diverges.
    """
    if a.shape[0] == 0 or not np.any(a):
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def katz_centrality(graph: InfluenceGraph,
                    alpha_factor: float) -> dict[int, float]:
    """Solve x = alpha * A x + 1 in the out-influence orientation.

    ``alpha = alpha_factor / spectral radius``, so I - alpha A is
    invertible and x is the sum of the series sum_k (alpha A)^k 1.
    """
    if not 0.0 < alpha_factor < 1.0:
        raise ValueError("alpha_factor must lie in (0, 1)")
    a, order = graph.adjacency()
    n = len(order)
    if n == 0:
        return {}
    lam = _spectral_radius_estimate(a)
    alpha = alpha_factor / lam if lam > 1e-12 else alpha_factor
    y = np.linalg.solve(np.eye(n) - alpha * a, np.ones(n))
    # One fixed-point step on the solution. The LU solve leaves nodes
    # without out-edges at 1 +- 1 ulp, which reorders exact ties in the
    # ranking; the step gives them exactly 1.0 and moves the rest by an ulp.
    x = alpha * (a @ y) + 1.0
    return {node: float(s) for node, s in zip(order, x)}


def key_node_sequence(graph: InfluenceGraph,
                      alpha_factor: float) -> KeyNodeSequence:
    """Rank agents by descending centrality; ties broken by ascending id."""
    scores = katz_centrality(graph, alpha_factor)
    order = sorted(scores, key=lambda n: (-scores[n], n))
    return KeyNodeSequence(order=order, scores=scores)
