"""Inspect robustness margins and the influence graph mid-mission.

Steps the navigate preset partway through its run, then:
- prints each agent's five normalized constraint margins,
- builds the counterfactual influence graph (command deviation when one
  agent is removed) and ranks agents by Katz centrality,
- shows how the fuzzer would use the ranking to pick an attack target.

Usage:
    python demos/02_robustness_and_influence.py [--steps N] [--seed S]
"""
import argparse

import numpy as np

from litelfuzz import a1_navigate, build_influence_graph, key_node_sequence

MARGIN_NAMES = ["obstacle", "speed", "accel", "formation", "progress"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=25,
                        help="world steps to simulate before inspecting")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scenario = a1_navigate()
    sim = scenario.build_simulation(seed=args.seed)
    for _ in range(args.steps):
        sim.step()

    record = sim.trace.robustness[-1]   # the record of sim.world
    print(f"{scenario.name} @ step {sim.world.step_index}")
    print(f"swarm robustness {record.swarm:.3f}, "
          f"min margin {record.min_margin:.3f}\n")
    header = "  ".join(f"{n:>9}" for n in MARGIN_NAMES)
    print(f"agent  {header}  individual")
    for entry in record.per_agent:
        cells = "  ".join(f"{m:9.3f}" for m in entry.normalized)
        print(f"{entry.agent_id:5d}  {cells}  {entry.individual:10.3f}")

    params = scenario.fuzz_params()
    graph = build_influence_graph(sim.world, sim.controller, sim.spec,
                                  params.graph_radius)
    print(f"\ninfluence graph ({len(graph.edges)} edges, "
          f"radius {params.graph_radius} m):")
    for (i, j), w in sorted(graph.edges.items()):
        print(f"  {i} -> {j}: {w:.4f}")

    seq = key_node_sequence(graph, params.alpha_factor)
    print("\nKatz ranking (strongest influencer first):")
    for agent_id in seq.order:
        role = sim.world.agent(agent_id).role
        print(f"  agent {agent_id} ({role}): {seq.scores[agent_id]:.4f}")
    print(f"\nfuzzer target choice: agent {seq.key_node} "
          f"(pushing the strongest influencer perturbs the whole swarm)")

    # sanity check: removing the key node changes peers' commands the most
    baseline = sim.controller.commands(sim.world, sim.spec)
    deltas = {}
    for candidate in seq.order:
        removed = sim.controller.commands(sim.world.without(candidate),
                                          sim.spec)
        deltas[candidate] = sum(
            float(np.linalg.norm(baseline[j] - removed[j]))
            for j in removed if j != candidate)
    print("total command deviation if removed:",
          {k: round(v, 4) for k, v in sorted(deltas.items())})


if __name__ == "__main__":
    main()
