"""Per-agent numpy forms of the navigator's potential field.

:meth:`ApfNavigationController.commands` computes every agent's command in
one pass per world, its field summed in Python floats. These compute one
agent's pull and push with numpy vectors, term by term, as the navigator
once did, and serve the tests as the oracle it must equal with ``==`` and
equal zero signs.
"""
import numpy as np

from litelfuzz.world import ROLE_ATTACKER, ROLE_LEADER, clamp_norm, norm

_EPS = 1e-9


def attraction(position: np.ndarray, target: np.ndarray, v_max: float,
               slow_radius: float) -> np.ndarray:
    """Full-speed pull toward ``target``, ramping down inside
    ``slow_radius``."""
    delta = target - position
    dist = norm(delta)
    if dist < _EPS:
        return np.zeros_like(position)
    speed = v_max * min(1.0, dist / slow_radius)
    return delta * (speed / dist)


def repulsion(agent_id: int, world, influence_radius: float,
              gain: float) -> np.ndarray:
    """Potential-field push on a swarm agent of ``world`` away from
    obstacles and agents within range, read from its row of the world's
    distance table; ``total`` starts at +0.0, so the sign of a zero
    component cannot show."""
    table = world.distances()
    col = [a.id for a in world.agents].index(agent_id)
    n = [a.id for a in world.swarm()].index(agent_id)    # the agent's row
    position = world.agents[col].position
    total = np.zeros_like(position)
    near = [(o, d) for o, d in enumerate(table.obstacles[0, n].tolist())
            if d < influence_radius]
    if near:
        directions = world.obstacles.outward_directions(position)
        for o, d in near:
            d = max(d, 1e-6)
            mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
            total = total + mag * directions[o]
    for k, (other, d) in enumerate(zip(world.agents,
                                       table.agents[0, n].tolist())):
        if k == col or not d < influence_radius:
            continue
        away = position - other.position
        d = max(d, 1e-6)
        mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
        total = total + mag * (away / d)
    return total


def commands(controller, world, spec) -> dict[int, np.ndarray]:
    """The navigator's commands of ``world``, agent by agent."""
    leader = next((a for a in world.agents if a.role == ROLE_LEADER), None)
    cmds = {}
    for agent in world.agents:
        if agent.role == ROLE_ATTACKER:
            continue
        if agent.role == ROLE_LEADER:
            wps = world.leader_waypoints
            target = wps[min(controller.state[0][0], len(wps) - 1)]
            att = attraction(agent.position, target, spec.v_max,
                             controller.slow_radius)
            if norm(agent.position - spec.goal) <= spec.goal_tolerance:
                att = np.zeros_like(att)
        elif leader is None:
            # counterfactual without any reference agent: hold
            att = np.zeros_like(agent.position)
        else:
            slot = leader.position + controller.formation_offsets[agent.id]
            att = attraction(agent.position, slot, spec.v_max,
                             controller.slow_radius)
        rep = repulsion(agent.id, world, controller.influence_radius,
                        controller.repulsion_gain)
        cmds[agent.id] = clamp_norm(att + rep, spec.v_max)
    return cmds
