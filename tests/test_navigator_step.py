"""The navigator's one-pass ``commands`` equals the per-agent numpy
oracle of ``tests/navigator_oracle.py`` on every component, zero signs
included.

The one pass sums the potential field in Python floats from the world's
distance table; the oracle sums numpy vectors agent by agent. Both add
the same IEEE terms in the same order, so they must agree bit for bit.
"""
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from navigator_oracle import commands as oracle_commands

from litelfuzz.controllers import ApfNavigationController
from litelfuzz.world import (ROLE_ATTACKER, ROLE_FOLLOWER, ROLE_LEADER,
                             AgentState, MissionSpec, Obstacle, WorldState)

# grid values put points on box faces, inside boxes and at circle centres;
# few distinct values make co-located agents and in-range pairs common
_GRID = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]
_OBSTACLES = {
    2: [Obstacle.circle([0.5, -0.5], 1.0),
        Obstacle.box([-1.0, -0.5], [1.0, 1.5])],
    3: [Obstacle.circle([0.0, 0.5, 1.0], 1.0),
        Obstacle.box([-1.0, -0.5, 0.0], [1.0, 1.5, 0.5])],
}


def _spec(goal, tolerance):
    return MissionSpec(goal=goal, goal_tolerance=tolerance, safe_distance=1.0,
                       v_max=1.5, a_max=6.0, formation_min=0.1,
                       formation_max=0.95, dt=0.05, nominal_steps=10)


def _world(roles, positions, obstacles, waypoints):
    agents = [AgentState(1000 if role == ROLE_ATTACKER else k, p,
                         np.zeros_like(p), np.zeros_like(p), 0.5, role)
              for k, (role, p) in enumerate(zip(roles, positions))]
    return WorldState(3, agents, obstacles, waypoints)


@st.composite
def cases(draw):
    """(world, controller, spec)."""
    dim = draw(st.sampled_from([2, 3]))
    point = st.lists(st.sampled_from(_GRID) | st.floats(-2, 2),
                     min_size=dim, max_size=dim).map(np.array)
    spots = draw(st.lists(point, min_size=1, max_size=3))
    spot = st.sampled_from(spots)
    leader = draw(st.booleans())
    roles = [ROLE_LEADER] * leader + [ROLE_FOLLOWER] * draw(
        st.integers(0 if leader else 1, 4))
    if draw(st.booleans()):     # the attacker, anywhere in world order
        roles.insert(draw(st.integers(0, len(roles))), ROLE_ATTACKER)
    waypoints = draw(st.lists(spot | point, min_size=1, max_size=3))
    world = _world(roles, [draw(spot | point) for _ in roles],
                   draw(st.sampled_from([[], _OBSTACLES[dim]])), waypoints)
    controller = ApfNavigationController(
        formation_offsets={k: draw(spot | point)
                           for k, role in enumerate(roles)
                           if role == ROLE_FOLLOWER},
        influence_radius=draw(st.sampled_from([0.3, 0.75, 2.0])),
        repulsion_gain=draw(st.sampled_from([0.0, 0.05, 2.0])),
        slow_radius=draw(st.sampled_from([0.3, 2.0])),
        state=(np.array([draw(st.integers(0, len(waypoints)))]),))
    spec = _spec(draw(spot | point), draw(st.sampled_from([0.05, 0.5, 4.0])))
    return world, controller, spec


def _case(roles, positions, obstacles, offsets, waypoint, goal):
    positions = [np.array(p, dtype=float) for p in positions]
    world = _world(roles, positions, obstacles,
                   [np.array(waypoint, dtype=float)])
    controller = ApfNavigationController(
        formation_offsets={k: np.array(o, dtype=float)
                           for k, o in offsets.items()},
        influence_radius=0.75, repulsion_gain=0.05)
    return world, controller, _spec(np.array(goal, dtype=float), 0.05)


def _inside_box():
    """Co-located followers inside the box (a zero outward vector, the
    1e-6 distance floor), the attacker between them and the leader."""
    return _case([ROLE_LEADER, ROLE_FOLLOWER, ROLE_ATTACKER, ROLE_FOLLOWER],
                 [[0.5, -0.4], [0.0, 1.0], [0.2, 1.0], [0.0, 1.0]],
                 _OBSTACLES[2], {1: [-0.5, 1.5], 3: [0.0, 0.0]},
                 [0.0, 0.0], [0.5, -0.5])


def _without_leader():
    """A counterfactual 3D world: followers hold, and only the field
    moves them."""
    return _case([ROLE_FOLLOWER, ROLE_FOLLOWER, ROLE_ATTACKER],
                 [[0.0, 0.0, 0.2], [0.3, 0.0, 0.2], [0.0, 0.4, 0.2]],
                 _OBSTACLES[3], {0: [0.0, 0.0, 0.0], 1: [0.3, 0.0, 0.0]},
                 [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])


def _lone_leader_at_goal():
    """A singleton swarm whose leader sits at the goal, near a circle."""
    return _case([ROLE_LEADER], [[0.5, 0.55]], _OBSTACLES[2], {},
                 [0.5, 0.55], [0.5, 0.55])


def _same(x, y) -> bool:
    """Equal floats with equal signs (0.0 and -0.0 differ)."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@settings(max_examples=400, deadline=None)
@given(cases())
@example(_inside_box())
@example(_without_leader())
@example(_lone_leader_at_goal())
def test_commands_equal_the_per_agent_oracle(case):
    world, controller, spec = case
    got = controller.commands(world, spec)
    want = oracle_commands(controller, world, spec)
    assert list(got) == list(want)
    for agent_id, command in want.items():
        assert got[agent_id].shape == command.shape
        assert all(_same(x, y) for x, y in zip(got[agent_id].tolist(),
                                                command.tolist()))
