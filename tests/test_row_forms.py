"""The navigator's array forms, ``failed_rows`` and the batch distance table
equal the scalar forms on every row, byte for byte.

Each row ``k`` of a random batch is also a :class:`WorldState`
(``rows.world(k, step)``); the scalar ``update``, ``commands``,
``mission_complete``, ``detect_failure`` and ``Distances`` of that world
are the oracle for row ``k`` of the array forms.
"""
import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from litelfuzz.controllers import ApfNavigationController
from litelfuzz.world import (ROLE_ATTACKER, ROLE_FOLLOWER, ROLE_LEADER,
                             AgentState, MissionSpec, Obstacle, RowsDistances,
                             RowsLayout, WorldRows, detect_failure,
                             failed_rows)

# grid values put points on box faces, inside boxes and at circle centres;
# few distinct values make co-located agents and in-range pairs common
_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
_OBSTACLES = {
    2: [Obstacle.circle([0.5, -0.5], 1.0),
        Obstacle.box([-1.0, -0.5], [1.0, 1.5])],
    3: [Obstacle.circle([0.0, 0.5, 1.0], 1.0),
        Obstacle.box([-1.0, -0.5, 0.0], [1.0, 1.5, 0.5])],
}


def _agents(roles: list[str]) -> list[AgentState]:
    """Layout agents: ids, roles and sensing radii, no kinematics."""
    return [AgentState(1000 if role == ROLE_ATTACKER else k, None, None,
                       None, 0.5, role) for k, role in enumerate(roles)]


def _spec(goal, tolerance, collision, enabled):
    return MissionSpec(goal=goal, goal_tolerance=tolerance, safe_distance=1.0,
                       v_max=1.5, a_max=6.0, formation_min=0.1,
                       formation_max=0.95, dt=0.05, nominal_steps=10,
                       timeout_multiplier=2.0, collision_radius=collision,
                       formation_enabled=enabled)


@st.composite
def cases(draw):
    """(rows, controller, state, spec, step)."""
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
    agents = _agents(roles)
    waypoints = draw(st.lists(spot | point, min_size=1, max_size=3))
    count = draw(st.integers(1, 3))
    position = np.array([[draw(spot | point) for _ in agents]
                         for _ in range(count)])
    velocity = np.array([[draw(point) for _ in agents] for _ in range(count)])
    rows = WorldRows(RowsLayout(agents, draw(st.sampled_from(
        [[], _OBSTACLES[dim]])), waypoints), position, velocity,
        np.zeros_like(position))
    offsets = {a.id: draw(st.sampled_from(spots) | point)
               for a in agents if a.role == ROLE_FOLLOWER}
    controller = ApfNavigationController(
        formation_offsets=offsets,
        influence_radius=draw(st.sampled_from([0.3, 0.75, 2.0])),
        repulsion_gain=draw(st.sampled_from([0.0, 0.05, 2.0])),
        slow_radius=draw(st.sampled_from([0.3, 2.0])),
        waypoint_switch_radius=draw(st.sampled_from([0.0, 0.2, 1.0])),
        formation_tolerance=draw(st.sampled_from([0.15, 1.0, 4.0])))
    state = (np.array([draw(st.integers(0, len(waypoints) - 1))
                       for _ in range(count)]),)
    spec = _spec(waypoints[-1], draw(st.sampled_from([0.05, 0.5, 4.0])),
                 draw(st.sampled_from([0.0, 0.05, 0.6])), draw(st.booleans()))
    return rows, controller, state, spec, draw(st.integers(0, 25))


def _same(x, y) -> bool:
    """Equal floats with equal signs (0.0 and -0.0 differ)."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _edge_case():
    """Row 0: the leader at its last waypoint, the goal, which is a
    circle's centre; co-located followers inside a box; the attacker inside
    the influence radius. Row 1: the leader before its last waypoint, in
    range of a follower and the attacker, all clear of the obstacles: its
    leader's column is in range in row 1 only."""
    roles = [ROLE_LEADER, ROLE_FOLLOWER, ROLE_FOLLOWER, ROLE_ATTACKER]
    goal = np.array([0.5, -0.5])
    position = np.array([
        [goal, [0.0, 1.0], [0.0, 1.0], [0.5, -0.4]],
        [[3.0, -2.0], [3.5, -2.0], [4.0, 3.0], [3.0, -1.5]],
    ])
    rows = WorldRows(RowsLayout(_agents(roles), _OBSTACLES[2],
                                [np.array([0.0, 0.0]), goal]),
                     position, np.zeros_like(position),
                     np.zeros_like(position))
    controller = ApfNavigationController(
        formation_offsets={1: np.array([-0.5, 1.5]), 2: np.array([0.0, 0.0])},
        influence_radius=0.75, repulsion_gain=0.05, formation_tolerance=4.0)
    return rows, controller, (np.array([1, 0]),), \
        _spec(goal, 0.5, 0.05, True), 3


def _lone_leader():
    """A leader without followers at its last waypoint: inside the goal
    tolerance in row 0, so the mission is complete, and outside it in
    row 1."""
    goal = np.array([0.5, -0.5])
    position = np.array([[[0.7, -0.5]], [[3.0, 3.0]]])
    rows = WorldRows(RowsLayout(_agents([ROLE_LEADER]), [],
                                [np.array([0.0, 0.0]), goal]),
                     position, np.zeros_like(position),
                     np.zeros_like(position))
    return rows, ApfNavigationController(formation_offsets={}), \
        (np.array([1, 1]),), _spec(goal, 0.5, 0.05, True), 3


@settings(max_examples=300, deadline=None)
@given(cases())
@example(_edge_case())
@example(_lone_leader())
def test_row_forms_equal_scalar_forms(case):
    rows, controller, state, spec, step = case
    layout = rows.layout
    swarm = layout.swarm_columns
    updated = controller.update_rows(state, rows, spec)
    commands = controller.commands_rows(updated, rows, spec)
    complete = controller.mission_complete_rows(updated, rows, spec)
    failed = failed_rows(rows, step, spec)
    table = rows.distances()
    assert commands.shape == (len(rows.position), len(swarm),
                              rows.position.shape[2])
    for k in range(len(rows.position)):
        world = rows.world(k, step)
        scalar = replace(controller, waypoint_index=int(state[0][k]))
        scalar.update(world, spec)
        assert updated[0][k] == scalar.waypoint_index
        want = scalar.commands(world, spec)
        assert sorted(want) == sorted(layout.agents[c].id for c in swarm)
        for n, c in enumerate(swarm):
            assert commands[k, n].tobytes() \
                == want[layout.agents[c].id].tobytes()
        assert complete[k] == scalar.mission_complete(world, spec)
        assert failed[k] == (detect_failure(world, spec) is not None)
        scalar_table = world.distances()
        for n, c in enumerate(swarm):
            p = world.agents[c].position
            for m, other in enumerate(world.agents):
                assert table.away[k, n, m].tobytes() \
                    == (p - other.position).tobytes()
                assert _same(table.agents[k, n, m],
                             scalar_table.agents[c][m])
            for o, d in enumerate(scalar_table.obstacles[c]):
                assert _same(table.obstacles[k, n, o], d)


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_select_keeps_the_table_of_the_kept_rows(case, data):
    rows = case[0]
    keep = np.array(data.draw(st.lists(st.booleans(),
                                       min_size=len(rows.position),
                                       max_size=len(rows.position))))
    rows.distances()
    kept = rows.select(keep)
    assert kept.layout is rows.layout
    fresh = RowsDistances.of(kept)
    got = kept.distances()
    for name in ("away", "agents", "obstacles"):
        assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes()
        assert getattr(got, name).shape == getattr(fresh, name).shape
