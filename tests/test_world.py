"""Unit tests for the kinematic world model."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from obstacle_oracle import outward_direction, surface_distance

from litelfuzz.fuzzing import _FuzzDriver
from litelfuzz.world import (AgentState, FailureKind, InvalidState,
                             MissionSpec, Obstacle, Obstacles, RowsDistances,
                             RowsLayout, WorldState, clamp_norm, clamp_norms,
                             detect_failure, integrate_rows, integrate_step,
                             min_obstacle_distance, norm, row_norms)


def make_spec(**overrides):
    base = dict(goal=np.array([4.0, 0.0]), goal_tolerance=0.05,
                safe_distance=0.1, v_max=1.5, a_max=3.0,
                formation_min=0.1, formation_max=0.95, dt=0.05,
                nominal_steps=100, timeout_multiplier=2.0,
                collision_radius=0.05)
    base.update(overrides)
    return MissionSpec(**base)


def make_agent(pos, vel=None, agent_id=0, sensing=0.5, role="follower"):
    pos = np.asarray(pos, dtype=float)
    vel = np.zeros_like(pos) if vel is None else np.asarray(vel, dtype=float)
    return AgentState(agent_id, pos, vel, np.zeros_like(pos), sensing, role)


# -- small-vector norm -------------------------------------------------------

_COMPONENT = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                     1e-300, -1e-300, 1e300, -1e300]))


class TestNorm:
    @given(st.integers(2, 3), st.integers(1, 3),
           st.lists(_COMPONENT, min_size=9, max_size=9))
    def test_bit_identical_to_numpy(self, dim, stride, values):
        # stride > 1 gives a non-contiguous view of the backing array
        v = np.array(values)[:dim * stride:stride]
        assert v.shape == (dim,)
        with np.errstate(over="ignore"):  # both overflow alike near 1e300
            got = norm(v)
            expected = float(np.linalg.norm(v))
        assert type(got) is float
        assert got == expected

    @given(st.integers(2, 3), st.integers(1, 4), st.integers(1, 4),
           st.lists(_COMPONENT, min_size=48, max_size=48))
    def test_row_norms_equal_norm(self, dim, rows, cols, values):
        points = np.array(values[:rows * cols * dim]).reshape(rows, cols, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = points.reshape(-1, dim)
            pairwise = points[:, :, None] - points[:, None]
            fortran = np.asfortranarray(pairwise)
            for v in (stacked, points, pairwise, fortran):
                got = row_norms(v)
                assert got.shape == v.shape[:-1]
                for index in np.ndindex(got.shape):
                    expected = norm(v[index])
                    assert got[index] == expected or \
                        (math.isnan(expected) and math.isnan(got[index]))

    # (3, -4, 0) and (3, 4, 12) lie exactly at the limits 5 and 13
    @given(st.lists(st.sampled_from([0.0, -0.0, 3.0, -4.0, 4.0, 12.0])
                    | st.floats(-10, 10), min_size=12, max_size=12),
           st.lists(st.sampled_from([5.0, 13.0]) | st.floats(0.01, 10),
                    min_size=2, max_size=2))
    @example([0.0, -0.0, 0.0, -0.0, -0.0, -0.0,
              3.0, -4.0, -0.0, 3.0, 4.0, 12.0], [5.0, 13.0])
    @example([12.0, -0.0, 0.0, -0.0, 4.0, -3.0,
              -0.0, -0.0, -0.0, 0.0, 0.0, 0.0], [5.0, 0.5])
    def test_clamp_norms_equal_clamp_norm(self, values, limits):
        """Row by row and sign bits included, under one limit and under
        one limit per column, as ``integrate_rows`` passes them."""
        v = np.array(values).reshape(2, 2, 3)
        for limit in (limits[0], np.array(limits)):
            got = clamp_norms(v, limit)
            for b, m in np.ndindex(2, 2):
                expected = clamp_norm(v[b, m], np.broadcast_to(limit, 2)[m])
                assert (got[b, m] == expected).all()
                assert (np.signbit(got[b, m]) == np.signbit(expected)).all()


# -- obstacles ---------------------------------------------------------------

_OBSTACLES = [Obstacle.circle([0.5, -0.5], 1.0),
              Obstacle.box([-1.0, -0.5], [1.0, 1.5]),
              Obstacle.circle([0.0, 0.5, 1.0], 1.0),
              Obstacle.box([-1.0, -0.5, 0.0], [1.0, 1.5, 0.5])]


class TestObstacle:
    @given(st.sampled_from(_OBSTACLES),
           st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
                    | st.floats(-3, 3), min_size=18, max_size=18))
    def test_array_forms_equal_scalar_forms(self, obs, values):
        # grid values put points on faces, edges, centres and inside
        dim = len(obs.center if obs.kind == "circle" else obs.lo)
        points = np.array(values[:6 * dim]).reshape(2, 3, dim)
        distances = Obstacles([obs]).surface_distances(points)[..., 0]
        directions = Obstacles([obs]).outward_directions(points)[..., 0, :]
        for index in np.ndindex(2, 3):
            assert distances[index] == surface_distance(obs, points[index])
            assert (directions[index]
                    == outward_direction(obs, points[index])).all()

    @given(st.integers(2, 3), st.data())
    def test_stacked_kernel_equals_scalar_forms(self, dim, data):
        """A mixed set of circles and boxes, measured in one pass, equals
        each obstacle's scalar form at every point."""
        grid = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
        vector = st.lists(grid | st.floats(-2, 2), min_size=dim,
                          max_size=dim).map(np.array)
        circle = st.builds(Obstacle.circle, vector,
                           st.sampled_from([0.5, 1.0]) | st.floats(0.1, 2))
        box = st.builds(lambda lo, size: Obstacle.box(lo, lo + size), vector,
                        st.sampled_from([0.5, 1.0]) | st.floats(0.1, 2))
        obstacles = data.draw(st.lists(circle | box, max_size=4))
        # points on the grid land inside boxes, on their faces and at
        # circle centres
        points = np.array(data.draw(st.lists(vector, min_size=1,
                                             max_size=5)))[None]
        stack = Obstacles(obstacles)
        distances = stack.surface_distances(points)
        assert distances.shape == (1, len(points[0]), len(obstacles))
        if obstacles:
            directions = stack.outward_directions(points)
            assert directions.shape == distances.shape + (dim,)
        for n, p in enumerate(points[0]):
            for o, obs in enumerate(obstacles):
                assert distances[0, n, o] == surface_distance(obs, p)
                assert (directions[0, n, o]
                        == outward_direction(obs, p)).all()

    def test_stacked_kernel_edge_points(self):
        box = Obstacle.box([0.0, 0.0, 0.0], [1.0, 2.0, 1.0])
        circle = Obstacle.circle([3.0, 0.0, 0.0], 1.0)
        stack = Obstacles([circle, box])
        # at the circle's centre, inside the box, on a box face
        points = np.array([[3.0, 0.0, 0.0], [0.5, 1.75, 0.5],
                           [1.0, 1.0, 0.5]])
        distances = stack.surface_distances(points)
        directions = stack.outward_directions(points)
        assert distances[0, 0] == -1.0
        assert distances[1, 1] == surface_distance(box, points[1]) == -0.25
        assert distances[2, 1] == surface_distance(box, points[2]) == 0.0
        assert directions[0, 0].tolist() == [1.0, 0.0, 0.0]
        assert directions[1, 1].tolist() == [0.0, 1.0, 0.0]
        assert directions[2, 1].tolist() == [1.0, 0.0, 0.0]
        for n, p in enumerate(points):
            for o, obs in enumerate(stack):
                assert distances[n, o] == surface_distance(obs, p)
                assert (directions[n, o] == outward_direction(obs, p)).all()
        assert Obstacles().surface_distances(points).shape == (3, 0)

    def test_circle_signed_distance(self):
        obs = Obstacle.circle([1.0, 1.0], 0.5)
        assert surface_distance(obs, np.array([2.5, 1.0])) == pytest.approx(1.0)
        assert surface_distance(obs, np.array([1.0, 1.0])) == pytest.approx(-0.5)
        assert surface_distance(obs, np.array([1.5, 1.0])) == pytest.approx(0.0)

    def test_box_outside_distance_is_euclidean_to_closest_corner(self):
        obs = Obstacle.box([0.0, 0.0], [1.0, 1.0])
        assert surface_distance(obs, np.array([2.0, 2.0])) == pytest.approx(math.sqrt(2.0))
        assert surface_distance(obs, np.array([0.5, 1.5])) == pytest.approx(0.5)

    def test_box_inside_is_negative_depth_to_nearest_face(self):
        obs = Obstacle.box([0.0, 0.0], [1.0, 2.0])
        assert surface_distance(obs, np.array([0.1, 1.0])) == pytest.approx(-0.1)
        assert surface_distance(obs, np.array([0.5, 0.2])) == pytest.approx(-0.2)

    def test_outward_direction_is_unit_and_points_away(self):
        obs = Obstacle.circle([0.0, 0.0], 1.0)
        d = outward_direction(obs, np.array([0.0, 2.0]))
        np.testing.assert_allclose(d, [0.0, 1.0])
        box = Obstacle.box([0.0, 0.0], [1.0, 1.0])
        d = outward_direction(box, np.array([0.5, -1.0]))
        np.testing.assert_allclose(d, [0.0, -1.0])
        inside = outward_direction(box, np.array([0.5, 0.9]))
        np.testing.assert_allclose(inside, [0.0, 1.0])
        assert np.linalg.norm(inside) == pytest.approx(1.0)

    def test_invalid_constructors(self):
        with pytest.raises(ValueError):
            Obstacle.circle([0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            Obstacle.box([1.0, 0.0], [0.0, 1.0])


# -- integration -------------------------------------------------------------

class TestIntegrateStep:
    def test_clamp_norm(self):
        v = np.array([3.0, 4.0])
        np.testing.assert_allclose(clamp_norm(v, 10.0), v)
        np.testing.assert_allclose(clamp_norm(v, 2.5), [1.5, 2.0])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    def test_kinematic_caps(self, cmd, vel):
        # initial speed respects v_max, as maintained by the simulation itself
        spec = make_spec()
        agent = make_agent([0.0, 0.0], vel)
        nxt = integrate_step(agent, np.array(cmd), spec)
        assert np.linalg.norm(nxt.velocity) <= spec.v_max + 1e-9
        dv = nxt.velocity - agent.velocity
        assert np.linalg.norm(dv) <= spec.a_max * spec.dt + 1e-9
        # recorded acceleration is the realized delta-v over dt
        np.testing.assert_allclose(nxt.acceleration, dv / spec.dt)
        np.testing.assert_allclose(nxt.position,
                                   agent.position + nxt.velocity * spec.dt)

    @given(st.integers(2, 3), st.integers(1, 4), st.data())
    def test_rows_with_column_limits_equal_integrate_step(self, dim, size,
                                                           data):
        """Every column of a batch steps as ``integrate_step`` under its own
        limits; the last column stands for an attacker with other limits."""
        component = st.sampled_from([0.0, -0.0]) | st.floats(-20, 20)
        vectors = st.lists(st.lists(component, min_size=dim, max_size=dim),
                           min_size=size, max_size=size)
        position, velocity, command = (
            np.array(data.draw(st.lists(vectors, min_size=2, max_size=2)))
            for _ in range(3))
        swarm = make_spec(v_max=data.draw(st.floats(0.1, 5)),
                          a_max=data.draw(st.floats(0.1, 50)))
        attacker = make_spec(v_max=data.draw(st.floats(0.1, 10)),
                             a_max=data.draw(st.floats(0.1, 100)))
        specs = [swarm] * (size - 1) + [attacker]
        pos, vel, acc = integrate_rows(
            position, velocity, command,
            np.array([s.v_max for s in specs]),
            np.array([s.a_max for s in specs]), swarm.dt)
        for b, k in np.ndindex(2, size):
            want = integrate_step(AgentState(k, position[b, k],
                                             velocity[b, k],
                                             np.zeros(dim), 1.0),
                                  command[b, k], specs[k])
            assert (pos[b, k] == want.position).all()
            assert (vel[b, k] == want.velocity).all()
            assert (acc[b, k] == want.acceleration).all()

    def test_reaches_command_when_within_caps(self):
        spec = make_spec()
        agent = make_agent([0.0, 0.0], [1.0, 0.0])
        nxt = integrate_step(agent, np.array([1.1, 0.0]), spec)
        np.testing.assert_allclose(nxt.velocity, [1.1, 0.0])

    def test_non_finite_command_raises(self):
        spec = make_spec()
        agent = make_agent([0.0, 0.0])
        with pytest.raises(InvalidState):
            integrate_step(agent, np.array([np.nan, 0.0]), spec)


# -- world queries -----------------------------------------------------------

class TestWorldState:
    def test_agent_lookup_and_without(self):
        w = WorldState(0, [make_agent([0, 0], agent_id=1),
                           make_agent([1, 0], agent_id=2)], [])
        assert w.agent(1).id == 1
        with pytest.raises(KeyError):
            w.agent(9)
        assert [a.id for a in w.without(1).agents] == [2]

    def test_swarm_excludes_attackers(self):
        w = WorldState(0, [make_agent([0, 0], agent_id=1),
                           make_agent([1, 0], agent_id=7, role="attacker")], [])
        assert [a.id for a in w.swarm()] == [1]
        assert [a.id for a in w.attackers()] == [7]

    def test_min_obstacle_distance_clamped_to_sensing(self):
        a = make_agent([0.0, 0.0], sensing=0.5)
        far = WorldState(0, [a], [Obstacle.circle([10.0, 0.0], 1.0)])
        assert min_obstacle_distance(a, far) == pytest.approx(0.5)
        near = WorldState(0, [a], [Obstacle.circle([0.3, 0.0], 0.1)])
        assert min_obstacle_distance(a, near) == pytest.approx(0.2)
        inside = WorldState(0, [a], [Obstacle.circle([0.0, 0.0], 1.0)])
        assert min_obstacle_distance(a, inside) == 0.0  # clamped at zero

    def test_min_obstacle_distance_counts_other_agents(self):
        a = make_agent([0.0, 0.0], agent_id=0)
        b = make_agent([0.25, 0.0], agent_id=1)
        w = WorldState(0, [a, b], [])
        assert min_obstacle_distance(a, w) == pytest.approx(0.25)
        # an attacker has no row of the table: the swarm is in its column,
        # and another attacker is measured apart
        c = make_agent([0.0, 0.4], agent_id=7, role="attacker")
        d = make_agent([0.1, 0.4], agent_id=8, role="attacker")
        w = WorldState(0, [c, a, d, b], [])
        assert min_obstacle_distance(c, w) == pytest.approx(0.1)
        assert min_obstacle_distance(d, w) == pytest.approx(0.1)
        assert min_obstacle_distance(a, w) == pytest.approx(0.25)


class TestObstaclesLayout:
    ROLES = ["follower", "leader", "attacker", "follower", "leader"]
    CACHED = ("swarm_columns", "swarm", "leader", "leads", "follower_columns",
              "follows", "others", "not_self", "waypoints")

    def agents(self, roles=ROLES, sensing=0.5):
        return [make_agent([float(k), 0.0], agent_id=k, sensing=sensing,
                           role=role) for k, role in enumerate(roles)]

    def test_one_layout_per_agent_set_and_waypoint_list(self):
        stack = Obstacles([Obstacle.circle([5.0, 5.0], 1.0)])
        waypoints = [np.array([1.0, 1.0]), np.array([2.0, 0.0])]
        layout = stack.layout(self.agents(), waypoints)
        assert layout.obstacles is stack
        # other agent objects (moved) with the same ids, roles and radii
        moved = [make_agent(a.position + 1.0, agent_id=a.id,
                            role=a.role) for a in self.agents()]
        assert stack.layout(moved, waypoints) is layout
        others = [stack.layout(self.agents(self.ROLES[:-1]), waypoints),
                  stack.layout(self.agents(self.ROLES[::-1]), waypoints),
                  stack.layout(self.agents(sensing=0.7), waypoints),
                  stack.layout(self.agents(), list(waypoints))]
        assert len({id(o) for o in others + [layout]}) == 5
        assert Obstacles(stack).layout(self.agents(), waypoints) is layout

    @pytest.mark.parametrize("roles", [ROLES, ["leader"], ["attacker"], [],
                                       ["follower", "attacker", "leader"]])
    def test_cached_index_sets_equal_a_fresh_layouts(self, roles):
        stack = Obstacles([])
        agents, waypoints = self.agents(roles), [np.array([1.0, 2.0])]
        cached = stack.layout(agents, waypoints)
        for _ in range(2):      # resolved on the first read, kept after
            fresh = RowsLayout(agents, stack, waypoints)
            for name in self.CACHED:
                got, want = getattr(cached, name), getattr(fresh, name)
                assert type(got) is type(want), name
                assert np.array_equal(got, want) \
                    if isinstance(want, np.ndarray) else got == want, name
            assert stack.layout(agents, waypoints) is cached

    def test_forgotten_layouts_are_freed_by_reference_counting(self):
        stack, waypoints = Obstacles([]), [np.array([1.0, 2.0])]
        kept = stack.layout(self.agents(), waypoints)
        gc.disable()
        try:
            dropped = weakref.ref(stack.layout(self.agents(["leader"]),
                                               waypoints))
            stack.forget_layouts()
            assert dropped() is None
        finally:
            gc.enable()
        # a layout held elsewhere keeps working; the stack builds anew
        assert kept.leader == 1 and kept.obstacles is stack
        assert stack.layout(self.agents(), waypoints) is not kept

    def test_a_worlds_batch_reads_its_stacks_layout(self):
        agents = self.agents()
        world = WorldState(0, agents, [])
        later = WorldState(1, [make_agent(a.position + 1.0, agent_id=a.id,
                                          role=a.role) for a in agents],
                           world.obstacles, world.leader_waypoints)
        assert later.rows() is not world.rows()
        assert later.rows().layout is world.rows().layout \
            is world.obstacles.layout(agents, world.leader_waypoints)
        assert world.without(1).rows().layout is not world.rows().layout


# -- distance table ----------------------------------------------------------

_OBSTACLE_SETS = {
    2: [[], [Obstacle.circle([0.5, -0.5], 1.0),
             Obstacle.box([-1.0, -0.5], [1.0, 1.5])]],
    3: [[], [Obstacle.circle([0.0, 0.5, 1.0], 1.0),
             Obstacle.box([-1.0, -0.5, 0.0], [1.0, 1.5, 0.5])]],
}
# grid values put points on box faces and edges, inside boxes and at
# circle centres
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]) | st.floats(-3, 3)


@st.composite
def _worlds(draw):
    dim = draw(st.sampled_from([2, 3]))
    spots = draw(st.lists(st.lists(_GRID, min_size=dim, max_size=dim),
                          min_size=1, max_size=3))
    # agents take positions from a few spots, so some are co-located
    picks = draw(st.lists(st.integers(0, len(spots) - 1), min_size=1,
                          max_size=5))
    agents = [make_agent(spots[k], agent_id=n) for n, k in enumerate(picks)]
    if draw(st.booleans()):     # the attacker, in any column
        agents.insert(draw(st.integers(0, len(agents))), make_agent(
            spots[draw(st.integers(0, len(spots) - 1))], agent_id=1000,
            role="attacker"))
    return WorldState(0, agents, draw(st.sampled_from(_OBSTACLE_SETS[dim])))


def _same(x, y) -> bool:
    """Equal floats with equal signs (0.0 and -0.0 differ)."""
    return type(x) is float and x == y \
        and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestDistances:
    @given(_worlds())
    def test_entries_equal_scalar_forms(self, world):
        table = world.distances()
        swarm = world.swarm()
        assert table.agents.shape == (1, len(swarm), len(world.agents))
        assert table.obstacles.shape == (1, len(swarm), len(world.obstacles))
        for n, a in enumerate(swarm):
            for j, b in enumerate(world.agents):
                assert table.away[0, n, j].tobytes() \
                    == (a.position - b.position).tobytes()
                assert _same(table.agents[0, n, j].item(),
                             norm(a.position - b.position))
            for d, obs in zip(table.obstacles[0, n].tolist(),
                              world.obstacles):
                assert _same(d, surface_distance(obs, a.position))
        assert world.distances() is table
        assert world.rows().distances() is table

    @given(_worlds())
    def test_a_worlds_batch_and_world_share_one_table(self, world):
        table = world.rows().distances()
        assert world.distances() is table
        _assert_same_tables(table, RowsDistances.of(
            world.position[None], world.rows().layout.swarm, world.obstacles))

    @given(_worlds())
    def test_min_obstacle_distance_equals_scalar_reduction(self, world):
        """``min_obstacle_distance``, and the attacker's gaps the fuzzer
        reads from its column of the table, equal the scalar oracle."""
        for a in world.agents:
            best = a.sensing_radius
            for obs in world.obstacles:
                best = min(best, surface_distance(obs, a.position))
            for other in world.agents:
                if other.id != a.id:
                    best = min(best, norm(other.position - a.position))
            expected = float(min(max(best, 0.0), a.sensing_radius))
            assert _same(min_obstacle_distance(a, world), expected)
        for attacker in world.attackers():
            driver = object.__new__(_FuzzDriver)
            driver.sim = type("Sim", (), {"world": world})
            gaps = driver._gaps(attacker)
            assert [i for _, i in gaps] == [a.id for a in world.swarm()]
            for (d, _), a in zip(gaps, world.swarm()):
                assert _same(d, norm(attacker.position - a.position))

    def test_empty_world_and_derived_world_tables(self):
        empty = WorldState(0, [], [Obstacle.circle([0.0, 0.0], 1.0)])
        table = empty.distances()
        assert (table.away.shape, table.agents.shape, table.obstacles.shape) \
            == ((1, 0, 0, 0), (1, 0, 0), (1, 0, 1))
        assert detect_failure(empty, make_spec()) is None
        w = WorldState(0, [make_agent([0, 0], agent_id=1),
                           make_agent([3, 4], agent_id=2)], [])
        assert w.distances().agents.tolist() == [[[0.0, 5.0], [5.0, 0.0]]]
        assert w.distances().obstacles.shape == (1, 2, 0)
        assert w.without(1).distances().agents.tolist() == [[[0.0]]]
        assert "_distances" not in repr(w)

    @given(_worlds())
    def test_without_derives_the_table_a_fresh_world_builds(self, world):
        table = world.distances()
        for a in world.agents:
            derived = world.without(a.id)
            assert [b.id for b in derived.agents] \
                == [b.id for b in world.agents if b.id != a.id]
            _assert_same_tables(derived.distances(), _fresh_table(derived))
        assert world.distances() is table

    def test_without_leaves_a_singleton_swarm(self):
        leader = make_agent([0.0, 0.0], agent_id=0, role="leader")
        follower = make_agent([0.0, 0.0], agent_id=1)    # co-located
        attacker = make_agent([0.5, 0.0], agent_id=1000, role="attacker")
        world = WorldState(0, [leader, follower, attacker],
                           [Obstacle.circle([0.0, 0.0], 1.0)])
        world.distances()
        for first, second in ((1, 1000), (1000, 1), (0, 1)):
            derived = world.without(first)
            derived = derived.without(second)
            assert len(derived.agents) == 1
            _assert_same_tables(derived.distances(), _fresh_table(derived))
        # an id the world lacks: a copy with every agent
        assert [a.id for a in world.without(7).agents] == [0, 1, 1000]


def _fresh_table(world: WorldState) -> RowsDistances:
    """The table of a new world with ``world``'s agents and obstacles."""
    return WorldState(world.step_index, list(world.agents), world.obstacles,
                      world.leader_waypoints).distances()


def _assert_same_tables(got: RowsDistances, want: RowsDistances) -> None:
    for name in ("away", "agents", "obstacles"):
        assert getattr(got, name).shape == getattr(want, name).shape
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


# -- failure detection -------------------------------------------------------

class TestDetectFailure:
    def test_collision_strictly_below_radius(self):
        spec = make_spec(collision_radius=0.05)
        at = WorldState(0, [make_agent([0, 0], agent_id=0),
                            make_agent([0.05, 0.0], agent_id=1)], [])
        assert detect_failure(at, spec) is None
        below = WorldState(0, [make_agent([0, 0], agent_id=0),
                               make_agent([0.049, 0.0], agent_id=1)], [])
        assert detect_failure(below, spec) is FailureKind.DRONES_COLLIDE

    def test_collision_suppressed_without_formation_constraint(self):
        spec = make_spec(collision_radius=0.05, formation_enabled=False)
        w = WorldState(0, [make_agent([0, 0], agent_id=0),
                           make_agent([0.01, 0.0], agent_id=1)], [])
        assert detect_failure(w, spec) is None

    def test_attacker_contact_is_not_a_failure(self):
        spec = make_spec(collision_radius=0.05)
        w = WorldState(0, [make_agent([0, 0], agent_id=0),
                           make_agent([0.01, 0.0], agent_id=9, role="attacker")], [])
        assert detect_failure(w, spec) is None

    def test_obstacle_crash_at_surface(self):
        spec = make_spec()
        obs = Obstacle.circle([1.0, 0.0], 0.5)
        on_surface = WorldState(0, [make_agent([0.5, 0.0])], [obs])
        assert detect_failure(on_surface, spec) is FailureKind.OBSTACLE_CRASH
        clear = WorldState(0, [make_agent([0.4, 0.0])], [obs])
        assert detect_failure(clear, spec) is None

    def test_timeout_strictly_greater_than_budget(self):
        spec = make_spec(nominal_steps=150, timeout_multiplier=2.0)
        at_budget = WorldState(300, [make_agent([0, 0])], [])
        assert detect_failure(at_budget, spec) is None
        past = WorldState(301, [make_agent([0, 0])], [])
        assert detect_failure(past, spec) is FailureKind.TIMEOUT

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec(collision_radius=0.2)  # >= safe_distance
        with pytest.raises(ValueError):
            make_spec(timeout_multiplier=0.5)
        with pytest.raises(ValueError):
            make_spec(dt=0.0)
