"""Unit tests for the kinematic world model."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from litelfuzz.world import (AgentState, Distances, FailureKind, InvalidState,
                             MissionSpec, Obstacle, WorldState, clamp_norm,
                             clamp_norms, detect_failure, integrate_step,
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

    @given(st.lists(st.floats(-10, 10), min_size=12, max_size=12),
           st.floats(0.01, 10))
    def test_clamp_norms_equal_clamp_norm(self, values, limit):
        v = np.array(values).reshape(4, 3)
        got = clamp_norms(v, limit)
        for k in range(4):
            assert (got[k] == clamp_norm(v[k], limit)).all()


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
        distances = obs.surface_distances(points)
        directions = obs.outward_directions(points)
        for index in np.ndindex(2, 3):
            assert distances[index] == obs.surface_distance(points[index])
            assert (directions[index]
                    == obs.outward_direction(points[index])).all()

    def test_circle_signed_distance(self):
        obs = Obstacle.circle([1.0, 1.0], 0.5)
        assert obs.surface_distance(np.array([2.5, 1.0])) == pytest.approx(1.0)
        assert obs.surface_distance(np.array([1.0, 1.0])) == pytest.approx(-0.5)
        assert obs.surface_distance(np.array([1.5, 1.0])) == pytest.approx(0.0)

    def test_box_outside_distance_is_euclidean_to_closest_corner(self):
        obs = Obstacle.box([0.0, 0.0], [1.0, 1.0])
        assert obs.surface_distance(np.array([2.0, 2.0])) == pytest.approx(math.sqrt(2.0))
        assert obs.surface_distance(np.array([0.5, 1.5])) == pytest.approx(0.5)

    def test_box_inside_is_negative_depth_to_nearest_face(self):
        obs = Obstacle.box([0.0, 0.0], [1.0, 2.0])
        assert obs.surface_distance(np.array([0.1, 1.0])) == pytest.approx(-0.1)
        assert obs.surface_distance(np.array([0.5, 0.2])) == pytest.approx(-0.2)

    def test_outward_direction_is_unit_and_points_away(self):
        obs = Obstacle.circle([0.0, 0.0], 1.0)
        d = obs.outward_direction(np.array([0.0, 2.0]))
        np.testing.assert_allclose(d, [0.0, 1.0])
        box = Obstacle.box([0.0, 0.0], [1.0, 1.0])
        d = box.outward_direction(np.array([0.5, -1.0]))
        np.testing.assert_allclose(d, [0.0, -1.0])
        inside = box.outward_direction(np.array([0.5, 0.9]))
        np.testing.assert_allclose(inside, [0.0, 1.0])
        assert np.linalg.norm(inside) == pytest.approx(1.0)

    def test_bounding_circle_encloses_box(self):
        obs = Obstacle.box([0.0, 0.0], [2.0, 1.0])
        center, radius = obs.bounding_circle()
        np.testing.assert_allclose(center, [1.0, 0.5])
        assert radius == pytest.approx(0.5 * math.sqrt(5.0))

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
    if draw(st.booleans()):
        agents.append(make_agent(spots[draw(st.integers(0, len(spots) - 1))],
                                 agent_id=1000, role="attacker"))
    return WorldState(0, agents, draw(st.sampled_from(_OBSTACLE_SETS[dim])))


def _same(x, y) -> bool:
    """Equal floats with equal signs (0.0 and -0.0 differ)."""
    return type(x) is float and x == y \
        and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestDistances:
    @given(_worlds())
    def test_entries_equal_scalar_forms(self, world):
        table = world.distances()
        assert table.column == {a.id: k for k, a in enumerate(world.agents)}
        for i, a in enumerate(world.agents):
            for j, b in enumerate(world.agents):
                assert _same(table.agents[i][j], norm(a.position - b.position))
            assert len(table.obstacles[i]) == len(world.obstacles)
            for d, obs in zip(table.obstacles[i], world.obstacles):
                assert _same(d, obs.surface_distance(a.position))
        assert world.distances() is table

    @given(_worlds())
    def test_min_obstacle_distance_equals_scalar_reduction(self, world):
        for a in world.agents:
            best = a.sensing_radius
            for obs in world.obstacles:
                best = min(best, obs.surface_distance(a.position))
            for other in world.agents:
                if other.id != a.id:
                    best = min(best, norm(other.position - a.position))
            expected = float(min(max(best, 0.0), a.sensing_radius))
            assert _same(min_obstacle_distance(a, world), expected)

    def test_empty_world_and_derived_world_tables(self):
        empty = WorldState(0, [], [Obstacle.circle([0.0, 0.0], 1.0)])
        table = empty.distances()
        assert (table.column, table.agents, table.obstacles) == ({}, [], [])
        w = WorldState(0, [make_agent([0, 0], agent_id=1),
                           make_agent([3, 4], agent_id=2)], [])
        assert w.distances().agents == [[0.0, 5.0], [5.0, 0.0]]
        assert w.distances().obstacles == [[], []]
        assert w.without(1).distances().agents == [[0.0]]
        assert "_distances" not in repr(w)

    @given(_worlds())
    def test_without_derives_the_table_a_fresh_world_builds(self, world):
        table = world.distances()
        for a in world.agents:
            derived = world.without(a.id)
            assert derived._distances is not None     # derived, not built
            _assert_same_tables(derived.distances(), Distances.of(derived))
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
            _assert_same_tables(derived.distances(), Distances.of(derived))
        # an id the world lacks: the copy builds its own table
        assert world.without(7)._distances is None


def _assert_same_tables(got: Distances, want: Distances) -> None:
    assert got.column == want.column
    for field_got, field_want in ((got.agents, want.agents),
                                  (got.obstacles, want.obstacles)):
        assert len(field_got) == len(field_want)
        for row_got, row_want in zip(field_got, field_want):
            assert len(row_got) == len(row_want)
            assert all(_same(x, y) for x, y in zip(row_got, row_want))


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
