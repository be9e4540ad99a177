"""Controller behaviour tests for both built-in swarm controllers."""
import numpy as np
import pytest

from litelfuzz.controllers import (ApfNavigationController,
                                   DispersalSearchController, _attraction,
                                   _repulsion)
from litelfuzz.world import AgentState, MissionSpec, Obstacle, WorldState


def make_spec(**overrides):
    base = dict(goal=np.array([4.0, 0.0]), goal_tolerance=0.05,
                safe_distance=0.1, v_max=1.5, a_max=3.0,
                formation_min=0.1, formation_max=0.95, dt=0.05,
                nominal_steps=100)
    base.update(overrides)
    return MissionSpec(**base)


def make_agent(pos, agent_id=0, role="follower", sensing=0.5):
    p = np.asarray(pos, dtype=float)
    return AgentState(agent_id, p, np.zeros_like(p), np.zeros_like(p),
                      sensing, role)


class TestFields:
    def test_attraction_full_speed_then_ramp(self):
        v = _attraction(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 1.5, 0.3)
        np.testing.assert_allclose(v, [1.5, 0.0])
        near = _attraction(np.array([0.0, 0.0]), np.array([0.15, 0.0]), 1.5, 0.3)
        np.testing.assert_allclose(near, [0.75, 0.0])
        at = _attraction(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 1.5, 0.3)
        np.testing.assert_allclose(at, [0.0, 0.0])

    def test_repulsion_range_and_direction(self):
        world = WorldState(0, [make_agent([0, 0], agent_id=0),
                               make_agent([0.1, 0.0], agent_id=1)], [])
        v = _repulsion(0, world, 0.15, 0.05)
        assert v[0] < 0.0 and v[1] == pytest.approx(0.0)
        none = _repulsion(0, world, 0.05, 0.05)
        np.testing.assert_allclose(none, [0.0, 0.0])

    def test_obstacle_repulsion_points_outward(self):
        world = WorldState(0, [make_agent([0.0, 0.0])],
                           [Obstacle.circle([0.12, 0.0], 0.05)])
        v = _repulsion(0, world, 0.15, 0.05)
        assert v[0] < 0.0


def leader_world(leader_pos=(0.0, 0.0), follower_pos=(-0.3, 0.0),
                 waypoints=((2.0, 0.0), (4.0, 0.0))):
    return WorldState(0, [make_agent(leader_pos, agent_id=0, role="leader"),
                          make_agent(follower_pos, agent_id=1)],
                      [], [np.asarray(w, dtype=float) for w in waypoints])


def apf():
    return ApfNavigationController(
        formation_offsets={1: np.array([-0.3, 0.0])},
        influence_radius=0.15, repulsion_gain=0.05, slow_radius=0.3,
        waypoint_switch_radius=0.2, formation_tolerance=0.15)


class TestApfNavigation:
    def test_leader_tracks_waypoint(self):
        ctl = apf()
        spec = make_spec()
        cmds = ctl.commands(leader_world(), spec)
        assert cmds[0][0] == pytest.approx(1.5)

    def test_leader_stops_at_goal(self):
        ctl = apf()
        ctl.waypoint_index = 1
        spec = make_spec()
        world = leader_world(leader_pos=(4.0, 0.0), follower_pos=(3.7, 0.0))
        cmds = ctl.commands(world, spec)
        np.testing.assert_allclose(cmds[0], [0.0, 0.0])

    def test_waypoint_switch(self):
        ctl = apf()
        spec = make_spec()
        world = leader_world(leader_pos=(1.9, 0.0), follower_pos=(1.6, 0.0))
        ctl.update(world, spec)
        assert ctl.waypoint_index == 1
        ctl.update(world, spec)  # not within switch radius of the last one
        assert ctl.waypoint_index == 1

    def test_follower_attracted_to_slot(self):
        ctl = apf()
        spec = make_spec()
        # follower displaced laterally from its slot behind the leader
        world = leader_world(follower_pos=(-0.3, 0.5))
        cmds = ctl.commands(world, spec)
        assert cmds[1][1] < 0.0

    def test_commands_capped_at_v_max(self):
        ctl = apf()
        spec = make_spec()
        world = leader_world(follower_pos=(-0.05, 0.0))  # deep in repulsion
        for cmd in ctl.commands(world, spec).values():
            assert np.linalg.norm(cmd) <= spec.v_max + 1e-9

    def test_clone_is_independent(self):
        ctl = apf()
        twin = ctl.clone()
        twin.waypoint_index = 5
        assert ctl.waypoint_index == 0

    def test_mission_complete_leader_frame(self):
        ctl = apf()
        ctl.waypoint_index = 1
        spec = make_spec()
        done = leader_world(leader_pos=(4.0, 0.0), follower_pos=(3.7, 0.0))
        assert ctl.mission_complete(done, spec)
        straggler = leader_world(leader_pos=(4.0, 0.0), follower_pos=(3.0, 0.0))
        assert not ctl.mission_complete(straggler, spec)

    def test_mission_complete_needs_final_waypoint(self):
        ctl = apf()
        spec = make_spec()
        world = leader_world(leader_pos=(4.0, 0.0), follower_pos=(3.7, 0.0))
        assert not ctl.mission_complete(world, spec)  # waypoint_index still 0

    def test_goal_for_is_mission_goal(self):
        ctl = apf()
        spec = make_spec()
        world = leader_world()
        np.testing.assert_allclose(ctl.goal_for(world, 1, spec), spec.goal)


def search_controller(**overrides):
    base = dict(bounds_lo=np.array([0.0, 0.0]), bounds_hi=np.array([10.0, 10.0]),
                targets=[np.array([8.0, 8.0]), np.array([2.0, 7.0])],
                neighbor_radius=2.0, sensor_range=2.0, target_radius=1.0)
    base.update(overrides)
    return DispersalSearchController(**base)


class TestDispersalSearch:
    def test_targets_marked_found(self):
        ctl = search_controller()
        spec = make_spec()
        world = WorldState(0, [make_agent([8.2, 8.0], agent_id=0,
                                          role="searcher", sensing=2.0)], [])
        ctl.update(world, spec)
        assert ctl.found == [True, False]
        assert not ctl.mission_complete(world, spec)

    def test_mission_complete_when_all_found(self):
        ctl = search_controller()
        ctl.found = [True, True]
        spec = make_spec()
        assert ctl.mission_complete(WorldState(0, [], []), spec)

    def test_close_searchers_disperse(self):
        ctl = search_controller()
        spec = make_spec()
        world = WorldState(0, [make_agent([5.0, 5.0], agent_id=0, role="searcher"),
                               make_agent([5.5, 5.0], agent_id=1, role="searcher")],
                           [])
        cmds = ctl.commands(world, spec)
        # mutual repulsion dominates: the pair separates along x
        assert cmds[0][0] < cmds[1][0]

    def test_bounds_push_back_inside(self):
        ctl = search_controller()
        spec = make_spec()
        world = WorldState(0, [make_agent([0.2, 5.0], agent_id=0,
                                          role="searcher")], [])
        cmds = ctl.commands(world, spec)
        assert cmds[0][0] > 0.0

    def test_goal_for_nearest_unfound_target(self):
        ctl = search_controller()
        spec = make_spec()
        world = WorldState(0, [make_agent([7.0, 7.5], agent_id=0,
                                          role="searcher")], [])
        np.testing.assert_allclose(ctl.goal_for(world, 0, spec), [8.0, 8.0])
        ctl.found = [True, True]
        assert ctl.goal_for(world, 0, spec) is None

    def test_clone_is_independent(self):
        ctl = search_controller()
        twin = ctl.clone()
        twin.visits[0, 0] = 99
        twin.found[0] = True
        assert ctl.visits[0, 0] == 0
        assert ctl.found[0] is False
