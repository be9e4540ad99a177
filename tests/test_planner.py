"""Path planner tests: clearance keeping, detours and infeasibility."""
import math

import numpy as np
import pytest

from litelfuzz.planner import Infeasible, _cover_box, cover_tiles, plan_path
from litelfuzz.world import ROLE_ATTACKER, AgentState, Obstacle, WorldState, \
    row_norms


def path_clearance(path, world):
    """Minimum distance from the polyline ``path``, sampled 64 times per
    segment, to the world's obstacles and swarm agents: the oracle of the
    planner's clearance."""
    s = np.linspace(0.0, 1.0, 64)[:, None]
    points = np.concatenate([a * (1.0 - s) + b * s
                             for a, b in zip(path, path[1:])])
    others = np.array([a.position for a in world.agents
                       if a.role != ROLE_ATTACKER])
    gaps = row_norms(others.reshape(-1, 1, points.shape[1]) - points)
    return float(min(world.obstacles.surface_distances(points).min(
        initial=np.inf), gaps.min(initial=np.inf)))


def make_agent(pos, agent_id=0, role="follower"):
    p = np.asarray(pos, dtype=float)
    return AgentState(agent_id, p, np.zeros_like(p), np.zeros_like(p), 0.5, role)


def empty_world(dim=2):
    return WorldState(0, [], [])


class TestPlanPath:
    def test_straight_line_when_clear(self):
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         empty_world(), clearance=0.1)
        assert len(path) == 2
        np.testing.assert_allclose(path[0], [0.0, 0.0])
        np.testing.assert_allclose(path[-1], [2.0, 0.0])

    def test_detours_around_circle(self):
        world = WorldState(0, [], [Obstacle.circle([1.0, 0.0], 0.3)])
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.1)
        assert len(path) > 2
        assert path_clearance(path, world) >= 0.1 - 1e-6

    def test_detours_around_box_wall(self):
        world = WorldState(0, [], [Obstacle.box([0.9, -0.5], [1.1, 0.5])])
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.05)
        assert path_clearance(path, world) >= 0.05 - 1e-6

    def test_avoids_swarm_agents(self):
        world = WorldState(0, [make_agent([1.0, 0.0], agent_id=1)], [])
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.2)
        assert path_clearance(path, world) >= 0.2 - 1e-6

    def test_ignore_ids_excludes_the_target(self):
        world = WorldState(0, [make_agent([2.0, 0.0], agent_id=1)], [])
        # goal on top of agent 1: infeasible unless the agent is ignored
        with pytest.raises(Infeasible):
            plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                      world, clearance=0.2)
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.2, ignore_ids=(1,))
        assert len(path) == 2

    def test_attackers_are_not_obstacles(self):
        world = WorldState(0, [make_agent([1.0, 0.0], agent_id=9,
                                          role="attacker")], [])
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.2)
        assert len(path) == 2

    def test_goal_inside_obstacle_is_infeasible(self):
        world = WorldState(0, [], [Obstacle.circle([1.0, 0.0], 0.3)])
        with pytest.raises(Infeasible):
            plan_path(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                      world, clearance=0.1)

    def test_start_inside_inflation_can_escape(self):
        world = WorldState(0, [], [Obstacle.circle([0.0, 0.0], 0.2)])
        # start on the surface, within the inflated region
        path = plan_path(np.array([0.21, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.1)
        np.testing.assert_allclose(path[-1], [2.0, 0.0])

    def test_corridor_gap_is_found(self):
        # two wall segments leaving a navigable central gap
        world = WorldState(0, [], [Obstacle.box([1.0, 0.4], [1.2, 2.0]),
                                   Obstacle.box([1.0, -2.0], [1.2, -0.4])])
        path = plan_path(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                         world, clearance=0.1)
        assert path_clearance(path, world) >= 0.1 - 1e-6

    def test_3d_detour(self):
        world = WorldState(0, [], [Obstacle.circle([1.0, 0.0, 0.0], 0.3)])
        path = plan_path(np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]),
                         world, clearance=0.1)
        assert path_clearance(path, world) >= 0.1 - 1e-6


class TestPathClearance:
    def test_reports_minimum_over_polyline(self):
        world = WorldState(0, [], [Obstacle.circle([1.0, 0.5], 0.2)])
        path = [np.array([0.0, 0.0]), np.array([2.0, 0.0])]
        assert path_clearance(path, world) == pytest.approx(0.3, abs=1e-3)


class TestCoverTiles:
    @pytest.mark.parametrize("lo,hi,clearance,counts", [
        # a1's boxes at its safe distance: tiles of a quarter of 0.8 m
        ([1.6, 0.4], [2.4, 1.8], 0.1, [4, 7]),
        # a2's box: tiles of twice its 0.5 m safe distance
        ([-2.0, -1.0], [0.0, 1.0], 0.5, [2, 2]),
        ([0.0, 0.0, 0.0], [1.0, 9.0, 0.5], 0.05, [8, 72, 4])])
    def test_counts_the_tiles_the_cover_builds(self, lo, hi, clearance,
                                               counts):
        lo, hi = np.array(lo), np.array(hi)
        tiles = cover_tiles(lo, hi, clearance)
        assert tiles.tolist() == counts
        cover = _cover_box(lo, hi, clearance)
        assert len(cover) == math.prod(counts)
        # the tiles' circles cover the box's corners
        assert all(any(np.linalg.norm(corner - c) <= r + 1e-12
                       for c, r in cover) for corner in (lo, hi))
