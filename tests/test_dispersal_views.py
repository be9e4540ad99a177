"""DispersalSearchController's scalar ``update`` and ``commands`` are views
(a batch of one row) of ``update_rows`` and ``commands_rows``.

``ScalarDispersal`` keeps the per-agent loops the views replaced, verbatim,
as the oracle: on random worlds the views must give the same visit counts,
found flags and commands, bit for bit.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from litelfuzz.controllers import DispersalSearchController, _attraction
from litelfuzz.scenarios import a2_search
from litelfuzz.world import (AgentState, MissionSpec, Obstacle, RowsDistances,
                             RowsLayout, WorldState, clamp_norm, norm)


class ScalarDispersal(DispersalSearchController):
    def _cell_of(self, position: np.ndarray) -> tuple[int, ...]:
        idx = np.floor((position - self.bounds_lo) / self.cell_size).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.visits.shape) - 1)
        return tuple(int(i) for i in idx)

    def _cell_center(self, cell: tuple[int, ...]) -> np.ndarray:
        return self.bounds_lo + (np.asarray(cell, dtype=float) + 0.5) * self.cell_size

    def update(self, world: WorldState, spec: MissionSpec) -> None:
        for agent in world.swarm():
            self.visits[self._cell_of(agent.position)] += 1
            for k, target in enumerate(self.targets):
                if not self.found[k] and \
                        norm(agent.position - target) <= self.target_radius:
                    self.found[k] = True

    def commands(self, world: WorldState, spec: MissionSpec) -> dict[int, np.ndarray]:
        swarm = sorted(world.swarm(), key=lambda a: a.id)
        # each searcher drifts to its own rank-th least-visited cell so the
        # swarm fans out instead of converging on a single frontier
        cell_order = np.argsort(self.visits.ravel(), kind="stable")
        table = world.distances()
        cmds: dict[int, np.ndarray] = {}
        for rank, agent in enumerate(swarm):
            least = np.unravel_index(int(cell_order[rank % len(cell_order)]),
                                     self.visits.shape)
            drift_target = self._cell_center(least)
            cmd = np.zeros_like(agent.position)
            col = table.column[agent.id]
            for k, (other, d) in enumerate(zip(world.agents,
                                               table.agents[col])):
                if k == col or d >= self.neighbor_radius:
                    continue
                if d < 1e-9:
                    # co-located: deterministic splay by agent rank
                    angle = 2.0 * math.pi * rank / max(len(swarm), 1)
                    away = np.zeros_like(agent.position)
                    away[0] = math.cos(angle)
                    away[1] = math.sin(angle)
                    d = 1.0
                else:
                    away = agent.position - other.position
                cmd = cmd + (away / d) * spec.v_max * (1.0 - d / self.neighbor_radius)
            push = self.obstacle_gain * spec.v_max
            for obs, d in zip(world.obstacles, table.obstacles[col]):
                if d < self.sensor_range:
                    d = max(d, 1e-6)
                    cmd = cmd + obs.outward_direction(agent.position) * \
                        push * (1.0 - d / self.sensor_range)
            # keep inside the map like an outward-facing wall sensor
            for axis in range(len(agent.position)):
                lo_gap = agent.position[axis] - self.bounds_lo[axis]
                hi_gap = self.bounds_hi[axis] - agent.position[axis]
                if lo_gap < self.sensor_range:
                    cmd[axis] += push * (1.0 - max(lo_gap, 0.0) / self.sensor_range)
                if hi_gap < self.sensor_range:
                    cmd[axis] -= push * (1.0 - max(hi_gap, 0.0) / self.sensor_range)
            drift = _attraction(agent.position, drift_target, spec.v_max,
                                self.cell_size)
            cmds[agent.id] = clamp_norm(cmd + self.explore_weight * drift,
                                        spec.v_max)
        return cmds


SPEC = MissionSpec(goal=np.zeros(2), goal_tolerance=1.0, safe_distance=0.5,
                   v_max=2.0, a_max=6.0, formation_min=0.5, formation_max=16.0,
                   dt=0.5, nominal_steps=280)
# few distinct coordinates, so searchers often share a point (the splay
# branch) or sit on an obstacle's centre, face or inside it
COORD = st.sampled_from([-8.5, -6.0, -2.0, -1.0, 0.0, 0.5, 1.0, 4.0, 6.0,
                         7.9, 9.0])
POINT = st.tuples(COORD, COORD)
OBSTACLES = [Obstacle.box([-2.0, -1.0], [0.0, 1.0]),
             Obstacle.circle([4.0, -4.0], 1.2), Obstacle.circle([1.0, 1.0], 2.0)]


def controllers(visits=None, found=None, **overrides):
    """A view and an oracle with the same parameters and state."""
    kwargs = dict(bounds_lo=np.array([-8.0, -8.0]),
                  bounds_hi=np.array([8.0, 8.0]),
                  targets=[np.array([6.0, 6.0]), np.array([0.5, -1.0])],
                  cell_size=4.0, explore_weight=1.0, obstacle_gain=2.5)
    kwargs.update(overrides)
    view = DispersalSearchController(**kwargs)
    if visits is not None:
        view.visits = np.array(visits, dtype=np.int64).reshape(
            view.visits.shape)
    if found is not None:
        view.found = list(found)
    return view, ScalarDispersal(**kwargs, visits=view.visits.copy(),
                                 found=list(view.found))


def assert_views_match(world, view, oracle):
    for _ in range(2):      # a second round starts from updated visits
        got, want = view.commands(world, SPEC), oracle.commands(world, SPEC)
        assert sorted(got) == sorted(want)
        for agent_id, cmd in want.items():
            assert got[agent_id].tobytes() == cmd.tobytes()
        view.update(world, SPEC)
        oracle.update(world, SPEC)
        assert np.array_equal(view.visits, oracle.visits)
        assert view.found == oracle.found


def searcher(agent_id, point, role="searcher"):
    p = np.array(point, dtype=float)
    return AgentState(agent_id, p, np.zeros(2), np.zeros(2), 2.0, role)


@st.composite
def scenes(draw):
    points = draw(st.lists(POINT, min_size=1, max_size=6))
    ids = draw(st.permutations(range(len(points))))
    agents = [searcher(i, p) for i, p in zip(ids, points)]
    if draw(st.booleans()):
        agents.append(searcher(1000, draw(POINT), role="attacker"))
    obstacles = draw(st.lists(st.sampled_from(OBSTACLES), max_size=3,
                              unique_by=id))
    targets = [np.array(draw(POINT), dtype=float)
               for _ in range(draw(st.integers(0, 2)))]
    cell_size = draw(st.sampled_from([4.0, 5.0, 16.0]))
    cells = int(math.ceil(16.0 / cell_size)) ** 2
    view, oracle = controllers(
        visits=draw(st.lists(st.integers(0, 3), min_size=cells,
                             max_size=cells)),
        found=[draw(st.booleans()) for _ in targets],
        targets=targets, cell_size=cell_size)
    return WorldState(draw(st.integers(0, 50)), agents, obstacles), view, \
        oracle


@settings(max_examples=300, deadline=None)
@given(scenes())
def test_views_equal_the_scalar_forms(scene):
    assert_views_match(*scene)


def test_edge_worlds():
    worlds = [
        # co-located searchers splay apart by rank
        [searcher(2, [1.0, 1.0]), searcher(0, [1.0, 1.0]),
         searcher(1, [1.0, 1.0])],
        [searcher(0, [5.0, 5.0])],                       # singleton swarm
        [searcher(0, [-1.0, 0.0]), searcher(1, [4.0, -4.0])],  # in obstacles
        [searcher(1000, [0.0, 0.0], role="attacker")],   # no swarm at all
    ]
    for agents in worlds:
        assert_views_match(WorldState(3, agents, OBSTACLES), *controllers())


def test_main_step_builds_one_batch(monkeypatch):
    """The views' ``update`` and ``commands`` in one a2 main step share the
    world's batch of one row: one layout and one batch distance table per
    step."""
    sim = a2_search().build_simulation(seed=0, record_trace=False)
    counts = {"layouts": 0, "tables": 0}
    layout_init, table_of = RowsLayout.__init__, RowsDistances.of

    def counted_init(self, *args):
        counts["layouts"] += 1
        layout_init(self, *args)

    def counted_of(rows):
        counts["tables"] += 1
        return table_of(rows)

    monkeypatch.setattr(RowsLayout, "__init__", counted_init)
    monkeypatch.setattr(RowsDistances, "of", staticmethod(counted_of))
    steps = 20
    for _ in range(steps):
        sim.step()
    assert sim.step_index == steps and not sim.done
    assert counts == {"layouts": steps, "tables": steps}
