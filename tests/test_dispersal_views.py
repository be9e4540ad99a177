"""DispersalSearchController's scalar ``update`` and ``commands`` are views
(a batch of one row) of ``update_rows`` and ``commands_rows``.

``ScalarDispersal`` keeps the per-agent loops the views replaced, verbatim,
as the oracle, over a visit grid and found list of its own: on random
worlds the views must give the same visit counts, found flags and
commands, bit for bit.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from navigator_oracle import attraction
from obstacle_oracle import outward_direction
from test_row_forms import row_world
from trace_oracle import step_run_out

from litelfuzz import fuzzing
from litelfuzz.controllers import DispersalSearchController
from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.scenarios import a2_search
from litelfuzz.world import (AgentState, MissionSpec, Obstacle, RowsDistances,
                             RowsLayout, WorldRows, WorldState, clamp_norm,
                             norm)


class ScalarDispersal(DispersalSearchController):
    def __post_init__(self):
        super().__post_init__()
        self.visits = self.state[0][0].copy()
        self.found = self.state[1][0].tolist()

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
            col = [a.id for a in world.agents].index(agent.id)
            n = [a.id for a in world.swarm()].index(agent.id)   # its row
            for k, (other, d) in enumerate(zip(world.agents,
                                               table.agents[0, n].tolist())):
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
            for obs, d in zip(world.obstacles, table.obstacles[0, n].tolist()):
                if d < self.sensor_range:
                    d = max(d, 1e-6)
                    cmd = cmd + outward_direction(obs, agent.position) * \
                        push * (1.0 - d / self.sensor_range)
            # keep inside the map like an outward-facing wall sensor
            for axis in range(len(agent.position)):
                lo_gap = agent.position[axis] - self.bounds_lo[axis]
                hi_gap = self.bounds_hi[axis] - agent.position[axis]
                if lo_gap < self.sensor_range:
                    cmd[axis] += push * (1.0 - max(lo_gap, 0.0) / self.sensor_range)
                if hi_gap < self.sensor_range:
                    cmd[axis] -= push * (1.0 - max(hi_gap, 0.0) / self.sensor_range)
            drift = attraction(agent.position, drift_target, spec.v_max,
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
    grid, flags = view.state
    if visits is not None:
        grid = np.array(visits, dtype=np.int64).reshape(grid.shape)
    if found is not None:
        flags = np.array(found, dtype=bool).reshape(flags.shape)
    view.state = grid, flags
    return view, ScalarDispersal(**kwargs, state=view.state)


def assert_views_match(world, view, oracle):
    for _ in range(2):      # a second round starts from updated visits
        got, want = view.commands(world, SPEC), oracle.commands(world, SPEC)
        assert sorted(got) == sorted(want)
        for agent_id, cmd in want.items():
            assert got[agent_id].tobytes() == cmd.tobytes()
        view.update(world, SPEC)
        oracle.update(world, SPEC)
        assert np.array_equal(view.state[0][0], oracle.visits)
        assert view.state[1][0].tolist() == oracle.found


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


@settings(max_examples=100, deadline=None)
@given(scenes(), st.lists(st.lists(POINT, min_size=7, max_size=7),
                          max_size=2))
def test_adopting_a_row_equals_the_scalar_update(scene, more_rows):
    """Row k of ``update_rows`` over a batch that starts every row from
    the controller's state, as a row stepper does, is the ``state`` the
    scalar ``update`` leaves on row k's world, in shape and dtype too; the
    controller's state is not written."""
    world, view, _ = scene
    before = [a.copy() for a in view.state]
    # row 0 is the world; the other rows move its agents elsewhere
    agents = world.agents
    position = np.array([[a.position for a in agents]] + [
        points[:len(agents)] for points in more_rows], dtype=float)
    rows = WorldRows(RowsLayout(agents, world.obstacles,
                                world.leader_waypoints),
                     position, np.zeros_like(position),
                     np.zeros_like(position))
    updated = view.update_rows(
        tuple(np.broadcast_to(a, (len(position),) + a.shape[1:])
              for a in view.state), rows, SPEC)
    for k in range(len(position)):
        scalar = replace(view)
        scalar.update(row_world(rows, k, world.step_index), SPEC)
        for got, want in zip((a[k:k + 1] for a in updated), scalar.state):
            assert np.array_equal(got, want)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
    for got, want in zip(view.state, before):
        assert np.array_equal(got, want)


def test_edge_worlds():
    worlds = [
        # co-located searchers splay apart by rank
        [searcher(2, [1.0, 1.0]), searcher(0, [1.0, 1.0]),
         searcher(1, [1.0, 1.0])],
        [searcher(0, [5.0, 5.0])],                       # singleton swarm
        [searcher(0, [-1.0, 0.0]), searcher(1, [4.0, -4.0])],  # in obstacles
        [searcher(1000, [0.0, 0.0], role="attacker")],   # no swarm at all
        [],                                              # no agent at all
    ]
    for agents in worlds:
        assert_views_match(WorldState(3, agents, OBSTACLES), *controllers())


def test_main_step_builds_one_batch(monkeypatch):
    """The views' ``update`` and ``commands`` in one a2 main step share the
    world's batch of one row, whose distance table is the one the failure
    check of the step that made the world built: one table per world, the
    first included. Every world's batch reads the one layout of the
    swarm's agent set."""
    sim = a2_search().build_simulation(seed=0, record_trace=False)
    counts = {"layouts": 0, "tables": 0}
    layout_init, table_of = RowsLayout.__init__, RowsDistances.of

    def counted_init(self, *args):
        counts["layouts"] += 1
        layout_init(self, *args)

    def counted_of(*args):
        counts["tables"] += 1
        return table_of(*args)

    monkeypatch.setattr(RowsLayout, "__init__", counted_init)
    monkeypatch.setattr(RowsDistances, "of", staticmethod(counted_of))
    steps = 20
    for _ in range(steps):
        sim.step()
    assert sim.step_index == steps and not sim.done
    assert counts == {"layouts": 1, "tables": steps + 1}


@pytest.mark.parametrize("scheme", ["sa", "ma"])
def test_a_run_builds_at_most_one_table_per_world(monkeypatch, scheme):
    """Every world of an a2 run, main step or probe, holds at most one
    distance table: the one its failure check, its views and its batch of
    one row all read. The run steps its run-out world by world, so that
    every step has a world."""
    worlds = []
    post_init = WorldState.__post_init__

    def kept(self):
        post_init(self)
        worlds.append(self)

    monkeypatch.setattr(WorldState, "__post_init__", kept)
    monkeypatch.setattr(fuzzing, "run_out", step_run_out)
    run_fuzzing(a2_search(), scheme, budget=2, seed=0)
    tables = [{id(t) for t in (w._distances, w._rows and w._rows._distances)
               if t is not None} for w in worlds]
    assert sum(map(len, tables)) > 50
    assert max(map(len, tables)) == 1
