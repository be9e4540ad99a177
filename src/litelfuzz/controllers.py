"""Built-in swarm controllers.

Two controller families are provided: a leader-follower navigator that
corrects formation slots with artificial potential fields, and a dispersal
controller for area search. Controllers keep their mutable state out of
``commands`` so a command computation never changes the controller;
``update`` is called once per world step by the mission loop.

Each controller also has array forms (``*_rows``) of ``update``,
``commands``, ``goal_for`` and ``mission_complete`` that act on a
:class:`WorldRows` batch, with the mutable state held per row as a tuple
of arrays (see ``row_state``). Row by row they compute exactly what the
scalar forms compute: the lookahead steps all spawn candidates of an epoch
this way.

The dispersal controller's ``update`` and ``commands`` are its array forms
on the world as a batch of one row (``WorldRows.of``). The navigator keeps
scalar ``update`` and ``commands`` for the main mission step: its array
forms rebuild role lists, offset arrays and the others-mask on every call,
which one row of four agents does not pay back. Made views of the array
forms, they slowed the ``a1_sa`` benchmark from 2390 to 1846 steps/s
(medians of five alternating runs each, 2-vCPU VM), while the dispersal
views ran a2 ``sa`` as fast as its scalar forms did.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .world import (ROLE_ATTACKER, ROLE_LEADER, MissionSpec, WorldRows,
                    WorldState, clamp_norm, clamp_norms, norm, row_norms)

_EPS = 1e-9


def _attraction(position: np.ndarray, target: np.ndarray, v_max: float,
                slow_radius: float) -> np.ndarray:
    """Full-speed pull toward ``target``, ramping down inside ``slow_radius``."""
    delta = target - position
    dist = norm(delta)
    if dist < _EPS:
        return np.zeros_like(position)
    speed = v_max * min(1.0, dist / slow_radius)
    return delta * (speed / dist)


def _attraction_rows(position: np.ndarray, target: np.ndarray, v_max: float,
                     slow_radius: float) -> np.ndarray:
    """:func:`_attraction` of every vector along the last axis."""
    delta = target - position
    dist = row_norms(delta)
    far = dist >= _EPS
    dist = np.where(far, dist, 1.0)
    speed = v_max * np.minimum(1.0, dist / slow_radius)
    return np.where(far[..., None], delta * (speed / dist)[..., None], 0.0)


def _others(rows: WorldRows) -> np.ndarray:
    """(S, M) mask: swarm column s and world column k are different agents."""
    return np.asarray(rows.swarm)[:, None] != np.arange(len(rows.agents))


def _repulsion_rows(rows: WorldRows, influence_radius: float,
                    gain: float) -> np.ndarray:
    """:func:`_repulsion` of every swarm column of ``rows``: (B, S, d).

    The terms are added one at a time in the scalar order, obstacles in
    list order and then agents in world order, with +0.0 for a term out of
    range (``total`` starts at +0.0 and so is never -0.0, which makes that
    add exact); a single ``sum(axis=...)`` would round differently.
    """
    pos = rows.position[:, rows.swarm]
    total = np.zeros_like(pos)

    def push(near, d, direction):
        mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
        return np.where(near[..., None], mag[..., None] * direction, 0.0)

    for obs in rows.obstacles:
        d = obs.surface_distances(pos)
        near = d < influence_radius
        if near.any():
            total = total + push(near, np.maximum(d, 1e-6),
                                 obs.outward_directions(pos))
    away = pos[:, :, None] - rows.position[:, None]
    d = row_norms(away)
    near = (d < influence_radius) & _others(rows)
    d = np.maximum(d, 1e-6)
    terms = push(near, d, away / d[..., None])
    for k in range(terms.shape[2]):
        total = total + terms[:, :, k]
    return total


def _repulsion(agent_id: int, world: WorldState, influence_radius: float,
               gain: float) -> np.ndarray:
    """Potential-field push on an agent of ``world`` away from obstacles and
    agents within range."""
    table = world.distances()
    col = table.column[agent_id]
    position = world.agents[col].position
    total = np.zeros_like(position)
    for obs, d in zip(world.obstacles, table.obstacles[col]):
        if d < influence_radius:
            d = max(d, 1e-6)
            mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
            total = total + mag * obs.outward_direction(position)
    for k, (other, d) in enumerate(zip(world.agents, table.agents[col])):
        if k == col or not d < influence_radius:
            continue
        away = position - other.position
        d = max(d, 1e-6)
        mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
        total = total + mag * (away / d)
    return total


@dataclass
class ApfNavigationController:
    """Leader-follower waypoint navigation with potential-field avoidance.

    The leader tracks an explicit waypoint list; followers hold fixed
    world-frame offsets from the leader. Every agent is repelled by
    obstacles and by other agents (attackers included) inside
    ``influence_radius``.
    """

    formation_offsets: dict[int, np.ndarray]
    influence_radius: float = field(
        default=0.15, metadata=dict(kind="number", above=0.0))
    repulsion_gain: float = field(
        default=0.05, metadata=dict(kind="number", least=0.0))
    slow_radius: float = field(
        default=0.3, metadata=dict(kind="number", above=0.0))
    waypoint_switch_radius: float = field(
        default=0.2, metadata=dict(kind="number", least=0.0))
    formation_tolerance: float = field(
        default=0.15, metadata=dict(kind="number", least=0.0))
    formation_frame: str = field(
        default="leader",
        metadata=dict(kind="choice", choices=("leader", "centroid")))
    waypoint_index: int = 0

    def clone(self) -> "ApfNavigationController":
        return replace(self)

    def _leader(self, world: WorldState):
        for a in world.agents:
            if a.role == ROLE_LEADER:
                return a
        return None

    def _current_waypoint(self, world: WorldState) -> np.ndarray:
        wps = world.leader_waypoints
        return wps[min(self.waypoint_index, len(wps) - 1)]

    def _pack(self, world: WorldState):
        """Follower-pack centroid and mean formation offset, or None."""
        followers = [a for a in world.swarm() if a.role != ROLE_LEADER]
        if not followers:
            return None
        centroid = np.mean([a.position for a in followers], axis=0)
        mean_offset = np.mean(
            [self.formation_offsets.get(a.id, np.zeros_like(a.position))
             for a in followers], axis=0)
        return centroid, mean_offset

    def _slot(self, agent_id: int, world: WorldState) -> np.ndarray | None:
        """World-frame formation slot for a follower.

        In the leader frame slots hang off the leader's position. In the
        centroid frame slots are arranged around the follower-pack
        centroid, which couples every follower's slot to every other
        follower's position; the pack as a whole steers by the shared
        waypoint feedforward computed in :meth:`commands`.
        """
        offset = self.formation_offsets[agent_id]
        if self.formation_frame == "leader":
            leader = self._leader(world)
            if leader is None:
                return None
            return leader.position + offset
        pack = self._pack(world)
        if pack is None:
            return None
        centroid, mean_offset = pack
        return centroid + offset - mean_offset

    def update(self, world: WorldState, spec: MissionSpec) -> None:
        leader = self._leader(world)
        if leader is None:
            return
        wps = world.leader_waypoints
        if self.waypoint_index >= len(wps) - 1:
            return
        switch = self.waypoint_switch_radius
        if norm(leader.position - wps[self.waypoint_index]) <= switch:
            self.waypoint_index += 1

    def commands(self, world: WorldState, spec: MissionSpec) -> dict[int, np.ndarray]:
        feedforward = None
        if self.formation_frame == "centroid":
            pack = self._pack(world)
            if pack is not None:
                centroid, mean_offset = pack
                pack_target = self._current_waypoint(world) + mean_offset
                feedforward = _attraction(centroid, pack_target, spec.v_max,
                                          self.slow_radius)
        cmds: dict[int, np.ndarray] = {}
        for agent in world.agents:
            if agent.role == ROLE_ATTACKER:
                continue
            if agent.role == ROLE_LEADER:
                target = self._current_waypoint(world)
                att = _attraction(agent.position, target, spec.v_max,
                                  self.slow_radius)
                if norm(agent.position - spec.goal) <= spec.goal_tolerance:
                    att = np.zeros_like(att)
            else:
                slot = self._slot(agent.id, world)
                if slot is None:
                    # counterfactual without any reference agent: hold
                    att = np.zeros_like(agent.position)
                else:
                    att = _attraction(agent.position, slot, spec.v_max,
                                      self.slow_radius)
                if feedforward is not None:
                    att = att + feedforward
            rep = _repulsion(agent.id, world, self.influence_radius,
                             self.repulsion_gain)
            cmds[agent.id] = clamp_norm(att + rep, spec.v_max)
        return cmds

    def mission_complete(self, world: WorldState, spec: MissionSpec) -> bool:
        leader = self._leader(world)
        if leader is None:
            return False
        if self.waypoint_index < len(world.leader_waypoints) - 1:
            return False
        if norm(leader.position - spec.goal) > spec.goal_tolerance:
            return False
        followers = [a for a in world.swarm() if a.role != ROLE_LEADER]
        if self.formation_frame == "centroid":
            # delivery completes once the leader and a majority of the pack
            # dock at their goal slots; a single straggler (e.g. one drone
            # held up by an intruder) does not stall the mission forever
            docked = sum(
                1 for a in followers
                if norm(
                    a.position - (spec.goal + self.formation_offsets[a.id])
                ) <= self.formation_tolerance)
            return docked * 2 > len(followers)
        for agent in followers:
            slot = self._slot(agent.id, world)
            if slot is None or \
                    norm(agent.position - slot) > self.formation_tolerance:
                return False
        return True

    def goal_for(self, world: WorldState, agent_id: int, spec: MissionSpec):
        return spec.goal

    # -- array forms over WorldRows; the per-row state is (waypoint_index,)

    def row_state(self, rows: int) -> tuple[np.ndarray, ...]:
        return (np.full(rows, self.waypoint_index),)

    def _leader_column(self, rows: WorldRows) -> int | None:
        for k, a in enumerate(rows.agents):
            if a.role == ROLE_LEADER:
                return k
        return None

    def _followers(self, rows: WorldRows) -> list[int]:
        return [k for k in rows.swarm if rows.agents[k].role != ROLE_LEADER]

    def _offsets(self, rows: WorldRows, columns: list[int]) -> np.ndarray:
        return np.array([self.formation_offsets[rows.agents[k].id]
                         for k in columns])

    def _waypoint_rows(self, index: np.ndarray, rows: WorldRows) -> np.ndarray:
        wps = np.asarray(rows.leader_waypoints)
        return wps[np.minimum(index, len(wps) - 1)]

    def _pack_rows(self, rows: WorldRows):
        """:meth:`_pack` of every row, or None."""
        followers = self._followers(rows)
        if not followers:
            return None
        centroid = np.mean(rows.position[:, followers], axis=1)
        dim = rows.position.shape[2]
        mean_offset = np.mean(
            [self.formation_offsets.get(rows.agents[k].id, np.zeros(dim))
             for k in followers], axis=0)
        return centroid, mean_offset

    def _slot_rows(self, rows: WorldRows, columns: list[int]):
        """:meth:`_slot` of the followers in ``columns``: (B, F, d), or None."""
        offsets = self._offsets(rows, columns)
        if self.formation_frame == "leader":
            leader = self._leader_column(rows)
            if leader is None:
                return None
            return rows.position[:, leader, None] + offsets
        centroid, mean_offset = self._pack_rows(rows)
        return centroid[:, None] + offsets - mean_offset

    def update_rows(self, state, rows: WorldRows, spec: MissionSpec):
        (index,) = state
        leader = self._leader_column(rows)
        last = len(rows.leader_waypoints) - 1
        if leader is None or last < 1:
            return state
        gap = rows.position[:, leader] - self._waypoint_rows(index, rows)
        switch = (index < last) & (row_norms(gap) <= self.waypoint_switch_radius)
        return (index + switch,)

    def commands_rows(self, state, rows: WorldRows,
                      spec: MissionSpec) -> np.ndarray:
        """(B, S, d) commands of the swarm columns, in world order."""
        (index,) = state
        feedforward = None
        if self.formation_frame == "centroid":
            pack = self._pack_rows(rows)
            if pack is not None:
                centroid, mean_offset = pack
                pack_target = self._waypoint_rows(index, rows) + mean_offset
                feedforward = _attraction_rows(centroid, pack_target,
                                               spec.v_max, self.slow_radius)
        pos = rows.position[:, rows.swarm]
        att = np.empty_like(pos)
        roles = [rows.agents[k].role for k in rows.swarm]
        lead = [n for n, role in enumerate(roles) if role == ROLE_LEADER]
        follow = [n for n, role in enumerate(roles) if role != ROLE_LEADER]
        if lead:
            target = self._waypoint_rows(index, rows)[:, None]
            pull = _attraction_rows(pos[:, lead], target, spec.v_max,
                                    self.slow_radius)
            at_goal = row_norms(pos[:, lead] - spec.goal) <= spec.goal_tolerance
            att[:, lead] = np.where(at_goal[..., None], 0.0, pull)
        if follow:
            slots = self._slot_rows(rows, [rows.swarm[n] for n in follow])
            if slots is None:
                # counterfactual without any reference agent: hold
                pull = np.zeros_like(pos[:, follow])
            else:
                pull = _attraction_rows(pos[:, follow], slots, spec.v_max,
                                        self.slow_radius)
            if feedforward is not None:
                pull = pull + feedforward[:, None]
            att[:, follow] = pull
        rep = _repulsion_rows(rows, self.influence_radius, self.repulsion_gain)
        return clamp_norms(att + rep, spec.v_max)

    def goal_rows(self, state, rows: WorldRows, spec: MissionSpec) -> np.ndarray:
        """(B, S, d) goals of the swarm columns; NaN stands for no goal."""
        return np.broadcast_to(spec.goal, rows.position[:, rows.swarm].shape)

    def mission_complete_rows(self, state, rows: WorldRows,
                              spec: MissionSpec) -> np.ndarray:
        (index,) = state
        leader = self._leader_column(rows)
        if leader is None:
            return np.zeros(len(index), dtype=bool)
        done = (index >= len(rows.leader_waypoints) - 1) & (
            row_norms(rows.position[:, leader] - spec.goal)
            <= spec.goal_tolerance)
        followers = self._followers(rows)
        if self.formation_frame == "centroid":
            if not followers:
                return np.zeros_like(done)
            gaps = rows.position[:, followers] - (
                spec.goal + self._offsets(rows, followers))
            docked = (row_norms(gaps) <= self.formation_tolerance).sum(axis=1)
            return done & (docked * 2 > len(followers))
        if not followers:
            return done
        gaps = rows.position[:, followers] - self._slot_rows(rows, followers)
        return done & (row_norms(gaps) <= self.formation_tolerance).all(axis=1)


@dataclass
class DispersalSearchController:
    """Dispersal-based area search without mutual collision avoidance.

    Searchers repel each other inside the neighbour detection radius,
    avoid obstacles inside the proximity-sensor range and drift toward
    the least-visited cell of a coarse visit grid. Targets within
    ``target_radius`` of a searcher are marked detected.
    """

    bounds_lo: np.ndarray = field(metadata=dict(kind="vector"))
    bounds_hi: np.ndarray = field(metadata=dict(kind="vector"))
    targets: list[np.ndarray] = field(metadata=dict(kind="vectors"))
    # dispersal range between searchers
    neighbor_radius: float = field(
        default=2.0, metadata=dict(kind="number", above=0.0))
    # obstacle proximity-sensor range
    sensor_range: float = field(
        default=2.0, metadata=dict(kind="number", above=0.0))
    target_radius: float = field(
        default=1.0, metadata=dict(kind="number", least=0.0))
    cell_size: float = field(
        default=2.0, metadata=dict(kind="number", above=0.0))
    explore_weight: float = field(
        default=0.6, metadata=dict(kind="number", least=0.0))
    # scales obstacle/wall repulsion vs v_max
    obstacle_gain: float = field(
        default=2.0, metadata=dict(kind="number", least=0.0))
    visits: np.ndarray | None = None
    found: list[bool] = field(default_factory=list)

    def __post_init__(self):
        if not np.all(np.less(self.bounds_lo, self.bounds_hi)):
            raise ValueError("need bounds_lo < bounds_hi componentwise")
        if self.visits is None:
            shape = tuple(int(math.ceil((hi - lo) / self.cell_size))
                          for lo, hi in zip(self.bounds_lo, self.bounds_hi))
            self.visits = np.zeros(shape, dtype=np.int64)
        if not self.found:
            self.found = [False] * len(self.targets)

    def clone(self) -> "DispersalSearchController":
        return replace(self, visits=self.visits.copy(), found=list(self.found))

    def update(self, world: WorldState, spec: MissionSpec) -> None:
        """:meth:`update_rows` of ``world`` as a batch of one row."""
        rows = WorldRows.of(world)
        if rows.swarm:
            visits, found = self.update_rows(self.row_state(1), rows, spec)
            self.visits, self.found = visits[0], found[0].tolist()

    def commands(self, world: WorldState, spec: MissionSpec) -> dict[int, np.ndarray]:
        """:meth:`commands_rows` of ``world`` as a batch of one row."""
        rows = WorldRows.of(world)
        if not rows.swarm:
            return {}
        cmds = self.commands_rows(self.row_state(1), rows, spec)[0]
        return {rows.agents[k].id: cmds[n] for n, k in enumerate(rows.swarm)}

    def mission_complete(self, world: WorldState, spec: MissionSpec) -> bool:
        return bool(self.found) and all(self.found)

    def goal_for(self, world: WorldState, agent_id: int, spec: MissionSpec):
        agent = world.agent(agent_id)
        best = None
        best_d = math.inf
        for k, target in enumerate(self.targets):
            if self.found[k]:
                continue
            d = norm(agent.position - target)
            if d < best_d:
                best, best_d = target, d
        return best

    # -- array forms over WorldRows; the per-row state is (visits, found)

    def row_state(self, rows: int) -> tuple[np.ndarray, ...]:
        return (np.repeat(self.visits[None], rows, axis=0),
                np.tile(np.array(self.found, dtype=bool), (rows, 1)))

    def _cells_rows(self, position: np.ndarray) -> np.ndarray:
        """The visit-grid cell of every point: integer indices (..., d)."""
        idx = np.floor((position - self.bounds_lo) / self.cell_size).astype(int)
        return np.clip(idx, 0, np.asarray(self.visits.shape) - 1)

    def _target_distances(self, position: np.ndarray) -> np.ndarray:
        """(B, S, K) distances from swarm points (B, S, d) to the targets."""
        return row_norms(position[:, :, None] - np.asarray(self.targets))

    def update_rows(self, state, rows: WorldRows, spec: MissionSpec):
        visits, found = state
        pos = rows.position[:, rows.swarm]
        visits = visits.copy()
        cells = self._cells_rows(pos)
        np.add.at(visits, (np.arange(len(pos))[:, None],
                           *np.moveaxis(cells, -1, 0)), 1)
        if self.targets:
            near = self._target_distances(pos) <= self.target_radius
            found = found | near.any(axis=1)
        return visits, found

    def commands_rows(self, state, rows: WorldRows,
                      spec: MissionSpec) -> np.ndarray:
        """(B, S, d) commands of the swarm columns, in world order."""
        visits, found = state
        pos = rows.position[:, rows.swarm]
        count, size, dim = pos.shape
        ids = [rows.agents[k].id for k in rows.swarm]
        rank = np.argsort(np.argsort(ids, kind="stable"), kind="stable")
        cell_order = np.argsort(visits.reshape(count, -1), axis=1,
                                kind="stable")
        least = cell_order[:, rank % cell_order.shape[1]]
        cells = np.stack(np.unravel_index(least, self.visits.shape), axis=-1)
        drift_target = self.bounds_lo + (cells.astype(float) + 0.5) \
            * self.cell_size
        # neighbours in world order; co-located ones splay by agent rank
        away = pos[:, :, None] - rows.position[:, None]
        d = row_norms(away)
        near = (d < self.neighbor_radius) & _others(rows)
        splay = np.zeros((size, dim))
        for n, r in enumerate(rank):
            angle = 2.0 * math.pi * int(r) / max(size, 1)
            splay[n, 0] = math.cos(angle)
            splay[n, 1] = math.sin(angle)
        close = d < 1e-9
        away = np.where(close[..., None], splay[:, None], away)
        d = np.where(close, 1.0, d)
        terms = (away / d[..., None]) * spec.v_max \
            * (1.0 - d / self.neighbor_radius)[..., None]
        cmd = np.zeros_like(pos)
        for k in range(terms.shape[2]):
            cmd = cmd + np.where(near[:, :, k, None], terms[:, :, k], 0.0)
        push = self.obstacle_gain * spec.v_max
        for obs in rows.obstacles:
            d = obs.surface_distances(pos)
            near = d < self.sensor_range
            if near.any():
                ramp = 1.0 - np.maximum(d, 1e-6) / self.sensor_range
                term = obs.outward_directions(pos) * push * ramp[..., None]
                cmd = cmd + np.where(near[..., None], term, 0.0)
        # masked-out wall terms add or subtract +0.0, which leaves cmd as is
        for axis in range(dim):
            lo_gap = pos[..., axis] - self.bounds_lo[axis]
            hi_gap = self.bounds_hi[axis] - pos[..., axis]
            cmd[..., axis] += np.where(
                lo_gap < self.sensor_range,
                push * (1.0 - np.maximum(lo_gap, 0.0) / self.sensor_range), 0.0)
            cmd[..., axis] -= np.where(
                hi_gap < self.sensor_range,
                push * (1.0 - np.maximum(hi_gap, 0.0) / self.sensor_range), 0.0)
        drift = _attraction_rows(pos, drift_target, spec.v_max, self.cell_size)
        return clamp_norms(cmd + self.explore_weight * drift, spec.v_max)

    def goal_rows(self, state, rows: WorldRows, spec: MissionSpec) -> np.ndarray:
        """(B, S, d) goals of the swarm columns; NaN stands for no goal."""
        visits, found = state
        pos = rows.position[:, rows.swarm]
        if not self.targets:
            return np.full(pos.shape, np.nan)
        d = np.where(found[:, None], np.inf, self._target_distances(pos))
        goals = np.asarray(self.targets)[np.argmin(d, axis=-1)]
        return np.where(found.all(axis=1)[:, None, None], np.nan, goals)

    def mission_complete_rows(self, state, rows: WorldRows,
                              spec: MissionSpec) -> np.ndarray:
        visits, found = state
        return found.all(axis=1) & bool(self.targets)
