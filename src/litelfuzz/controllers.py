"""Built-in swarm controllers.

Two controller families are provided: a leader-follower navigator whose
followers hold slots at fixed offsets from the leader and avoid obstacles
and each other with artificial potential fields, and a dispersal
controller for area search. Controllers keep their mutable state out of
``commands`` so a command computation never changes the controller;
``update`` is called once per world step by the mission loop.

Each controller also has array forms (``*_rows``) of ``update``,
``commands`` and ``mission_complete`` that act on a :class:`WorldRows`
batch, with the mutable state held per row as a tuple of arrays (see
``row_state``). Row by row they compute exactly what the scalar forms
compute: the lookahead steps all spawn candidates of an epoch this way.
``adopt_row``, the inverse of ``row_state(1)``, sets the controller to one
row's state, so that the mission step can replay a step a probe computed.
They read two things the batch holds. Its distance table
(``WorldRows.distances``) is built once per batch: in a probe, the failure
check of the rows a step produced builds it and the next step's commands
read it. Its :class:`RowsLayout` resolves the swarm, leader and follower
columns, the masks, the waypoint array and, in ``derived``, the
navigator's formation offsets once per probe, and every step's batch
shares it. The :class:`Obstacles` stack, which a mission's worlds and
layouts share, gives every obstacle's surface distance and outward
direction in one pass each, to the scalar forms as to the array forms.

A controller states its goals once, as ``goal_rows`` over (B, S, d)
swarm positions; the main mission step calls it on a batch of one row.

The dispersal controller's ``update`` and ``commands`` are its array forms
on the world as a batch of one row (``WorldState.rows``), which the world
builds once, so one main mission step resolves one layout and one table.
The navigator keeps scalar ``update`` and ``commands`` for the main
mission step: views of its array forms, which resolve a new layout for
every world, ran ``a1_sa`` slower.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .world import (ROLE_ATTACKER, ROLE_LEADER, MissionSpec, RowsLayout,
                    WorldRows, WorldState, _index, clamp_norm, clamp_norms,
                    norm, row_norms)

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


def _repulsion_rows(rows: WorldRows, influence_radius: float,
                    gain: float) -> np.ndarray:
    """:func:`_repulsion` of every swarm column of ``rows``: (B, S, d).

    The terms are added one at a time in the scalar order, obstacles in
    list order and then agents in world order, with +0.0 for a term out of
    range (``total`` starts at +0.0 and so is never -0.0, which makes that
    add exact); a single ``sum(axis=...)`` would round differently. For
    the same reason a column with no pair in range in any row is skipped.
    """
    table = rows.distances()
    layout = rows.layout
    pos = rows.position[:, layout.swarm]
    total = np.zeros_like(pos)

    def push(near, d, direction):
        mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
        return np.where(near[..., None], mag[..., None] * direction, 0.0)

    near = table.obstacles < influence_radius
    columns = near.any(axis=(0, 1)).nonzero()[0]
    if columns.size:
        # every obstacle in one pass
        terms = push(near, np.maximum(table.obstacles, 1e-6),
                     layout.obstacles.outward_directions(pos))
        for o in columns:
            total = total + terms[:, :, o]
    near = (table.agents < influence_radius) & layout.others
    columns = near.any(axis=(0, 1)).nonzero()[0].tolist()
    if columns:
        index = _index(columns)
        d = np.maximum(table.agents[:, :, index], 1e-6)
        terms = push(near[:, :, index], d,
                     table.away[:, :, index] / d[..., None])
        for n in range(len(columns)):
            total = total + terms[:, :, n]
    return total


def _repulsion(agent_id: int, world: WorldState, influence_radius: float,
               gain: float) -> np.ndarray:
    """Potential-field push on an agent of ``world`` away from obstacles and
    agents within range. One :class:`Obstacles` pass gives the obstacles'
    directions when one is in range; ``total`` starts at +0.0, so the sign
    of a zero component cannot show."""
    table = world.distances()
    col = table.column[agent_id]
    position = world.agents[col].position
    total = np.zeros_like(position)
    near = [(o, d) for o, d in enumerate(table.obstacles[col])
            if d < influence_radius]
    if near:
        directions = world.obstacles.outward_directions(position)
        for o, d in near:
            d = max(d, 1e-6)
            mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
            total = total + mag * directions[o]
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

    The leader tracks an explicit waypoint list. A follower's slot is the
    leader's position plus the follower's fixed world-frame offset; in a
    world without a leader (a counterfactual one) the follower holds where
    it is. Every agent is repelled by obstacles and by other agents
    (attackers included) inside ``influence_radius``.
    """

    formation_offsets: dict[int, np.ndarray]
    influence_radius: float = field(default=0.15, metadata=dict(
        key="influence_radius_m", kind="number", above=0.0))
    repulsion_gain: float = field(
        default=0.05, metadata=dict(kind="number", least=0.0))
    slow_radius: float = field(default=0.3, metadata=dict(
        key="slow_radius_m", kind="number", above=0.0))
    waypoint_switch_radius: float = field(default=0.2, metadata=dict(
        key="waypoint_switch_radius_m", kind="number", least=0.0))
    formation_tolerance: float = field(default=0.15, metadata=dict(
        key="formation_tolerance_m", kind="number", least=0.0))
    # slots hang off the leader, the only frame; the key stays so that
    # scenario files naming it load, and no code reads it
    formation_frame: str = field(
        default="leader", metadata=dict(kind="choice", choices=("leader",)))
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

    def _slot(self, agent_id: int, world: WorldState) -> np.ndarray | None:
        """World-frame formation slot of a follower: the leader's position
        plus the follower's offset, or None without a leader."""
        offset = self.formation_offsets[agent_id]
        leader = self._leader(world)
        if leader is None:
            return None
        return leader.position + offset

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
        for agent in world.swarm():
            if agent.role != ROLE_LEADER and \
                    norm(agent.position - self._slot(agent.id, world)) \
                    > self.formation_tolerance:
                return False
        return True

    # -- array forms over WorldRows; the per-row state is (waypoint_index,)

    def row_state(self, rows: int) -> tuple[np.ndarray, ...]:
        return (np.full(rows, self.waypoint_index),)

    def adopt_row(self, state) -> None:
        """Take the state of a one-row ``state``: the inverse of
        ``row_state(1)``."""
        self.waypoint_index = int(state[0][0])

    def _offsets_rows(self, layout: RowsLayout) -> np.ndarray:
        """The followers' formation offsets (F, d), resolved once per
        layout."""
        key = id(self.formation_offsets)
        if key not in layout.derived:
            # the entry holds the dict, so its id is not reused meanwhile
            layout.derived[key] = (self.formation_offsets, np.array(
                [self.formation_offsets[layout.agents[k].id]
                 for k in layout.follower_columns]))
        return layout.derived[key][1]

    def _waypoint_rows(self, index: np.ndarray,
                       layout: RowsLayout) -> np.ndarray:
        wps = layout.waypoints
        return wps[np.minimum(index, len(wps) - 1)]

    def _slot_rows(self, rows: WorldRows) -> np.ndarray | None:
        """:meth:`_slot` of every follower: (B, F, d), or None without a
        leader."""
        offsets = self._offsets_rows(rows.layout)
        leader = rows.layout.leader
        if leader is None:
            return None
        return rows.position[:, leader, None] + offsets

    def update_rows(self, state, rows: WorldRows, spec: MissionSpec):
        (index,) = state
        layout = rows.layout
        leader = layout.leader
        last = len(layout.leader_waypoints) - 1
        if leader is None or last < 1:
            return state
        ahead = index < last
        if not ahead.any():
            return state
        gap = rows.position[:, leader] - self._waypoint_rows(index, layout)
        switch = ahead & (row_norms(gap) <= self.waypoint_switch_radius)
        return (index + switch,)

    def commands_rows(self, state, rows: WorldRows,
                      spec: MissionSpec) -> np.ndarray:
        """(B, S, d) commands of the swarm columns, in world order.

        Leaders pull toward their waypoint and followers toward their
        slot in one :func:`_attraction_rows` call, which acts on each
        vector alone; a follower without a slot targets its own position,
        which pulls with +0.0 as the scalar hold does.
        """
        (index,) = state
        layout = rows.layout
        pos = rows.position[:, layout.swarm]
        target = np.empty_like(pos)
        leads, follows = layout.leads, layout.follows
        if leads:
            target[:, leads] = self._waypoint_rows(index, layout)[:, None]
        if follows:
            slots = self._slot_rows(rows)
            # counterfactual without any reference agent: hold
            target[:, follows] = pos[:, follows] if slots is None else slots
        pull = _attraction_rows(pos, target, spec.v_max, self.slow_radius)
        if leads:
            at_goal = row_norms(pos[:, leads] - spec.goal) <= spec.goal_tolerance
            if at_goal.any():
                pull[:, leads] = np.where(at_goal[..., None], 0.0,
                                          pull[:, leads])
        rep = _repulsion_rows(rows, self.influence_radius, self.repulsion_gain)
        return clamp_norms(pull + rep, spec.v_max)

    def goal_rows(self, state, pos: np.ndarray,
                  spec: MissionSpec) -> np.ndarray:
        """Goals of the swarm at positions ``pos`` (B, S, d), broadcastable
        to its shape: the (d,) array ``spec.goal``, every agent's goal."""
        return spec.goal

    def mission_complete_rows(self, state, rows: WorldRows,
                              spec: MissionSpec) -> np.ndarray:
        (index,) = state
        layout = rows.layout
        leader = layout.leader
        done = index >= len(layout.leader_waypoints) - 1
        if leader is None or not done.any():
            return np.zeros(len(index), dtype=bool)
        done &= row_norms(rows.position[:, leader] - spec.goal) \
            <= spec.goal_tolerance
        if not layout.follows:
            return done
        gaps = rows.position[:, layout.swarm][:, layout.follows] \
            - self._slot_rows(rows)
        return done & (row_norms(gaps) <= self.formation_tolerance).all(axis=1)


@dataclass
class DispersalSearchController:
    """Dispersal-based area search without mutual collision avoidance.

    Searchers repel each other inside the neighbour detection radius,
    avoid obstacles inside the proximity-sensor range and drift toward
    the least-visited cell of a coarse visit grid. Targets within
    ``target_radius`` of a searcher are marked detected.
    """

    bounds_lo: np.ndarray = field(metadata=dict(
        key="bounds_lo_m", kind="vector"))
    bounds_hi: np.ndarray = field(metadata=dict(
        key="bounds_hi_m", kind="vector"))
    targets: list[np.ndarray] = field(metadata=dict(
        key="targets_m", kind="vectors"))
    # dispersal range between searchers
    neighbor_radius: float = field(default=2.0, metadata=dict(
        key="neighbor_radius_m", kind="number", above=0.0))
    # obstacle proximity-sensor range
    sensor_range: float = field(default=2.0, metadata=dict(
        key="sensor_range_m", kind="number", above=0.0))
    target_radius: float = field(default=1.0, metadata=dict(
        key="target_radius_m", kind="number", least=0.0))
    cell_size: float = field(default=2.0, metadata=dict(
        key="cell_size_m", kind="number", above=0.0))
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
        self._targets = np.asarray(self.targets, dtype=float)   # (K, d)

    def clone(self) -> "DispersalSearchController":
        return replace(self, visits=self.visits.copy(), found=list(self.found))

    def update(self, world: WorldState, spec: MissionSpec) -> None:
        """:meth:`update_rows` of ``world`` as a batch of one row."""
        rows = world.rows()
        if rows.layout.swarm:
            visits, found = self.update_rows(self.row_state(1), rows, spec)
            self.visits, self.found = visits[0], found[0].tolist()

    def commands(self, world: WorldState, spec: MissionSpec) -> dict[int, np.ndarray]:
        """:meth:`commands_rows` of ``world`` as a batch of one row."""
        rows = world.rows()
        layout = rows.layout
        if not layout.swarm:
            return {}
        cmds = self.commands_rows(self.row_state(1), rows, spec)[0]
        return {layout.agents[k].id: cmds[n]
                for n, k in enumerate(layout.swarm_columns)}

    def mission_complete(self, world: WorldState, spec: MissionSpec) -> bool:
        return bool(self.found) and all(self.found)

    # -- array forms over WorldRows; the per-row state is (visits, found)

    def row_state(self, rows: int) -> tuple[np.ndarray, ...]:
        """Read-only views: no array form writes a state in place. One row
        is a plain view, which costs less than ``np.broadcast_to``."""
        state = self.visits[None], np.array(self.found, dtype=bool)[None]
        for a in state:
            a.flags.writeable = False
        return state if rows == 1 else tuple(
            np.broadcast_to(a, (rows,) + a.shape[1:]) for a in state)

    def adopt_row(self, state) -> None:
        """Take the state of a one-row ``state``: the inverse of
        ``row_state(1)``. The visit grid is copied, so it is never a
        read-only view or a view into a batch."""
        visits, found = state
        self.visits, self.found = visits[0].copy(), found[0].tolist()

    def _cells_rows(self, position: np.ndarray) -> np.ndarray:
        """The visit-grid cell of every point: integer indices (..., d)."""
        idx = np.floor((position - self.bounds_lo) / self.cell_size).astype(int)
        return np.clip(idx, 0, np.asarray(self.visits.shape) - 1)

    def _target_distances(self, position: np.ndarray) -> np.ndarray:
        """(B, S, K) distances from swarm points (B, S, d) to the targets."""
        return row_norms(position[:, :, None] - self._targets)

    def update_rows(self, state, rows: WorldRows, spec: MissionSpec):
        visits, found = state
        pos = rows.position[:, rows.layout.swarm]
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
        layout = rows.layout
        table = rows.distances()
        pos = rows.position[:, layout.swarm]
        count, size, dim = pos.shape
        ids = [layout.agents[k].id for k in layout.swarm_columns]
        rank = np.argsort(np.argsort(ids, kind="stable"), kind="stable")
        cell_order = np.argsort(visits.reshape(count, -1), axis=1,
                                kind="stable")
        least = cell_order[:, rank % cell_order.shape[1]]
        cells = np.stack(np.unravel_index(least, self.visits.shape), axis=-1)
        drift_target = self.bounds_lo + (cells.astype(float) + 0.5) \
            * self.cell_size
        # neighbours in world order; co-located ones splay by agent rank
        away, d = table.away, table.agents
        near = (d < self.neighbor_radius) & layout.others
        splay = np.zeros((size, dim))
        for n, r in enumerate(rank):
            angle = 2.0 * math.pi * int(r) / max(size, 1)
            splay[n, 0] = math.cos(angle)
            splay[n, 1] = math.sin(angle)
        close = d < 1e-9
        away = np.where(close[..., None], splay[:, None], away)
        d = np.where(close, 1.0, d)
        terms = np.where(near[..., None], (away / d[..., None]) * spec.v_max
                         * (1.0 - d / self.neighbor_radius)[..., None], 0.0)
        # terms out of range add +0.0, which leaves cmd (never -0.0) as it
        # is, so a column with none in range in any row is skipped
        cmd = np.zeros_like(pos)
        for k in near.any(axis=(0, 1)).nonzero()[0]:
            cmd = cmd + terms[:, :, k]
        push = self.obstacle_gain * spec.v_max
        near = table.obstacles < self.sensor_range
        columns = near.any(axis=(0, 1)).nonzero()[0]
        if columns.size:
            # every obstacle in one pass
            ramp = 1.0 - np.maximum(table.obstacles, 1e-6) / self.sensor_range
            terms = np.where(near[..., None], layout.obstacles
                             .outward_directions(pos) * push * ramp[..., None],
                             0.0)
            for o in columns:
                cmd = cmd + terms[:, :, o]
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

    def goal_rows(self, state, pos: np.ndarray,
                  spec: MissionSpec) -> np.ndarray:
        """(B, S, d) goals of the swarm at positions ``pos``: each agent's
        nearest target not yet found, NaN once every target is found."""
        visits, found = state
        if not self.targets:
            return np.full(pos.shape, np.nan)
        d = np.where(found[:, None], np.inf, self._target_distances(pos))
        goals = self._targets[np.argmin(d, axis=-1)]
        return np.where(found.all(axis=1)[:, None, None], np.nan, goals)

    def mission_complete_rows(self, state, rows: WorldRows,
                              spec: MissionSpec) -> np.ndarray:
        visits, found = state
        return found.all(axis=1) & bool(self.targets)
