"""Built-in swarm controllers.

Two controller families are provided: a leader-follower navigator whose
followers hold slots at fixed offsets from the leader and avoid obstacles
and each other with artificial potential fields, and a dispersal
controller for area search. Controllers keep their mutable state out of
``commands`` so a command computation never changes the controller;
``update`` is called once per world step by the mission loop.

Each controller also has array forms (``*_rows``) of ``update``,
``commands`` and ``mission_complete`` that act on a :class:`WorldRows`
batch, with the run state held per row as a tuple of arrays with a
leading row axis. Row by row they compute exactly what the scalar forms
compute: ``mission.RowStepper`` steps a probe's candidates this way, and
``mission.run_out`` a run's attacker-free run-out and the reference runs
of ``measure_nominal_steps``. A controller holds its run state in that
one form, as one row, ``state``: the scalar forms read it, the mission
step replaces it with a row a probe computed, and a row stepper
concatenates its simulations' states into its rows. No code
writes a state array in place (every array form returns new arrays), so
a copy of a controller and its original share state arrays. The array
forms read two things the batch holds. Its distance table
(``WorldRows.distances``) is built once per batch: in a row stepper, the
failure check of the rows a step produced builds it and the next step's
commands read it. A world's batch of one row shares the world's table,
the one table a world builds, which the scalar forms read too. Its
:class:`RowsLayout` resolves the swarm, leader and follower columns, the
masks, the waypoint array and, in ``derived``, the navigator's formation
offsets once per run, whose probes' batches all share it. The
:class:`Obstacles` stack, which a mission's worlds and layouts share,
gives every obstacle's surface distance and outward direction in one
pass each, to the scalar forms as to the array forms.

A controller states its goals once, as ``goal_rows`` over (B, S, d)
swarm positions; the main mission step calls it on a batch of one row.

The dispersal controller's ``update`` and ``commands`` are its array forms
on the world as a batch of one row (``WorldState.rows``), built once per
world over the run's layout of its agents. The navigator keeps scalar
``update`` and ``commands`` for the main mission step, where views of its
array forms ran ``a1_sa`` slower. Its scalar ``commands`` is one pass
per world: one :func:`_attraction_rows` call over the agents, the
potential field summed term by term in Python floats from row 0 of the
world's distance table (:func:`_repulsions`), and one :func:`clamp_norms`.
The field equals the array form's bit for bit: each term is formed by
the same IEEE elementwise operations and added in the same order to a
total that starts at +0.0, which the array forms' :func:`_fold` does in
one ``np.add.accumulate``. Only the norms stay numpy, because
``ndarray.dot`` rounds differently from a Python sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .world import (ROLE_ATTACKER, ROLE_LEADER, MissionSpec, RowsLayout,
                    WorldRows, WorldState, clamp_norms, norm, row_norms)

_EPS = 1e-9
# the most cells a dispersal visit grid may have, checked before it is
# allocated: every row of a batch holds a grid, and each step sorts it
MAX_VISIT_CELLS = 100_000

# every navigator's state until it switches waypoint: an in-place write fails
_FIRST_WAYPOINT = np.zeros(1, dtype=int)
_FIRST_WAYPOINT.flags.writeable = False


def _attraction_rows(position: np.ndarray, target: np.ndarray, v_max: float,
                     slow_radius: float) -> np.ndarray:
    """Full-speed pull toward ``target``, ramping down inside
    ``slow_radius``, of every vector along the last axis; +0.0 within
    ``_EPS`` of the target."""
    delta = target - position
    dist = row_norms(delta)
    far = dist >= _EPS
    if far.all():       # no target to mask
        return delta * (v_max * np.minimum(1.0, dist / slow_radius)
                        / dist)[..., None]
    dist = np.where(far, dist, 1.0)
    speed = v_max * np.minimum(1.0, dist / slow_radius)
    return np.where(far[..., None], delta * (speed / dist)[..., None], 0.0)


def _fold(*terms: np.ndarray) -> np.ndarray:
    """The (B, S, d) sum of the (B, S, C, d) ``terms`` over their C axes,
    in order: ``np.add.accumulate`` adds left to right over a term axis
    led by a +0.0 column, as the scalar loop adds to a total that starts
    at +0.0, so a first term of -0.0 gives +0.0 and an out-of-range +0.0
    term changes nothing. A ``sum`` may add pairwise and round otherwise."""
    lead = np.zeros_like(terms[0][:, :, :1])
    return np.add.accumulate(np.concatenate((lead, *terms), axis=2),
                             axis=2)[:, :, -1]


def _repulsion_rows(rows: WorldRows, influence_radius: float,
                    gain: float) -> np.ndarray:
    """:func:`_repulsions` of every swarm column of ``rows``: (B, S, d).

    The terms are :func:`_fold`-ed in the scalar order, obstacles in list
    order and then agents in world order, with +0.0 for a term out of
    range; the obstacles' terms are left out when none is in range.
    """
    table = rows.distances()
    layout = rows.layout
    pos = rows.position[:, layout.swarm]

    def push(near, d, direction):
        mag = gain * (1.0 / d - 1.0 / influence_radius) / (d * d)
        return np.where(near[..., None], mag[..., None] * direction, 0.0)

    d = np.maximum(table.agents, 1e-6)
    terms = [push((table.agents < influence_radius) & layout.others, d,
                  table.away / d[..., None])]
    near = table.obstacles < influence_radius
    if near.any():
        # every obstacle in one pass
        terms.insert(0, push(near, np.maximum(table.obstacles, 1e-6),
                             layout.obstacles.outward_directions(pos)))
    return _fold(*terms)


def _repulsions(world: WorldState, influence_radius: float,
                gain: float) -> list[list[float]]:
    """Potential-field push on every swarm agent of ``world`` away from
    obstacles and agents within range, as Python floats (M, d); an
    attacker gets +0.0. The terms are :func:`_repulsion_rows`' elementwise
    operations, added in its order, read from row 0 of the world's
    distance table; the points and, once an obstacle is in range, every
    agent's outward directions are converted to floats once."""
    table = world.distances()
    points = world.position.tolist()
    swarm_rows = zip(table.obstacles.tolist()[0], table.agents.tolist()[0])
    outward = None
    reach = 1.0 / influence_radius
    pushes = []
    for k, (agent, p) in enumerate(zip(world.agents, points)):
        total = [0.0] * len(p)
        if agent.role != ROLE_ATTACKER:
            obstacles, agents = next(swarm_rows)
            for o, d in enumerate(obstacles):
                if d < influence_radius:
                    if outward is None:
                        outward = world.obstacles.outward_directions(
                            world.position).tolist()
                    d = max(d, 1e-6)
                    mag = gain * (1.0 / d - reach) / (d * d)
                    total = [t + mag * u for t, u in zip(total, outward[k][o])]
            for j, d in enumerate(agents):
                if d < influence_radius and j != k:
                    d = max(d, 1e-6)
                    mag = gain * (1.0 / d - reach) / (d * d)
                    total = [t + mag * ((x - y) / d)
                             for t, x, y in zip(total, p, points[j])]
        pushes.append(total)
    return pushes


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
    # run state, one row of the array forms': (waypoint index,)
    state: tuple[np.ndarray, ...] = (_FIRST_WAYPOINT,)

    def _leader(self, world: WorldState):
        for a in world.agents:
            if a.role == ROLE_LEADER:
                return a
        return None

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
        (index,) = self.state
        if index[0] >= len(wps) - 1:
            return
        switch = self.waypoint_switch_radius
        if norm(leader.position - wps[index[0]]) <= switch:
            self.state = (index + 1,)

    def commands(self, world: WorldState, spec: MissionSpec) -> dict[int, np.ndarray]:
        """One pass over the world: the leaders pull toward the waypoint
        and the followers toward their slots in one
        :func:`_attraction_rows` call, :func:`_repulsions` adds the
        field, and one :func:`clamp_norms` caps the sums. An agent
        without a target (a leader at the goal, a follower without a
        leader, the attacker) targets its own position, which pulls with
        +0.0."""
        if not world.agents:
            return {}
        target = world.position.copy()
        leader = self._leader(world)
        for k, agent in enumerate(world.agents):
            if agent.role == ROLE_LEADER:
                if norm(agent.position - spec.goal) > spec.goal_tolerance:
                    wps = world.leader_waypoints
                    target[k] = wps[min(self.state[0][0], len(wps) - 1)]
            elif agent.role != ROLE_ATTACKER:
                offset = self.formation_offsets[agent.id]
                if leader is not None:
                    target[k] = leader.position + offset
        pull = _attraction_rows(world.position, target, spec.v_max,
                                self.slow_radius)
        cmds = clamp_norms(pull + _repulsions(world, self.influence_radius,
                                              self.repulsion_gain),
                           spec.v_max)
        return {a.id: cmds[k] for k, a in enumerate(world.agents)
                if a.role != ROLE_ATTACKER}

    def mission_complete(self, world: WorldState, spec: MissionSpec) -> bool:
        leader = self._leader(world)
        if leader is None:
            return False
        if self.state[0][0] < len(world.leader_waypoints) - 1:
            return False
        if norm(leader.position - spec.goal) > spec.goal_tolerance:
            return False
        for agent in world.swarm():
            if agent.role != ROLE_LEADER and \
                    norm(agent.position - self._slot(agent.id, world)) \
                    > self.formation_tolerance:
                return False
        return True

    # -- array forms over WorldRows; the per-row state is (waypoint index,)

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
        if not (layout.follows and done.any()):
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
    ``target_radius`` of a searcher are marked detected. Two tie-breaks
    depend on the axes' orientation: a stable argsort ranks equally
    visited cells by lowest flat index, and co-located searchers splay at
    angles counted from +x. Attacker-free a2 at seed 0 without jitter ends
    at step 52, at 32 with x and y swapped, and at 29 and 55 mirrored in x
    and in y (search area and targets too).
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
    # run state, one row of the array forms': (visits, found) of shapes
    # (1, *grid) and (1, K), none visited and none found when not given
    state: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not np.all(np.less(self.bounds_lo, self.bounds_hi)):
            raise ValueError("need bounds_lo < bounds_hi componentwise")
        if self.state is None:
            shape = np.ceil((self.bounds_hi - self.bounds_lo) / self.cell_size)
            cells = math.prod(shape.tolist())
            if cells > MAX_VISIT_CELLS:
                raise ValueError(f"the visit grid of bounds_lo to bounds_hi "
                                 f"in cells of cell_size has {cells:g} "
                                 f"cells, above {MAX_VISIT_CELLS}")
            self.state = (np.zeros((1, *shape.astype(int)), dtype=np.int64),
                          np.zeros((1, len(self.targets)), dtype=bool))
        self._targets = np.asarray(self.targets, dtype=float)   # (K, d)

    def update(self, world: WorldState, spec: MissionSpec) -> None:
        """:meth:`update_rows` of ``world`` as a batch of one row."""
        rows = world.rows()
        if rows.layout.swarm:
            self.state = self.update_rows(self.state, rows, spec)

    def commands(self, world: WorldState, spec: MissionSpec) -> dict[int, np.ndarray]:
        """:meth:`commands_rows` of ``world`` as a batch of one row."""
        rows = world.rows()
        layout = rows.layout
        if not layout.swarm:
            return {}
        cmds = self.commands_rows(self.state, rows, spec)[0]
        return {layout.agents[k].id: cmds[n]
                for n, k in enumerate(layout.swarm_columns)}

    def mission_complete(self, world: WorldState, spec: MissionSpec) -> bool:
        return bool(self.targets) and bool(self.state[1].all())

    # -- array forms over WorldRows; the per-row state is (visits, found)

    def _target_distances(self, position: np.ndarray) -> np.ndarray:
        """(B, S, K) distances from swarm points (B, S, d) to the targets."""
        return row_norms(position[:, :, None] - self._targets)

    def update_rows(self, state, rows: WorldRows, spec: MissionSpec):
        visits, found = state
        pos = rows.position[:, rows.layout.swarm]
        visits = visits.copy()
        cells = np.floor((pos - self.bounds_lo) / self.cell_size).astype(int)
        cells = np.clip(cells, 0, np.asarray(visits.shape[1:]) - 1)
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
        cells = np.stack(np.unravel_index(least, visits.shape[1:]), axis=-1)
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
        terms = [np.where(near[..., None], (away / d[..., None]) * spec.v_max
                          * (1.0 - d / self.neighbor_radius)[..., None], 0.0)]
        push = self.obstacle_gain * spec.v_max
        near = table.obstacles < self.sensor_range
        if near.any():
            # every obstacle in one pass
            ramp = 1.0 - np.maximum(table.obstacles, 1e-6) / self.sensor_range
            terms.append(np.where(near[..., None], layout.obstacles
                                  .outward_directions(pos) * push
                                  * ramp[..., None], 0.0))
        # the neighbours' terms, then the obstacles', out of range +0.0
        cmd = _fold(*terms)
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
