"""Kinematic world model: agents, obstacles, integration and failure detection.

All positions are in meters, velocities in m/s, accelerations in m/s^2.
Worlds are either 2D or 3D; every vector in a world shares the scenario
dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_SEARCHER = "searcher"
ROLE_ATTACKER = "attacker"

SWARM_ROLES = (ROLE_LEADER, ROLE_FOLLOWER, ROLE_SEARCHER)


def norm(v: np.ndarray) -> float:
    """Euclidean length of a real 1-D array.

    Bit-identical to ``np.linalg.norm(v)``, which computes exactly
    ``sqrt(v.dot(v))`` for such an array, minus numpy's per-call dispatch.
    ``math.hypot`` and ``np.sqrt(np.sum(v * v))`` round differently.
    """
    return math.sqrt(v.dot(v))


def row_norms(v: np.ndarray) -> np.ndarray:
    """:func:`norm` of every vector along the last axis of ``v``.

    ``np.vecdot`` accumulates like ``ndarray.dot`` (with FMA), so each entry
    equals :func:`norm` of its row with ``==``. ``np.einsum``,
    ``(v * v).sum(-1)`` and ``np.linalg.norm(v, axis=-1)`` differ from it
    in the last bit on 16-28% of 2- and 3-vectors.
    """
    return np.sqrt(np.vecdot(v, v))


class InvalidState(ValueError):
    """A kinematic update received non-finite components."""


class FailureKind(Enum):
    DRONES_COLLIDE = "DronesCollide"
    OBSTACLE_CRASH = "ObstacleCrash"
    TIMEOUT = "Timeout"


@dataclass
class Obstacle:
    """Circle/sphere or axis-aligned box obstacle."""

    kind: str  # "circle" or "box"
    center: np.ndarray | None = None
    radius: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @staticmethod
    def circle(center, radius: float) -> "Obstacle":
        if radius <= 0:
            raise ValueError("obstacle radius must be > 0")
        return Obstacle(kind="circle", center=np.asarray(center, dtype=float),
                        radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "Obstacle":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not np.all(lo < hi):
            raise ValueError("need lo < hi componentwise")
        return Obstacle(kind="box", lo=lo, hi=hi)

    def surface_distance(self, point: np.ndarray) -> float:
        """Signed distance from ``point`` to the obstacle surface (< 0 inside)."""
        p = np.asarray(point, dtype=float)
        if self.kind == "circle":
            return norm(p - self.center) - self.radius
        outward = np.maximum(np.maximum(self.lo - p, p - self.hi), 0.0)
        d = norm(outward)
        if d > 0.0:
            return d
        # inside: negative penetration depth to the nearest face
        return -float(np.min(np.minimum(p - self.lo, self.hi - p)))

    def surface_distances(self, points: np.ndarray) -> np.ndarray:
        """:meth:`surface_distance` of every point of shape (..., d)."""
        if self.kind == "circle":
            return row_norms(points - self.center) - self.radius
        d = row_norms(np.maximum(np.maximum(self.lo - points, points - self.hi),
                                 0.0))
        inside = d == 0.0
        if inside.any():
            depth = -np.min(np.minimum(points - self.lo, self.hi - points),
                            axis=-1)
            d = np.where(inside, depth, d)
        return d

    def outward_direction(self, point: np.ndarray) -> np.ndarray:
        """Unit vector pointing away from the obstacle at ``point``."""
        p = np.asarray(point, dtype=float)
        if self.kind == "circle":
            v = p - self.center
        else:
            closest = np.clip(p, self.lo, self.hi)
            v = p - closest
            if norm(v) == 0.0:
                # inside the box: push out through the nearest face
                gaps_lo = p - self.lo
                gaps_hi = self.hi - p
                v = np.zeros_like(p)
                axis = int(np.argmin(np.minimum(gaps_lo, gaps_hi)))
                v[axis] = -1.0 if gaps_lo[axis] < gaps_hi[axis] else 1.0
                return v
        n = norm(v)
        if n == 0.0:
            v = np.zeros_like(p)
            v[0] = 1.0
            return v
        return v / n

    def outward_directions(self, points: np.ndarray) -> np.ndarray:
        """:meth:`outward_direction` at every point of shape (..., d)."""
        v = points - (self.center if self.kind == "circle"
                      else np.clip(points, self.lo, self.hi))
        n = row_norms(v)
        zero = n == 0.0
        out = v / np.where(zero, 1.0, n)[..., None]
        if zero.any():
            axes = np.arange(points.shape[-1])
            if self.kind == "circle":
                fallback = np.where(axes == 0, 1.0, 0.0)
            else:
                # inside the box: push out through the nearest face
                gaps_lo = points - self.lo
                gaps_hi = self.hi - points
                face = axes == np.argmin(np.minimum(gaps_lo, gaps_hi),
                                         axis=-1)[..., None]
                toward_lo = (face & (gaps_lo < gaps_hi)).any(axis=-1,
                                                            keepdims=True)
                fallback = np.where(face, np.where(toward_lo, -1.0, 1.0), 0.0)
            out = np.where(zero[..., None], fallback, out)
        return out

    def bounding_circle(self) -> tuple[np.ndarray, float]:
        if self.kind == "circle":
            return self.center, self.radius
        center = 0.5 * (self.lo + self.hi)
        return center, norm(self.hi - center)


@dataclass
class AgentState:
    id: int
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    sensing_radius: float
    role: str = ROLE_FOLLOWER

    def copy(self) -> "AgentState":
        return AgentState(self.id, self.position.copy(), self.velocity.copy(),
                          self.acceleration.copy(), self.sensing_radius, self.role)


@dataclass
class MissionSpec:
    goal: np.ndarray
    goal_tolerance: float
    safe_distance: float          # minimum safe distance to obstacles/agents
    v_max: float
    a_max: float
    formation_min: float          # minimum permissible pairwise distance
    formation_max: float          # maximum permissible pairwise distance
    dt: float
    nominal_steps: int
    timeout_multiplier: float = 2.0
    collision_radius: float = 0.0
    formation_enabled: bool = True  # False when the controller has no mutual avoidance

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if not (0 < self.formation_min < self.formation_max):
            raise ValueError("need 0 < formation_min < formation_max")
        if self.timeout_multiplier < 1:
            raise ValueError("timeout_multiplier must be >= 1")
        if self.collision_radius >= self.safe_distance:
            raise ValueError("collision_radius must be < safe_distance")

    def timed_out(self, step_index: int) -> bool:
        """Whether step ``step_index`` lies past the mission's time budget."""
        return step_index > self.nominal_steps * self.timeout_multiplier


@dataclass(frozen=True)
class Distances:
    """Every agent-agent and agent-obstacle distance of one world.

    ``agents[i][j]`` is ``norm(p_i - p_j)`` and ``obstacles[i][o]`` is
    ``obstacles[o].surface_distance(p_i)``, for the positions ``p`` of the
    world's agents in world order; ``column`` maps an agent id to its
    index. Entries are Python floats equal with ``==`` to the scalar forms,
    and ``norm(a - b) == norm(b - a)``, so either triangle serves.
    """

    column: dict[int, int]
    agents: list[list[float]]
    obstacles: list[list[float]]

    @staticmethod
    def of(world: "WorldState") -> "Distances":
        column = {a.id: k for k, a in enumerate(world.agents)}
        if not world.agents:
            return Distances(column, [], [])
        pos = np.array([a.position for a in world.agents])
        between = row_norms(pos[:, None] - pos[None]).tolist()
        surface = np.array([obs.surface_distances(pos)
                            for obs in world.obstacles])
        return Distances(column, between,
                         surface.reshape(len(world.obstacles), len(pos))
                         .T.tolist())

    def without(self, col: int) -> "Distances":
        """The table of the world without the agent in column ``col``."""
        return Distances(
            {i: k - (k > col) for i, k in self.column.items() if k != col},
            [row[:col] + row[col + 1:]
             for k, row in enumerate(self.agents) if k != col],
            self.obstacles[:col] + self.obstacles[col + 1:])


@dataclass
class WorldState:
    """One instant of a mission: its agents, obstacles and waypoints.

    A world and its agents are never mutated once built; a step makes a
    new world. That makes it safe to share a world between simulations
    and trace snapshots, and to cache its :class:`Distances` and its
    batch of one row, which :meth:`distances` and :meth:`rows` build on
    first use. :meth:`without` returns a new world; once this world's
    table is built, the new one derives its table from it by dropping the
    removed agent's row and column.
    """

    step_index: int
    agents: list[AgentState]
    obstacles: list[Obstacle]
    leader_waypoints: list[np.ndarray] = field(default_factory=list)
    _distances: Distances | None = field(default=None, init=False,
                                         repr=False, compare=False)
    _rows: "WorldRows | None" = field(default=None, init=False, repr=False,
                                      compare=False)

    def distances(self) -> Distances:
        """The world's distance table, built once."""
        if self._distances is None:
            self._distances = Distances.of(self)
        return self._distances

    def rows(self) -> "WorldRows":
        """The world as a :class:`WorldRows` batch of one row, built once."""
        if self._rows is None:
            def stacked(name: str) -> np.ndarray:
                return np.array([getattr(a, name) for a in self.agents])[None]
            self._rows = WorldRows(
                RowsLayout(self.agents, self.obstacles, self.leader_waypoints),
                stacked("position"), stacked("velocity"),
                stacked("acceleration"))
        return self._rows

    def agent(self, agent_id: int) -> AgentState:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"no agent with id {agent_id}")

    def swarm(self) -> list[AgentState]:
        return [a for a in self.agents if a.role != ROLE_ATTACKER]

    def attackers(self) -> list[AgentState]:
        return [a for a in self.agents if a.role == ROLE_ATTACKER]

    def without(self, agent_id: int) -> "WorldState":
        world = WorldState(self.step_index,
                           [a for a in self.agents if a.id != agent_id],
                           self.obstacles, self.leader_waypoints)
        # every entry is computed per pair or per agent, so the derived
        # table equals a fresh one
        if self._distances is not None \
                and len(world.agents) == len(self.agents) - 1:
            world._distances = self._distances.without(
                self._distances.column[agent_id])
        return world


def _index(columns: list[int]) -> slice | list[int]:
    """``columns`` as an index along one axis: a basic slice when they are
    consecutive, so that reading them gives a view rather than a copy. No
    columns give the empty list, so an index is false exactly when it
    selects nothing."""
    if columns and columns[-1] - columns[0] == len(columns) - 1:
        return slice(columns[0], columns[-1] + 1)
    return columns


class RowsLayout:
    """What the rows of a :class:`WorldRows` batch share: the agents in
    world order (only their ids, roles and sensing radii are read), the
    obstacles and the leader waypoints.

    The index sets, masks and arrays below depend on nothing else, so each
    is resolved on first use and kept for the life of the layout, which is
    one probe: every step's rows, and every :meth:`WorldRows.select` of
    them, carry the same layout. ``derived`` holds what a controller
    derives from the layout and its own fixed parameters, on the same
    terms. An index into a column axis is a basic slice when its columns
    are consecutive (see ``_index``), so reading it gives a view.
    """

    def __init__(self, agents: list[AgentState], obstacles: list[Obstacle],
                 leader_waypoints: list[np.ndarray]):
        self.agents = agents
        self.obstacles = obstacles
        self.leader_waypoints = leader_waypoints
        self.derived: dict = {}

    @cached_property
    def swarm_columns(self) -> list[int]:
        return [k for k, a in enumerate(self.agents) if a.role != ROLE_ATTACKER]

    @cached_property
    def swarm(self) -> slice | list[int]:
        """Index of the swarm columns."""
        return _index(self.swarm_columns)

    @cached_property
    def leader(self) -> int | None:
        """Column of the first leader, or None."""
        for k, a in enumerate(self.agents):
            if a.role == ROLE_LEADER:
                return k
        return None

    @cached_property
    def leads(self) -> slice | list[int]:
        """Index of the leaders among the swarm columns."""
        return _index([n for n, k in enumerate(self.swarm_columns)
                       if self.agents[k].role == ROLE_LEADER])

    @cached_property
    def follower_columns(self) -> list[int]:
        """Columns of the swarm agents that are not leaders."""
        return [k for k in self.swarm_columns
                if self.agents[k].role != ROLE_LEADER]

    @cached_property
    def follows(self) -> slice | list[int]:
        """Index of the followers among the swarm columns."""
        return _index([n for n, k in enumerate(self.swarm_columns)
                       if self.agents[k].role != ROLE_LEADER])

    @cached_property
    def others(self) -> np.ndarray:
        """(S, M) mask: swarm column s and column k are different agents."""
        return np.asarray(self.swarm_columns)[:, None] \
            != np.arange(len(self.agents))

    @cached_property
    def not_self(self) -> np.ndarray:
        """(S, S) mask: swarm columns s and t are different agents."""
        return self.others[:, self.swarm]

    @cached_property
    def waypoints(self) -> np.ndarray:
        """The leader waypoints as one (W, d) array."""
        return np.asarray(self.leader_waypoints)


@dataclass(frozen=True)
class RowsDistances:
    """:class:`Distances` of every row of a :class:`WorldRows`, as arrays.

    For swarm column ``s`` (the ``n``-th of ``layout.swarm_columns``) and
    column ``k`` of row ``b``: ``away[b, n, k]`` is ``p_s - p_k``,
    ``agents[b, n, k]`` is its :func:`row_norms` and ``obstacles[b, n, o]``
    is ``obstacles[o].surface_distances(p_s)``. Both kernels treat every
    vector alone, so the entries equal the scalar forms with ``==``.
    """

    away: np.ndarray        # (B, S, M, d)
    agents: np.ndarray      # (B, S, M)
    obstacles: np.ndarray   # (B, S, O)

    @staticmethod
    def of(rows: "WorldRows") -> "RowsDistances":
        pos = rows.position[:, rows.layout.swarm]
        away = pos[:, :, None] - rows.position[:, None]
        obstacles = rows.layout.obstacles
        surface = np.empty(pos.shape[:2] + (len(obstacles),))
        for o, obs in enumerate(obstacles):
            surface[..., o] = obs.surface_distances(pos)
        return RowsDistances(away, row_norms(away), surface)

    def select(self, keep: np.ndarray) -> "RowsDistances":
        """The rows picked by the boolean mask ``keep``."""
        return RowsDistances(self.away[keep], self.agents[keep],
                             self.obstacles[keep])


@dataclass
class WorldRows:
    """Variants of one world, one per row, stepped together.

    ``position``, ``velocity`` and ``acceleration`` have shape (B, M, d):
    column k holds agent ``layout.agents[k]`` of every variant. The
    variants share the :class:`RowsLayout`; only the kinematics differ.
    A batch is never mutated once built, so :meth:`distances` builds its
    :class:`RowsDistances` on first use, as :meth:`WorldState.distances`
    does, and :meth:`select` carries the kept rows of a built table over.
    A probe step thus computes each distance once: the failure check of
    the rows a step produced builds the table, and the repulsion of the
    next step's commands reads it.
    """

    layout: RowsLayout
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    _distances: RowsDistances | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def distances(self) -> RowsDistances:
        """The batch's distance table, built once."""
        if self._distances is None:
            self._distances = RowsDistances.of(self)
        return self._distances

    def column(self, agent_id: int) -> int:
        for k, a in enumerate(self.layout.agents):
            if a.id == agent_id:
                return k
        raise KeyError(f"no agent with id {agent_id}")

    def select(self, keep: np.ndarray) -> "WorldRows":
        """The rows picked by the boolean mask ``keep``."""
        rows = WorldRows(self.layout, self.position[keep],
                         self.velocity[keep], self.acceleration[keep])
        if self._distances is not None:
            rows._distances = self._distances.select(keep)
        return rows

    def world(self, row: int, step_index: int) -> WorldState:
        """Row ``row`` as a :class:`WorldState`."""
        layout = self.layout
        return WorldState(step_index, [
            AgentState(a.id, self.position[row, k], self.velocity[row, k],
                       self.acceleration[row, k], a.sensing_radius, a.role)
            for k, a in enumerate(layout.agents)],
            layout.obstacles, layout.leader_waypoints)


def clamp_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = norm(v)
    if n > limit:
        return v * (limit / n)
    return v


def clamp_norms(v: np.ndarray, limit: float) -> np.ndarray:
    """:func:`clamp_norm` of every vector along the last axis of ``v``."""
    n = row_norms(v)
    over = n > limit
    if not over.any():
        return v
    return np.where(over[..., None],
                    v * (limit / np.where(over, n, 1.0))[..., None], v)


def integrate_step(agent: AgentState, commanded_velocity: np.ndarray,
                   spec: MissionSpec) -> AgentState:
    """Advance one Euler step toward ``commanded_velocity``.

    The velocity change is capped at a_max*dt and the resulting speed at
    v_max; the recorded acceleration is the realized delta-v over dt.
    """
    cmd = np.asarray(commanded_velocity, dtype=float)
    if not (np.isfinite(cmd).all() and np.isfinite(agent.position).all()
            and np.isfinite(agent.velocity).all()):
        raise InvalidState(f"non-finite state for agent {agent.id}")
    dv = clamp_norm(cmd - agent.velocity, spec.a_max * spec.dt)
    new_v = clamp_norm(agent.velocity + dv, spec.v_max)
    realized_dv = new_v - agent.velocity
    new_pos = agent.position + new_v * spec.dt
    return AgentState(agent.id, new_pos, new_v, realized_dv / spec.dt,
                      agent.sensing_radius, agent.role)


def integrate_rows(position: np.ndarray, velocity: np.ndarray,
                   command: np.ndarray, v_max: float, a_max: float,
                   dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`integrate_step` of every agent along the last axis at once.

    Returns the new positions, velocities and accelerations.
    """
    if not (np.isfinite(command).all() and np.isfinite(position).all()
            and np.isfinite(velocity).all()):
        raise InvalidState("non-finite state in a batched step")
    dv = clamp_norms(command - velocity, a_max * dt)
    new_v = clamp_norms(velocity + dv, v_max)
    return position + new_v * dt, new_v, (new_v - velocity) / dt


def min_obstacle_distance(agent: AgentState, world: WorldState) -> float:
    """Minimum surface distance to obstacles and other agents, in [0, sensing_radius].

    ``agent`` is one of the agents of ``world``.
    """
    table = world.distances()
    col = table.column[agent.id]
    row = table.agents[col]
    # obstacles in list order, then the other agents in world order
    best = min((agent.sensing_radius, *table.obstacles[col], *row[:col],
                *row[col + 1:]))
    return float(min(max(best, 0.0), agent.sensing_radius))


def detect_failure(world: WorldState, spec: MissionSpec) -> FailureKind | None:
    """Physical failure check; attacker contact is never reported here.

    DronesCollide is suppressed when the scenario declares no inter-drone
    avoidance (formation_enabled False): such controllers treat overlap as
    benign, so it cannot count as a mission failure.
    """
    table = world.distances()
    swarm = [k for k, a in enumerate(world.agents) if a.role != ROLE_ATTACKER]
    if spec.formation_enabled:
        for n, i in enumerate(swarm):
            row = table.agents[i]
            for j in swarm[n + 1:]:
                if row[j] < spec.collision_radius:
                    return FailureKind.DRONES_COLLIDE
    for i in swarm:
        for d in table.obstacles[i]:
            if d <= 0.0:
                return FailureKind.OBSTACLE_CRASH
    if spec.timed_out(world.step_index):
        return FailureKind.TIMEOUT
    return None


def failed_rows(rows: WorldRows, step_index: int,
                spec: MissionSpec) -> np.ndarray:
    """Rows of ``rows`` in which :func:`detect_failure` reports a failure."""
    table = rows.distances()
    layout = rows.layout
    failed = np.full(len(rows.position), spec.timed_out(step_index))
    if spec.formation_enabled:
        # norm(a - b) == norm(b - a), so both triangles agree
        close = table.agents[:, :, layout.swarm] < spec.collision_radius
        failed |= (close & layout.not_self).any(axis=(1, 2))
    failed |= (table.obstacles <= 0.0).any(axis=(1, 2))
    return failed
