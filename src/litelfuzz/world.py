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
    """Circle/sphere or axis-aligned box obstacle, as its constructors
    validate it. :class:`Obstacles` measures distances and directions."""

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


class Obstacles(tuple):
    """A world's obstacles in list order, stacked for one array pass.

    A circle is a box of zero extent at its centre with its radius (a box
    has radius 0), so ``p - clip(p, lo, hi)`` is, up to the sign of a zero,
    the vector a per-obstacle form measures, and each point and obstacle is
    measured alone: the kernels equal the scalar oracle in
    ``tests/obstacle_oracle.py`` with ``==``.
    ``Obstacles(stack)`` is ``stack``: a world stacks a plain list once,
    and the run's worlds and batches share the stack and its layouts,
    which the end of a fuzzing run forgets."""

    def __new__(cls, obstacles=()):
        if type(obstacles) is Obstacles:
            return obstacles
        self = super().__new__(cls, obstacles)
        self.box = np.array([o.kind == "box" for o in self], dtype=bool)
        self.radius = np.array([o.radius for o in self])
        self.lo, self.hi = (np.array([o.center if o.kind == "circle" else
                                      getattr(o, end) for o in self])
                            for end in ("lo", "hi"))
        self.boxes = bool(self.box.any())
        self._layouts = {}
        return self

    def layout(self, agents: list[AgentState],
               leader_waypoints: list[np.ndarray]) -> RowsLayout:
        """The :class:`RowsLayout` of ``agents`` (their ids, roles and
        sensing radii) with the list ``leader_waypoints``, built once until
        :meth:`forget_layouts`; it keeps the list, so no other list takes
        the list's ``id``."""
        key = (tuple((a.id, a.role, a.sensing_radius) for a in agents),
               id(leader_waypoints))
        if key not in self._layouts:
            self._layouts[key] = RowsLayout(agents, self, leader_waypoints)
        return self._layouts[key]

    def forget_layouts(self) -> None:
        """Drop the layouts built so far. Each holds the stack, so until
        then the stack and its layouts are a cycle, which only the cyclic
        collector frees; a layout still held elsewhere keeps working."""
        self._layouts.clear()

    def surface_distances(self, points: np.ndarray) -> np.ndarray:
        """(..., O) signed surface distances of points (..., d)."""
        if not (self and points.size):
            return np.empty(points.shape[:-1] + (len(self),))
        p = points[..., None, :]
        if not self.boxes:  # a circle's clip is its centre
            return row_norms(p - self.lo) - self.radius
        n = row_norms(p - np.minimum(np.maximum(p, self.lo), self.hi))
        if not n.all():
            # inside a box: negative penetration depth to the nearest face
            n = np.where(self.box & (n == 0.0), -np.min(
                np.minimum(p - self.lo, self.hi - p), axis=-1), n)
        return n - self.radius

    def outward_directions(self, points: np.ndarray) -> np.ndarray:
        """(..., O, d) unit vectors pointing away from every obstacle."""
        p = points[..., None, :]
        v = p - np.minimum(np.maximum(p, self.lo), self.hi)
        n = row_norms(v)
        zero = n == 0.0
        out = v / np.where(zero, 1.0, n)[..., None]
        if zero.any():
            axes = np.arange(points.shape[-1])
            # out through a box's nearest face, or a circle's first axis
            gaps_lo, gaps_hi = p - self.lo, self.hi - p
            face = axes == np.argmin(np.minimum(gaps_lo, gaps_hi),
                                     axis=-1)[..., None]
            toward_lo = (face & (gaps_lo < gaps_hi)).any(axis=-1,
                                                        keepdims=True)
            fallback = np.where(self.box[:, None],
                                np.where(face, np.where(toward_lo, -1.0, 1.0),
                                         0.0), np.where(axes == 0, 1.0, 0.0))
            out = np.where(zero[..., None], fallback, out)
        return out


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


@dataclass
class WorldState:
    """One instant of a mission: its agents, obstacles and waypoints.

    A world and its agents are never mutated once built; a step makes a
    new world. That makes it safe to share a world between a simulation
    and its clones, and to cache its distance table and its batch of one
    row, which :meth:`distances` and :meth:`rows` build on first use and
    share. :meth:`without` returns a new world, which builds its own.
    """

    step_index: int
    agents: list[AgentState]
    obstacles: Obstacles     # a plain list is stacked once, at construction
    leader_waypoints: list[np.ndarray] = field(default_factory=list)
    # the agents' positions in world order, (M, d), or (0, 0)
    position: np.ndarray = field(init=False, repr=False, compare=False)
    _distances: RowsDistances | None = field(default=None, init=False,
                                             repr=False, compare=False)
    _rows: "WorldRows | None" = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.obstacles = Obstacles(self.obstacles)
        self.position = np.array([a.position for a in self.agents]
                                 or np.empty((0, 0)))

    def distances(self) -> RowsDistances:
        """The world's distance table, a batch of one row built once from
        the stacked positions, with no :class:`RowsLayout`: row 0's swarm
        agent ``n`` is the ``n``-th of :meth:`swarm`."""
        if self._distances is None:
            self._distances = RowsDistances.of(self.position[None], _index(
                [k for k, a in enumerate(self.agents)
                 if a.role != ROLE_ATTACKER]), self.obstacles)
        return self._distances

    def rows(self) -> "WorldRows":
        """The world as a :class:`WorldRows` batch of one row, built once
        over the :meth:`Obstacles.layout` of its agents, whose distance
        table is the world's."""
        if self._rows is None:
            self._rows = WorldRows(
                self.obstacles.layout(self.agents, self.leader_waypoints),
                self.position[None],
                *(np.array([getattr(a, name) for a in self.agents])[None]
                  for name in ("velocity", "acceleration")))
            self._rows._distances = self.distances()
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
        return WorldState(self.step_index,
                          [a for a in self.agents if a.id != agent_id],
                          self.obstacles, self.leader_waypoints)


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
    is resolved on first use and kept for the life of the layout, which
    :meth:`Obstacles.layout` builds once per agent set of a run: the probes,
    trace and attacker-present worlds share ``mission.Simulation.layout``.
    ``derived`` holds what a controller derives from the layout and its
    own fixed parameters, on the same terms. An index into a column axis
    is a basic slice when its columns are consecutive (see ``_index``).
    """

    def __init__(self, agents: list[AgentState], obstacles: list[Obstacle],
                 leader_waypoints: list[np.ndarray]):
        self.agents = agents
        self.obstacles = Obstacles(obstacles)
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
    """The distance table of a :class:`WorldRows` batch, or of a world as
    one row, which the one kernel :meth:`of` builds.

    For swarm column ``s`` (the ``n``-th swarm column) and column ``k`` of
    row ``b``: ``away[b, n, k]`` is ``p_s - p_k``, ``agents[b, n, k]`` is
    its :func:`row_norms` and ``obstacles[b, n, o]`` the signed surface
    distance from ``p_s`` to obstacle ``o``, from one pass of
    :class:`Obstacles`. Both kernels treat every vector alone, so entries
    equal the scalar forms' with ``==``. An attacker has no row; as
    ``norm(a - b) == norm(b - a)``, its column holds its distances.
    """

    away: np.ndarray        # (B, S, M, d)
    agents: np.ndarray      # (B, S, M)
    obstacles: np.ndarray   # (B, S, O)

    @staticmethod
    def of(position: np.ndarray, swarm: slice | list[int],
           obstacles: Obstacles) -> "RowsDistances":
        """The table of (B, M, d) ``position``, swarm columns ``swarm``."""
        pos = position[:, swarm]
        away = pos[:, :, None] - position[:, None]
        return RowsDistances(away, row_norms(away),
                             obstacles.surface_distances(pos))

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
    :class:`RowsDistances` on first use (a world's batch has the world's),
    and :meth:`select` carries the kept rows of a built table over.
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
            self._distances = RowsDistances.of(
                self.position, self.layout.swarm, self.layout.obstacles)
        return self._distances

    def select(self, keep: np.ndarray) -> "WorldRows":
        """The rows picked by the boolean mask ``keep``."""
        rows = WorldRows(self.layout, self.position[keep],
                         self.velocity[keep], self.acceleration[keep])
        if self._distances is not None:
            rows._distances = self._distances.select(keep)
        return rows


def clamp_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = norm(v)
    if n > limit:
        return v * (limit / n)
    return v


def clamp_norms(v: np.ndarray, limit: float) -> np.ndarray:
    """:func:`clamp_norm` of every vector along the last axis of ``v``, for
    a ``limit`` above 0."""
    # a vector within the limit is scaled by limit / limit, exactly 1.0
    return v * (limit / np.maximum(row_norms(v), limit))[..., None]


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
                   command: np.ndarray, v_max, a_max,
                   dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`integrate_step` of every vector along the last axis at once.

    ``position``, ``velocity`` and ``command`` have one shape. ``v_max``
    and ``a_max`` are scalars or, for (..., M, d) kinematics, per-column
    (M,) arrays, such as a probe's attacker column's own limits. Returns
    the new positions, velocities and accelerations.
    """
    if not np.isfinite((command, position, velocity)).all():
        raise InvalidState("non-finite state in a batched step")
    dv = clamp_norms(command - velocity, a_max * dt)
    new_v = clamp_norms(velocity + dv, v_max)
    return position + new_v * dt, new_v, (new_v - velocity) / dt


def min_obstacle_distance(agent: AgentState, world: WorldState) -> float:
    """Minimum surface distance to obstacles and other agents, in [0, sensing_radius].

    ``agent`` is one of the agents of ``world``. An attacker, which has no
    row of the world's table, reads its column and measures the rest.
    """
    table = world.distances()
    col = [a.id for a in world.agents].index(agent.id)
    if agent.role != ROLE_ATTACKER:
        n = sum(a.role != ROLE_ATTACKER for a in world.agents[:col])
        obstacles, row = table.obstacles[0, n], table.agents[0, n].tolist()
        others = row[:col] + row[col + 1:]
    else:
        obstacles = world.obstacles.surface_distances(agent.position)
        others = table.agents[0, :, col].tolist() + [
            norm(agent.position - a.position) for a in world.attackers()
            if a.id != agent.id]
    # obstacles in list order first: a -0.0 surface distance wins a tie
    best = min((agent.sensing_radius, *obstacles.tolist(), *others))
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
        for n, row in enumerate(table.agents.tolist()[0]):
            for j in swarm[n + 1:]:
                if row[j] < spec.collision_radius:
                    return FailureKind.DRONES_COLLIDE
    for row in table.obstacles.tolist()[0]:
        for d in row:
            if d <= 0.0:
                return FailureKind.OBSTACLE_CRASH
    if spec.timed_out(world.step_index):
        return FailureKind.TIMEOUT
    return None


def failed_rows(rows: WorldRows, step_index: int | np.ndarray,
                spec: MissionSpec) -> np.ndarray:
    """Rows of ``rows`` in which :func:`detect_failure` reports a failure,
    at ``step_index``: one for every row, or (B,) each row's own."""
    table = rows.distances()
    layout = rows.layout
    failed = (table.obstacles <= 0.0).any(axis=(1, 2)) \
        | spec.timed_out(step_index)
    if spec.formation_enabled:
        # norm(a - b) == norm(b - a), so both triangles agree
        close = table.agents[:, :, layout.swarm] < spec.collision_radius
        failed |= (close & layout.not_self).any(axis=(1, 2))
    return failed
