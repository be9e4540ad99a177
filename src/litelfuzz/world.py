"""Kinematic world model: agents, obstacles, integration and failure detection.

All positions are in meters, velocities in m/s, accelerations in m/s^2.
Worlds are either 2D or 3D; every vector in a world shares the scenario
dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

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
            raise ValueError("box min corner must be < max corner componentwise")
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


@dataclass
class WorldState:
    step_index: int
    agents: list[AgentState]
    obstacles: list[Obstacle]
    leader_waypoints: list[np.ndarray] = field(default_factory=list)

    def copy(self) -> "WorldState":
        return WorldState(self.step_index, [a.copy() for a in self.agents],
                          self.obstacles, self.leader_waypoints)

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


def clamp_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = norm(v)
    if n > limit:
        return v * (limit / n)
    return v


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


def min_obstacle_distance(agent: AgentState, world: WorldState) -> float:
    """Minimum surface distance to obstacles and other agents, in [0, sensing_radius]."""
    best = agent.sensing_radius
    for obs in world.obstacles:
        best = min(best, obs.surface_distance(agent.position))
    for other in world.agents:
        if other.id == agent.id:
            continue
        best = min(best, norm(other.position - agent.position))
    return float(min(max(best, 0.0), agent.sensing_radius))


def detect_failure(world: WorldState, spec: MissionSpec,
                   nominal_steps: int | None = None) -> FailureKind | None:
    """Physical failure check; attacker contact is never reported here.

    DronesCollide is suppressed when the scenario declares no inter-drone
    avoidance (formation_enabled False): such controllers treat overlap as
    benign, so it cannot count as a mission failure.
    """
    swarm = world.swarm()
    if spec.formation_enabled:
        for i, a in enumerate(swarm):
            for b in swarm[i + 1:]:
                if norm(a.position - b.position) < spec.collision_radius:
                    return FailureKind.DRONES_COLLIDE
    for a in swarm:
        for obs in world.obstacles:
            if obs.surface_distance(a.position) <= 0.0:
                return FailureKind.OBSTACLE_CRASH
    nominal = spec.nominal_steps if nominal_steps is None else nominal_steps
    if world.step_index > nominal * spec.timeout_multiplier:
        return FailureKind.TIMEOUT
    return None
