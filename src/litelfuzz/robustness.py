"""Quantitative constraint margins and swarm robustness.

Five margins are computed per swarm agent, all in margin form: positive
means the constraint is satisfied with slack, <= 0 means it is violated.

1. safe distance   -- clearance to the nearest obstacle or agent
2. speed bound     -- headroom below the maximum speed
3. acceleration    -- headroom below the maximum acceleration
4. formation       -- tightest pairwise-distance margin to visible peers
5. progress        -- best per-step advance toward the goal in a window

Each raw margin is normalized by its maximum attainable positive value
(piecewise for the safe-distance margin) so every normalized margin lies
in [-1, 1] and raw zero maps to normalized zero. Individual robustness is
the sum of an agent's applicable normalized margins; swarm robustness is
the sum over agents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .world import ROLE_ATTACKER, WorldState, min_obstacle_distance, norm

N_CONSTRAINTS = 5


@dataclass
class ConstraintParams:
    safe_distance: float
    sensing_radius: float
    v_max: float
    a_max: float
    formation_min: float
    formation_max: float
    dt: float
    window: int = 20
    formation_enabled: bool = True

    def __post_init__(self):
        if not 0 < self.safe_distance < self.sensing_radius:
            raise ValueError("need 0 < safe_distance < sensing_radius")
        if not 0 < self.formation_min < self.formation_max:
            raise ValueError("need 0 < formation_min < formation_max")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def counted(self) -> tuple[int, ...]:
        """The margins (0-based) that count toward robustness, its minimum
        and the violations: all five, less formation (3) when disabled."""
        return (0, 1, 2, 3, 4) if self.formation_enabled else (0, 1, 2, 4)


@dataclass
class AgentRobustness:
    agent_id: int
    raw: tuple[float, ...]         # 5 raw margins, physical units
    normalized: tuple[float, ...]  # 5 normalized margins in [-1, 1]
    individual: float              # sum of applicable normalized margins


@dataclass
class RobustnessRecord:
    per_agent: list[AgentRobustness]
    swarm: float
    min_margin: float


def _clamp_unit(x: float) -> float:
    return float(min(max(x, -1.0), 1.0))


def margin_safe_distance(d: float, params: ConstraintParams) -> tuple[float, float]:
    """Clearance margin; ``d`` is the clamped min distance in [0, sensing_radius]."""
    raw = d - params.safe_distance
    if raw >= 0.0:
        norm = raw / (params.sensing_radius - params.safe_distance)
    else:
        norm = raw / params.safe_distance
    return float(raw), _clamp_unit(norm)


def margin_kinematics(v: float, a_abs: float, params: ConstraintParams):
    """Speed and acceleration margins: ((raw_v, norm_v), (raw_a, norm_a))."""
    raw_v = params.v_max - v
    raw_a = params.a_max - a_abs
    return ((float(raw_v), _clamp_unit(raw_v / params.v_max)),
            (float(raw_a), _clamp_unit(raw_a / params.a_max)))


def margin_formation(pairwise_distances: Sequence[float],
                     params: ConstraintParams) -> tuple[float, float]:
    """Tightest pairwise margin; a singleton swarm gets the full margin."""
    half_span = 0.5 * (params.formation_max - params.formation_min)
    if not pairwise_distances:
        return float(half_span), 1.0
    d_lo = min(pairwise_distances)
    d_hi = max(pairwise_distances)
    raw = min(d_lo - params.formation_min, params.formation_max - d_hi)
    return float(raw), _clamp_unit(raw / half_span)


def margin_progress(goal_distance_history: Sequence[float],
                    params: ConstraintParams) -> tuple[float, float]:
    """Windowed-max per-step progress toward the goal (eventually-semantics)."""
    h = list(goal_distance_history)
    if len(h) < 2:
        raise ValueError("progress margin needs at least two history entries")
    steps = [h[i - 1] - h[i] for i in range(1, len(h))]
    raw = max(steps)
    return float(raw), _clamp_unit(raw / (params.v_max * params.dt))


def goal_history(history: Sequence[float],
                 distances: Iterable[float | None],
                 window: int) -> tuple[float, ...]:
    """``history`` after each of ``distances`` in turn, one per step.

    A distance is appended and the last ``window + 1`` are kept; a missing
    one (None or NaN: the agent has no goal) clears the history instead.
    """
    kept = list(history)
    for d in distances:
        if d is None or math.isnan(d):
            kept = []
        else:
            kept.append(d)
    return tuple(kept[-(window + 1):])


def _visible_pairwise(agent_id: int, world: WorldState,
                      params: ConstraintParams) -> list[float]:
    table = world.distances()
    row = table.agents[table.column[agent_id]]
    out = []
    for other, d in zip(world.agents, row):
        if other.role == ROLE_ATTACKER or other.id == agent_id:
            continue
        if d <= params.sensing_radius:
            out.append(d)
    return out


def individual_robustness(agent_id: int, world: WorldState,
                          goal_distance_history: Sequence[float] | None,
                          params: ConstraintParams) -> AgentRobustness:
    """All five margins for one swarm agent at the current step."""
    agent = world.agent(agent_id)
    d = min_obstacle_distance(agent, world)
    raw1, r1 = margin_safe_distance(d, params)
    speed = norm(agent.velocity)
    accel = norm(agent.acceleration)
    (raw2, r2), (raw3, r3) = margin_kinematics(speed, accel, params)
    raw4, r4 = margin_formation(_visible_pairwise(agent_id, world, params), params)
    if goal_distance_history is None or len(goal_distance_history) < 2:
        # no goal (e.g. all search targets found): full progress margin
        raw5, r5 = params.v_max * params.dt, 1.0
    else:
        raw5, r5 = margin_progress(goal_distance_history, params)
    individual = r1 + r2 + r3 + r5
    if 3 in params.counted:
        individual += r4
    return AgentRobustness(agent_id, (raw1, raw2, raw3, raw4, raw5),
                           (r1, r2, r3, r4, r5), float(individual))


def swarm_robustness(world: WorldState,
                     goal_distance_histories: dict[int, Sequence[float]],
                     params: ConstraintParams) -> RobustnessRecord:
    """Aggregate per-agent robustness over every swarm member."""
    per_agent = []
    for agent in sorted(world.swarm(), key=lambda a: a.id):
        history = goal_distance_histories.get(agent.id)
        per_agent.append(individual_robustness(agent.id, world, history, params))
    if not per_agent:
        raise ValueError("swarm robustness needs at least one swarm agent")
    swarm = float(sum(e.individual for e in per_agent))
    counted = params.counted
    return RobustnessRecord(per_agent, swarm, float(min([
        r for e in per_agent for k, r in enumerate(e.normalized)
        if k in counted])))


def constraint_violations(record: RobustnessRecord,
                          params: ConstraintParams) -> list[tuple[int, int]]:
    """(agent_id, constraint_number) pairs with raw margin <= 0, boundary inclusive."""
    counted = params.counted
    return [(entry.agent_id, k + 1) for entry in record.per_agent
            for k, raw in enumerate(entry.raw) if k in counted and raw <= 0.0]
