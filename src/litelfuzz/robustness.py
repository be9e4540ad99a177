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

The margins are elementwise array rules. :func:`robustness_rows` applies
them to a stack of N worlds of one swarm in one pass, reading the
batch's distance table; an attacker column may be absent (NaN) in some of
those worlds. Its stacked margins (:class:`RobustnessRows`) give a probe
its scores and a trace its violations and lines, and build a record per
world only on request. :func:`swarm_robustness` is its view of one world.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .world import WorldRows, WorldState, row_norms

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
        if not min(self.v_max, self.a_max, self.dt) > 0:
            raise ValueError("need v_max, a_max and dt > 0")

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


def _clamp_unit(x):
    return np.clip(x, -1.0, 1.0)


def margin_safe_distance(d, params: ConstraintParams):
    """Clearance margin; ``d`` is the clamped min distance in [0, sensing_radius].

    Elementwise over an array of distances, as the other margins are.
    """
    raw = d - params.safe_distance
    scale = np.where(raw >= 0.0, params.sensing_radius - params.safe_distance,
                     params.safe_distance)
    return raw, _clamp_unit(raw / scale)[()]


def margin_kinematics(v, a_abs, params: ConstraintParams):
    """Speed and acceleration margins: ((raw_v, norm_v), (raw_a, norm_a))."""
    raw_v = params.v_max - v
    raw_a = params.a_max - a_abs
    return ((raw_v, _clamp_unit(raw_v / params.v_max)),
            (raw_a, _clamp_unit(raw_a / params.a_max)))


def margin_formation(pairwise_distances, params: ConstraintParams):
    """Tightest pairwise margin over the last axis; a NaN entry is a peer out
    of sight, and an agent that sees no peer gets the full margin."""
    d = np.asarray(pairwise_distances, dtype=float)
    d_lo = np.fmin.reduce(d, axis=-1, initial=math.inf)
    d_hi = np.fmax.reduce(d, axis=-1, initial=-math.inf)
    raw = np.minimum(d_lo - params.formation_min, params.formation_max - d_hi)
    half_span = 0.5 * (params.formation_max - params.formation_min)
    raw = np.where(raw == math.inf, half_span, raw)[()]
    return raw, _clamp_unit(raw / half_span)


def _progress(windows: np.ndarray, params: ConstraintParams):
    """Progress margins of (..., W) goal-distance windows. A NaN entry (a
    step without a goal) clears itself and every entry before it; a window
    left with fewer than two entries gets the full margin."""
    kept = np.logical_and.accumulate(~np.isnan(windows[..., ::-1]),
                                     axis=-1)[..., ::-1]
    # a step counts when both its ends are kept, which is when its earlier
    # end is
    counts = kept[..., :-1]
    best = np.where(counts, windows[..., :-1] - windows[..., 1:],
                    -math.inf).max(axis=-1, initial=-math.inf)
    full = params.v_max * params.dt
    some = counts.any(axis=-1)
    return (np.where(some, best, full),
            np.where(some, _clamp_unit(best / full), 1.0))


@dataclass(frozen=True, eq=False)
class RobustnessRows:
    """The stacked margins of :func:`robustness_rows`, agents by id:
    ``ids`` (S,), ``raw`` and ``normalized`` (N, S, 5), ``individual``
    (N, S), the least counted margin ``lowest`` (N,) and ``swarm``, each
    row's builtin ``sum`` of ``individual``, left to right."""

    ids: list[int]
    raw: np.ndarray
    normalized: np.ndarray
    individual: np.ndarray
    lowest: np.ndarray
    swarm: list[float]

    def records(self) -> list[RobustnessRecord]:
        """One :class:`RobustnessRecord` per row."""
        return [RobustnessRecord(
            [AgentRobustness(i, tuple(r), tuple(n), s) for i, r, n, s
             in zip(self.ids, raw, normalized, individual)], swarm, low)
            for raw, normalized, individual, swarm, low in zip(
                self.raw.tolist(), self.normalized.tolist(),
                self.individual.tolist(), self.swarm, self.lowest.tolist())]


def robustness_rows(rows: WorldRows, windows: np.ndarray,
                    params: ConstraintParams) -> RobustnessRows:
    """The robustness margins of every row of ``rows``, in one pass.

    The rows are N worlds of one swarm: ``rows.position``, ``velocity``
    and ``acceleration`` are (N, M, d), and a column whose position is NaN
    (an attacker absent from that world) is no agent there. ``windows`` is
    (N, S, W): the goal distances of each swarm column, oldest first,
    where a NaN entry is a step without a goal (or before the first),
    which clears the entries before it. Agents are sorted by id, and each
    row's :meth:`RobustnessRows.records` entry equals, with ``==``, the
    record the margins give agent by agent, summed with the builtin ``sum``.
    """
    layout = rows.layout
    swarm = layout.swarm_columns
    if not swarm:
        raise ValueError("swarm robustness needs at least one swarm agent")
    table = rows.distances()
    sensing = np.array([layout.agents[k].sensing_radius for k in swarm])
    # 1: the nearest obstacle surface or other agent, clamped to the
    # agent's sensing disk; fmin passes over an absent column's NaN
    near = np.fmin.reduce(np.where(layout.others, table.agents, math.inf),
                          axis=2)
    near = np.minimum(near, table.obstacles.min(axis=2, initial=math.inf))
    clear = np.maximum(np.minimum(near, sensing), 0.0)
    raw1, r1 = margin_safe_distance(clear, params)
    (raw2, r2), (raw3, r3) = margin_kinematics(
        row_norms(rows.velocity[:, layout.swarm]),
        row_norms(rows.acceleration[:, layout.swarm]), params)
    # 4: the peers within the constraint's sensing radius
    peers = table.agents[:, :, layout.swarm]
    raw4, r4 = margin_formation(np.where(
        layout.not_self & (peers <= params.sensing_radius), peers, math.nan),
        params)
    raw5, r5 = _progress(np.asarray(windows, dtype=float), params)
    individual = r1 + r2 + r3 + r5
    counted = params.counted
    if 3 in counted:
        individual = individual + r4
    order = sorted(range(len(swarm)), key=lambda n: layout.agents[swarm[n]].id)
    ids = [layout.agents[swarm[n]].id for n in order]
    raw = np.stack([raw1, raw2, raw3, raw4, raw5], axis=-1)[:, order]
    normalized = np.stack([r1, r2, r3, r4, r5], axis=-1)[:, order]
    individual = individual[:, order]
    # the limits are positive, so no margin is -0.0 and this least value
    # is the one the scalar min picks
    lowest = normalized[..., counted].min(axis=(1, 2))
    return RobustnessRows(ids, raw, normalized, individual, lowest,
                          [sum(row) for row in individual.tolist()])


def swarm_robustness(world: WorldState,
                     goal_distance_histories: dict[int, Sequence[float]],
                     params: ConstraintParams) -> RobustnessRecord:
    """The record of one world: :func:`robustness_rows` of its one row.

    ``goal_distance_histories`` maps an agent id to its goal distances,
    oldest first; an absent or None one is no goal. Each becomes its
    agent's window, ending in the last column with NaN before it."""
    rows = world.rows()
    layout = rows.layout
    kept = [goal_distance_histories.get(layout.agents[k].id)
            for k in layout.swarm_columns]
    kept = [() if h is None else h for h in kept]
    width = 1 + max(map(len, kept), default=0)
    windows = np.full((1, len(kept), width), math.nan)
    for n, history in enumerate(kept):
        windows[0, n, width - len(history):] = history
    return robustness_rows(rows, windows, params).records()[0]


def violations_rows(ids: list[int], raw: np.ndarray,
                    params: ConstraintParams) -> list[tuple[int, int, int]]:
    """The first violation, a counted raw margin <= 0, of each (agent,
    constraint) pair over the raw margins (N, S, 5) of N records of one
    swarm whose agents are ``ids``, as (record index, agent_id,
    constraint_number) tuples sorted on those fields in order."""
    counted = params.counted
    # C order: record, then agent, then constraint
    n, agent, k = (raw[..., counted] <= 0.0).nonzero()
    first = np.sort(np.unique(agent * 5 + k, return_index=True)[1])
    return [(int(n[i]), ids[agent[i]], counted[k[i]] + 1) for i in first]


def constraint_violations(record: RobustnessRecord,
                          params: ConstraintParams) -> list[tuple[int, int]]:
    """The (agent_id, constraint_number) pairs of :func:`violations_rows`
    of one record."""
    raw = np.array([entry.raw for entry in record.per_agent]).reshape(1, -1, 5)
    return [(agent, k) for _, agent, k in violations_rows(
        [entry.agent_id for entry in record.per_agent], raw, params)]
