"""Robustness-guided attack-drone fuzzing schemes.

A test case is a pair (target drone position, attack position). Targets
come from the influence graph's key node; attack positions from a ring of
spawn sectors around the target, scored by simulating a short lookahead on
a cloned world and keeping the candidate that degrades swarm robustness
the most.

Four schemes share one execution engine:

* ``sa``          -- single attacker flying planned paths, retargeting
                     within its locally reachable region
* ``ma``          -- attacker relocates instantaneously to globally optimal
                     positions (equivalent to multiple attackers, at most
                     one interfering at any instant)
* ``random``      -- uniform target and spawn sector (ablation baseline)
* ``target_only`` -- key-node target chosen once, never re-selected
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterator, Optional

import numpy as np

from .influence import build_influence_graph, key_node_sequence
from .mission import (ATTACKER_ID, OUTCOME_SWARM_SECURE, AttackerAction,
                      Simulation)
from .planner import Infeasible, plan_path
from .robustness import goal_history
from .world import (ROLE_ATTACKER, AgentState, FailureKind, RowsLayout,
                    WorldRows, clamp_norm, clamp_norms, failed_rows,
                    integrate_rows, norm, row_norms)

SCHEMES = ("sa", "ma", "random", "target_only")

OUTCOME_SUCCESSFUL_ATTACK = "SuccessfulAttack"

_FAILURE_SCORE_BASE = -1.0e9


class NoValidSpawn(RuntimeError):
    """Every spawn sector around the target is excluded."""


# A ``fallback`` field takes a value from the scenario when its key is
# absent, null or 0 (see ``ScenarioConfig.spawn_geometry`` and
# ``ScenarioConfig.fuzz_params``).
_FALLBACK = dict(kind="number", least=0.0, fallback=True)


@dataclass
class SpawnGeometry:
    # target sensing radius, and a slightly larger ring bound
    inner_radius: float = field(metadata=_FALLBACK)
    outer_radius: float = field(metadata=_FALLBACK)
    sectors: int = field(default=8, metadata=dict(kind="integer"))

    def __post_init__(self):
        if not 0 < self.inner_radius < self.outer_radius:
            raise ValueError("need 0 < inner_radius < outer_radius")
        if self.sectors < 2:
            raise ValueError("need at least 2 sectors")


@dataclass
class FuzzParams:
    attacker_v_max: float = field(metadata=_FALLBACK)
    # influence-graph edge eligibility radius
    graph_radius: float = field(metadata=_FALLBACK)
    # hover distance kept from the target drone
    standoff: float = field(metadata=_FALLBACK)
    lookahead: int = field(default=10, metadata=dict(kind="integer", least=1))
    settle_steps: int = field(default=5,
                              metadata=dict(kind="integer", least=0))
    # None: same limit as the swarm (``ScenarioConfig.fuzz_params``
    # resolves it)
    attacker_a_max: Optional[float] = field(
        default=None, metadata=dict(kind="number", above=0.0))
    # Katz alpha as a fraction of 1 / spectral radius
    alpha_factor: float = field(
        default=0.85, metadata=dict(kind="number", above=0.0, below=1.0))
    warmup_steps: int = field(default=10,
                              metadata=dict(kind="integer", least=0))

    def reach_radius(self, dt: float) -> float:
        return self.attacker_v_max * self.lookahead * dt


@dataclass
class TestCase:
    target_id: int
    target_position: np.ndarray
    attack_position: np.ndarray
    score: float = math.inf     # lookahead score of the chosen candidate


@dataclass
class FuzzResult:
    scheme: str
    seed: int
    outcome: str
    failure_kind: Optional[FailureKind]
    steps_to_failure: Optional[int]
    total_steps: int
    invalid_count: int
    test_cases: list[TestCase] = field(default_factory=list)
    trace: object = None

    def to_record(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": int(self.seed),
            "outcome": self.outcome,
            "failure_kind": self.failure_kind.value if self.failure_kind else None,
            "steps_to_failure": self.steps_to_failure,
            "total_steps": int(self.total_steps),
            "invalid_count": int(self.invalid_count),
            "test_cases": [
                {"target_id": int(tc.target_id),
                 "target_position": [float(x) for x in tc.target_position],
                 "attack_position": [float(x) for x in tc.attack_position]}
                for tc in self.test_cases
            ],
        }


def spawn_candidates(target: AgentState, world, geom: SpawnGeometry,
                     safe_distance: float) -> list[np.ndarray]:
    """One representative point per ring sector, feasibility-filtered.

    Points sit at the ring mid-radius at angles (2k+1)*pi/n. A point is
    dropped if it violates any agent's safety distance, lies inside an
    obstacle, or falls inside another agent's sensing disk. In 3D the ring
    lies in the horizontal plane through the target.
    """
    mid = 0.5 * (geom.inner_radius + geom.outer_radius)
    dim = len(target.position)
    candidates = []
    for k in range(geom.sectors):
        angle = (2 * k + 1) * math.pi / geom.sectors
        offset = np.zeros(dim)
        offset[0] = mid * math.cos(angle)
        offset[1] = mid * math.sin(angle)
        point = target.position + offset
        ok = True
        for agent in world.agents:
            d = norm(agent.position - point)
            if d < safe_distance:
                ok = False
                break
            if agent.id != target.id and agent.role != ROLE_ATTACKER \
                    and d < agent.sensing_radius:
                ok = False
                break
        if ok:
            for obs in world.obstacles:
                if obs.surface_distance(point) <= 0.0:
                    ok = False
                    break
        if ok:
            candidates.append(point)
    if not candidates:
        raise NoValidSpawn(f"all spawn sectors around agent {target.id} excluded")
    return candidates


def _standoff_point(target_position: np.ndarray, approach_from: np.ndarray,
                    standoff: float) -> np.ndarray:
    away = approach_from - target_position
    n = norm(away)
    if n < 1e-12:
        away = np.zeros_like(target_position)
        away[0] = 1.0
        n = 1.0
    return target_position + away * (standoff / n)


def _pursuit_command(attacker: AgentState, target: AgentState,
                     standoff: float, v_max: float, dt: float,
                     a_max: float) -> np.ndarray:
    """Track the standoff point with target-velocity feedforward.

    Pure proportional pursuit equilibrates short of the standoff point
    against a fleeing target, so the target's velocity is added to keep
    station during a chase. Two guards prevent discrete-time overshoot
    through the target: the radial closing speed is capped by the braking
    ramp the attacker's acceleration limit allows, and the predicted
    next-step separation is held at a fraction of the standoff distance.
    """
    desired = _standoff_point(target.position, attacker.position, standoff)
    cmd = clamp_norm(target.velocity + (desired - attacker.position) / dt, v_max)
    floor = 0.75 * standoff
    gap = attacker.position - target.position
    dist = norm(gap)
    if dist > 1e-12:
        inward = -gap / dist
        rel = cmd - target.velocity
        closing = float(np.dot(rel, inward))
        allowed = math.sqrt(2.0 * a_max * max(dist - floor, 0.0))
        if closing > allowed:
            rel = rel - inward * (closing - allowed)
            cmd = clamp_norm(target.velocity + rel, v_max)
    predicted_target = target.position + target.velocity * dt
    predicted_gap = attacker.position + cmd * dt - predicted_target
    gap_norm = norm(predicted_gap)
    if gap_norm < floor:
        direction = predicted_gap / gap_norm if gap_norm > 1e-12 else \
            _standoff_point(np.zeros_like(cmd), attacker.position - target.position, 1.0)
        held = predicted_target + direction * floor
        cmd = clamp_norm((held - attacker.position) / dt, v_max)
    return cmd


def _standoff_points(target_position: np.ndarray, away: np.ndarray,
                     n: np.ndarray, standoff: float) -> np.ndarray:
    """:func:`_standoff_point` of every row, given ``away``, which is
    ``approach_from - target_position``, and its :func:`row_norms` ``n``."""
    tiny = n < 1e-12
    if np.count_nonzero(tiny):
        away = np.where(tiny[:, None],
                        np.where(np.arange(away.shape[1]) == 0, 1.0, 0.0),
                        away)
        n = np.where(tiny, 1.0, n)
    return target_position + away * (standoff / n)[:, None]


def _pursuit_commands(attacker: np.ndarray, target: np.ndarray,
                      target_velocity: np.ndarray, standoff: float,
                      v_max: float, dt: float, a_max: float) -> np.ndarray:
    """:func:`_pursuit_command` of every row; positions and velocities (B, d)."""
    gap = attacker - target
    dist = row_norms(gap)
    desired = _standoff_points(target, gap, dist, standoff)
    cmd = clamp_norms(target_velocity + (desired - attacker) / dt, v_max)
    floor = 0.75 * standoff
    apart = dist > 1e-12
    inward = -gap / np.where(apart, dist, 1.0)[:, None]
    rel = cmd - target_velocity
    closing = np.vecdot(rel, inward)
    allowed = np.sqrt(2.0 * a_max * np.maximum(dist - floor, 0.0))
    brake = apart & (closing > allowed)
    if brake.any():
        rel = rel - inward * (closing - allowed)[:, None]
        cmd = np.where(brake[:, None],
                       clamp_norms(target_velocity + rel, v_max), cmd)
    predicted_target = target + target_velocity * dt
    predicted_gap = attacker + cmd * dt - predicted_target
    gap_norm = row_norms(predicted_gap)
    close = gap_norm < floor
    if not close.any():
        return cmd
    apart = gap_norm > 1e-12
    direction = np.where(
        apart[:, None],
        predicted_gap / np.where(apart, gap_norm, 1.0)[:, None],
        # (attacker - target) - 0.0 is gap itself
        _standoff_points(np.zeros_like(cmd), gap, dist, 1.0))
    held = predicted_target + direction * floor
    return np.where(close[:, None],
                    clamp_norms((held - attacker) / dt, v_max), cmd)


def lookahead_score(sim: Simulation, candidates: np.ndarray, target_id: int,
                    params: FuzzParams,
                    from_current: bool = False) -> list[float]:
    """Swarm robustness after a short simulated attack via each candidate.

    ``candidates`` is a ``(B, d)`` stack; the result holds their B scores.
    Runs on a clone, so the caller's simulation is untouched. With
    ``from_current`` the existing attacker flies from its present position
    through the candidate before pursuing (the realization of a
    continuation epoch); otherwise the attacker appears at the candidate
    (spawn or relocation). A lookahead that already triggers a physical
    failure scores far below any robustness value, earlier failures
    scoring lower.

    The probes of one epoch start from the same world and differ only in
    the attacker, so they are stepped together as the rows of a
    :class:`WorldRows` batch, with the controller state, goal-distance
    log and outcome kept per row. A row that fails or completes the
    mission is scored then and leaves the batch. ``target_id`` must name a
    swarm agent, and ``params.lookahead`` must be at least 1.
    """
    if sim.done:
        # a finished mission does not step, and has no record to score
        return [_FAILURE_SCORE_BASE + sim.step_index
                if sim.failure_kind is not None else math.inf] * len(candidates)
    spec = sim.spec
    attack = np.asarray(candidates, dtype=float)
    count = len(attack)
    probe = sim.clone()
    attacker = probe.attacker()
    approach = np.full(count, from_current and attacker is not None)
    if approach.any():
        target = sim.world.agent(target_id)
        att_pos, att_vel, att_acc, approach = _attacker_step(
            np.broadcast_to(attacker.position, attack.shape),
            np.broadcast_to(attacker.velocity, attack.shape),
            target.position[None], target.velocity[None], attack, approach,
            spec.dt, params)
        intruder = AgentState(attacker.id, None, None, None,
                              attacker.sensing_radius, ROLE_ATTACKER)
    else:
        att_pos, att_vel, att_acc = attack, np.zeros_like(attack), \
            np.zeros_like(attack)
        intruder = AgentState(ATTACKER_ID, None, None, None, 1.0,
                              ROLE_ATTACKER)
    # The first step moves the swarm alike in every row: its commands read
    # the pre-step world, and failure, completion and goal distances never
    # read the attacker. One scalar step without the attacker stands in.
    probe.step(AttackerAction(despawn=True))
    swarm = probe.world.agents
    size = len(swarm)

    def stacked(name: str, attacker_rows: np.ndarray) -> np.ndarray:
        shared = np.array([getattr(a, name) for a in swarm])
        return np.concatenate([np.broadcast_to(shared, (count,) + shared.shape),
                               attacker_rows[:, None]], axis=1)

    # the layout, and what it resolves, serves every step of the probe
    layout = RowsLayout(swarm + [intruder], probe.world.obstacles,
                        probe.world.leader_waypoints)
    rows = WorldRows(layout, stacked("position", att_pos),
                     stacked("velocity", att_vel),
                     stacked("acceleration", att_acc))
    target_col = rows.column(target_id)
    controller = probe.controller
    state = controller.row_state(count)
    live = np.arange(count)     # candidate index of each row still stepping
    steps = probe.step_index
    # goal distance of every swarm agent per batched step; NaN: no goal
    goal_log = np.empty((params.lookahead - 1, count, size))
    scores = [math.inf] * count

    def finish(ended: np.ndarray, failed: np.ndarray, logged: int) -> None:
        for k in np.flatnonzero(ended):
            row = int(live[k])
            if failed[k]:
                scores[row] = _FAILURE_SCORE_BASE + steps
            else:
                log = goal_log[:logged, row].T.tolist()
                histories = {agent.id: goal_history(
                    probe.histories.get(agent.id, ()), log[n],
                    probe.cparams.window) for n, agent in enumerate(swarm)}
                scores[row] = probe.robustness(rows.world(k, steps),
                                               histories).swarm

    if probe.done:
        finish(np.ones(count, bool),
               np.full(count, probe.failure_kind is not None), 0)
        return scores
    for logged in range(1, params.lookahead):
        att_pos, att_vel, att_acc, approach = _attacker_step(
            rows.position[:, -1], rows.velocity[:, -1],
            rows.position[:, target_col], rows.velocity[:, target_col],
            attack, approach, spec.dt, params)
        state = controller.update_rows(state, rows, spec)
        commands = controller.commands_rows(state, rows, spec)
        pos, vel, acc = integrate_rows(
            rows.position[:, :size], rows.velocity[:, :size], commands,
            spec.v_max, spec.a_max, spec.dt)
        rows = WorldRows(layout,
                         np.concatenate([pos, att_pos[:, None]], axis=1),
                         np.concatenate([vel, att_vel[:, None]], axis=1),
                         np.concatenate([acc, att_acc[:, None]], axis=1))
        steps += 1
        goal_log[logged - 1, live] = row_norms(
            pos - controller.goal_rows(state, rows, spec))
        failed = failed_rows(rows, steps, spec)
        ended = failed | controller.mission_complete_rows(state, rows, spec)
        if ended.any():
            finish(ended, failed, logged)
            keep = ~ended
            live, rows = live[keep], rows.select(keep)
            state = tuple(a[keep] for a in state)
            attack, approach = attack[keep], approach[keep]
            if not live.size:
                return scores
    finish(np.ones(len(live), bool), np.zeros(len(live), bool),
           params.lookahead - 1)
    return scores


def _attacker_step(position, velocity, target, target_velocity, candidates,
                   approach, dt: float, params: FuzzParams):
    """One probe step of every row's attacker: approach the candidate while
    more than one step away, then pursue the target. Returns the new
    position, velocity and acceleration and the rows still approaching."""
    v_max, a_max = params.attacker_v_max, params.attacker_a_max
    approaching = np.count_nonzero(approach)
    if approaching:
        delta = candidates - position
        approach = approach & (row_norms(delta) > v_max * dt)
        approaching = np.count_nonzero(approach)
    if not approaching:
        cmd = _pursuit_commands(position, target, target_velocity,
                                params.standoff, v_max, dt, a_max)
    else:
        cmd = clamp_norms(delta / dt, v_max)
        if approaching < len(approach):     # else no row pursues yet
            cmd = np.where(approach[:, None], cmd, _pursuit_commands(
                position, target, target_velocity, params.standoff, v_max,
                dt, a_max))
    return (*integrate_rows(position, velocity, cmd, v_max, a_max, dt),
            approach)


def _argmin_candidate(sim: Simulation, candidates: list[np.ndarray],
                      target_id: int, params: FuzzParams,
                      from_current: bool = False) -> tuple[np.ndarray, float]:
    # one call scores the whole stack: lookahead_score is the single entry
    # point of probe scoring, which perfbench traces as one layer
    scores = lookahead_score(sim, np.array(candidates), target_id, params,
                             from_current)
    best = None
    best_score = math.inf
    for point, score in zip(candidates, scores):  # ties: lowest index
        if score < best_score:
            best, best_score = point, score
    return best, best_score


def _make_testcase(sim: Simulation, target_id: int, attack_position: np.ndarray,
                   score: float = math.inf) -> TestCase:
    return TestCase(target_id, sim.world.agent(target_id).position.copy(),
                    np.asarray(attack_position, dtype=float), score)


def _key_node(sim: Simulation, params: FuzzParams,
              node_ids: Optional[list[int]] = None) -> int:
    """Top Katz node of the influence graph over ``node_ids`` (default: swarm)."""
    graph = build_influence_graph(sim.world, sim.controller, sim.spec,
                                  params.graph_radius, node_ids=node_ids)
    return key_node_sequence(graph, params.alpha_factor).key_node


def _init_test_case(sim: Simulation, geom: SpawnGeometry,
                    params: FuzzParams) -> TestCase:
    """Global key node target plus robustness-minimizing spawn point."""
    target_id = _key_node(sim, params)
    candidates = spawn_candidates(sim.world.agent(target_id), sim.world, geom,
                                  sim.spec.safe_distance)
    point, score = _argmin_candidate(sim, candidates, target_id, params)
    return _make_testcase(sim, target_id, point, score)


def _sa_next_testcase(sim: Simulation, geom: SpawnGeometry,
                      params: FuzzParams) -> TestCase:
    """Retarget within the attacker's reachable region.

    The influence graph is restricted to swarm agents inside the reachable
    disk (which is where it can intersect their sensing disks); with an
    empty intersection the nearest swarm agent becomes the target.
    """
    attacker = sim.attacker()
    reach = params.reach_radius(sim.spec.dt)
    swarm = sim.world.swarm()
    near = [a.id for a in swarm
            if norm(a.position - attacker.position) <= reach]
    if near:
        target_id = _key_node(sim, params, node_ids=near)
    else:
        target_id = min(swarm, key=lambda a: (
            norm(a.position - attacker.position), a.id)).id
    candidates = spawn_candidates(sim.world.agent(target_id), sim.world, geom,
                                  sim.spec.safe_distance)
    reachable = [p for p in candidates
                 if norm(p - attacker.position) <= reach]
    if reachable:
        candidates = reachable
    point, score = _argmin_candidate(sim, candidates, target_id, params,
                                     from_current=True)
    return _make_testcase(sim, target_id, point, score)


def random_target(rng: np.random.Generator, swarm_ids: list[int]) -> int:
    return swarm_ids[int(rng.integers(len(swarm_ids)))]


def _uniform_testcase(sim: Simulation, geom: SpawnGeometry, target_id: int,
                      rng: np.random.Generator) -> TestCase:
    """Uniformly drawn attack position around ``target_id``, no scoring."""
    candidates = spawn_candidates(sim.world.agent(target_id), sim.world, geom,
                                  sim.spec.safe_distance)
    return _make_testcase(sim, target_id,
                          candidates[int(rng.integers(len(candidates)))])


_Actions = Iterator[Optional[AttackerAction]]


class _FuzzDriver:
    """Steers the attacker through one fuzzing execution.

    :attr:`actions` holds the attacker's action for every step, in order:
    the warm-up, then per epoch the test case's selection, its realization
    and the settle pursuit, then the withdrawal once the budget is spent.
    An attacker touching a swarm agent invalidates the test case, and the
    sequence restarts with a forced epoch.
    """

    def __init__(self, sim: Simulation, scheme: str, geom: SpawnGeometry,
                 params: FuzzParams, budget: Optional[int],
                 rng: np.random.Generator):
        self.sim = sim
        self.scheme = scheme
        self.geom = geom
        self.params = params
        self.budget = budget
        self.rng = rng
        self.invalid = 0
        self.test_cases: list[TestCase] = []
        self.fixed_target: Optional[int] = None
        # the warm-up: idle steps before the first epoch
        self.actions: _Actions = chain(
            repeat(None, max(params.warmup_steps, 1)), self._epochs())

    def act(self) -> Optional[AttackerAction]:
        """The attacker's action for the next step of the simulation."""
        touched = self._contact()
        if touched is not None:
            self.invalid += 1
            self.sim.event(f"invalid test case: attacker contact with "
                           f"agent {touched}")
            self.actions = self._epochs(forced=True)
        return next(self.actions)

    def _contact(self) -> Optional[int]:
        """Id of the first swarm agent within collision radius of the attacker."""
        attacker = self.sim.attacker()
        if attacker is None:
            return None
        world = self.sim.world
        table = world.distances()
        row = table.agents[table.column[attacker.id]]
        for agent, d in zip(world.agents, row):
            if agent.role != ROLE_ATTACKER and \
                    d < self.sim.spec.collision_radius:
                return agent.id
        return None

    def _epochs(self, forced: bool = False) -> _Actions:
        while self.budget is None or len(self.test_cases) < self.budget:
            yield from self._epoch(forced)
            forced = False
        # budget spent: withdraw the attacker and let the mission run out
        if self.sim.attacker() is not None:
            yield AttackerAction(despawn=True)
        while True:
            yield None

    def _epoch(self, forced: bool) -> _Actions:
        try:
            tc = self._next_testcase(forced)
        except NoValidSpawn:
            # A contact-forced epoch settles at once, without the skip's
            # idle step. The pinned records keep this quirk.
            yield from self._skip("spawn skipped: no valid sector",
                                  idle=not forced)
            return
        self.test_cases.append(tc)
        # a candidate whose forecast already reaches a failure is pursued
        # for the whole lookahead horizon so the forecast can mature
        settle = self.params.lookahead \
            if tc.score <= 0.5 * _FAILURE_SCORE_BASE else self.params.settle_steps
        attacker = self.sim.attacker()
        if attacker is None or self.scheme == "ma" or forced:
            # the attacker materializes at the scored position and starts
            # pursuing immediately -- exactly the lookahead realization
            if attacker is None:
                dim = len(tc.attack_position)
                yield AttackerAction(spawn=AgentState(
                    ATTACKER_ID, tc.attack_position.copy(), np.zeros(dim),
                    np.zeros(dim), sensing_radius=self.geom.inner_radius,
                    role=ROLE_ATTACKER))
            else:
                yield AttackerAction(teleport=tc.attack_position.copy())
            yield from self._pursue(settle - 1)
            return
        # continuation epoch: fly a clearance-keeping path to the scored
        # attack position, then pursue
        try:
            path = plan_path(attacker.position, tc.attack_position,
                             self.sim.world,
                             clearance=self.sim.spec.safe_distance,
                             ignore_ids=(tc.target_id,))
        except Infeasible:
            yield from self._skip("path infeasible: epoch skipped")
            return
        yield None      # the step on which the path was planned
        yield from self._fly(path)
        yield from self._pursue(max(settle, 1))

    def _next_testcase(self, forced: bool) -> TestCase:
        if self.scheme == "random":
            # seeded draw order: the target, then the sector
            ids = sorted(a.id for a in self.sim.world.swarm())
            return _uniform_testcase(self.sim, self.geom,
                                     random_target(self.rng, ids), self.rng)
        if self.scheme == "target_only":
            # keeps the centrality-chosen target but drops the robustness
            # scoring of attack positions: isolates target selection
            if self.fixed_target is None:
                self.fixed_target = _key_node(self.sim, self.params)
            return _uniform_testcase(self.sim, self.geom, self.fixed_target,
                                     self.rng)
        if self.scheme == "ma" or forced or not self.test_cases:
            # ma selects globally every epoch: its attacker may teleport
            return _init_test_case(self.sim, self.geom, self.params)
        return _sa_next_testcase(self.sim, self.geom, self.params)

    def _skip(self, message: str, idle: bool = True) -> _Actions:
        """A skipped epoch: an idle step, then settling on the last target."""
        self.sim.event(message)
        if idle:
            yield None
        yield from self._pursue(self.params.settle_steps - 1)

    def _fly(self, path: list[np.ndarray]) -> _Actions:
        """Commands toward the next waypoint still more than a step away."""
        dt, v_max = self.sim.spec.dt, self.params.attacker_v_max
        index = 1
        while True:
            position = self.sim.attacker().position
            while index < len(path) and \
                    norm(path[index] - position) <= v_max * dt:
                index += 1
            if index >= len(path):
                return
            yield AttackerAction(
                command=clamp_norm((path[index] - position) / dt, v_max))

    def _pursue(self, steps: int) -> _Actions:
        """``steps`` commands keeping station on the last test case's target."""
        for _ in range(steps):
            if not self.test_cases:
                yield AttackerAction()
                continue
            attacker = self.sim.attacker()
            target = self.sim.world.agent(self.test_cases[-1].target_id)
            yield AttackerAction(command=_pursuit_command(
                attacker, target, self.params.standoff,
                self.params.attacker_v_max, self.sim.spec.dt,
                self.params.attacker_a_max))


def check_run(scheme: str, budget: Optional[int]) -> None:
    """Reject an unknown scheme or a negative budget (None: unlimited)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {SCHEMES}")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")


def run_fuzzing(scenario, scheme: str, budget: Optional[int] = None,
                seed: int = 0, record_trace: bool = False) -> FuzzResult:
    """One fuzzing execution of ``scheme`` with at most ``budget`` epochs."""
    check_run(scheme, budget)
    sim = scenario.build_simulation(seed=seed, record_trace=record_trace)
    rng = np.random.default_rng([seed, 0x51A9])
    driver = _FuzzDriver(sim, scheme, scenario.spawn_geometry(),
                         scenario.fuzz_params(), budget, rng)
    while not sim.done:
        sim.step(driver.act())
    failed = sim.failure_kind is not None
    return FuzzResult(
        scheme=scheme,
        seed=seed,
        outcome=OUTCOME_SUCCESSFUL_ATTACK if failed else OUTCOME_SWARM_SECURE,
        failure_kind=sim.failure_kind,
        steps_to_failure=sim.step_index if failed else None,
        total_steps=sim.step_index,
        invalid_count=driver.invalid,
        test_cases=driver.test_cases,
        trace=sim.trace,
    )
