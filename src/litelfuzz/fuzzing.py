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
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .influence import build_influence_graph, key_node_sequence
from .mission import (OUTCOME_SWARM_SECURE, AttackerAction, RowStepper,
                      Simulation, run_out)
from .planner import Infeasible, plan_path
from .world import (ROLE_ATTACKER, AgentState, FailureKind, clamp_norms, norm,
                    row_norms)

SCHEMES = ("sa", "ma", "random", "target_only")

OUTCOME_SUCCESSFUL_ATTACK = "SuccessfulAttack"

_FAILURE_SCORE_BASE = -1.0e9


class NoValidSpawn(RuntimeError):
    """Every spawn sector around the target is excluded."""


def _fallback(key: str):
    """A field set by scenario ``key`` that takes a value from the scenario
    when the key is absent, null or 0 (see ``ScenarioConfig.spawn_geometry``
    and ``ScenarioConfig.fuzz_params``)."""
    return field(metadata=dict(key=key, kind="number", least=0.0,
                               fallback=True))


@dataclass
class SpawnGeometry:
    # target sensing radius, and a slightly larger ring bound
    inner_radius: float = _fallback("inner_radius_m")
    outer_radius: float = _fallback("outer_radius_m")
    # a probe row per sector: 10**6 ran out of memory, and 1000 cost an a2
    # sa budget-2 execution 0.2 s, so tighter would reject cheap rings
    sectors: int = field(default=8, metadata=dict(kind="integer", below=1000))

    def __post_init__(self):
        if not 0 < self.inner_radius < self.outer_radius:
            raise ValueError("need 0 < inner_radius < outer_radius")
        if self.sectors < 2:
            raise ValueError("need at least 2 sectors")


@dataclass
class FuzzParams:
    attacker_v_max: float = _fallback("attacker_v_max_mps")
    # influence-graph edge eligibility radius
    graph_radius: float = _fallback("graph_radius_m")
    # hover distance kept from the target drone
    standoff: float = _fallback("standoff_m")
    lookahead: int = field(default=10, metadata=dict(
        key="lookahead_steps", kind="integer", least=1))
    settle_steps: int = field(default=5,
                              metadata=dict(kind="integer", least=0))
    # None: same limit as the swarm (``ScenarioConfig.fuzz_params``
    # resolves it)
    attacker_a_max: Optional[float] = field(default=None, metadata=dict(
        key="attacker_a_max_mps2", kind="number", above=0.0))
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
    points = np.zeros((geom.sectors, dim))
    for k in range(geom.sectors):
        angle = (2 * k + 1) * math.pi / geom.sectors
        points[k, :2] = mid * math.cos(angle), mid * math.sin(angle)
    points = target.position + points
    # every agent's safety distance, or another swarm agent's sensing disk
    keep_out = [max(safe_distance, a.sensing_radius) if a.id != target.id
                and a.role != ROLE_ATTACKER else safe_distance
                for a in world.agents]
    gaps = row_norms(world.position.reshape(-1, 1, dim) - points)
    ok = (gaps >= np.array(keep_out)[:, None]).all(axis=0) \
        & (world.obstacles.surface_distances(points) > 0.0).all(axis=1)
    candidates = list(points[ok])
    if not candidates:
        raise NoValidSpawn(f"all spawn sectors around agent {target.id} excluded")
    return candidates


def _standoff_points(target_position: np.ndarray, away: np.ndarray,
                     n: np.ndarray, standoff: float) -> np.ndarray:
    """Each row's point ``standoff`` from ``target_position`` toward
    ``away`` (``approach_from - target_position``), given its
    :func:`row_norms` ``n``; toward the first axis where ``n`` is ~0."""
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
    """Each row's command tracking its standoff point, with the target's
    velocity fed forward to keep station in a chase; positions and
    velocities (B, d). Two guards stop a discrete step overshooting the
    target: the closing speed is capped by the braking ramp ``a_max``
    allows, and the predicted gap is held at 0.75 ``standoff``."""
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


class Probe(NamedTuple):
    """A probe's B ``scores`` (``+inf``: not scored) and, of a spawn-style
    probe, its ``steps`` as its batch holds them: the candidate index of
    each row still stepping, their controller row state, their rows (the
    attacker's column last) and attacker (B, d) commands (None on the step
    that places it)."""
    scores: list[float]
    steps: list[tuple]


def lookahead_score(sim: Simulation, candidates: np.ndarray, target_id: int,
                    params: FuzzParams, from_current: bool = False) -> Probe:
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
    :class:`RowStepper`, whose last column is the attacker this function
    commands. A row that fails or completes the mission is scored then and
    leaves the batch. The first failing step ends the probe: a row still
    stepping could only score higher, so it stays ``+inf``, not scored.
    ``target_id`` must name a swarm agent, and ``params.lookahead`` must be
    at least 1.

    A spawn-style probe also keeps every step it simulates, as its batch
    holds it (:attr:`Probe.steps`), so that the run can adopt the chosen
    row's steps rather than simulate them again.
    """
    steps: list[tuple] = []
    if sim.done:
        # a finished mission does not step, and has no record to score
        return Probe([_FAILURE_SCORE_BASE + sim.step_index
                      if sim.failure_kind is not None else math.inf]
                     * len(candidates), steps)
    dt = sim.spec.dt
    attack = np.asarray(candidates, dtype=float)
    count = len(attack)
    probe = sim.clone()
    attacker = probe.attacker()
    approach = np.full(count, from_current and attacker is not None)
    start = attack, None, None      # at rest at the candidate
    if approach.any():
        target = sim.world.agent(target_id)
        position = np.broadcast_to(attacker.position, attack.shape)
        command, approach = _attacker_command(
            position, target.position[None], target.velocity[None], attack,
            approach, dt, params)
        start = position, np.broadcast_to(attacker.velocity, attack.shape), \
            command
    # The first step moves the swarm alike in every row: its commands read
    # the pre-step world, and failure, completion and goal distances never
    # read the attacker. One scalar step without the attacker stands in.
    probe.step(AttackerAction(despawn=True))
    target_col = [a.id for a in probe.world.agents].index(target_id)
    batch = RowStepper([probe] * count, start)
    scores = [math.inf] * count

    def keep_step(command: np.ndarray | None) -> None:
        if not from_current:
            steps.append((batch.live, batch.state, batch.rows, command))

    def finish(ended: np.ndarray, failed: np.ndarray) -> None:
        """Score the rows that end at this step: a failed row by the step
        of its failure, the others by one batched robustness pass."""
        live = batch.live
        for k in np.flatnonzero(ended & failed):
            scores[live[k]] = _FAILURE_SCORE_BASE + batch.step_index
        scored = ended & ~failed
        if scored.any():
            for row, margin in zip(live[scored],
                                   batch.robustness(scored).swarm):
                scores[row] = margin

    keep_step(None)
    if probe.done:
        finish(np.ones(count, bool),
               np.full(count, probe.failure_kind is not None))
        return Probe(scores, steps)
    for _ in range(1, params.lookahead):
        rows = batch.rows
        command, approach = _attacker_command(
            rows.position[:, -1], rows.position[:, target_col],
            rows.velocity[:, target_col], attack, approach, dt, params)
        failed, ended = batch.step(command)
        keep_step(command)
        if ended.any():
            finish(ended, failed)
            if failed.any():    # every row still stepping scores higher
                return Probe(scores, steps)
            batch.drop(ended)
            attack, approach = attack[~ended], approach[~ended]
            if not batch.live.size:
                return Probe(scores, steps)
    rest = len(batch.live)
    finish(np.ones(rest, bool), np.zeros(rest, bool))
    return Probe(scores, steps)


def _attacker_command(position, target, target_velocity, candidates,
                      approach, dt: float, params: FuzzParams):
    """The command of every row's attacker for one step: approach the
    candidate while more than one step away, then pursue the target.
    Returns the commands and the rows still approaching."""
    v_max, a_max = params.attacker_v_max, params.attacker_a_max
    approaching = np.count_nonzero(approach)
    if approaching:
        cmd, far = _approach_commands(position, candidates, dt, v_max)
        approach = approach & far
        approaching = np.count_nonzero(approach)
    if not approaching:
        cmd = _pursuit_commands(position, target, target_velocity,
                                params.standoff, v_max, dt, a_max)
    elif approaching < len(approach):     # else no row pursues yet
        cmd = np.where(approach[:, None], cmd, _pursuit_commands(
            position, target, target_velocity, params.standoff, v_max, dt,
            a_max))
    return cmd, approach


def _approach_commands(position, waypoint, dt: float, v_max: float):
    """The command flying each row's attacker (B, d) straight at its
    waypoint, and whether that is still more than one step away."""
    delta = waypoint - position
    return clamp_norms(delta / dt, v_max), row_norms(delta) > v_max * dt


def _settle_steps(score: float, params: FuzzParams) -> int:
    """The steps an epoch settles for after realizing a test case of
    lookahead ``score``: the whole horizon for one forecast to fail, so the
    forecast can mature, else ``settle_steps``."""
    return params.lookahead if score <= 0.5 * _FAILURE_SCORE_BASE \
        else params.settle_steps


def _argmin_candidate(sim: Simulation, candidates: list[np.ndarray],
                      target_id: int, params: FuzzParams,
                      from_current: bool = False
                      ) -> tuple[np.ndarray, float, list[AttackerAction]]:
    """The candidate of lowest score, its score and, if spawn-style, its
    placement: an action per step of its row's first settle steps, the
    first placing the attacker, the rest flying it by the row's commands,
    each carrying the row's state and swarm kinematics."""
    # one call scores the whole stack: lookahead_score is the single entry
    # point of probe scoring, which perfbench traces as one layer
    probe = lookahead_score(sim, np.array(candidates), target_id, params,
                            from_current)
    # every probe scores at least one row; ties go to the lowest index
    best_score = min(probe.scores)
    best = probe.scores.index(best_score)
    placement = []  # copies, which share no array with the probe's batch
    for live, state, rows, command in \
            probe.steps[:max(_settle_steps(best_score, params), 1)]:
        at = np.flatnonzero(live == best)
        if not at.size:     # the row left the batch
            break
        k = at[0]
        placement.append(AttackerAction(
            place=candidates[best] if command is None else None,
            command=None if command is None else command[k].copy(),
            state=tuple(a[k:k + 1].copy() for a in state),
            # the swarm's columns: all but the attacker's, the last
            kinematics=tuple(a[k, :-1].copy() for a in (
                rows.position, rows.velocity, rows.acceleration))))
    return candidates[best], best_score, placement


def _key_node(sim: Simulation, params: FuzzParams,
              node_ids: Optional[list[int]] = None) -> int:
    """Top Katz node of the influence graph over ``node_ids`` (default: swarm)."""
    graph = build_influence_graph(sim.world, sim.controller, sim.spec,
                                  params.graph_radius, node_ids=node_ids)
    return key_node_sequence(graph, params.alpha_factor).key_node


def random_target(rng: np.random.Generator, swarm_ids: list[int]) -> int:
    return swarm_ids[int(rng.integers(len(swarm_ids)))]


_Actions = Iterator[Optional[AttackerAction]]

# the driver's last action: the budget is spent and the attacker withdrawn,
# so the mission runs out without it
_RUN_OUT = AttackerAction()


class _FuzzDriver:
    """Steers the attacker through one fuzzing execution.

    :attr:`actions` holds the attacker's action for every step, in order:
    the warm-up, then per epoch the test case's selection, its realization
    and the settle pursuit, then the withdrawal once the budget is spent,
    after which :meth:`act` hands the mission over to run out.
    An attacker touching a swarm agent invalidates the test case, and the
    sequence restarts with a forced epoch. One rule decides each epoch's
    move: with no attacker yet, under ``ma`` or when forced, the attacker
    relocates, else it flies; ``sa`` selects its test case globally or
    within its reach by the same rule. A relocation is one ``place``
    action: the driver says where, and the mission builds the attacker
    there (:func:`mission.attacker_agent`). The attacker flies and pursues
    by a probe's kernels, on one row, so it moves as it was forecast to.
    On a placement epoch the chosen probe row already holds those steps:
    the epoch's first ``min(settle, row length)`` actions are the row's
    steps (:func:`_argmin_candidate`), which the run adopts
    (:meth:`Simulation.replay`) instead of simulating them.
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
        """The attacker's action for the next step of the simulation, or
        ``_RUN_OUT`` once the attacker is withdrawn for good."""
        touched = self._contact()
        if touched is not None:
            self.invalid += 1
            self.sim.event(f"invalid test case: attacker contact with "
                           f"agent {touched}")
            self.actions = self._epochs(forced=True)
        return next(self.actions, _RUN_OUT)

    def _gaps(self, attacker: AgentState) -> list[tuple[float, int]]:
        """The attacker's distance from each swarm agent, with the agent's
        id, in world order: the attacker's column of the world's distance
        table."""
        world = self.sim.world
        swarm = [a.id for a in world.agents if a.role != ROLE_ATTACKER]
        col = [a.id for a in world.agents].index(attacker.id)
        return list(zip(world.distances().agents[0, :, col].tolist(), swarm))

    def _contact(self) -> Optional[int]:
        """Id of the first swarm agent within collision radius of the attacker."""
        attacker = self.sim.attacker()
        if attacker is None:
            return None
        return next((agent_id for d, agent_id in self._gaps(attacker)
                     if d < self.sim.spec.collision_radius), None)

    def _epochs(self, forced: bool = False) -> _Actions:
        while self.budget is None or len(self.test_cases) < self.budget:
            yield from self._epoch(forced)
            forced = False
        # budget spent: withdraw the attacker and let the mission run out
        if self.sim.attacker() is not None:
            yield AttackerAction(despawn=True)

    def _epoch(self, forced: bool) -> _Actions:
        attacker = self.sim.attacker()
        # the one relocation rule: selection and realization both read it
        relocate = attacker is None or self.scheme == "ma" or forced
        try:
            tc, placement = self._next_testcase(relocate)
        except NoValidSpawn:
            # A contact-forced epoch settles at once, without the skip's
            # idle step. The pinned records keep this quirk.
            yield from self._skip("spawn skipped: no valid sector",
                                  idle=not forced)
            return
        self.test_cases.append(tc)
        settle = _settle_steps(tc.score, self.params)
        if relocate:
            # the attacker materializes at the scored position and starts
            # pursuing immediately -- exactly the lookahead realization,
            # whose steps are replayed as far as the probe row reaches
            placement = placement or [AttackerAction(place=tc.attack_position)]
            yield from placement
            yield from self._pursue(settle - len(placement))
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

    def _next_testcase(self, relocate: bool
                       ) -> tuple[TestCase, list[AttackerAction]]:
        """The next test case and the replayed actions of its placement,
        empty when none was probed: a target, its ring of
        :func:`spawn_candidates` and one sector. ``sa`` and ``ma`` take the
        lowest lookahead score: around the global key node, probed
        spawn-style, when the attacker relocates; else (``sa``) around the
        key node of the agents within its reach, or the nearest agent, over
        the sectors in reach, probed by flying from where it is."""
        sim, params, world = self.sim, self.params, self.sim.world
        if self.scheme == "random":
            # seeded draw order: the target, then the sector
            target_id = random_target(self.rng,
                                      sorted(a.id for a in world.swarm()))
        elif self.scheme == "target_only":
            # keeps the centrality-chosen target but drops the robustness
            # scoring of attack positions: isolates target selection
            if self.fixed_target is None:
                self.fixed_target = _key_node(sim, params)
            target_id = self.fixed_target
        elif relocate:
            target_id = _key_node(sim, params)
        else:
            # the reachable disk is where it can meet the swarm's sensing disks
            attacker = sim.attacker()
            reach = params.reach_radius(sim.spec.dt)
            gaps = self._gaps(attacker)
            near = [i for d, i in gaps if d <= reach]
            target_id = _key_node(sim, params, node_ids=near) if near \
                else min(gaps)[1]
        target = world.agent(target_id)
        candidates = spawn_candidates(target, world, self.geom,
                                      sim.spec.safe_distance)
        if self.scheme in ("random", "target_only"):
            point, score, placement = candidates[
                int(self.rng.integers(len(candidates)))], math.inf, []
        else:
            if not relocate:
                candidates = [p for p in candidates if norm(
                    p - attacker.position) <= reach] or candidates
            point, score, placement = _argmin_candidate(
                sim, candidates, target_id, params, from_current=not relocate)
        return TestCase(target_id, target.position.copy(),
                        np.asarray(point, dtype=float), score), placement

    def _skip(self, message: str, idle: bool = True) -> _Actions:
        """A skipped epoch: an idle step, then settling on the last target."""
        self.sim.event(message)
        if idle:
            yield None
        yield from self._pursue(self.params.settle_steps - 1)

    def _fly(self, path: list[np.ndarray]) -> _Actions:
        """Approach each waypoint of ``path[1:]`` in turn, as a probe row
        approaches its candidate: one :func:`_approach_commands` row, whose
        command is flown while the waypoint is more than a step away."""
        dt, v_max = self.sim.spec.dt, self.params.attacker_v_max
        for waypoint in path[1:]:
            while True:
                cmd, far = _approach_commands(
                    self.sim.attacker().position[None], waypoint[None], dt,
                    v_max)
                if not far[0]:
                    break
                yield AttackerAction(command=cmd[0])

    def _pursue(self, steps: int) -> _Actions:
        """``steps`` commands keeping station on the last test case's
        target: one :func:`_pursuit_commands` row, as a probe row pursues."""
        params = self.params
        for _ in range(steps):
            if not self.test_cases:
                yield AttackerAction()
                continue
            attacker = self.sim.attacker()
            target = self.sim.world.agent(self.test_cases[-1].target_id)
            yield AttackerAction(command=_pursuit_commands(
                attacker.position[None], target.position[None],
                target.velocity[None], params.standoff, params.attacker_v_max,
                self.sim.spec.dt, params.attacker_a_max)[0])


def check_run(scheme: str, budget: Optional[int], seed: int) -> None:
    """Reject an unknown scheme, a negative budget (None: unlimited; 0: the
    attacker-free mission) or seed."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose one of {SCHEMES}")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def run_fuzzing(scenario, scheme: str, budget: Optional[int] = None,
                seed: int = 0, record_trace: bool = False) -> FuzzResult:
    """One fuzzing execution of ``scheme`` with at most ``budget`` epochs.

    Budget 0 runs the nominal mission: no attacker is placed, whatever
    the scheme, and the run steps the swarm alone to completion, failure
    or timeout. The run steps world by world through the warm-up and
    while an attacker may act; once the budget is spent and the attacker
    withdrawn, :func:`mission.run_out` steps the rest as one row.
    Identical inputs and seed give identical results."""
    check_run(scheme, budget, seed)
    sim = scenario.build_simulation(seed=seed, record_trace=record_trace)
    rng = np.random.default_rng([seed, 0x51A9])
    driver = _FuzzDriver(sim, scheme, scenario.spawn_geometry(),
                         scenario.fuzz_params(), budget, rng)
    while not sim.done:
        action = driver.act()
        if action is _RUN_OUT:
            run_out([sim])
        elif action is not None and action.kinematics is not None:
            sim.replay(action)
        else:
            sim.step(action)
    # The action generators' frames refer back to the driver. Dropping
    # them frees those frames, and any placement left unreplayed, now
    # rather than at the next full cycle collection.
    driver.actions = None
    # Likewise the stack and its layouts, which hold the stack, until
    # the stack forgets them: then reference counting frees the run.
    sim.world.obstacles.forget_layouts()
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
