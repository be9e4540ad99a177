"""Mission execution: the deterministic world-stepping loop.

A :class:`Simulation` owns one world plus its controller. A traced run
records one robustness record per step and emits a violation event the
first time each (agent, constraint) pair is violated. An untraced run only
keeps the goal-distance histories, from which
:meth:`Simulation.robustness` gives the current step's record on demand,
and emits no violation events. Worlds and histories are never mutated, so
a trace snapshot is the world itself and a clone starts from the same
world and histories as its original. Simulations are cheap to clone,
which the fuzzer uses for lookahead scoring on throwaway copies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .robustness import ConstraintParams, RobustnessRecord, \
    constraint_violations, goal_history, swarm_robustness
from .world import (AgentState, FailureKind, InvalidState, MissionSpec,
                    WorldState, detect_failure, integrate_rows,
                    integrate_step, norm)

OUTCOME_SUCCESS = "Success"
OUTCOME_FAILURE = "Failure"
OUTCOME_SWARM_SECURE = "SwarmSecure"

ATTACKER_ID = 1000


@dataclass
class AttackerAction:
    """Per-step attacker directive applied by the simulation."""
    spawn: Optional[AgentState] = None
    teleport: Optional[np.ndarray] = None
    command: Optional[np.ndarray] = None
    despawn: bool = False


@dataclass
class Trace:
    snapshots: list[WorldState] = field(default_factory=list)
    robustness: list[RobustnessRecord] = field(default_factory=list)
    events: list[tuple[int, str]] = field(default_factory=list)
    outcome: str = OUTCOME_SWARM_SECURE
    failure_kind: Optional[FailureKind] = None


class Simulation:
    """Deterministic discrete-time execution of one mission.

    With ``record_trace`` every step appends a snapshot and a robustness
    record to :attr:`trace` and emits violation events. Without it only
    the goal-distance :attr:`histories` are kept, and no violation events
    are emitted.
    """

    def __init__(self, world: WorldState, controller, spec: MissionSpec,
                 constraint_params: ConstraintParams, attacker_v_max: float,
                 attacker_a_max: float, record_trace: bool = True):
        self.world = world
        self.controller = controller
        self.spec = spec
        self.cparams = constraint_params
        # the mission spec with the attacker's speed and acceleration limits
        self.attacker_spec = replace(spec, v_max=attacker_v_max,
                                     a_max=attacker_a_max)
        # swarm agent id -> goal distances, replaced (never changed) each step
        self.histories: dict[int, tuple[float, ...]] = {}
        self.trace = Trace() if record_trace else None
        self.events: list[tuple[int, str]] = self.trace.events if self.trace else []
        self.outcome: str | None = None
        self.failure_kind: FailureKind | None = None
        self._seen_violations: set[tuple[int, int]] = set()
        if self.trace is not None:
            self.trace.snapshots.append(world)

    def clone(self) -> "Simulation":
        sim = Simulation(self.world, self.controller.clone(), self.spec,
                         self.cparams, self.attacker_spec.v_max,
                         self.attacker_spec.a_max, record_trace=False)
        sim.histories = self.histories
        sim.outcome = self.outcome
        sim.failure_kind = self.failure_kind
        return sim

    def robustness(self, world: WorldState,
                   histories: dict[int, tuple[float, ...]]) -> RobustnessRecord:
        """Robustness of ``world`` with goal-distance ``histories`` under
        this mission's constraint parameters."""
        return swarm_robustness(world, histories, self.cparams)

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def step_index(self) -> int:
        return self.world.step_index

    def attacker(self) -> AgentState | None:
        attackers = self.world.attackers()
        return attackers[0] if attackers else None

    def event(self, message: str) -> None:
        self.events.append((self.world.step_index, message))

    def step(self, attacker_action: AttackerAction | None = None) -> None:
        if self.done:
            return
        world = self.world
        self.controller.update(world, self.spec)
        commands = self.controller.commands(world, self.spec)
        new_agents = self._integrate_swarm(world.swarm(), commands)
        new_agents.extend(self._advance_attacker(attacker_action))
        self.world = WorldState(world.step_index + 1, new_agents,
                                world.obstacles, world.leader_waypoints)
        self._record_step()
        self._check_outcome()

    def _integrate_swarm(self, swarm: list[AgentState],
                         commands: dict[int, np.ndarray]) -> list[AgentState]:
        """:func:`integrate_step` of every swarm agent, in one array step."""
        if not swarm:
            return []
        spec = self.spec
        position = np.array([a.position for a in swarm])
        velocity = np.array([a.velocity for a in swarm])
        command = np.array([commands[a.id] for a in swarm], dtype=float)
        try:
            pos, vel, acc = integrate_rows(position, velocity, command,
                                           spec.v_max, spec.a_max, spec.dt)
        except InvalidState:
            finite = np.isfinite(command).all(axis=1) \
                & np.isfinite(position).all(axis=1) \
                & np.isfinite(velocity).all(axis=1)
            bad = swarm[int(np.argmin(finite))]
            raise InvalidState(f"non-finite state for agent {bad.id}") from None
        return [AgentState(a.id, pos[k], vel[k], acc[k], a.sensing_radius,
                           a.role) for k, a in enumerate(swarm)]

    def _advance_attacker(self, action: AttackerAction | None) -> list[AgentState]:
        attacker = self.attacker()
        if action is None:
            if attacker is None:
                return []
            return [integrate_step(attacker, np.zeros_like(attacker.position),
                                   self.attacker_spec)]
        if action.despawn:
            return []
        if action.spawn is not None:
            return [action.spawn.copy()]
        if attacker is None:
            return []
        if action.teleport is not None:
            position = np.array(action.teleport, dtype=float)
            return [AgentState(attacker.id, position, np.zeros_like(position),
                               np.zeros_like(position),
                               attacker.sensing_radius, attacker.role)]
        cmd = action.command if action.command is not None \
            else np.zeros_like(attacker.position)
        return [integrate_step(attacker, cmd, self.attacker_spec)]

    def _record_step(self) -> None:
        histories = {}
        for agent in self.world.swarm():
            goal = self.controller.goal_for(self.world, agent.id, self.spec)
            distance = None if goal is None else norm(agent.position - goal)
            histories[agent.id] = goal_history(
                self.histories.get(agent.id, ()), (distance,),
                self.cparams.window)
        self.histories = histories
        if self.trace is None:
            return
        record = self.robustness(self.world, self.histories)
        for violation in constraint_violations(record, self.cparams):
            if violation not in self._seen_violations:
                self._seen_violations.add(violation)
                self.event(f"violation agent={violation[0]} constraint={violation[1]}")
        self.trace.snapshots.append(self.world)
        self.trace.robustness.append(record)

    def _check_outcome(self) -> None:
        failure = detect_failure(self.world, self.spec)
        if failure is not None:
            self.outcome = OUTCOME_FAILURE
            self.failure_kind = failure
            self.event(f"failure {failure.value}")
        elif self.controller.mission_complete(self.world, self.spec):
            self.outcome = OUTCOME_SUCCESS
            self.event("mission complete")
        if self.trace is not None and self.outcome is not None:
            self.trace.outcome = self.outcome
            self.trace.failure_kind = self.failure_kind


def run_mission(scenario, seed: int = 0, record_trace: bool = True) -> Trace:
    """Run one attacker-free mission to completion, failure or timeout.

    Identical inputs and seed produce identical traces.
    """
    sim = scenario.build_simulation(seed=seed, record_trace=record_trace)
    while not sim.done:
        sim.step()
    if sim.trace is not None:
        return sim.trace
    trace = Trace(outcome=sim.outcome, failure_kind=sim.failure_kind)
    trace.events = sim.events
    return trace
