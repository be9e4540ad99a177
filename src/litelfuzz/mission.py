"""Mission execution: the deterministic world-stepping loop.

A :class:`Simulation` owns one world plus its controller, and the
swarm's goal distances over the last ``window + 1`` steps as one (S, W)
array, :attr:`Simulation.windows`. A traced run keeps every world it
steps through and each step's window on its :class:`Trace`, which scores
all the steps not yet scored in one batched pass when its robustness
records or its events are first read. Each step then has one record, and
a violation event marks the first time each (agent, constraint) pair is
violated. An untraced run keeps only the current window, from which
:meth:`Simulation.robustness_rows` scores a world on demand, and emits no
violation events. Worlds and windows are never mutated, so a trace
snapshot is the world itself and a clone starts from the same world and
windows as its original. Simulations are cheap to clone, which the fuzzer
uses for lookahead scoring on throwaway copies.

:meth:`Simulation.step` computes a step: the controller updates and
commands the swarm, which is integrated. :meth:`Simulation.replay` adopts
a step a probe already computed from the same world, the controller's row
state and the swarm's kinematics carried by the action's
:class:`ForecastStep`. Both then move the attacker, record the step and
check the outcome the same way.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

# Every record of a traced run and of a probe is scored through this name,
# a batch of worlds at a time, so that one span can time the kernel.
from .robustness import robustness_rows as swarm_robustness
from .robustness import ConstraintParams, RobustnessRecord, violations_rows
from .world import (ROLE_ATTACKER, AgentState, FailureKind, InvalidState,
                    MissionSpec, RowsLayout, WorldRows, WorldState,
                    detect_failure, integrate_rows, integrate_step, row_norms)

OUTCOME_SUCCESS = "Success"
OUTCOME_FAILURE = "Failure"
OUTCOME_SWARM_SECURE = "SwarmSecure"

ATTACKER_ID = 1000


def attacker_agent(position: np.ndarray | None = None) -> AgentState:
    """The attacker at rest at ``position``, or a :class:`RowsLayout`
    column without kinematics. Nothing reads its nominal sensing radius."""
    rest = [None if position is None else np.zeros_like(position)
            for _ in range(2)]
    return AgentState(ATTACKER_ID, position, *rest, 1.0, ROLE_ATTACKER)


class ForecastStep(NamedTuple):
    """One step of one probe row: the controller's row state after the
    step's update, as :meth:`row_state` lays out one row, the swarm's
    (S, d) position, velocity and acceleration after the step, and the
    attacker's command that drove it (None on the step that places the
    attacker)."""
    state: tuple[np.ndarray, ...]
    kinematics: tuple[np.ndarray, np.ndarray, np.ndarray]
    command: Optional[np.ndarray]


@dataclass
class AttackerAction:
    """Per-step attacker directive: ``place`` the attacker at rest at a
    position, fly it by ``command`` or ``despawn`` it. An action with a
    ``forecast`` goes to :meth:`Simulation.replay`, which adopts the swarm's
    half of the step from it."""
    place: Optional[np.ndarray] = None
    command: Optional[np.ndarray] = None
    despawn: bool = False
    forecast: Optional[ForecastStep] = None


class Trace:
    """Every world of a traced run, its outcome and its events.

    ``snapshots[0]`` is the initial world and ``robustness[k]`` the record
    of ``snapshots[k + 1]``. The swarm of the recorded worlds is fixed, so
    the kinematics of the steps not yet scored stack into one
    :class:`WorldRows` batch with an attacker column, NaN while the
    attacker is absent. Reading :attr:`robustness` or :attr:`events`
    scores that batch in one pass; a violation event goes before the other
    events of its step, where the run emitted it.
    """

    def __init__(self, first: WorldState, cparams: ConstraintParams):
        self.snapshots = [first]
        self.outcome = OUTCOME_SWARM_SECURE
        self.failure_kind: Optional[FailureKind] = None
        self.cparams = cparams
        # events other than violations, in the order they were emitted
        self.notes: list[tuple[int, str]] = []
        # per recorded step, the swarm's (S, W) goal-distance window
        self._windows: list[np.ndarray] = []
        self._kinematics: list[tuple[np.ndarray, ...]] = []
        self._records: list[RobustnessRecord] = []
        self._violations: list[tuple[int, str]] = []
        self._seen: set[tuple[int, int]] = set()
        self._layout = RowsLayout(first.swarm() + [attacker_agent()],
                                  first.obstacles, first.leader_waypoints)

    def record(self, world: WorldState, windows: np.ndarray,
               kinematics: tuple[np.ndarray, ...]) -> None:
        """Keep a step's world, its swarm's goal-distance windows and
        kinematics: the swarm's (S, d), then the attacker's (d,) pos, vel
        and acc."""
        self.snapshots.append(world)
        self._windows.append(windows)
        self._kinematics.append(kinematics)

    @property
    def robustness(self) -> list[RobustnessRecord]:
        self._score()
        return self._records

    @property
    def events(self) -> list[tuple[int, str]]:
        self._score()
        return list(heapq.merge(self._violations, self.notes,
                                key=itemgetter(0)))

    def _score(self) -> None:
        done = len(self._records)
        pending = self.snapshots[done + 1:]
        if not pending:
            return
        fields = [np.stack(f) for f in zip(*self._kinematics[done:])]
        rows = WorldRows(self._layout, *(
            np.concatenate([swarm, attacker[:, None]], axis=1)
            for swarm, attacker in zip(fields[:3], fields[3:])))
        records = swarm_robustness(rows, np.stack(self._windows[done:]),
                                   self.cparams)
        for n, agent, constraint in violations_rows(records, self.cparams):
            if (agent, constraint) not in self._seen:
                self._seen.add((agent, constraint))
                self._violations.append((
                    pending[n].step_index,
                    f"violation agent={agent} constraint={constraint}"))
        self._records.extend(records)


class Simulation:
    """Deterministic discrete-time execution of one mission.

    :attr:`windows` holds each swarm agent's goal distances over the last
    ``window + 1`` steps, oldest first: (S, W), NaN for a step without a
    goal or before the first. With ``record_trace`` every step's world and
    windows go to :attr:`trace`, which scores them and emits the violation
    events when read. Without it only the current windows are kept, and no
    violation events are emitted.
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
        # replaced (never changed) each step
        self.windows = np.full((len(world.swarm()),
                                constraint_params.window + 1), math.nan)
        self.trace = Trace(world, constraint_params) if record_trace else None
        self._notes: list[tuple[int, str]] = \
            self.trace.notes if self.trace is not None else []
        self.outcome: str | None = None
        self.failure_kind: FailureKind | None = None
        self._absent = np.full(len(spec.goal), math.nan)  # attacker's row

    def clone(self) -> "Simulation":
        sim = Simulation(self.world, self.controller.clone(), self.spec,
                         self.cparams, self.attacker_spec.v_max,
                         self.attacker_spec.a_max, record_trace=False)
        sim.windows = self.windows
        sim.outcome = self.outcome
        sim.failure_kind = self.failure_kind
        return sim

    def robustness_rows(self, rows: WorldRows,
                        windows: np.ndarray) -> list[RobustnessRecord]:
        """The record of every row of ``rows`` with goal-distance
        ``windows`` (N, S, W), as :attr:`windows` lays out each row's,
        under this mission's constraint parameters."""
        return swarm_robustness(rows, windows, self.cparams)

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def step_index(self) -> int:
        return self.world.step_index

    def attacker(self) -> AgentState | None:
        attackers = self.world.attackers()
        return attackers[0] if attackers else None

    @property
    def events(self) -> list[tuple[int, str]]:
        """(step index, message) of every event so far, in order."""
        return self.trace.events if self.trace is not None else self._notes

    def event(self, message: str) -> None:
        self._notes.append((self.world.step_index, message))

    def step(self, attacker_action: AttackerAction | None = None) -> None:
        """Compute one step: the controller updates and commands the swarm,
        which is integrated, then the attacker acts."""
        if self.done:
            return
        world = self.world
        self.controller.update(world, self.spec)
        commands = self.controller.commands(world, self.spec)
        swarm = world.swarm()
        self._finish_step(swarm, self._integrate_swarm(swarm, commands),
                          attacker_action)

    def replay(self, attacker_action: AttackerAction) -> None:
        """Adopt one step a probe computed from this world: the controller
        takes the forecast's row state and the swarm its kinematics, then
        the attacker acts and the step is recorded and checked as in
        :meth:`step`."""
        if self.done:
            return
        forecast = attacker_action.forecast
        self.controller.adopt_row(forecast.state)
        self._finish_step(self.world.swarm(), forecast.kinematics,
                          attacker_action)

    def _finish_step(self, swarm: list[AgentState], kinematics: tuple,
                     attacker_action: AttackerAction | None) -> None:
        """Move the attacker, build the next world from the swarm's (S, d)
        ``kinematics``, record it and check the outcome."""
        world = self.world
        pos, vel, acc = kinematics
        attacker = self._advance_attacker(attacker_action)
        self.world = WorldState(world.step_index + 1, [
            AgentState(a.id, pos[k], vel[k], acc[k], a.sensing_radius, a.role)
            for k, a in enumerate(swarm)] + attacker, world.obstacles,
            world.leader_waypoints)
        self._record_step(kinematics + next(
            ((a.position, a.velocity, a.acceleration) for a in attacker),
            (self._absent,) * 3))
        self._check_outcome()

    def _integrate_swarm(self, swarm: list[AgentState],
                         commands: dict[int, np.ndarray]) -> tuple:
        """:func:`integrate_rows` of the swarm: (S, d) pos, vel and acc."""
        if not swarm:
            return (np.empty((0, len(self._absent))),) * 3
        spec = self.spec
        position = np.array([a.position for a in swarm])
        velocity = np.array([a.velocity for a in swarm])
        command = np.array([commands[a.id] for a in swarm], dtype=float)
        try:
            return integrate_rows(position, velocity, command, spec.v_max,
                                  spec.a_max, spec.dt)
        except InvalidState:
            finite = np.isfinite(np.concatenate([command, position, velocity],
                                                axis=1)).all(axis=1)
            bad = swarm[int(np.argmin(finite))]
            raise InvalidState(f"non-finite state for agent {bad.id}") from None

    def _advance_attacker(self, action: AttackerAction | None) -> list[AgentState]:
        """The attacker after ``action``: gone, :func:`attacker_agent` at
        ``place`` whether or not one was present, or flown by its command."""
        attacker = self.attacker()
        action = action or AttackerAction()     # None: no directive
        if action.despawn:
            return []
        if action.place is not None:
            return [attacker_agent(np.array(action.place, dtype=float))]
        if attacker is None:
            return []
        cmd = action.command if action.command is not None \
            else np.zeros_like(attacker.position)
        return [integrate_step(attacker, cmd, self.attacker_spec)]

    def shifted_windows(self, windows: np.ndarray, state,
                        pos: np.ndarray) -> np.ndarray:
        """(B, S, W) goal-distance ``windows`` one step on: the oldest
        distance dropped and the distance of the swarm at ``pos`` (B, S, d)
        to its goal under controller row ``state`` added, NaN without one."""
        goals = self.controller.goal_rows(state, pos, self.spec)
        return np.concatenate([windows[..., 1:],
                               row_norms(pos - goals)[..., None]], axis=-1)

    def _record_step(self, kinematics: tuple[np.ndarray, ...]) -> None:
        self.windows = self.shifted_windows(
            self.windows[None], self.controller.row_state(1),
            kinematics[0][None])[0]
        if self.trace is not None:
            self.trace.record(self.world, self.windows, kinematics)

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


def run_mission(scenario, seed: int = 0) -> Trace:
    """Run one attacker-free, traced mission to completion, failure or
    timeout.

    Identical inputs and seed produce identical traces.
    """
    sim = scenario.build_simulation(seed=seed)
    while not sim.done:
        sim.step()
    return sim.trace
