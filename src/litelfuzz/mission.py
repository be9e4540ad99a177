"""Mission execution: the deterministic world step. Its one loop is
:func:`fuzzing.run_fuzzing`'s, whose budget 0 is the attacker-free mission.

A :class:`Simulation` owns one world plus its controller, and the
swarm's goal distances over the last ``window + 1`` steps as one (S, W)
array, :attr:`Simulation.windows`. A traced run keeps each step's index,
windows and kinematics on its :class:`Trace`, and no world; the trace
scores all the steps not yet scored in one batched pass when its
robustness records or its events are first read. Each step then has one
row of stacked margins, and a violation event marks the first time each
(agent, constraint) pair is violated. An untraced run keeps only the
current window and emits no violation events. Worlds and windows are
never mutated, so a clone, which the fuzzer steps to score its
lookahead, shares them with its original.

A run steps world by world until it withdraws the attacker.
:meth:`Simulation.step` computes a step: the controller updates and
commands the swarm, which is integrated. :meth:`Simulation.replay` adopts
a step a probe already computed from the same world: the controller's
``state`` and the swarm's ``kinematics`` that the
:class:`AttackerAction` carries. Both then move the attacker, record the
step and check the outcome the same way.

A :class:`RowStepper` takes that step over a batch of rows, each
started from a simulation of its own: a probe's candidates. Both steps
shift the windows by the one rule, :meth:`Simulation.shifted_windows`.
Once the attacker is withdrawn, :func:`run_out` steps the rest of the
mission as one row, and ``measure_nominal_steps``' reference runs as
the rows of one batch, checking their outcomes a chunk of steps at a
time.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

# Every step of a traced run and every probe row is scored through this
# name, a batch of worlds at a time, so that one span can time the kernel.
from .robustness import robustness_rows as swarm_robustness
from .robustness import (ConstraintParams, RobustnessRecord, RobustnessRows,
                         violations_rows)
from .world import (ROLE_ATTACKER, AgentState, FailureKind, InvalidState,
                    MissionSpec, RowsDistances, RowsLayout, WorldRows,
                    WorldState, detect_failure, failed_rows, integrate_rows,
                    integrate_step, row_norms)

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


@dataclass
class AttackerAction:
    """Per-step attacker directive: ``place`` the attacker at rest at a
    position, fly it by ``command`` or ``despawn`` it. A placement's
    action may carry the swarm's half of the step as a probe row computed
    it: the controller's row ``state`` and the swarm's (S, d) position,
    velocity and acceleration, its ``kinematics``, after the step.
    :meth:`Simulation.replay` adopts them."""
    place: Optional[np.ndarray] = None
    command: Optional[np.ndarray] = None
    despawn: bool = False
    state: Optional[tuple[np.ndarray, ...]] = None
    kinematics: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None


class ScoredSteps(NamedTuple):
    """Recorded steps scored in one batch: each step's ``step_index``, how
    many leading columns of ``rows`` are agents in it (the attacker's
    column is the last, NaN while the attacker is absent), the stacked
    kinematics ``rows`` (N, S + 1, d) and their ``margins``."""
    steps: list[int]
    agents: list[int]
    rows: WorldRows
    margins: RobustnessRows


class Trace:
    """The steps of a traced run, its outcome and its events.

    The trace keeps no world: a recorded step is its index, the swarm's
    goal-distance windows and its kinematics. The steps not yet scored
    stack into one :class:`WorldRows` batch of the run's ``layout``.
    Reading :attr:`robustness`, :attr:`events` or :meth:`scored` scores
    that batch in one pass and keeps it, in place of those steps, as a
    :class:`ScoredSteps`, whose stacked margins give the violations, the
    JSONL lines and, when read, the records, built once. A violation event
    goes before the other events of its step, as the run emitted it.
    """

    def __init__(self, layout: RowsLayout, cparams: ConstraintParams):
        self.outcome = OUTCOME_SWARM_SECURE
        self.failure_kind: Optional[FailureKind] = None
        self.cparams = cparams
        self._layout = layout
        # events other than violations, in the order they were emitted
        self.notes: list[tuple[int, str]] = []
        # (step index, windows, kinematics) of each step not yet scored
        self._pending: list[tuple[int, np.ndarray, tuple]] = []
        self._batches: list[ScoredSteps] = []
        self._records: list[list[RobustnessRecord]] = []   # per batch read
        self._violations: list[tuple[int, str]] = []
        self._seen: set[tuple[int, int]] = set()

    def record(self, step: int, windows: np.ndarray,
               kinematics: tuple[np.ndarray, ...]) -> None:
        """Keep a step: its index, the swarm's (S, W) goal distances, and
        the swarm's (S, d) then the attacker's (d,) pos, vel and acc."""
        self._pending.append((step, windows, kinematics))

    @property
    def robustness(self) -> list[RobustnessRecord]:
        """The record of every recorded step, built once per batch."""
        self._records += [batch.margins.records()
                          for batch in self.scored()[len(self._records):]]
        return [record for records in self._records for record in records]

    @property
    def events(self) -> list[tuple[int, str]]:
        self._score()
        return list(heapq.merge(self._violations, self.notes,
                                key=itemgetter(0)))

    def scored(self) -> list[ScoredSteps]:
        """Every recorded step, in order, as the batches it was scored in."""
        self._score()
        return self._batches

    def _score(self) -> None:
        if not self._pending:
            return
        steps, windows, kinematics = zip(*self._pending)
        self._pending = []
        fields = [np.stack(f) for f in zip(*kinematics)]
        kinematics = [np.concatenate([swarm, attacker[:, None]], axis=1)
                      for swarm, attacker in zip(fields[:3], fields[3:])]
        margins = swarm_robustness(WorldRows(self._layout, *kinematics),
                                   np.stack(windows), self.cparams)
        for n, agent, constraint in violations_rows(margins.ids, margins.raw,
                                                    self.cparams):
            if (agent, constraint) not in self._seen:
                self._seen.add((agent, constraint))
                self._violations.append((steps[n], f"violation agent={agent} "
                                                   f"constraint={constraint}"))
        # the swarm's columns, and the attacker's where its position is set
        agents = (fields[0].shape[1] + ~np.isnan(fields[3][:, 0])).tolist()
        # rows of their own: the scored ones hold the distance table
        self._batches.append(ScoredSteps(
            list(steps), agents, WorldRows(self._layout, *kinematics),
            margins))


class Simulation:
    """Deterministic discrete-time execution of one mission.

    :attr:`windows` holds each swarm agent's goal distances over the last
    ``window + 1`` steps, oldest first: (S, W), NaN for a step without a
    goal or before the first. With ``record_trace`` every step's windows
    and kinematics go to :attr:`trace`, which scores them and emits the
    violation events when read. Without it only the current windows are
    kept, and no violation events are emitted.

    :attr:`layout`, the batch layout of the swarm's columns, then an
    attacker's, and :attr:`limits`, its columns' speed and acceleration
    limits, are shared by the trace, every clone, every probe's rows and
    every world of the run with the attacker present.
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
        swarm = world.swarm()
        self.layout = world.obstacles.layout(swarm + [attacker_agent()],
                                             world.leader_waypoints)
        size = len(swarm)   # the swarm's limits, then the attacker's
        self.limits = (np.append(np.full(size, spec.v_max), attacker_v_max),
                       np.append(np.full(size, spec.a_max), attacker_a_max))
        # replaced (never changed) each step
        self.windows = np.full((size, constraint_params.window + 1), math.nan)
        self.trace = Trace(self.layout, self.cparams) if record_trace else None
        self._notes = self.trace.notes if record_trace else []
        self.outcome: str | None = None
        self.failure_kind: FailureKind | None = None
        self._absent = np.full(len(spec.goal), math.nan)  # attacker's row

    def clone(self) -> "Simulation":
        """An untraced copy, with no events, sharing all but the controller."""
        sim = object.__new__(Simulation)
        for name in ("world", "spec", "cparams", "attacker_spec", "_absent",
                     "layout", "limits", "windows", "outcome", "failure_kind"):
            setattr(sim, name, getattr(self, name))
        sim.controller = replace(self.controller)
        sim.trace, sim._notes = None, []
        return sim

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
        takes the action's state, which no code writes in place, and the
        swarm its kinematics, then the attacker acts and the step is
        recorded and checked as in :meth:`step`."""
        if self.done:
            return
        self.controller.state = attacker_action.state
        self._finish_step(self.world.swarm(), attacker_action.kinematics,
                          attacker_action)

    def _finish_step(self, swarm: list[AgentState], kinematics: tuple,
                     attacker_action: AttackerAction | None) -> None:
        """Move the attacker, build the next world from the swarm's (S, d)
        ``kinematics``, shift the windows, record the step and check the
        outcome."""
        attacker = self._advance_attacker(attacker_action)
        self._advance(self.world.step_index + 1, swarm, kinematics, attacker)
        self.windows = self.shifted_windows(
            self.windows[None], self.controller.state, kinematics[0][None])[0]
        if self.trace is not None:
            self.trace.record(self.world.step_index, self.windows,
                              kinematics + next(
                                  ((a.position, a.velocity, a.acceleration)
                                   for a in attacker), (self._absent,) * 3))
        self._check_outcome()

    def _advance(self, step_index: int, swarm: list[AgentState],
                 kinematics: tuple, attacker: list[AgentState]) -> None:
        """Make the world of step ``step_index``: the ``swarm`` with its
        (S, d) ``kinematics`` pos, vel and acc, then ``attacker``."""
        world = self.world
        pos, vel, acc = kinematics
        self.world = WorldState(step_index, [
            AgentState(a.id, pos[k], vel[k], acc[k], a.sensing_radius, a.role)
            for k, a in enumerate(swarm)] + attacker, world.obstacles,
            world.leader_waypoints)

    def _integrate_swarm(self, swarm: list[AgentState],
                         commands: dict[int, np.ndarray]) -> tuple:
        """:func:`integrate_rows` of the swarm: (S, d) pos, vel and acc."""
        if not swarm:
            return (np.empty((0, len(self._absent))),) * 3
        spec = self.spec
        position = self.world.position[:len(swarm)]   # the swarm leads
        velocity = np.array([a.velocity for a in swarm])
        command = np.array([commands[a.id] for a in swarm], dtype=float)
        try:
            return integrate_rows(position, velocity, command, spec.v_max,
                                  spec.a_max, spec.dt)
        except InvalidState:
            raise _non_finite(swarm, command, position, velocity) from None

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


def _non_finite(swarm: list[AgentState], *arrays: np.ndarray) -> InvalidState:
    """The error naming the first agent of ``swarm`` with a non-finite
    entry in the (..., S, d) ``arrays``, in the first row that has one."""
    finite = np.isfinite(np.concatenate(arrays, axis=-1)).all(axis=-1)
    bad = swarm[int(np.argmin(finite.ravel())) % len(swarm)]
    return InvalidState(f"non-finite state for agent {bad.id}")


class RowStepper:
    """:meth:`Simulation.step` over the rows of a :class:`WorldRows` batch.

    Row k starts from ``sims[k]``: its swarm (no attacker), controller
    ``state`` and windows. The simulations run one scenario and must all
    be at ``sims[0]``'s step index, where every row starts. Each row keeps
    its own :attr:`rows`, controller row :attr:`state`, (B, S, W)
    :attr:`windows` and :attr:`live`, its index among the starting rows.
    Row by row a step computes what the scalar step does, bit for bit.
    With ``attacker``, the (B, d) position, velocity and command of an
    attacker before the step the rows start at, the batch has ``sims[0]``'s
    :attr:`~Simulation.layout` and :attr:`~Simulation.limits`: one more
    column, the last, that the command flew under the attacker's limits
    (a None command: at rest at the position). Without one, the batch's
    layout is the swarm's alone, as an attacker-free world's is.
    """

    def __init__(self, sims: list[Simulation], attacker: tuple | None = None):
        self._sim = sim = sims[0]
        swarms = [s.world.swarm() for s in sims]
        kinematics = [np.array([[getattr(a, name) for a in swarm]
                                for swarm in swarms])
                      for name in ("position", "velocity", "acceleration")]
        spec, world = sim.spec, sim.world
        if attacker is None:
            layout = world.obstacles.layout(swarms[0], world.leader_waypoints)
            self._limits = spec.v_max, spec.a_max
        else:
            position, velocity, command = attacker
            rest = np.zeros_like(position)
            column = (position, rest, rest) if command is None else \
                integrate_rows(position, velocity, command,
                               *(limit[-1] for limit in sim.limits), spec.dt)
            kinematics = [np.concatenate([k, c[:, None]], axis=1)
                          for k, c in zip(kinematics, column)]
            layout, self._limits = sim.layout, sim.limits
        self.rows = WorldRows(layout, *kinematics)
        self.state = tuple(map(np.concatenate,
                               zip(*(s.controller.state for s in sims))))
        self.windows = np.stack([s.windows for s in sims])
        self.step_index = sim.step_index
        self.live = np.arange(len(sims))

    def step(self, attacker: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Step every row, the attacker column by the (B, d) commands
        ``attacker``. Returns the (B,) masks of the rows that failed and of
        the rows that ended: failed, or completed the mission."""
        sim = self._sim
        state, rows = self._next(self.state, self.rows, attacker)
        self.state, self.rows = state, rows
        self.step_index += 1
        self.windows = sim.shifted_windows(
            self.windows, state, rows.position[:, rows.layout.swarm])
        failed = failed_rows(rows, self.step_index, sim.spec)
        return failed, failed | sim.controller.mission_complete_rows(
            state, rows, sim.spec)

    def _next(self, state: tuple, rows: WorldRows,
              attacker: np.ndarray | None = None) -> tuple:
        """The controller row state and the rows one step on from ``state``
        and ``rows``, the attacker column flown by the (B, d) commands
        ``attacker``. A non-finite state raises :class:`InvalidState`
        naming the agent."""
        controller, spec = self._sim.controller, self._sim.spec
        state = controller.update_rows(state, rows, spec)
        commands = controller.commands_rows(state, rows, spec)
        if attacker is not None:
            commands = np.concatenate([commands, attacker[:, None]], axis=1)
        try:    # every column, the attacker's last, in one step
            kinematics = integrate_rows(rows.position, rows.velocity,
                                        commands, *self._limits, spec.dt)
        except InvalidState:
            raise _non_finite(rows.layout.agents, commands, rows.position,
                              rows.velocity) from None
        return state, WorldRows(rows.layout, *kinematics)

    def drop(self, ended: np.ndarray) -> None:
        """Remove the rows picked by the mask ``ended``."""
        keep = ~ended
        self.rows = self.rows.select(keep)
        self.state = tuple(a[keep] for a in self.state)
        self.windows = self.windows[keep]
        self.live = self.live[keep]

    def robustness(self, chosen: np.ndarray) -> RobustnessRows:
        """The stacked margins of the rows picked by the mask ``chosen``,
        under the mission's constraint parameters."""
        return swarm_robustness(self.rows.select(chosen),
                                self.windows[chosen], self._sim.cparams)


# the steps a run-out integrates before it checks them in one pass: 8, 16
# and 32 cost within 2% of each other on a traced a3 ma run
RUN_OUT_CHUNK = 16
_KINEMATICS = ("position", "velocity", "acceleration")


def _stacked(batches: list, names: tuple[str, ...]) -> list[np.ndarray]:
    """Each named array of ``batches``, concatenated along the row axis."""
    return [np.concatenate([getattr(batch, name) for batch in batches])
            for name in names]


def _row(rows: WorldRows, b: int) -> tuple[np.ndarray, ...]:
    """Row ``b``'s (M, d) kinematics pos, vel and acc."""
    return tuple(getattr(rows, name)[b] for name in _KINEMATICS)


def run_out(sims: list[Simulation]) -> None:
    """Step attacker-free simulations to their ends as the rows of one
    :class:`RowStepper`, each as :meth:`Simulation.step` would step it.

    The simulations are not done, have no attacker and are at one step
    index. The batch integrates :data:`RUN_OUT_CHUNK` steps, then checks
    them in one pass: their failures (each step at its own index),
    completions and goal-distance windows. A row ends at its first failing
    or completing step, and the steps computed after it are dropped, so a
    non-finite state there never surfaces; one before it raises
    :class:`InvalidState` naming the agent. A traced simulation records
    its steps from the chunk. An ended simulation takes its last step's
    controller state and windows and, built once, its world, whose check
    sets the outcome and emits its event at that step.
    """
    batch = RowStepper(sims)
    controller, spec = batch._sim.controller, batch._sim.spec
    layout = batch.rows.layout
    width = batch.windows.shape[-1]
    while batch.live.size:
        live, states, steps = len(batch.live), [], []
        state, rows = batch.state, batch.rows
        for _ in range(RUN_OUT_CHUNK):
            try:
                state, rows = batch._next(state, rows)
            except InvalidState:
                if steps:   # the rows may end before it: check them first
                    break
                raise
            states.append(state)
            steps.append(rows)
        # the chunk as one batch, step-major: row c * live + b is row b
        # after step c
        count = len(steps)
        chunk = WorldRows(layout, *_stacked(steps, _KINEMATICS))
        chunk._distances = RowsDistances(*_stacked(
            [r.distances() for r in steps], ("away", "agents", "obstacles")))
        chunk_state = tuple(map(np.concatenate, zip(*states)))
        index = np.repeat(np.arange(batch.step_index + 1,
                                    batch.step_index + count + 1), live)
        ended = failed_rows(chunk, index, spec) \
            | controller.mission_complete_rows(chunk_state, chunk, spec)
        ended = ended.reshape(count, live)
        goals = controller.goal_rows(chunk_state, chunk.position, spec)
        # each row's windows: after step c, columns c + 1 to c + width
        windows = np.concatenate([batch.windows, row_norms(
            chunk.position - goals).reshape(count, live, -1).transpose(
                1, 2, 0)], axis=-1)
        over, first = ended.any(axis=0), ended.argmax(axis=0).tolist()
        for b, k in enumerate(batch.live.tolist()):
            sim = sims[k]
            last = first[b] if over[b] else count - 1
            if sim.trace is not None:
                for c in range(last + 1):
                    sim.trace.record(batch.step_index + c + 1,
                                     windows[b, :, c + 1:c + 1 + width],
                                     _row(steps[c], b) + (sim._absent,) * 3)
            if over[b]:
                sim.controller.state = tuple(
                    a[last * live + b][None] for a in chunk_state)
                sim.windows = windows[b, :, last + 1:last + 1 + width]
                sim._advance(batch.step_index + last + 1, sim.world.swarm(),
                             _row(steps[last], b), [])
                sim._check_outcome()
        batch.rows, batch.state = steps[-1], states[-1]
        batch.windows = windows[:, :, -width:]
        batch.step_index += count
        if over.any():
            batch.drop(over)
