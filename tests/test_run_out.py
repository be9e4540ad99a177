"""The attacker-free run-out: once a run has spent its budget and withdrawn
the attacker, ``mission.run_out`` steps the rest of the mission as one
row, checked a chunk of ``RUN_OUT_CHUNK`` steps at a time. It must give
what stepping the run-out world by world through ``Simulation.step``
gives (``trace_oracle.step_run_out``, the reference): the same record,
JSONL, events and final world, and the same error."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from trace_oracle import step_run_out

from litelfuzz import fuzzing
from litelfuzz.campaign import trace_to_jsonl
from litelfuzz.controllers import ApfNavigationController
from litelfuzz.fuzzing import SCHEMES, run_fuzzing
from litelfuzz.mission import RUN_OUT_CHUNK, run_out
from litelfuzz.scenarios import (a1_navigate, a2_search, a3_navigate3d,
                                 scenario_from_dict)
from litelfuzz.world import FailureKind, InvalidState

PRESETS = [a1_navigate, a2_search, a3_navigate3d]


def run(preset, scheme, budget, seed, monkeypatch, reference=False):
    """A traced and an untraced execution: the traced record, JSONL and
    events, the untraced record, and the step each run-out started and
    ended at, with ``fuzzing.run_out`` or its reference."""
    spans = []
    steps = step_run_out if reference else run_out

    def spanned(sims):
        (sim,) = sims
        start = sim.step_index
        steps(sims)
        spans.append((start, sim.step_index))

    with monkeypatch.context() as patch:
        patch.setattr(fuzzing, "run_out", spanned)
        traced = run_fuzzing(preset(), scheme, budget=budget, seed=seed,
                             record_trace=True)
        plain = run_fuzzing(preset(), scheme, budget=budget, seed=seed)
    return dict(record=traced.to_record(), jsonl=trace_to_jsonl(traced.trace),
                events=traced.trace.events, plain=plain.to_record(),
                spans=spans)


def assert_runs_out_as_reference(preset, scheme, budget, seed, monkeypatch):
    rows = run(preset, scheme, budget, seed, monkeypatch)
    worlds = run(preset, scheme, budget, seed, monkeypatch, reference=True)
    assert rows == worlds
    assert rows["plain"] == rows["record"]
    return rows


# (preset, scheme, budget, seed) whose run-out ends on the first, a middle
# and the last step of a chunk, with that step's place in its chunk
CHUNK_ENDS = [
    (a1_navigate, "sa", 0, 1, 0),
    (a2_search, "ma", 5, 4, 0),
    (a3_navigate3d, "ma", 5, 2, 0),
    (a1_navigate, "target_only", 5, 7, 9),
    (a2_search, "sa", 5, 3, 10),
    (a3_navigate3d, "sa", 0, 0, 6),
    (a1_navigate, "sa", 0, 0, RUN_OUT_CHUNK - 1),
    (a2_search, "ma", 5, 0, RUN_OUT_CHUNK - 1),
]


@pytest.mark.parametrize(
    "preset,scheme,budget,seed,place", CHUNK_ENDS,
    ids=[f"{p.__name__}-{s}-{b}-{n}" for p, s, b, n, _ in CHUNK_ENDS])
def test_a_run_out_ending_anywhere_in_a_chunk_equals_the_reference(
        preset, scheme, budget, seed, place, monkeypatch):
    rows = assert_runs_out_as_reference(preset, scheme, budget, seed,
                                        monkeypatch)
    (start, end), _ = rows["spans"]     # the traced run's, the untraced's
    assert (end - start - 1) % RUN_OUT_CHUNK == place
    assert end == rows["record"]["total_steps"]


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("scheme,budget",
                         [(scheme, 5) for scheme in SCHEMES] + [("sa", 0)])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_every_run_out_equals_the_reference(preset, scheme, budget, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_runs_out_as_reference(preset, scheme, budget, seed,
                                     monkeypatch)


def test_a_run_out_that_times_out_equals_the_reference(monkeypatch):
    """Each step of a chunk is checked at its own index: an a2 mission
    given 40 nominal steps times out at step 81, inside a chunk."""
    data = a2_search().to_dict()
    data["nominal_steps"] = 40

    def short():
        return scenario_from_dict(data)

    rows = assert_runs_out_as_reference(short, "sa", 0, 0, monkeypatch)
    record = rows["record"]
    assert (record["failure_kind"], record["steps_to_failure"]) \
        == (FailureKind.TIMEOUT.value, 81)
    (start, end), _ = rows["spans"]
    assert 0 < (end - start - 1) % RUN_OUT_CHUNK < RUN_OUT_CHUNK - 1


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("start", [0, 15])
def test_rows_of_one_run_out_end_as_each_run_alone(preset, start):
    """Seeds 0-5, from step 0 and from step 15 after each ran alone, run
    out as the rows of one batch end as each stepped alone does: at the
    same step, with the same outcome, world, controller state and
    windows, bit for bit."""
    scn = preset()

    def ending(sim):
        return (sim.step_index, sim.outcome, sim.failure_kind,
                [(a.id, a.position.tobytes(), a.velocity.tobytes(),
                  a.acceleration.tobytes()) for a in sim.world.agents],
                [a.tobytes() for a in sim.controller.state],
                sim.windows.tobytes())

    sims, alone = [], []
    for seed in range(6):
        sim = scn.build_simulation(seed=seed, record_trace=False)
        for _ in range(start):
            sim.step()
        twin = sim.clone()
        step_run_out([twin])
        sims.append(sim)
        alone.append(ending(twin))
    run_out(sims)
    assert [ending(sim) for sim in sims] == alone
    # the rows end at different steps, a2's in different chunks
    ends = {step for step, *_ in alone}
    assert len(ends) > 1
    if preset is a2_search:
        assert len({(end - start - 1) // RUN_OUT_CHUNK for end in ends}) > 1


def poison(monkeypatch, first: int, column: int) -> tuple:
    """Make the command of swarm column ``column`` NaN in every step from
    step ``first`` on, in the run-out's row commands and in the scalar
    commands of a world-by-world step. Returns ``run_out`` wrapped to
    keep each run-out's first step in ``starts``, ``starts`` and the
    commands poisoned so far."""
    commands_rows = ApfNavigationController.commands_rows
    commands = ApfNavigationController.commands
    starts, poisoned = [], []
    calls = itertools.count(1)

    def starting(sims):
        starts.append(sims[0].step_index)
        run_out(sims)

    def poisoning_rows(self, state, rows, spec):
        command = commands_rows(self, state, rows, spec)
        # the run-out's k-th row command makes its k-th step
        if starts and starts[-1] + next(calls) >= first:
            command = command.copy()
            command[:, column] = np.nan
            poisoned.append(command)
        return command

    def poisoning(self, world, spec):
        command = commands(self, world, spec)
        if world.step_index + 1 >= first:
            agent = world.agents[column].id
            command[agent] = np.full_like(command[agent], np.nan)
            poisoned.append(command)
        return command

    monkeypatch.setattr(ApfNavigationController, "commands_rows",
                        poisoning_rows)
    monkeypatch.setattr(ApfNavigationController, "commands", poisoning)
    return starting, starts, poisoned


def relabelled():
    """a1 with agent ids 10-13, so that an agent's id is not its column."""
    data = a1_navigate().to_dict()
    for agent in data["agents"]:
        agent["id"] += 10
    return scenario_from_dict(data)


# relabelled a1, budget 0, seed 1: the run-out starts at step 10 and
# completes at step 59, the first step of its chunk, whose 15 steps after
# it are computed and dropped
END = 59


@pytest.mark.parametrize("reference", [False, True])
def test_a_non_finite_state_after_the_end_does_not_surface(monkeypatch,
                                                           reference):
    expected = run_fuzzing(relabelled(), "sa", budget=0, seed=1,
                           record_trace=True)
    assert expected.total_steps == END
    starting, starts, poisoned = poison(monkeypatch, END + 1, 0)
    monkeypatch.setattr(fuzzing, "run_out",
                        step_run_out if reference else starting)
    result = run_fuzzing(relabelled(), "sa", budget=0, seed=1,
                         record_trace=True)
    assert result.to_record() == expected.to_record()
    assert trace_to_jsonl(result.trace) == trace_to_jsonl(expected.trace)
    assert result.trace.events[-1] == (END, "mission complete")
    # the row run-out computed steps after the end, the first of them NaN
    assert len(poisoned) == (0 if reference else 1)
    assert starts == ([] if reference else [10])


@pytest.mark.parametrize("first", [10 + 2 * RUN_OUT_CHUNK + 1, 40])
@pytest.mark.parametrize("reference", [False, True])
def test_a_non_finite_state_before_the_end_names_the_agent(
        monkeypatch, first, reference):
    """A NaN command for agent 2 at step ``first``, the first step of a
    chunk or a middle one, raises the world-by-world step's error."""
    assert first < END
    starting, starts, poisoned = poison(monkeypatch, first, 2)
    monkeypatch.setattr(fuzzing, "run_out",
                        step_run_out if reference else starting)
    agent = relabelled().build_simulation(seed=1).world.agents[2].id
    assert agent == 12
    with pytest.raises(InvalidState) as error:
        run_fuzzing(relabelled(), "sa", budget=0, seed=1)
    assert str(error.value) == f"non-finite state for agent {agent}"
    assert poisoned and starts == ([] if reference else [10])
