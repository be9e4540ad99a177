"""A placement epoch (a spawn or a teleport) adopts the chosen probe row's
swarm steps through ``Simulation.replay`` instead of simulating them again.

Computing every replayed step through ``Simulation.step`` instead must give
the same run: the same record, trace bytes, events and action schedule.
An epoch's selection and its realization read one relocation rule, so a
probe's own step is a placement exactly when it was spawn-style.
"""
import pytest

from litelfuzz import fuzzing, mission
from litelfuzz.campaign import trace_to_jsonl
from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.mission import Simulation
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d
from litelfuzz.world import ROLE_ATTACKER

# a1 sa seed 2: the attacker touches the swarm at step 62, inside the
# replayed window of steps 57-68 of the contact-forced epoch at step 56
CONTACT_IN_WINDOW = (a1_navigate, "sa", 2)
# a1 sa seed 0: the spawn at step 11 is forecast to fail at step 27, and
# the run fails there on the forecast's last replayed step
FAILURE_AT_FORECAST_END = (a1_navigate, "sa", 0)
RUNS = [CONTACT_IN_WINDOW, FAILURE_AT_FORECAST_END,
        (a1_navigate, "ma", 3), (a1_navigate, "ma", 8),
        (a2_search, "sa", 6), (a2_search, "sa", 10),
        (a2_search, "ma", 1), (a2_search, "ma", 6),
        (a3_navigate3d, "sa", 0), (a3_navigate3d, "ma", 1)]


def _action_key(action) -> tuple:
    if action is None:
        return (None,)
    return tuple(None if v is None else v.tobytes() for v in (
        action.place, action.command)) + (action.despawn,)


def run(preset, scheme, seed, monkeypatch, replay: bool) -> dict:
    """One traced execution, its actions (an idle step for each step of
    its run-out), the step of each probe and whether it was spawn-style,
    and per spawn-style probe the step it ran at and the steps its chosen
    forecast was planned to replay."""
    step, adopt = Simulation.step, Simulation.replay
    actions, windows, probes = [], [], []

    def recording_step(self, action=None):
        if self.trace is not None:      # not a probe's untraced clone
            actions.append(("step", _action_key(action)))
        step(self, action)

    def recording_replay(self, action):
        actions.append(("replay", _action_key(action)))
        (adopt if replay else step)(self, action)

    argmin = fuzzing._argmin_candidate

    def recording_argmin(sim, candidates, target_id, params,
                         from_current=False):
        point, score, forecast = argmin(sim, candidates, target_id, params,
                                        from_current)
        probes.append((sim.step_index, not from_current))
        if not from_current:
            settle = fuzzing._settle_steps(score, params)
            windows.append((sim.step_index,
                            min(max(settle, 1), len(forecast)),
                            len(forecast)))
        return point, score, forecast

    run_out = fuzzing.run_out

    def recording_run_out(sims):
        (sim,) = sims
        start = sim.step_index
        run_out(sims)
        # the attacker-free steps after the withdrawal, each computed idle
        actions.extend([("step", _action_key(None))]
                       * (sim.step_index - start))

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "step", recording_step)
        patch.setattr(Simulation, "replay", recording_replay)
        patch.setattr(fuzzing, "_argmin_candidate", recording_argmin)
        patch.setattr(fuzzing, "run_out", recording_run_out)
        result = run_fuzzing(preset(), scheme, budget=5, seed=seed,
                             record_trace=True)
    return dict(record=result.to_record(), events=result.trace.events,
                jsonl=trace_to_jsonl(result.trace), actions=actions,
                windows=windows, probes=probes)


@pytest.mark.parametrize("preset,scheme,seed", RUNS,
                         ids=[f"{p.__name__}-{s}-{n}" for p, s, n in RUNS])
def test_replayed_run_equals_computed_run(preset, scheme, seed, monkeypatch):
    replayed = run(preset, scheme, seed, monkeypatch, replay=True)
    computed = run(preset, scheme, seed, monkeypatch, replay=False)
    for key in ("record", "events", "jsonl", "actions", "windows", "probes"):
        assert replayed[key] == computed[key], key
    kinds = [kind for kind, _ in replayed["actions"]]
    assert len(kinds) == replayed["record"]["total_steps"]
    # an epoch relocates the attacker exactly when it selected by a
    # spawn-style probe; a continuation spends its probe's step planning
    for t, spawn_style in replayed["probes"]:
        key = replayed["actions"][t][1]
        if spawn_style:     # a placement: a spawn or a teleport
            assert key[0] is not None, t
        else:
            assert key == (None,), t
    # the first epoch always spawns from a spawn-style probe
    assert "replay" in kinds and replayed["windows"]
    contacts = [t for t, message in replayed["events"]
                if message.startswith("invalid test case")]
    # a window covers the steps start + 1 ... start + planned
    cut = [t for t in contacts for start, planned, _ in replayed["windows"]
           if start < t < start + planned]
    if (preset, scheme, seed) == CONTACT_IN_WINDOW:
        assert cut and all(kinds[t - 1] == "replay" for t in cut)
    if (preset, scheme, seed) == FAILURE_AT_FORECAST_END:
        end = replayed["record"]["steps_to_failure"]
        assert end is not None and kinds[end - 1] == "replay"
        assert any(start + length == end and length <= planned
                   for start, planned, length in replayed["windows"])


def test_placement_is_the_chosen_rows_actions(monkeypatch):
    """A spawn-style epoch's placement is the chosen probe row's steps as
    the actions the run replays: the first places the attacker at the
    chosen point, each later one flies it by the row's command, and each
    carries the row's controller state and swarm kinematics."""
    probes, chosen, replayed = [], [], []
    probe_score, argmin = fuzzing.lookahead_score, fuzzing._argmin_candidate
    adopt = Simulation.replay

    def recording_score(*args, **kwargs):
        probes.append(probe_score(*args, **kwargs))
        return probes[-1]

    def recording_argmin(*args, **kwargs):
        chosen.append(argmin(*args, **kwargs))
        return chosen[-1]

    def recording_replay(self, action):
        replayed.append(action)
        adopt(self, action)

    monkeypatch.setattr(fuzzing, "lookahead_score", recording_score)
    monkeypatch.setattr(fuzzing, "_argmin_candidate", recording_argmin)
    monkeypatch.setattr(Simulation, "replay", recording_replay)
    scenario = a1_navigate()
    run_fuzzing(scenario, "ma", budget=1, seed=3)
    [probe], [(point, score, placement)] = probes, chosen
    best = probe.scores.index(min(probe.scores))
    row_length = sum(best in live for live, *_ in probe.steps)
    settle = fuzzing._settle_steps(score, scenario.fuzz_params())
    assert len(placement) == min(max(settle, 1), row_length) > 1
    first, *rest = placement
    assert first.place is point and first.command is None
    assert all(a.command is not None and a.place is None for a in rest)
    swarm = (len(scenario.agents), scenario.dimension)
    for action in placement:
        assert action.state and action.kinematics is not None
        assert [a.shape for a in action.kinematics] == [swarm] * 3
    # the run replays those very actions, in order
    assert len(replayed) == len(placement)
    assert all(ours is theirs for ours, theirs in zip(replayed, placement))
    # the placement is its actions: no separate forecast form is left
    assert not [name for name in vars(mission) if name.startswith("Forecast")]
    assert "forecast" not in vars(mission.AttackerAction())


@pytest.mark.parametrize("preset", [a1_navigate, a2_search, a3_navigate3d],
                         ids=lambda p: p.__name__)
@pytest.mark.parametrize("scheme", ["sa", "ma"])
def test_every_world_leads_with_its_swarm(preset, scheme, monkeypatch):
    """Every world a simulation steps from or to holds its swarm in its
    first columns and an attacker, if any, after them, so that
    ``world.position[:S]`` is the swarm's positions."""
    step, adopt = Simulation.step, Simulation.replay
    worlds = []

    def recording_step(self, action=None):
        worlds.append(self.world)
        step(self, action)
        worlds.append(self.world)

    def recording_replay(self, action):
        worlds.append(self.world)
        adopt(self, action)
        worlds.append(self.world)

    monkeypatch.setattr(Simulation, "step", recording_step)
    monkeypatch.setattr(Simulation, "replay", recording_replay)
    run_fuzzing(preset(), scheme, budget=5, seed=0)
    attacked = 0
    for world in worlds:
        roles = [a.role == ROLE_ATTACKER for a in world.agents]
        assert roles == sorted(roles), world.step_index
        attacked += roles[-1]
    assert attacked
