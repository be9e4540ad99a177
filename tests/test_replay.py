"""A spawn or teleport epoch adopts the chosen probe row's swarm steps
through ``Simulation.replay`` instead of simulating them again.

Computing every replayed step through ``Simulation.step`` instead must give
the same run: the same record, trace bytes, events and action schedule.
An epoch's selection and its realization read one relocation rule, so a
probe's own step is a spawn or teleport exactly when it was spawn-style.
"""
import pytest

from litelfuzz import fuzzing
from litelfuzz.campaign import trace_to_jsonl
from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.mission import Simulation
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d

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
    spawn = action.spawn and action.spawn.position
    return tuple(None if v is None else v.tobytes() for v in (
        spawn, action.teleport, action.command)) + (action.despawn,)


def run(preset, scheme, seed, monkeypatch, replay: bool) -> dict:
    """One traced execution, its actions, the step of each probe and
    whether it was spawn-style, and per spawn-style probe the step it ran
    at and the steps its chosen forecast was planned to replay."""
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

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "step", recording_step)
        patch.setattr(Simulation, "replay", recording_replay)
        patch.setattr(fuzzing, "_argmin_candidate", recording_argmin)
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
        if spawn_style:     # a spawn or a teleport
            assert key[0] is not None or key[1] is not None, t
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
