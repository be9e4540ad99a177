"""Behaviour fingerprint: the sha256 of fixed-seed campaign records, of
traces and of the actions the fuzzing driver takes.

A change that only makes the fuzzer faster keeps every outcome, so it
keeps these digests. A change that moves one on purpose must say so and
re-run the acceptance gate; the digests are then updated, never the seeds.
"""
import hashlib
import json

import pytest

from litelfuzz import fuzzing
from litelfuzz.campaign import CampaignConfig, run_campaign, trace_to_jsonl
from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.scenarios import (ScenarioConfig, a1_navigate, a2_search,
                                 a3_navigate3d)

# a1_navigate, seeds 0-4, budget 5, one worker
FINGERPRINTS = {
    "sa": "d7ffc0df7cb5413349f1a582c0bd8694cd4c0eb0c2a74e7eb34ef6740acf8f4e",
    "ma": "acb032ea8e05ac43fb8b1d10b52f3d417c384c531a9c6b45fc8ceab37ed9a3df",
    "random":
        "ad33829ecc16c011e94dc89c8c84f19b7b6dd169b10351918aa37d46048c98ae",
    "target_only":
        "c2014d271b0b58a760ca577389e653ceece7585b362576cca6aef1079c86c543",
}

# seeds 0-2, budget 5, one worker: the dispersal controller with its
# ``search`` section (inside lookahead probes under sa and ma), the two
# uniform draws, Katz on 3D graphs, and a3 sa's continuation probes and
# 3D planned flights
OTHER_FINGERPRINTS = {
    ("a2_search", "sa"):
        "8ab083f1fea75efbb5040ad9bffbf5d20f819d4ec03efeee4ca0201a908c3cf9",
    ("a2_search", "ma"):
        "347d9f96cfe87b38c5783974e1ef4385bb6d3f92fc4293c47e379e78a29bca13",
    ("a2_search", "target_only"):
        "a8bfed05d6e0061f9c30984133cb577506e51b8df0cabb832605cf778196f787",
    ("a2_search", "random"):
        "5f06a8825a5fed19cddc1d61ad72d2c1ebf1437370c664d4f7ae360b76a09de8",
    ("a3_navigate3d", "ma"):
        "b54f2971ecf8bbe7921dff34a57496e5b005399b6670dac738ead9af3011a4aa",
    ("a3_navigate3d", "sa"):
        "91d55e4715a400b109394bc4a91040deaa0a562a6a9318e57d237a611845827a",
    ("a3_navigate3d", "random"):
        "b7070095dd0b7124f4f9349d00dd2b82415428e0295d7bfd7880216cda4d4676",
    ("a3_navigate3d", "target_only"):
        "0ba885a7d8f9c4e30dbf423601d60f4ebd775c353ecc4d618d680cb05abaa7b0",
}
PRESETS = {"a1_navigate": a1_navigate, "a2_search": a2_search,
           "a3_navigate3d": a3_navigate3d}

# a3_navigate3d, ma, seeds 0-1, budget 5: the JSONL traces, one after the
# other; every step of a traced run writes its world and robustness record
TRACE_FINGERPRINT = \
    "ac61168f489b1d94ae7ea9e7a2710dca960ca65822c1480d14778ca5f9605b1e"


# budget 5, the JSONL traces of the seeds one after the other: a1 sa seeds
# 0-2 spawn, teleport and despawn the attacker and touch the swarm with it;
# a2 sa and ma seeds 0-1 run without the formation margin and with
# dispersal goals that come and go; a3 sa seeds 0-1 trace the continuation
# flights along 3D plans, and a3 random and target_only the ablations'
# placements in 3D
OTHER_TRACE_FINGERPRINTS = {
    ("a1_navigate", "sa", 3):
        "a7d0181832f2a85042cb6ddbddfa327c46052b343c194c9cf05e7a91679328c5",
    ("a2_search", "sa", 2):
        "16a11e70460d40a268f7edbe349de176a7054dcde142a4ed3e1a0336d8739f6d",
    ("a2_search", "ma", 2):
        "4e5ede904084bd92cbbf3ce574f5f753e1c17d1c5ad4ec6ed4adcd30df468ea7",
    ("a3_navigate3d", "sa", 2):
        "d9a14eafe2ca7b882e06beda37f9065cbcdcd19129f23329fbdf9bf679bc7351",
    ("a3_navigate3d", "random", 2):
        "ac0fb05a3e148d48ff18f1264b197f9233891b2ddda3ccda82f48ebb9ccc0091",
    ("a3_navigate3d", "target_only", 2):
        "7eb4f057d7cb1ac6c9e6b7b4a403229d66aa4a1d38f12781927cf5ba967e901c",
}


def records_digest(scenario, scheme: str, executions: int) -> str:
    config = CampaignConfig(scheme=scheme, executions=executions,
                            base_seed=0, budget=5)
    records = run_campaign(scenario, config).records
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(FINGERPRINTS))
def test_a1_records_fingerprint(scheme):
    assert records_digest(a1_navigate(), scheme, 5) == FINGERPRINTS[scheme]


@pytest.mark.parametrize("preset,scheme", sorted(OTHER_FINGERPRINTS))
def test_a2_a3_records_fingerprint(preset, scheme):
    assert records_digest(PRESETS[preset](), scheme, 3) \
        == OTHER_FINGERPRINTS[(preset, scheme)]


def test_a3_trace_fingerprint():
    digest = hashlib.sha256()
    for seed in (0, 1):
        result = run_fuzzing(a3_navigate3d(), "ma", budget=5, seed=seed,
                             record_trace=True)
        digest.update(trace_to_jsonl(result.trace).encode())
    assert digest.hexdigest() == TRACE_FINGERPRINT


@pytest.mark.parametrize("preset,scheme,seeds",
                         sorted(OTHER_TRACE_FINGERPRINTS))
def test_other_trace_fingerprint(preset, scheme, seeds):
    digest = hashlib.sha256()
    for seed in range(seeds):
        result = run_fuzzing(PRESETS[preset](), scheme, budget=5,
                             seed=seed, record_trace=True)
        digest.update(trace_to_jsonl(result.trace).encode())
    assert digest.hexdigest() \
        == OTHER_TRACE_FINGERPRINTS[(preset, scheme, seeds)]


def test_a3_campaign_trace_files_fingerprint(tmp_path):
    # the files a two-worker campaign writes are the pinned trace bytes,
    # and the records that come back carry no trace text
    config = CampaignConfig(scheme="ma", executions=2, base_seed=0, budget=5,
                            workers=2, save_traces=True, out_dir=str(tmp_path))
    report = run_campaign(a3_navigate3d(), config)
    digest = hashlib.sha256()
    for seed in (0, 1):
        digest.update((tmp_path / f"trace_ma_{seed}.jsonl").read_bytes())
    assert digest.hexdigest() == TRACE_FINGERPRINT
    assert report.records == [
        run_fuzzing(a3_navigate3d(), "ma", budget=5, seed=seed).to_record()
        for seed in (0, 1)]


# Every action the fuzzing driver hands ``Simulation.step`` or
# ``Simulation.replay``, and a ``None`` for each step it leaves to the
# run-out after the withdrawal, budget 5:
# a1_navigate seeds 0-4, a2_search seeds 0-2 (plus sa seed 7) and
# a3_navigate3d seeds 0-1, under each of the four schemes
ACTION_RUNS = [(preset, scheme, seed)
               for scheme in ("sa", "ma", "random", "target_only")
               for preset, seeds in ((a1_navigate, range(5)),
                                     (a2_search, range(3)),
                                     (a3_navigate3d, range(2)))
               for seed in seeds] + [(a2_search, "sa", 7)]
ACTION_FINGERPRINT = \
    "f69ea7f5c338025fe36ccaf1140fa0222fa95ddf3f0d0d447c76c02753ecb1e5"


def _action_entry(action, sim) -> list:
    """An action as its kind and vector: a placement is a ``spawn`` when
    ``sim`` has no attacker before the step, else a ``teleport``."""
    if action is None:
        return [None]
    if action.despawn:
        return ["despawn"]
    for kind, vector in (("spawn" if sim.attacker() is None else "teleport",
                          action.place),
                         ("command", action.command)):
        if vector is not None:
            return [kind, [float(x) for x in vector]]
    return ["empty"]


def test_driver_action_schedule_fingerprint(monkeypatch):
    build = ScenarioConfig.build_simulation
    sims = []

    def recording_build(self, *args, **kwargs):
        sim = build(self, *args, **kwargs)
        step, replay, sim.actions = sim.step, sim.replay, []

        def recording_step(action=None):
            sim.actions.append(_action_entry(action, sim))
            step(action)

        def recording_replay(action):
            sim.actions.append(_action_entry(action, sim))
            replay(action)

        sim.step, sim.replay = recording_step, recording_replay
        sims.append(sim)
        return sim

    run_out = fuzzing.run_out

    def recording_run_out(run_sims):
        (sim,) = run_sims
        start = sim.step_index
        run_out(run_sims)
        # the attacker-free steps, each an idle action
        sim.actions += [[None]] * (sim.step_index - start)

    monkeypatch.setattr(ScenarioConfig, "build_simulation", recording_build)
    monkeypatch.setattr(fuzzing, "run_out", recording_run_out)
    digest = hashlib.sha256()
    forced_skips = 0
    for preset, scheme, seed in ACTION_RUNS:
        result = run_fuzzing(preset(), scheme, budget=5, seed=seed)
        sim = sims.pop()
        # one action per step, whether computed or replayed
        assert len(sim.actions) == result.total_steps
        digest.update(json.dumps(sim.actions, separators=(",", ":")).encode())
        contact = {step for step, message in sim.events
                   if message.startswith("invalid test case")}
        forced_skips += sum(step in contact for step, message in sim.events
                            if message.startswith("spawn skipped"))
    # the runs include a contact-forced epoch that finds no valid sector
    assert forced_skips > 0
    assert digest.hexdigest() == ACTION_FINGERPRINT
