"""Behaviour fingerprint: the sha256 of fixed-seed campaign records.

A change that only makes the fuzzer faster keeps every outcome, so it
keeps these digests. A change that moves one on purpose must say so and
re-run the acceptance gate; the digests are then updated, never the seeds.
"""
import hashlib
import json

import pytest

from litelfuzz.campaign import CampaignConfig, run_campaign, trace_to_jsonl
from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d

# a1_navigate, seeds 0-4, budget 5, one worker
FINGERPRINTS = {
    "sa": "d7ffc0df7cb5413349f1a582c0bd8694cd4c0eb0c2a74e7eb34ef6740acf8f4e",
    "ma": "acb032ea8e05ac43fb8b1d10b52f3d417c384c531a9c6b45fc8ceab37ed9a3df",
}

# seeds 0-2, budget 5, one worker: the dispersal controller with its
# ``search`` section (inside lookahead probes under sa and ma), the two
# uniform draws, and Katz on 3D graphs
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
}
PRESETS = {"a2_search": a2_search, "a3_navigate3d": a3_navigate3d}

# a3_navigate3d, ma, seeds 0-1, budget 5: the JSONL traces, one after the
# other; every step of a traced run writes its world and robustness record
TRACE_FINGERPRINT = \
    "ac61168f489b1d94ae7ea9e7a2710dca960ca65822c1480d14778ca5f9605b1e"


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
