"""Behaviour fingerprint: the sha256 of fixed-seed campaign records.

A change that only makes the fuzzer faster keeps every outcome, so it
keeps these digests. A change that moves one on purpose must say so and
re-run the acceptance gate; the digests are then updated, never the seeds.
"""
import hashlib
import json

import pytest

from litelfuzz.campaign import CampaignConfig, run_campaign
from litelfuzz.scenarios import a1_navigate

# a1_navigate, seeds 0-4, budget 5, one worker
FINGERPRINTS = {
    "sa": "d7ffc0df7cb5413349f1a582c0bd8694cd4c0eb0c2a74e7eb34ef6740acf8f4e",
    "ma": "acb032ea8e05ac43fb8b1d10b52f3d417c384c531a9c6b45fc8ceab37ed9a3df",
}


@pytest.mark.parametrize("scheme", sorted(FINGERPRINTS))
def test_a1_records_fingerprint(scheme):
    config = CampaignConfig(scheme=scheme, executions=5, base_seed=0, budget=5)
    records = run_campaign(a1_navigate(), config).records
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINTS[scheme]
