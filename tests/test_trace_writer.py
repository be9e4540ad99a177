"""``trace_to_jsonl`` writes the bytes ``json.dumps`` writes.

The writer fills line templates from stacked arrays. The oracle is the
dict-per-step body it replaced (``trace_oracle.oracle_jsonl``), fed the
worlds the run stepped through. On traces of every preset and scheme,
with and without the attacker and with and without events, both must
give the same text, and every number in it must be finite.
"""
import json
import math

import pytest
from trace_oracle import oracle_jsonl, traced_worlds

from litelfuzz.campaign import trace_to_jsonl
from litelfuzz.fuzzing import SCHEMES, run_fuzzing
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d
from litelfuzz.world import ROLE_ATTACKER

PRESETS = {"a1_navigate": a1_navigate, "a2_search": a2_search,
           "a3_navigate3d": a3_navigate3d}


@pytest.fixture(scope="module")
def traces():
    """Budget-2 traces of seeds 0 and 1 of every preset and scheme, each
    with the worlds its run stepped through."""
    runs = {}
    for preset, build in sorted(PRESETS.items()):
        for scheme in SCHEMES:
            for seed in (0, 1):
                with traced_worlds() as worlds:
                    trace = run_fuzzing(build(), scheme, budget=2, seed=seed,
                                        record_trace=True).trace
                runs[preset, scheme, seed] = trace, worlds[trace]
    return runs


def test_writer_equals_json_dumps_oracle(traces):
    attacker, events = set(), set()
    for key, (trace, worlds) in traces.items():
        text = trace_to_jsonl(trace)
        assert text == oracle_jsonl(worlds, trace.robustness,
                                    trace.events), key
        attacker |= {any(a.role == ROLE_ATTACKER for a in world.agents)
                     for world in worlds}
        events |= {bool(json.loads(line)["events"])
                   for line in text.splitlines()}
    # steps with and without the attacker, lines with and without events
    assert attacker == events == {True, False}


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


def test_every_number_written_is_finite(traces):
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    for key, (trace, _) in traces.items():
        for line in trace_to_jsonl(trace).splitlines():
            row = json.loads(line, parse_constant=refuse)
            assert all(math.isfinite(x) for x in _numbers(row)), key


def test_a_trace_scored_in_several_batches_writes_the_oracle_lines():
    # reading the events mid-run scores the steps so far in one batch
    # and leaves the rest to a second one
    sim = a1_navigate().build_simulation(seed=0)
    worlds = []
    while not sim.done:
        sim.step()
        worlds.append(sim.world)
        if sim.step_index == 10:
            sim.events
    assert len(sim.trace.scored()) == 2
    assert trace_to_jsonl(sim.trace) == oracle_jsonl(
        worlds, sim.trace.robustness, sim.trace.events)
