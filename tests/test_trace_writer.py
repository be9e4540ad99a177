"""``trace_to_jsonl`` writes the bytes ``json.dumps`` writes.

The writer fills line templates from stacked arrays. The oracle below is
the dict-per-step body it replaced: it builds each step's object from the
trace's worlds and records and serializes it with
``json.dumps(sort_keys=True)``. On traces of every preset and scheme, with
and without the attacker and with and without events, both must give the
same text, and every number in it must be finite.
"""
import json
import math

import pytest

from litelfuzz.campaign import trace_to_jsonl
from litelfuzz.fuzzing import SCHEMES, run_fuzzing
from litelfuzz.scenarios import a1_navigate, a2_search, a3_navigate3d
from litelfuzz.world import ROLE_ATTACKER

PRESETS = {"a1_navigate": a1_navigate, "a2_search": a2_search,
           "a3_navigate3d": a3_navigate3d}


def oracle_jsonl(trace) -> str:
    """Serialize a mission trace, one JSON object per step."""
    events_by_step: dict[int, list[str]] = {}
    for step, message in trace.events:
        events_by_step.setdefault(step, []).append(message)
    lines = []
    # snapshots[0] is the initial world; robustness[k] matches snapshots[k+1]
    for k, record in enumerate(trace.robustness):
        world = trace.snapshots[k + 1]
        obj = {
            "t": world.step_index,
            "agents": [
                {"id": a.id,
                 "pos": a.position.tolist(),
                 "vel": a.velocity.tolist(),
                 "acc": a.acceleration.tolist(),
                 "role": a.role}
                for a in world.agents
            ],
            "events": events_by_step.get(world.step_index, []),
            "rob": {
                "per_agent": [
                    {"id": ar.agent_id,
                     "normalized": [float(x) for x in ar.normalized],
                     "individual": float(ar.individual)}
                    for ar in record.per_agent
                ],
                "swarm": float(record.swarm),
                "min": float(record.min_margin),
            },
        }
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


@pytest.fixture(scope="module")
def traces():
    """Budget-2 traces of seeds 0 and 1 of every preset and scheme."""
    return {(preset, scheme, seed): run_fuzzing(
        build(), scheme, budget=2, seed=seed, record_trace=True).trace
        for preset, build in sorted(PRESETS.items()) for scheme in SCHEMES
        for seed in (0, 1)}


def test_writer_equals_json_dumps_oracle(traces):
    attacker, events = set(), set()
    for key, trace in traces.items():
        text = trace_to_jsonl(trace)
        assert text == oracle_jsonl(trace), key
        attacker |= {any(a.role == ROLE_ATTACKER for a in world.agents)
                     for world in trace.snapshots[1:]}
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

    for key, trace in traces.items():
        for line in trace_to_jsonl(trace).splitlines():
            row = json.loads(line, parse_constant=refuse)
            assert all(math.isfinite(x) for x in _numbers(row)), key


def test_a_trace_scored_in_several_batches_writes_the_oracle_lines():
    # reading the events mid-run scores the steps so far in one batch
    # and leaves the rest to a second one
    sim = a1_navigate().build_simulation(seed=0)
    while not sim.done:
        sim.step()
        if sim.step_index == 10:
            sim.events
    assert len(sim.trace.scored()) == 2
    assert trace_to_jsonl(sim.trace) == oracle_jsonl(sim.trace)
