"""Oracles for traced runs, read from the worlds a run steps through.

``oracle_jsonl`` is the dict-per-step body that ``trace_to_jsonl``
replaced: it builds each step's object from the step's world and record
and serializes it with ``json.dumps(sort_keys=True)``. ``traced_worlds``
collects those worlds by wrapping ``Simulation.step`` and
``Simulation.replay``, and takes the run-out's from a clone stepped
through ``Simulation.step``, so no oracle reads the batches the writer
reads. ``step_run_out`` is the run-out's world-by-world reference.
"""
import json
from contextlib import contextmanager

from litelfuzz import fuzzing
from litelfuzz.mission import Simulation


def oracle_jsonl(worlds, records, events) -> str:
    """Serialize a run, one JSON object per step: ``worlds`` are the
    worlds after each step, ``records`` their robustness records and
    ``events`` the run's (step index, message) pairs, in order."""
    events_by_step: dict[int, list[str]] = {}
    for step, message in events:
        events_by_step.setdefault(step, []).append(message)
    lines = []
    for world, record in zip(worlds, records, strict=True):
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


@contextmanager
def traced_worlds():
    """While the block runs, collect every world a traced simulation
    steps to, through :meth:`Simulation.step` or
    :meth:`Simulation.replay`: a dict from each such simulation's trace to
    its worlds after each step, in order. The worlds of its run-out are
    those of a clone stepped through :meth:`Simulation.step`, which must
    end at the run-out's step with its outcome."""
    worlds: dict = {}
    step, replay, run_out = Simulation.step, Simulation.replay, \
        fuzzing.run_out

    def keep(sim):
        if sim.trace is not None:
            seen = worlds.setdefault(sim.trace, [])
            # a finished simulation's step makes no world
            if not seen or seen[-1] is not sim.world:
                seen.append(sim.world)

    def stepping(self, action=None):
        step(self, action)
        keep(self)

    def replaying(self, action):
        replay(self, action)
        keep(self)

    def running_out(sims):
        twins = [sim.clone() for sim in sims]
        run_out(sims)
        for sim, twin in zip(sims, twins):
            while not twin.done:
                step(twin)
                if sim.trace is not None:
                    worlds.setdefault(sim.trace, []).append(twin.world)
            assert (twin.step_index, twin.outcome, twin.failure_kind) \
                == (sim.step_index, sim.outcome, sim.failure_kind)

    Simulation.step, Simulation.replay = stepping, replaying
    fuzzing.run_out = running_out
    try:
        yield worlds
    finally:
        Simulation.step, Simulation.replay = step, replay
        fuzzing.run_out = run_out


def step_run_out(sims) -> None:
    """The reference of ``mission.run_out``: step each simulation to its
    end through :meth:`Simulation.step`, world by world."""
    for sim in sims:
        while not sim.done:
            sim.step()
