"""Span tracing installed from outside the package.

The traced run replaces each layer's public function, at the attribute
its caller looks the name up through, with a wrapper that records a span.
Spans are aggregated in memory per name: call count, total duration and
self time (duration minus the time covered by child spans). Nothing in
``src/`` is edited; :func:`installed` puts every original back on exit.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from litelfuzz.planner import Infeasible

LOOKAHEAD = "fuzzing.lookahead_score"
INFLUENCE_GRAPH = "influence.build_influence_graph"

# (owner, attribute, span name). The owner is the module or class through
# which the caller looks the name up, so a call made via an import in
# another module is caught where it happens.
PATCH_POINTS = [
    ("litelfuzz.campaign", "trace_to_jsonl", "campaign.trace_to_jsonl"),
    ("litelfuzz.fuzzing", "lookahead_score", LOOKAHEAD),
    ("litelfuzz.fuzzing", "spawn_candidates", "fuzzing.spawn_candidates"),
    ("litelfuzz.fuzzing", "build_influence_graph", INFLUENCE_GRAPH),
    ("litelfuzz.fuzzing", "key_node_sequence", "influence.key_node_sequence"),
    ("litelfuzz.fuzzing", "plan_path", "planner.plan_path"),
    ("litelfuzz.mission", "swarm_robustness", "robustness.swarm_robustness"),
    ("litelfuzz.mission", "integrate_step", "world.integrate_step"),
    ("litelfuzz.mission", "detect_failure", "world.detect_failure"),
    ("litelfuzz.mission:Simulation", "step", "mission.step"),
    ("litelfuzz.mission:Simulation", "clone", "mission.clone"),
    ("litelfuzz.controllers:ApfNavigationController", "commands",
     "controllers.commands"),
    ("litelfuzz.controllers:DispersalSearchController", "commands",
     "controllers.commands"),
    ("litelfuzz.controllers:ApfNavigationController", "update",
     "controllers.update"),
    ("litelfuzz.controllers:DispersalSearchController", "update",
     "controllers.update"),
    ("litelfuzz.scenarios", "scenario_from_dict",
     "scenarios.scenario_from_dict"),
    ("litelfuzz.scenarios:ScenarioConfig", "build_simulation",
     "scenarios.build_simulation"),
]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span stack plus per-name aggregates and event counters."""

    clock: object = time.perf_counter
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list = field(default_factory=list)    # [name, start, child_s]
    _open: dict[str, int] = field(default_factory=dict)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] = self._open.get(name, 0) + 1

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self._open[name] -= 1
        entry = self.stats.setdefault(name, SpanStats())
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """``fn`` inside a span; a few spans also feed counters."""
        split_by_caller = name == "controllers.commands"
        counts_steps = name == "mission.step"
        counts_bytes = name == "campaign.trace_to_jsonl"

        def wrapper(*args, **kwargs):
            span = name
            if split_by_caller:
                # the counterfactual graph re-evaluates commands; keep that
                # apart from the commands the mission loop itself issues
                span += ".influence" if self.inside(INFLUENCE_GRAPH) \
                    else ".mission"
            elif counts_steps:
                self.count("steps")
                if self.inside(LOOKAHEAD):
                    self.count("probe_steps")
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            except Infeasible:
                self.count("infeasible")
                raise
            finally:
                self.exit()
            if counts_bytes:
                self.count("trace_bytes", len(result.encode()))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(tracer: Tracer, points=PATCH_POINTS):
    """Wrap every patch point for the duration of the block, then restore."""
    saved = []
    try:
        for path, attr, name in points:
            owner = _owner(path)
            # read from __dict__ so a method is restored as the plain
            # function its class holds, not a bound or inherited one
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unrestored(points=PATCH_POINTS) -> list[str]:
    """Patch points that still hold a wrapper; empty once restored."""
    return [f"{path}.{attr}" for path, attr, _ in points
            if hasattr(vars(_owner(path))[attr], "__wrapped__")]
