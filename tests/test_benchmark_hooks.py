"""The benchmark's span tracer still finds every function it wraps.

``perfbench/spans.py`` replaces each layer's function at the attribute its
caller looks it up through. A rename or a moved call leaves a patch point
that resolves to nothing, or a wrapper nothing calls, and the per-layer
numbers go silently wrong. This file only reads the benchmark.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from litelfuzz import campaign
from litelfuzz.campaign import CampaignConfig, run_campaign
from litelfuzz.scenarios import a1_navigate

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("path,attr", [(p, a) for p, a, _ in
                                       spans.PATCH_POINTS],
                         ids=[f"{p}.{a}" for p, a, _ in spans.PATCH_POINTS])
def test_patch_point_is_owned_by_its_caller(path, attr):
    owner = spans._owner(path)
    assert attr in vars(owner)
    assert callable(vars(owner)[attr])


def test_main_step_layers_are_called_through_their_patch_points(tmp_path):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        run_campaign(a1_navigate(), CampaignConfig(
            scheme="sa", executions=2, budget=2, save_traces=True,
            out_dir=str(tmp_path)))
    assert spans.unrestored() == []
    for name in ("mission.step", "world.integrate_step",
                 "world.detect_failure", "robustness.swarm_robustness",
                 "controllers.commands.mission", "controllers.update",
                 "fuzzing.lookahead_score", "campaign.trace_to_jsonl"):
        assert tracer.stats[name].calls > 0, name


def test_run_campaign_calls_run_one_through_the_module(monkeypatch):
    # the benchmark times each execution by replacing campaign._run_one
    # and reads back the key its wrapper adds to every record
    original = campaign._run_one
    seeds = []

    def timed(args):
        record = original(args)
        seeds.append(record["seed"])
        record["_wrapper_key"] = 2 * record["seed"]
        return record

    monkeypatch.setattr(campaign, "_run_one", timed)
    report = run_campaign(a1_navigate(), CampaignConfig(
        scheme="random", executions=3, base_seed=4, budget=1))
    assert sorted(seeds) == [4, 5, 6]
    assert [r["_wrapper_key"] for r in report.records] == [8, 10, 12]
