"""The package root re-exports a name only when something imports it
through the root; every other name has one import path, its module
(``litelfuzz.world.WorldState``), which is how the tests import it."""
import types

import litelfuzz

# each root name with the callers that import it from ``litelfuzz``
ROOT_NAMES = {
    "SCHEMES",                  # demos/03_fuzzing_campaign.py
    "CampaignConfig",           # demos/03, README's Library block
    "a1_navigate",              # demos/01-03, README, perfbench/test_spans.py
    "a2_search",                # demos/01_mission_basics.py
    "a3_navigate3d",            # demos/01_mission_basics.py
    "build_influence_graph",    # demos/02_robustness_and_influence.py
    "builtin_scenario",         # tools/cpu_ab.py, perfbench/run.py
    "export_trace",             # demos/01_mission_basics.py
    "key_node_sequence",        # demos/02_robustness_and_influence.py
    "load_scenario",            # demos/01_mission_basics.py
    "robustness_curve_csv",     # demos/01_mission_basics.py
    "run_campaign",             # demos/03, README
    "run_fuzzing",              # demos/01, README, tools/cpu_ab.py,
                                # perfbench/test_spans.py
    "scheme_comparison_csv",    # demos/03_fuzzing_campaign.py
    "summarize",                # demos/03_fuzzing_campaign.py
    "trace_to_jsonl",           # tools/cpu_ab.py
}


def test_the_root_exports_only_the_names_its_callers_import():
    public = {name for name, value in vars(litelfuzz).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
