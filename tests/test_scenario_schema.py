"""Every scenario key is checked at load: a bad scenario exits 2 naming its
key, any other one runs, and the dump of each preset stays byte-stable."""
import copy
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from litelfuzz.cli import main
from litelfuzz.fuzzing import (OUTCOME_SUCCESSFUL_ATTACK, OUTCOME_SWARM_SECURE,
                               run_fuzzing)
from litelfuzz.scenarios import (ScenarioError, a1_navigate, a2_search,
                                 a3_navigate3d, scenario_from_dict)

PRESETS = {"a1_navigate": a1_navigate, "a2_search": a2_search,
           "a3_navigate3d": a3_navigate3d}


def _set(data: dict, path: tuple, value) -> None:
    for step in path[:-1]:
        data = data[step]
    data[path[-1]] = value


# (preset, key path, value, what stderr must name); each loaded before
# checks reached section values and vectors, and then ran on silently
# (frame, NaN radius, NaN goal) or died mid-campaign with a traceback
BAD = [
    ("a1_navigate", ("apf", "formation_frame"), "bogus",
     "apf: formation_frame must be"),
    # "leader" is the only formation frame
    ("a1_navigate", ("apf", "formation_frame"), "centroid",
     "apf: formation_frame must be"),
    ("a1_navigate", ("fuzz", "standoff_m"), "x", "fuzz: standoff_m must be"),
    ("a1_navigate", ("fuzz", "alpha_factor"), 1.5,
     "fuzz: alpha_factor must be"),
    ("a2_search", ("search", "bounds_lo_m"), [9.0, -8.0],
     "search: need bounds_lo < bounds_hi componentwise (keys bounds_lo_m, "
     "bounds_hi_m)"),
    ("a2_search", ("search", "cell_size_m"), 0, "search: cell_size_m must be"),
    ("a1_navigate", ("apf", "influence_radius_m"), math.nan,
     "apf: influence_radius_m must be finite and > 0, got nan"),
    ("a1_navigate", ("goal_m",), ["4", math.nan], "goal_m must be a list of 2"),
    ("a1_navigate", ("obstacles", 0, "lo_m"), [2.4, 0.4],
     "obstacles[0]: need lo < hi componentwise (keys lo_m, hi_m)"),
    # a JSON integer too big for a float raised OverflowError
    ("a1_navigate", ("goal_tolerance_m",), 10 ** 400,
     "goal_tolerance_m must be finite and > 0"),
    ("a3_navigate3d", ("obstacles", 0, "center_m"), [10 ** 400, 0.0, 0.0],
     "obstacles[0]: center_m must be a list of 3 finite numbers"),
    # the attacker's id: that agent's distances were read as the attacker's
    ("a1_navigate", ("agents", 3, "id"), 1000,
     "agents[3]: id 1000 is reserved for the attacker"),
    # a controller field without a check in its metadata is run state,
    # not a key
    ("a1_navigate", ("apf", "waypoint_index"), 0,
     "apf: unknown key(s): waypoint_index"),
    ("a2_search", ("search", "visits"), None,
     "search: unknown key(s): visits"),
]


def _ids(cases) -> list[str]:
    """Each case's key path; a later case of the same key adds its value."""
    ids = []
    for _, path, value, _ in cases:
        key = ":".join(map(str, path))
        ids.append(f"{key}={value}" if key in ids else key)
    return ids


@pytest.mark.parametrize("preset,path,value,named", BAD, ids=_ids(BAD))
def test_bad_value_exits_2_at_load(tmp_path, capsys, preset, path, value,
                                   named):
    data = PRESETS[preset]().to_dict()
    _set(data, path, value)
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(data))   # NaN is written as NaN
    assert main(["run", str(scenario), "--executions", "1",
                 "--budget", "1"]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


# sha256 of ``litelfuzz scenario-dump <preset>``, as the per-key dump wrote
# it before the one-table walker replaced it
DUMPS = {
    "a1_navigate":
        "7c50c63d27d2c4f4e2f6484493e9e8f0d5e56ef28481f38483e5f15759947bd1",
    "a2_search":
        "b23973b9e4eecd331d328751d4d51bc61a3a3d270720e9cafe1caa399dd72f0e",
    "a3_navigate3d":
        "cd694c89bd5a05a770d097fd77a6a58e4c2f97878cce0692fd0fc328471ebfad",
}


@pytest.mark.parametrize("preset", sorted(DUMPS))
def test_scenario_dump_is_byte_stable(capsys, preset):
    assert main(["scenario-dump", preset]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMPS[preset]
    # and the dump loads back to itself
    assert scenario_from_dict(json.loads(out)).to_dict() == json.loads(out)


POOL = [math.nan, math.inf, -math.inf, -1, 0, "x", None, True, [], {}]


def _key_paths(data: dict) -> list[tuple]:
    """Every key of a scenario dict: top level, in sections, and in each
    agent and obstacle."""
    paths = []
    for key, value in data.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value]
        elif isinstance(value, list):
            paths += [(key, k, sub) for k, item in enumerate(value)
                      if isinstance(item, dict) for sub in item]
    return paths


DICTS = {name: preset().to_dict() for name, preset in PRESETS.items()}
MUTATIONS = st.sampled_from(sorted(DICTS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.sampled_from(_key_paths(DICTS[name])),
                           st.sampled_from(POOL)))


@settings(deadline=None, derandomize=True, max_examples=1500)
@given(MUTATIONS)
def test_single_key_mutation_is_rejected_or_runs(mutation):
    name, path, value = mutation
    data = copy.deepcopy(DICTS[name])
    _set(data, path, value)
    try:
        config = scenario_from_dict(data)
    except ScenarioError:
        return
    result = run_fuzzing(config, "sa", budget=1, seed=0)
    assert result.outcome in (OUTCOME_SUCCESSFUL_ATTACK, OUTCOME_SWARM_SECURE)
