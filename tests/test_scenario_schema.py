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
    ("a1_navigate", ("apf", "state"), [0],
     "apf: unknown key(s): state"),
    ("a2_search", ("search", "state"), None,
     "search: unknown key(s): state"),
    ("a2_search", ("search", "visits"), None,
     "search: unknown key(s): visits"),
    # without a leader the mission never completes, so every run timed out
    # and every execution read as a successful attack
    ("a1_navigate", ("agents", 0),
     {"id": 0, "role": "follower", "start_m": [0.0, 0.0],
      "sensing_radius_m": 0.5, "formation_offset_m": [0.0, 0.0]},
     "apf_navigate requires an agent with role 'leader'"),
    # 1e300 in a goal or the last waypoint overflowed in the load's check
    # that the leader parks at the goal
    ("a3_navigate3d", ("goal_m", 2), 1e300,
     "goal_m must be a list of 3 finite numbers, |x| <= 1e+12, got"),
    ("a1_navigate", ("leader_waypoints_m", 1, 0), -1e300,
     "leader_waypoints_m[1] must be a list of 2 finite numbers"),
    # ... and anywhere else it loaded and overflowed mid-run: a1 with this
    # start exited 0 and reported an ObstacleCrash at step 27
    ("a1_navigate", ("agents", 1, "start_m", 0), 1e300,
     "agents[1]: start_m must be a list of 2 finite numbers, |x| <= 1e+12"),
    ("a3_navigate3d", ("obstacles", 1, "center_m", 1), -1e300,
     "obstacles[1]: center_m must be a list of 3 finite numbers"),
    ("a2_search", ("search", "targets_m", 0, 0), 1e300,
     "search: targets_m[0] must be a list of 2 finite numbers"),
    ("a1_navigate", ("v_max_mps",), 1e300,
     "v_max_mps must be finite and > 0, got 1e+300, not |x| <= 1e+12"),
    ("a1_navigate", ("apf", "repulsion_gain"), 1e300,
     "apf: repulsion_gain must be finite"),
    ("a2_search", ("search", "cell_size_m"), 1e300,
     "search: cell_size_m must be finite and > 0, got 1e+300, not |x| <= "
     "1e+12"),
    # the same bound holds a count: these loaded, and then each execution
    # failed on a count too large for a C size or for a float
    ("a1_navigate", ("fuzz", "warmup_steps"), 10 ** 30,
     "fuzz: warmup_steps must be an integer >= 0, got 10000000000000000000"
     "00000000000, not |x| <= 1e+12"),
    ("a3_navigate3d", ("nominal_steps",), 10 ** 400,
     "nominal_steps must be an integer >= 1, got 1000"),
    # a run's length: a2 with 10**12 nominal steps loaded and ran, and a
    # run whose mission cannot complete would time out after 2e12 steps
    ("a2_search", ("nominal_steps",), 10 ** 12,
     "nominal_steps x timeout_multiplier, the run's timeout, is 2e+12 "
     "steps, above 100000 (keys nominal_steps, timeout_multiplier)"),
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


# (preset, key path, value, what the error must name); each loaded, or
# began to, and then ran out of memory: sizes bounded at load, far above
# the presets' (a2's visit grid has 16 cells, a1's and a2's box covers 28
# and 4 tiles, every preset has a 20-step progress window and 8 spawn
# sectors). The load is asserted to fail before any command runs: a
# scenario with the long box that loads spends all memory in its first
# planned flight.
TOO_LARGE = [
    # a (1, 4, 2.5e11) visit grid
    ("a2_search", ("search", "bounds_hi_m", 1), 1e12,
     "search: the visit grid of bounds_lo to bounds_hi in cells of "
     "cell_size has 1e+12 cells, above 100000 (keys bounds_lo_m, "
     "bounds_hi_m, cell_size_m)"),
    # a box 1e12 m long, which the planner tiles with 2e12 circles
    ("a2_search", ("obstacles", 0, "lo_m", 0), -1e12,
     "obstacles[0]: the planner covers this box with 2e+12 tiles at a "
     "clearance of safe_distance_m, above 10000 (keys lo_m, hi_m, "
     "safe_distance_m)"),
    # the run's first (S, window + 1) goal-distance windows
    ("a1_navigate", ("progress_window_steps",), 10 ** 12,
     "progress_window_steps must be an integer >= 1 and < 1000, got "
     "1000000000000"),
    # the first probe, one row per sector
    ("a3_navigate3d", ("spawn", "sectors"), 10 ** 6,
     "spawn: sectors must be an integer < 1000, got 1000000"),
]


@pytest.mark.parametrize("preset,path,value,named", TOO_LARGE,
                         ids=_ids(TOO_LARGE))
def test_too_large_a_size_exits_2_at_load(tmp_path, capsys, preset, path,
                                          value, named):
    data = PRESETS[preset]().to_dict()
    _set(data, path, value)
    with pytest.raises(ScenarioError) as error:
        scenario_from_dict(data)
    assert named in str(error.value)
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(data))
    for command in (["scenario-dump", str(scenario)],
                    ["run", str(scenario), "--executions", "1",
                     "--budget", "2"]):
        assert main(command) == 2
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
# 1e300 loaded in many numbers, vectors' too, and then overflowed mid-run
HUGE = [1e300, -1e300]


def _mutations(value, path: tuple = ()) -> list[tuple[tuple, list]]:
    """Every key of a scenario dict (top level, in sections, and in each
    agent and obstacle) with ``POOL`` and ``HUGE``, and 10**6 if it holds
    an integer; and every number inside a vector or a list of vectors,
    with ``HUGE``."""
    out = []
    if isinstance(value, dict):
        for key, item in value.items():
            count = isinstance(item, int) and not isinstance(item, bool)
            out.append((path + (key,), POOL + HUGE + [10 ** 6] * count))
            out += _mutations(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            out += [(path + (k,), HUGE)] if isinstance(item, float) \
                else _mutations(item, path + (k,))
    return out


DICTS = {name: preset().to_dict() for name, preset in PRESETS.items()}
MUTATIONS = st.sampled_from(sorted(DICTS)).flatmap(
    lambda name: st.sampled_from(_mutations(DICTS[name])).flatmap(
        lambda case: st.tuples(st.just(name), st.just(case[0]),
                               st.sampled_from(case[1]))))


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
