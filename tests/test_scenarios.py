"""Scenario schema, validation and built-in preset tests."""
import json

import numpy as np
import pytest

from litelfuzz.fuzzing import run_fuzzing
from litelfuzz.mission import OUTCOME_FAILURE, OUTCOME_SUCCESS
from litelfuzz.scenarios import (ScenarioError, a1_navigate, a2_search,
                                 a3_navigate3d, builtin_scenario,
                                 load_scenario, measure_nominal_steps,
                                 scenario_from_dict)


class TestStrictParsing:
    def base(self):
        return a1_navigate().to_dict()

    def test_round_trip_preserves_config(self, tmp_path):
        original = a1_navigate()
        path = tmp_path / "scn.json"
        original.save(path)
        loaded = load_scenario(path)
        assert loaded.to_dict() == original.to_dict()

    def test_unknown_key_rejected(self):
        data = self.base()
        data["unexpected_key"] = 1
        with pytest.raises(ScenarioError, match="unexpected_key"):
            scenario_from_dict(data)
        # section typos are named with their section
        for section, key in [("apf", "influence_radius"),
                             ("search", "bounds_lo"), ("spawn", "sector"),
                             ("fuzz", "lookahed_steps")]:
            data = self.base()
            data[section][key] = 1
            with pytest.raises(ScenarioError, match=f"^{section}: .*{key}"):
                scenario_from_dict(data)

    def test_bad_spawn_ring_names_section(self):
        data = self.base()
        data["spawn"] = {"inner_radius_m": 1.0, "outer_radius_m": 0.5}
        with pytest.raises(ScenarioError, match="spawn"):
            scenario_from_dict(data)

    def test_unknown_agent_key_rejected(self):
        data = self.base()
        data["agents"][0]["typo_m"] = 1.0
        with pytest.raises(ScenarioError, match="typo_m"):
            scenario_from_dict(data)

    def test_missing_required_key_named(self):
        data = self.base()
        del data["safe_distance_m"]
        with pytest.raises(ScenarioError, match="safe_distance_m"):
            scenario_from_dict(data)

    def test_bad_role_rejected(self):
        data = self.base()
        data["agents"][0]["role"] = "queen"
        with pytest.raises(ScenarioError, match="role"):
            scenario_from_dict(data)

    def test_wrong_vector_dimension_rejected(self):
        data = self.base()
        data["goal_m"] = [1.0, 2.0, 3.0]
        with pytest.raises(ScenarioError, match="goal_m"):
            scenario_from_dict(data)

    def test_duplicate_agent_ids_rejected(self):
        data = self.base()
        data["agents"][1]["id"] = data["agents"][0]["id"]
        with pytest.raises(ScenarioError, match="unique"):
            scenario_from_dict(data)

    def test_bad_obstacle_kind_rejected(self):
        data = self.base()
        data["obstacles"].append({"kind": "pyramid"})
        with pytest.raises(ScenarioError, match="pyramid"):
            scenario_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    @pytest.mark.parametrize("key", ["dt_s", "kind", "formation_frame"])
    def test_repeated_key_rejected_at_any_depth(self, tmp_path, key):
        # the key is written a second time right after its first value,
        # at the top level, in an obstacle and in the apf section
        text = a1_navigate().to_json()
        end = text.index("\n", text.index(f'"{key}"'))
        repeat = text[text.rindex("\n", 0, end) + 1:end].rstrip(",")
        path = tmp_path / "repeated.json"
        path.write_text(text[:end].rstrip(",") + ",\n" + repeat + ","
                        + text[end:])
        with pytest.raises(ScenarioError, match=f"^repeated key '{key}'$"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_goal_off_the_last_waypoint_rejected(self):
        # the leader parks at its last waypoint, so the mission could never
        # complete; a goal exactly goal_tolerance_m away still loads
        data = self.base()
        data["leader_waypoints_m"][-1] = [4.0, 0.0]
        data["goal_tolerance_m"] = 0.05
        data["goal_m"] = [4.0, 0.05]
        scenario_from_dict(data)
        for goal in ([4.0, 0.06], [9.0, 0.0]):
            data["goal_m"] = goal
            with pytest.raises(ScenarioError, match="goal_tolerance_m of the "
                               "last leader_waypoints_m"):
                scenario_from_dict(data)

    def test_search_without_targets_rejected(self):
        data = a2_search().to_dict()
        data["search"]["targets_m"] = []
        with pytest.raises(ScenarioError, match="^search: .*targets_m"):
            scenario_from_dict(data)

    def test_validation_collision_vs_safe_distance(self):
        data = self.base()
        data["collision_radius_m"] = data["safe_distance_m"] + 0.1
        with pytest.raises(ScenarioError, match="collision_radius_m"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("section,key", [
        ("fuzz", "lookahead_steps"), ("fuzz", "settle_steps"),
        ("fuzz", "warmup_steps"), ("spawn", "sectors")])
    @pytest.mark.parametrize("value", [None, "abc", 2.5, True])
    def test_count_keys_must_be_integers(self, section, key, value):
        data = self.base()
        data[section][key] = value
        with pytest.raises(ScenarioError, match=f"^{section}: {key} must be"):
            scenario_from_dict(data)

    def test_count_key_minimums(self):
        for section, key, least in [("fuzz", "lookahead_steps", 1),
                                    ("fuzz", "settle_steps", 0),
                                    ("fuzz", "warmup_steps", 0),
                                    ("spawn", "sectors", 2)]:
            data = self.base()
            data[section][key] = least - 1
            with pytest.raises(ScenarioError, match=f"^{section}: .*{key}"):
                scenario_from_dict(data)
            data[section][key] = least
            config = scenario_from_dict(data)
            assert config.to_dict()[section][key] == least

    @pytest.mark.parametrize("key,value", [
        ("collision_radius_m", float("nan")),
        ("goal_tolerance_m", float("nan")),
        ("dt_s", float("nan")),
        ("timeout_multiplier", float("nan")),
        ("goal_tolerance_m", -1),
        ("goal_tolerance_m", 0.0),
        ("safe_distance_m", float("nan")),
        ("formation_max_m", float("inf")),
        ("collision_radius_m", -0.01),
        ("start_jitter_m", -0.01),
        ("start_jitter_m", float("inf")),
        ("timeout_multiplier", 0.5),
        ("dt_s", "0.05"),
        ("dt_s", True),
        ("dimension", 2.7),
        ("dimension", True),
        ("dimension", 4),
        ("nominal_steps", 40.9),
        ("nominal_steps", 0),
        ("nominal_steps", False),
        ("progress_window_steps", 0),
        ("progress_window_steps", 1.0),
        ("formation_constraint_enabled", "false"),
        ("formation_constraint_enabled", 0),
    ])
    def test_bad_top_level_scalar_rejected(self, key, value):
        data = self.base()
        data[key] = value
        with pytest.raises(ScenarioError, match=f"^{key} must be"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("sensing_radius_m", float("nan")), ("sensing_radius_m", -0.5),
        ("sensing_radius_m", "0.5"), ("id", 1.0), ("id", True),
        ("id", "1")])
    def test_bad_agent_scalar_rejected(self, key, value):
        data = self.base()
        data["agents"][1][key] = value
        with pytest.raises(ScenarioError, match=f"^agents\\[1\\]: {key} must be"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), 0.0, None])
    def test_bad_obstacle_radius_rejected(self, value):
        data = a3_navigate3d().to_dict()
        data["obstacles"][0]["radius_m"] = value
        with pytest.raises(ScenarioError, match="^obstacles\\[0\\]: radius_m"):
            scenario_from_dict(data)

    def test_valid_edge_values_load(self):
        data = self.base()
        data.update(collision_radius_m=0, start_jitter_m=0,
                    timeout_multiplier=1, progress_window_steps=1,
                    formation_constraint_enabled=False, dt_s=1)
        config = scenario_from_dict(data)
        assert config.dt == 1.0 and type(config.dt) is float
        assert config.formation_constraint_enabled is False

    @pytest.mark.parametrize("key", ["v_max_mps", "a_max_mps2"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_speed_and_acceleration_limits_positive_finite(self, key, value):
        data = self.base()
        data[key] = value
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(data)


class TestPresets:
    def test_navigate_preset_published_values(self):
        scn = a1_navigate()
        assert len(scn.agents) == 4
        assert scn.apf["influence_radius_m"] == pytest.approx(0.15)
        assert scn.goal_tolerance == pytest.approx(0.05)
        assert scn.dimension == 2
        # follower formation offsets keep the published spacing to their
        # nearest formation neighbour
        offsets = [a.formation_offset for a in scn.agents
                   if a.formation_offset is not None]
        for off in offsets:
            gaps = [np.linalg.norm(off - other) for other in offsets
                    if other is not off]
            gaps.append(np.linalg.norm(off))  # leader at the origin
            assert min(gaps) == pytest.approx(0.22, abs=1e-9)

    def test_navigate_radius_override(self):
        scn = a1_navigate(influence_radius=0.10)
        assert scn.apf["influence_radius_m"] == pytest.approx(0.10)

    def test_search_preset_published_values(self):
        scn = a2_search()
        assert len(scn.agents) == 10
        assert scn.dt == pytest.approx(0.5)
        assert scn.v_max == pytest.approx(2.0)
        assert all(a.sensing_radius == pytest.approx(2.0) for a in scn.agents)
        assert scn.formation_constraint_enabled is False
        assert scn.controller_kind == "dispersal_search"

    def test_navigate3d_preset_published_values(self):
        scn = a3_navigate3d()
        assert scn.dimension == 3
        assert scn.v_max == pytest.approx(5.0)
        assert scn.a_max == pytest.approx(2.5)
        assert len(scn.agents) == 6

    def test_builtin_lookup(self):
        assert builtin_scenario("a2_search").name.startswith("a2_search")
        with pytest.raises(ScenarioError, match="unknown built-in"):
            builtin_scenario("a9_nope")

    def test_presets_validate_and_build(self):
        for preset in (a1_navigate, a2_search, a3_navigate3d):
            scn = preset()
            scn.validate()
            sim = scn.build_simulation(seed=0)
            sim.step()
            assert sim.world.step_index == 1

    def test_start_jitter_bounded(self):
        scn = a1_navigate()
        base = scn.build_world(rng=None)
        jittered = scn.build_world(rng=np.random.default_rng(0))
        for a, b in zip(base.agents, jittered.agents):
            assert np.all(np.abs(a.position - b.position) <= scn.start_jitter)


class TestDerivedObjects:
    def test_spawn_geometry_defaults_to_sensing(self):
        data = a1_navigate().to_dict()
        data["spawn"] = {}
        scn = scenario_from_dict(data)
        geom = scn.spawn_geometry()
        assert geom.inner_radius == pytest.approx(0.5)
        assert geom.outer_radius == pytest.approx(0.75)
        assert geom.sectors == 8

    def test_fuzz_params_fall_back_to_scenario_rates(self):
        data = a1_navigate().to_dict()
        data["fuzz"] = {}
        scn = scenario_from_dict(data)
        params = scn.fuzz_params()
        assert params.attacker_v_max == scn.v_max
        assert params.attacker_a_max == scn.a_max
        assert params.graph_radius == pytest.approx(1.0)  # 2 x sensing

    def test_a1_nominal_steps_match_reference_runs(self):
        assert measure_nominal_steps(a1_navigate()) == 59

    def test_a2_a3_nominal_steps_match_reference_runs(self):
        assert measure_nominal_steps(a2_search()) == 96
        assert measure_nominal_steps(a3_navigate3d()) == 244

    def test_nominal_steps_name_the_lowest_reference_run_that_timed_out(self):
        data = a1_navigate().to_dict()
        data["nominal_steps"] = 58
        data["timeout_multiplier"] = 1.0
        scn = scenario_from_dict(data)
        # some reference runs complete within the tighter budget, some not;
        # a reference run is the attacker-free mission, a budget-0 run
        outcomes = [run_fuzzing(scn, "sa", budget=0, seed=seed,
                                record_trace=True).trace.outcome
                    for seed in range(50)]
        assert set(outcomes) == {OUTCOME_SUCCESS, OUTCOME_FAILURE}
        assert outcomes[0] == OUTCOME_SUCCESS
        with pytest.raises(RuntimeError, match=r"^reference run 1 did not "
                           r"complete \(outcome Failure\)$"):
            measure_nominal_steps(scn)

    def test_mission_spec_mirrors_config(self):
        scn = a1_navigate()
        spec = scn.mission_spec()
        assert spec.nominal_steps == scn.nominal_steps
        assert spec.formation_enabled is True
        spec2 = a2_search().mission_spec()
        assert spec2.formation_enabled is False
