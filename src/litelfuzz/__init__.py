"""litelfuzz: deterministic swarm simulation plus robustness-guided fuzzing.

The package couples a discrete-time multi-agent simulator with temporal-
logic-derived robustness margins, a counterfactual influence graph, and
four attack-drone fuzzing schemes that hunt for mission failures.
"""

from .campaign import (CampaignConfig, CampaignReport, export_trace,
                       robustness_curve_csv, run_campaign,
                       scheme_comparison_csv, summarize, trace_to_jsonl)
from .controllers import ApfNavigationController, DispersalSearchController
from .fuzzing import (SCHEMES, FuzzParams, FuzzResult, NoValidSpawn,
                      SpawnGeometry, TestCase, lookahead_score, run_fuzzing,
                      spawn_candidates)
from .influence import (InfluenceGraph, KeyNodeSequence,
                        build_influence_graph, katz_centrality,
                        key_node_sequence)
from .mission import (ATTACKER_ID, OUTCOME_FAILURE, OUTCOME_SUCCESS,
                      OUTCOME_SWARM_SECURE, AttackerAction, Simulation, Trace)
from .planner import Infeasible, plan_path
from .robustness import (AgentRobustness, ConstraintParams, RobustnessRecord,
                         constraint_violations, margin_formation,
                         margin_kinematics, margin_safe_distance,
                         swarm_robustness)
from .scenarios import (BUILTIN_SCENARIOS, ScenarioConfig, ScenarioError,
                        a1_navigate, a2_search, a3_navigate3d,
                        builtin_scenario, load_scenario,
                        measure_nominal_steps, scenario_from_dict)
from .world import (AgentState, FailureKind, InvalidState, MissionSpec,
                    Obstacle, WorldState, clamp_norm, detect_failure,
                    integrate_step, min_obstacle_distance)

__version__ = "0.1.0"
