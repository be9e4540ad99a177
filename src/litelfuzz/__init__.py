"""litelfuzz: deterministic swarm simulation plus robustness-guided fuzzing.

The package couples a discrete-time multi-agent simulator with temporal-
logic-derived robustness margins, a counterfactual influence graph, and
four attack-drone fuzzing schemes that hunt for mission failures.
"""

from .campaign import (CampaignConfig, export_trace, robustness_curve_csv,
                       run_campaign, scheme_comparison_csv, summarize,
                       trace_to_jsonl)
from .fuzzing import SCHEMES, run_fuzzing
from .influence import build_influence_graph, key_node_sequence
from .scenarios import (a1_navigate, a2_search, a3_navigate3d,
                        builtin_scenario, load_scenario)

__version__ = "0.1.0"
