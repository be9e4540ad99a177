"""Run the built-in missions without an attacker and export their traces.

Shows the simulation layer on its own: load a scenario (built-in preset
or JSON file), run its nominal mission to completion as a fuzzing run
with a budget of 0 (no attacker is ever placed), inspect the per-step
robustness record, and write the trace as JSONL plus a robustness CSV
curve.

Usage:
    python demos/01_mission_basics.py [scenario.json] [--out DIR]
"""
import argparse
from pathlib import Path

from litelfuzz import (a1_navigate, a2_search, a3_navigate3d, export_trace,
                       load_scenario, robustness_curve_csv, run_fuzzing)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario JSON file (default: all presets)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="demo_out",
                        help="directory for trace exports")
    args = parser.parse_args()

    if args.scenario:
        scenarios = [load_scenario(args.scenario)]
    else:
        scenarios = [a1_navigate(), a2_search(), a3_navigate3d()]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for scenario in scenarios:
        # budget 0: the attacker-free mission, whatever the scheme
        trace = run_fuzzing(scenario, "sa", budget=0, seed=args.seed,
                            record_trace=True).trace
        records = trace.robustness      # one per step
        steps, final = len(records), records[-1]
        print(f"{scenario.name}: {trace.outcome} after {steps} steps "
              f"(nominal {scenario.nominal_steps})")
        print(f"  final swarm robustness {final.swarm:.3f}, "
              f"min margin {final.min_margin:.3f}")
        for step, message in trace.events[:5]:
            print(f"  event @{step}: {message}")

        stem = out / scenario.name
        export_trace(trace, stem.with_suffix(".jsonl"))
        stem.with_suffix(".csv").write_text(robustness_curve_csv(trace))
        print(f"  wrote {stem}.jsonl and {stem}.csv")


if __name__ == "__main__":
    main()
