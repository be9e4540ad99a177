"""Command-line interface.

``litelfuzz run`` executes a fuzzing campaign, ``summarize`` renders a
saved report, ``plot`` emits CSV plot data. Configuration errors exit
with status 2. ``LITELFUZZ_LOG=INFO`` logs one line as each campaign
starts; the package logs nothing else, at any level.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .campaign import (CampaignConfig, CampaignReport, robustness_curve_csv,
                       run_campaign, scheme_comparison_csv, summarize)
from .fuzzing import SCHEMES, run_fuzzing
from .scenarios import (BUILTIN_SCENARIOS, ScenarioError, builtin_scenario,
                        load_scenario)

log = logging.getLogger("litelfuzz")

EXIT_CONFIG_ERROR = 2


def _load_scenario_arg(value: str):
    if value in BUILTIN_SCENARIOS:
        return builtin_scenario(value)
    return load_scenario(value)


def _cmd_run(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    config = CampaignConfig(scheme=args.scheme, executions=args.executions,
                            base_seed=args.seed, budget=args.budget,
                            workers=args.workers, save_traces=args.save_traces,
                            out_dir=args.out)
    log.info("running %d %s executions on %s", config.executions,
             config.scheme, scenario.name)
    report = run_campaign(scenario, config)
    if args.out is None:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(summarize(report))
    return 0


def _read_report(path: str) -> CampaignReport:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return CampaignReport.from_dict(data)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ScenarioError(f"cannot read report {path}: {exc}") from exc


def _cmd_summarize(args) -> int:
    sys.stdout.write(summarize(_read_report(args.report)))
    return 0


def _cmd_plot(args) -> int:
    out = None if args.out is None else Path(args.out)
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        raise ValueError(f"cannot write {out}: not a file in a directory")
    if args.kind == "robustness":
        scenario = _load_scenario_arg(args.scenario)
        result = run_fuzzing(scenario, args.scheme, budget=args.budget,
                             seed=args.seed, record_trace=True)
        csv = robustness_curve_csv(result.trace)
    else:
        csv = scheme_comparison_csv([_read_report(p) for p in args.reports])
    if out is None:
        sys.stdout.write(csv)
    else:
        out.write_text(csv)
    return 0


def _cmd_scenario_dump(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    sys.stdout.write(scenario.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litelfuzz",
        description="Robustness-guided fuzzing for multi-agent swarm missions")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a fuzzing campaign")
    run_p.add_argument("scenario",
                       help="scenario JSON file or built-in name "
                            f"({', '.join(sorted(BUILTIN_SCENARIOS))})")
    run_p.add_argument("--scheme", choices=SCHEMES, default="sa")
    run_p.add_argument("--executions", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--budget", type=int, default=None,
                       help="test-case epochs per execution (default unlimited)")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--save-traces", action="store_true")
    run_p.add_argument("--out", default=None,
                       help="output directory for report/traces")
    run_p.set_defaults(func=_cmd_run)

    sum_p = sub.add_parser("summarize", help="summarize a saved report")
    sum_p.add_argument("report", help="report JSON file")
    sum_p.set_defaults(func=_cmd_summarize)

    plot_p = sub.add_parser("plot", help="emit CSV plot data")
    plot_sub = plot_p.add_subparsers(dest="kind", required=True)
    rob_p = plot_sub.add_parser("robustness",
                                help="swarm robustness over one execution")
    rob_p.add_argument("scenario")
    rob_p.add_argument("--scheme", choices=SCHEMES, default="sa")
    rob_p.add_argument("--seed", type=int, default=0)
    rob_p.add_argument("--budget", type=int, default=None)
    rob_p.add_argument("--out", default=None)
    rob_p.set_defaults(func=_cmd_plot)
    cmp_p = plot_sub.add_parser("schemes",
                                help="failure counts across saved reports")
    cmp_p.add_argument("reports", nargs="+")
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=_cmd_plot)

    dump_p = sub.add_parser("scenario-dump",
                            help="print a scenario's resolved JSON")
    dump_p.add_argument("scenario")
    dump_p.set_defaults(func=_cmd_scenario_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    # a name that is not a level (unknown, or such as BASIC_FORMAT) warns
    level = getattr(logging, os.environ.get("LITELFUZZ_LOG", "").upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"litelfuzz: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
