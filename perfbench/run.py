"""Campaign benchmark: end-to-end throughput and yield, plus a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload a1_sa --seed 1 --seconds 50 --trace 0

Each workload is one closed-loop campaign through ``run_campaign``: the
campaign is the only client, at the workload's worker count, and runs a
fixed number of executions over consecutive seeds from ``--seed`` (the
base seed). The number of executions is ``--seconds`` times the
workload's rate at the commit that defined the benchmark, so a run lasts
about ``--seconds`` there and later commits run the identical inputs.

``--trace 0`` measures the end-to-end metrics with tracing off, after a
short untimed warm-up. ``--trace 1`` runs half as many executions (the
same first seeds) untraced, then again single-process with a span around
every call into each module (see ``spans.py``), and reports the
per-layer metrics. ``--workload all`` runs every workload in
turn; a workload that raises does not stop the others.

The human-readable report goes to stdout; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passed, 1 when a check
or an execution failed and 2 when the checkout holds no litelfuzz source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

BUDGET = 5            # test-case epochs per execution, as in criteria 1-3
SETUP_REPEATS = 5     # before the campaign, and one fewer after it
WARM_UP = 2           # untimed executions before the timed campaign
TRACED_SHARE = 2      # --trace 1 runs 1/TRACED_SHARE of the executions
EXEC_KEY = "_perfbench_exec_s"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    scheme: str
    workers: int
    save_traces: bool
    rate: float        # executions per second at the defining commit

    def executions(self, seconds: float) -> int:
        return max(2, round(seconds * self.rate))


# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {w.name: w for w in [
    Workload("a1_sa", "a1_navigate", "sa", 1, False, 5.5),
    Workload("a3_ma_traced_w2", "a3_navigate3d", "ma", 2, True, 3.1),
]}

SPANS = [
    "fuzzing.lookahead_score", "fuzzing.spawn_candidates",
    "mission.step", "mission.clone", "robustness.swarm_robustness",
    "controllers.commands.mission", "controllers.commands.influence",
    "controllers.update", "world.integrate_step", "world.detect_failure",
    "influence.build_influence_graph", "influence.key_node_sequence",
    "planner.plan_path", "campaign.trace_to_jsonl",
    "scenarios.scenario_from_dict", "scenarios.build_simulation",
]

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import litelfuzz
litelfuzz.builtin_scenario(sys.argv[2])
print(time.perf_counter() - t0)
"""


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _run_one_timed(args) -> dict:
    """``campaign._run_one`` timed from outside, in the worker that runs it."""
    start = time.perf_counter()
    record = _ORIGINAL_RUN_ONE(args)
    record[EXEC_KEY] = time.perf_counter() - start
    return record


_ORIGINAL_RUN_ONE = None


def fingerprint(records: list[dict]) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def measure_setup(scenario: str, repeats: int) -> list[float]:
    """Seconds to import the package and build the scenario, each fresh."""
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                              scenario], capture_output=True, text=True,
                             check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def warm_up(lf, workload: Workload, base_seed: int) -> None:
    """Untimed executions, so lazy set-up in this process is not timed."""
    config = lf.campaign.CampaignConfig(
        scheme=workload.scheme, executions=WARM_UP, base_seed=base_seed,
        budget=BUDGET, workers=1)
    lf.campaign.run_campaign(lf.builtin_scenario(workload.scenario), config)


def run_measured(lf, workload: Workload, base_seed: int, executions: int,
                 workers: int, out_dir: str | None, timed: bool):
    """One ``run_campaign`` call; returns (report, wall_s, per-exec seconds)."""
    global _ORIGINAL_RUN_ONE
    config = lf.campaign.CampaignConfig(
        scheme=workload.scheme, executions=executions, base_seed=base_seed,
        budget=BUDGET, workers=workers, save_traces=workload.save_traces,
        out_dir=out_dir)
    scenario = lf.builtin_scenario(workload.scenario)
    if timed:
        _ORIGINAL_RUN_ONE = lf.campaign._run_one
        lf.campaign._run_one = _run_one_timed
    try:
        start = time.perf_counter()
        report = lf.campaign.run_campaign(scenario, config)
        wall = time.perf_counter() - start
    finally:
        if timed:
            lf.campaign._run_one = _ORIGINAL_RUN_ONE
    times = [r.pop(EXEC_KEY) for r in report.records] if timed else []
    return report, wall, times


def check_outputs(lf, workload: Workload, base_seed: int, executions: int,
                  report, out_dir: str | None) -> None:
    records = report.records
    seeds = [r["seed"] for r in records]
    if seeds != list(range(base_seed, base_seed + executions)):
        raise CheckFailed(f"records cover seeds {seeds[:3]}..., expected "
                          f"{executions} from {base_seed}")
    again = lf.campaign.summarize_records(workload.scheme, base_seed, records)
    if again.to_dict() != report.to_dict():
        raise CheckFailed("report aggregates differ from summarize_records "
                          "recomputed from its records")
    if workload.save_traces:
        for r in records:
            path = Path(out_dir) / f"trace_{workload.scheme}_{r['seed']}.jsonl"
            rows = len(path.read_text().splitlines())
            if rows != r["total_steps"]:
                raise CheckFailed(f"{path.name}: {rows} rows for "
                                  f"{r['total_steps']} simulated steps")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def baseline_fingerprint(workload: str, seed: int, executions: int):
    if not BASELINE.exists():
        return None
    table = json.loads(BASELINE.read_text()).get("fingerprints", {})
    return table.get(workload, {}).get(f"seed={seed},executions={executions}")


def machine() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pool_start_method": multiprocessing.get_start_method()}


def yield_lines(report) -> list[str]:
    """Fuzzing yield and error accounting, printed for every workload."""
    mean_steps = report.mean_steps_to_failure
    return [
        f"  attack_success_rate   {report.failure_rate:.4f}   "
        f"({report.failures}/{report.executions} SuccessfulAttack)",
        "  mean_steps_to_failure " + (f"{mean_steps:.2f} steps" if mean_steps
                                      is not None else "n/a (no failures)"),
    ]


def end_to_end(lf, workload: Workload, seed: int, executions: int,
               work: Path) -> dict:
    # set-up samples taken a minute apart ride out short bursts of load
    # from other tenants of the machine
    setup = measure_setup(workload.scenario, SETUP_REPEATS)
    warm_up(lf, workload, seed)
    out_dir = tempfile.mkdtemp(dir=work) if workload.save_traces else None
    report, wall, times = run_measured(lf, workload, seed, executions,
                                       workload.workers, out_dir, timed=True)
    setup += measure_setup(workload.scenario, SETUP_REPEATS - 1)
    check_outputs(lf, workload, seed, executions, report, out_dir)
    digest = fingerprint(report.records)
    known = baseline_fingerprint(workload.name, seed, executions)
    steps = sum(r["total_steps"] for r in report.records)
    metrics = {
        "steps_per_s": (steps / wall, "steps/s"),
        "exec_ms_p50": (1000 * statistics.median(times), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    # Printed, not gated: execution time is heavy-tailed (an a1_navigate
    # execution that finds no failure runs the whole mission under
    # lookahead), so executions per second and p90 move with the share of
    # long executions in the seed block by more than any bound. Steps per
    # second moves far less, because an execution's time follows its step
    # count. Yield is 0 or undefined on workloads that find no failure.
    p90 = quantile(times, 90)
    above = sum(t > p90 for t in times)
    print(f"  executions {executions} over seeds {seed}..{seed + executions - 1}"
          f", {workload.workers} worker(s), campaign wall {wall:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<21} {value:.6g} {unit}")
    print(f"  exec_per_s            {executions / wall:.6g} 1/s ({steps} "
          f"mission steps)")
    print(f"  exec_ms_p90           {1000 * p90:.6g} ms ({len(times)} "
          f"executions, {above} above it)")
    print("\n".join(yield_lines(report)))
    print(f"  error_rate            0 (0 of {executions} executions raised)")
    print(f"  fingerprint {digest} "
          + ("(no baseline for this seed)" if known is None
             else "(matches baseline)" if known == digest
             else f"(MOVED: baseline {known})"))
    return metrics


def per_layer(lf, workload: Workload, seed: int, executions: int,
              work: Path) -> dict:
    import spans
    warm_up(lf, workload, seed)
    untraced_dir = tempfile.mkdtemp(dir=work) if workload.save_traces else None
    report_u, wall_u, times = run_measured(lf, workload, seed, executions,
                                           workload.workers, untraced_dir,
                                           timed=True)
    check_outputs(lf, workload, seed, executions, report_u, untraced_dir)
    traced_dir = tempfile.mkdtemp(dir=work) if workload.save_traces else None
    tracer = spans.Tracer()
    with spans.installed(tracer):
        report_t, wall_t, _ = run_measured(lf, workload, seed, executions, 1,
                                           traced_dir, timed=False)
    leftover = spans.unrestored()
    if leftover:
        raise CheckFailed(f"wrappers left installed: {leftover}")
    check_outputs(lf, workload, seed, executions, report_t, traced_dir)
    if fingerprint(report_t.records) != fingerprint(report_u.records):
        raise CheckFailed(f"traced 1-worker records differ from untraced "
                          f"{workload.workers}-worker records")

    metrics = {}
    attributed = 0.0
    for name in SPANS:
        stats = tracer.stats.get(name, spans.SpanStats())
        attributed += stats.self_s
        metrics[f"{name}.calls"] = (stats.calls, "count")
        metrics[f"{name}.self_ms"] = (1000 * stats.self_s, "ms")
        metrics[f"{name}.share"] = (stats.total_s / wall_t, "ratio")
    rob = tracer.stats.get("robustness.swarm_robustness", spans.SpanStats())
    lookahead_calls = metrics["fuzzing.lookahead_score.calls"][0]
    chosen = sum(len(r["test_cases"]) for r in report_t.records)
    counters = tracer.counters
    metrics.update({
        "robustness.swarm_robustness.us_per_call":
            (1e6 * rob.self_s / rob.calls if rob.calls else 0.0, "us"),
        "fuzzing.probe_step_share":
            (counters.get("probe_steps", 0) / counters["steps"], "ratio"),
        # no lookahead at all wastes no speculative work: report 0
        "fuzzing.epochs_per_probe":
            (chosen / lookahead_calls if lookahead_calls else 0.0, "ratio"),
        "planner.plan_path.infeasible": (counters.get("infeasible", 0), "count"),
        "campaign.trace_bytes": (counters.get("trace_bytes", 0), "bytes"),
        "campaign.parallel_efficiency":
            (sum(times) / (workload.workers * wall_u), "ratio"),
        "unattributed.share": (1.0 - attributed / wall_t, "ratio"),
        "trace.overhead": (wall_t / sum(times), "ratio"),
    })
    print(f"  executions {executions} over seeds {seed}..{seed + executions - 1}"
          f"; untraced {workload.workers} worker(s) {wall_u:.3f} s "
          f"(sum of executions {sum(times):.3f} s); traced 1 worker "
          f"{wall_t:.3f} s; records identical")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    print("\n".join(yield_lines(report_t)))
    return metrics


def run_workload(lf, workload: Workload, args, work: Path):
    """(metrics, attempted, failed, correct) for one workload."""
    # the traced run is single-process, so it takes fewer executions to
    # stay within the run's time limit at two workers
    executions = workload.executions(
        args.seconds / TRACED_SHARE if args.trace else args.seconds)
    print(f"== {workload.name}: {workload.scenario}, scheme {workload.scheme}, "
          f"budget {BUDGET}, workers {workload.workers}, traces "
          f"{'on' if workload.save_traces else 'off'}, trace {args.trace}")
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(lf, workload, args.seed, executions, work)
    except CheckFailed as exc:
        print(f"  CHECK FAILED: {exc}")
        return {}, executions, 0, False
    except Exception:
        # a campaign that raises fails every one of its executions
        print(f"  ERROR: campaign raised; error_rate 1 "
              f"({executions} of {executions} executions)")
        traceback.print_exc(file=sys.stdout)
        return {}, executions, executions, False
    return metrics, executions, 0, True


def import_package():
    if not (SRC / "litelfuzz" / "__init__.py").is_file():
        print(f"no litelfuzz source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import litelfuzz
    import litelfuzz.campaign
    if Path(litelfuzz.__file__).resolve().parent != SRC / "litelfuzz":
        print(f"imported litelfuzz from {litelfuzz.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return litelfuzz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="base seed: executions use seed, seed+1, ...")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    lf = import_package()

    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    chosen = list(WORKLOADS.values()) if args.workload == "all" \
        else [WORKLOADS[args.workload]]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for workload in chosen:
            found, tried, bad, ok = run_workload(lf, workload, args, work)
            prefix = f"{workload.name}." if len(chosen) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in found.items()})
            attempted += tried
            failed += bad
            correct = correct and ok
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass            # another run still uses it
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
