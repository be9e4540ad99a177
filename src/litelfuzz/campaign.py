"""Campaign execution and reporting.

A campaign runs N fuzzing executions of one scheme over consecutive seeds
(base_seed .. base_seed+N-1), optionally across worker processes. Results
are keyed by seed only, so the aggregate report is byte-identical no
matter how many workers ran it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .fuzzing import OUTCOME_SUCCESSFUL_ATTACK, check_run, run_fuzzing
from .mission import Trace
from .world import FailureKind


@dataclass
class CampaignConfig:
    scheme: str
    executions: int
    base_seed: int = 0
    budget: Optional[int] = None      # test-case epochs per execution
    workers: int = 1
    save_traces: bool = False
    out_dir: Optional[str] = None

    def __post_init__(self):
        check_run(self.scheme, self.budget)
        if self.executions < 1:
            raise ValueError("executions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


_OPTIONAL_NUMBER = (int, float, type(None))
# every CampaignReport field with the JSON type a saved report holds for it
_REPORT_FIELD_TYPES = {
    "scheme": str, "base_seed": int, "executions": int, "failures": int,
    "failure_counts": dict, "failure_rate": (int, float),
    "mean_steps_to_failure": _OPTIONAL_NUMBER,
    "median_steps_to_failure": _OPTIONAL_NUMBER,
    "invalid_total": int, "records": list,
}


@dataclass
class CampaignReport:
    scheme: str
    base_seed: int
    executions: int
    failures: int
    failure_counts: dict[str, int]      # FailureKind value -> count
    failure_rate: float
    mean_steps_to_failure: Optional[float]
    median_steps_to_failure: Optional[float]
    invalid_total: int
    records: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "base_seed": self.base_seed,
            "executions": self.executions,
            "failures": self.failures,
            "failure_counts": dict(sorted(self.failure_counts.items())),
            "failure_rate": self.failure_rate,
            "mean_steps_to_failure": self.mean_steps_to_failure,
            "median_steps_to_failure": self.median_steps_to_failure,
            "invalid_total": self.invalid_total,
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, data) -> "CampaignReport":
        """Inverse of :meth:`to_dict`; a malformed report raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("report is not a JSON object")
        missing = [name for name in _REPORT_FIELD_TYPES if name not in data]
        if missing:
            raise ValueError(f"report lacks {', '.join(missing)}")
        for name, kind in _REPORT_FIELD_TYPES.items():
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"report field {name} has type "
                                 f"{type(value).__name__}")
        if not all(type(n) is int for n in data["failure_counts"].values()):
            raise ValueError("report field failure_counts must map each "
                             "failure kind to an integer count")
        return cls(**{name: data[name] for name in _REPORT_FIELD_TYPES})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


def _run_one(args) -> dict:
    """One execution's record; an error names the execution's seed and scheme."""
    scenario, scheme, budget, seed, save_trace = args
    try:
        result = run_fuzzing(scenario, scheme, budget=budget, seed=seed,
                             record_trace=save_trace)
        record = result.to_record()
        if save_trace and result.trace is not None:
            record["trace_jsonl"] = trace_to_jsonl(result.trace)
    except Exception as exc:
        raise RuntimeError(f"execution seed={seed} scheme={scheme} "
                           f"failed: {exc}") from exc
    return record


def run_campaign(scenario, config: CampaignConfig) -> CampaignReport:
    """Run every execution of the campaign and aggregate the outcomes.

    The scenario is checked once, as :func:`scenario_from_dict` checks a
    loaded one, and every execution runs that checked copy. Scenario state
    never leaks between executions: each one rebuilds the world from the
    seed. With ``workers > 1`` executions are distributed over processes;
    results are reassembled in seed order.
    """
    from .scenarios import scenario_from_dict
    scenario = scenario_from_dict(scenario.to_dict())
    seeds = [config.base_seed + k for k in range(config.executions)]
    jobs = [(scenario, config.scheme, config.budget, seed,
             config.save_traces) for seed in seeds]
    if config.workers > 1:
        # imported here: a fresh interpreter spends tens of milliseconds on
        # it, which a single-process campaign need not pay
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_run_one, jobs, chunksize=1))
    else:
        records = [_run_one(job) for job in jobs]
    records.sort(key=lambda r: r["seed"])
    report = summarize_records(config.scheme, config.base_seed, records)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.save(out / f"report_{config.scheme}.json")
        if config.save_traces:
            for record in records:
                text = record.pop("trace_jsonl", None)
                if text is not None:
                    name = f"trace_{config.scheme}_{record['seed']}.jsonl"
                    (out / name).write_text(text)
    return report


def summarize_records(scheme: str, base_seed: int,
                      records: list[dict]) -> CampaignReport:
    import statistics
    failures = [r for r in records if r["outcome"] == OUTCOME_SUCCESSFUL_ATTACK]
    counts = {kind.value: 0 for kind in FailureKind}
    for r in failures:
        counts[r["failure_kind"]] += 1
    steps = [r["steps_to_failure"] for r in failures
             if r["steps_to_failure"] is not None]
    clean = [dict(r) for r in records]
    for r in clean:
        r.pop("trace_jsonl", None)
    return CampaignReport(
        scheme=scheme,
        base_seed=base_seed,
        executions=len(records),
        failures=len(failures),
        failure_counts={k: v for k, v in counts.items() if v},
        failure_rate=len(failures) / len(records) if records else 0.0,
        mean_steps_to_failure=statistics.mean(steps) if steps else None,
        median_steps_to_failure=statistics.median(steps) if steps else None,
        invalid_total=sum(r["invalid_count"] for r in records),
        records=clean,
    )


def summarize(report: CampaignReport) -> str:
    """Human-readable summary table for one campaign report."""
    lines = [
        f"scheme             {report.scheme}",
        f"executions         {report.executions}",
        f"failures           {report.failures}",
        f"failure_rate       {report.failure_rate:.4f}",
    ]
    for kind, count in sorted(report.failure_counts.items()):
        share = count / report.failures if report.failures else 0.0
        lines.append(f"  {kind:<16} {count} ({100.0 * share:.2f}%)")
    if report.mean_steps_to_failure is not None:
        lines.append(f"mean_steps_to_failure   {report.mean_steps_to_failure:.1f}")
        lines.append(f"median_steps_to_failure {report.median_steps_to_failure:.1f}")
    lines.append(f"invalid_total      {report.invalid_total}")
    return "\n".join(lines) + "\n"


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize a mission trace, one JSON object per step."""
    events_by_step: dict[int, list[str]] = {}
    for step, message in trace.events:
        events_by_step.setdefault(step, []).append(message)
    lines = []
    # snapshots[0] is the initial world; robustness[k] matches snapshots[k+1]
    for k, record in enumerate(trace.robustness):
        world = trace.snapshots[k + 1]
        obj = {
            "t": world.step_index,
            "agents": [
                {"id": a.id,
                 "pos": a.position.tolist(),
                 "vel": a.velocity.tolist(),
                 "acc": a.acceleration.tolist(),
                 "role": a.role}
                for a in world.agents
            ],
            "events": events_by_step.get(world.step_index, []),
            "rob": {
                "per_agent": [
                    {"id": ar.agent_id,
                     "normalized": [float(x) for x in ar.normalized],
                     "individual": float(ar.individual)}
                    for ar in record.per_agent
                ],
                "swarm": float(record.swarm),
                "min": float(record.min_margin),
            },
        }
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def export_trace(trace: Trace, path) -> None:
    Path(path).write_text(trace_to_jsonl(trace))


def robustness_curve_csv(trace: Trace) -> str:
    """Per-iteration swarm robustness curve, for plotting."""
    lines = ["iteration,swarm_robustness,min_margin"]
    for k, record in enumerate(trace.robustness):
        lines.append(f"{trace.snapshots[k + 1].step_index},"
                     f"{record.swarm:.9g},{record.min_margin:.9g}")
    return "\n".join(lines) + "\n"


def scheme_comparison_csv(reports: list[CampaignReport]) -> str:
    """Failure counts per scheme, for bar-chart style comparison."""
    lines = ["scheme,executions,failures,failure_rate"]
    for report in reports:
        lines.append(f"{report.scheme},{report.executions},"
                     f"{report.failures},{report.failure_rate:.6f}")
    return "\n".join(lines) + "\n"
