"""Campaign execution and reporting.

A campaign runs N fuzzing executions of one scheme over consecutive seeds
(base_seed .. base_seed+N-1), optionally across worker processes. Results
are keyed by seed only, so the aggregate report is byte-identical no
matter how many workers ran it. With ``save_traces`` each execution writes
its own trace file into ``out_dir`` as soon as it finishes, so no trace
text travels back with its record; the report is written once every
execution has finished. An execution that raises stops the campaign:
the traces already written stay, and no report is written.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

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
        check_run(self.scheme, self.budget, self.base_seed)
        if self.executions < 1:
            raise ValueError("executions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.save_traces and self.out_dir is None:
            raise ValueError("save_traces needs an out_dir to write to")


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
        data = {name: getattr(self, name) for name in _REPORT_FIELD_TYPES}
        data["failure_counts"] = dict(sorted(self.failure_counts.items()))
        return data

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
    """One execution's record, with its trace written when the campaign
    saves traces; an error names the execution's seed and scheme."""
    scenario, config, seed = args
    try:
        result = run_fuzzing(scenario, config.scheme, budget=config.budget,
                             seed=seed, record_trace=config.save_traces)
        if config.save_traces:
            export_trace(result.trace, Path(config.out_dir)
                         / f"trace_{config.scheme}_{seed}.jsonl")
    except Exception as exc:
        raise RuntimeError(f"execution seed={seed} scheme={config.scheme} "
                           f"failed: {exc}") from exc
    return result.to_record()


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
    if config.out_dir is not None:
        try:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"out_dir {config.out_dir}: {exc.strerror}")
    jobs = [(scenario, config, config.base_seed + k)
            for k in range(config.executions)]
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
        report.save(Path(config.out_dir) / f"report_{config.scheme}.json")
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
        records=records,
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


def _literal(value) -> str:
    """``value`` as JSON, escaped for a ``%`` template."""
    return json.dumps(value).replace("%", "%%")


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize a mission trace, one JSON object per step, keys sorted.

    A line is ``json.dumps(..., sort_keys=True)`` of the step's ``t``, its
    agents' ids, roles and ``pos``, ``vel`` and ``acc``, its ``events`` and
    its ``rob`` record (``per_agent`` ids, ``normalized`` margins and
    ``individual`` sums, ``swarm`` and ``min``), written by filling one
    template per agent layout, the swarm with or without the attacker,
    from one ``tolist()`` of each scored batch's stacked kinematics and
    margins (:meth:`Trace.scored`). A float is written as its ``repr``,
    as ``json.dumps`` writes it, which is valid JSON because every number
    is finite: integration raises :class:`InvalidState` on a non-finite
    state, and every margin substitutes a full margin where it has no data
    (no peer in sight, fewer than two goal distances in its window).
    """
    messages: dict[int, list[str]] = {}
    for step, message in trace.events:
        messages.setdefault(step, []).append(message)
    events = {step: json.dumps(texts) for step, texts in messages.items()}
    lines = []
    for steps, agents, rows, margins in trace.scored():
        columns, dim = rows.position.shape[1:]
        vector = "[" + ", ".join(["%r"] * dim) + "]"
        entries = [f'{{"acc": {vector}, "id": {_literal(a.id)}, "pos": '
                   f'{vector}, "role": {_literal(a.role)}, "vel": {vector}}}'
                   for a in rows.layout.agents]
        scores = ", ".join(
            f'{{"id": {_literal(i)}, "individual": %r, "normalized": '
            f'[%r, %r, %r, %r, %r]}}' for i in margins.ids)
        tail = (f'], "events": %s, "rob": {{"min": %r, "per_agent": '
                f'[{scores}], "swarm": %r}}, "t": %d}}')
        # a step's agents are the leading columns of its row
        templates = {n: '{"agents": [' + ", ".join(entries[:n]) + tail
                     for n in set(agents)}
        values = np.concatenate([
            np.stack([rows.acceleration, rows.position, rows.velocity],
                     axis=2).reshape(len(steps), -1),
            margins.lowest[:, None],
            np.concatenate([margins.individual[..., None],
                            margins.normalized], axis=2).reshape(
                                len(steps), -1)], axis=1).tolist()
        scored = 3 * dim * columns      # where the scores start in a row
        for row, swarm, t, n in zip(values, margins.swarm, steps, agents):
            lines.append(templates[n] % (
                *row[:3 * dim * n], events.get(t, "[]"), *row[scored:],
                swarm, t))
    return "\n".join(lines) + "\n" if lines else ""


def export_trace(trace: Trace, path) -> None:
    Path(path).write_text(trace_to_jsonl(trace))


def robustness_curve_csv(trace: Trace) -> str:
    """Per-iteration swarm robustness curve, for plotting."""
    lines = ["iteration,swarm_robustness,min_margin"]
    for steps, _, _, margins in trace.scored():
        lines += [f"{t},{swarm:.9g},{low:.9g}" for t, swarm, low
                  in zip(steps, margins.swarm, margins.lowest.tolist())]
    return "\n".join(lines) + "\n"


def scheme_comparison_csv(reports: list[CampaignReport]) -> str:
    """Failure counts per scheme, for bar-chart style comparison."""
    lines = ["scheme,executions,failures,failure_rate"]
    for report in reports:
        lines.append(f"{report.scheme},{report.executions},"
                     f"{report.failures},{report.failure_rate:.6f}")
    return "\n".join(lines) + "\n"
