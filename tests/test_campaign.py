"""Campaign aggregation, serialization and worker-invariance tests."""
import json

import pytest
from trace_oracle import traced_worlds

import litelfuzz.campaign
from litelfuzz.campaign import (CampaignConfig, CampaignReport,
                                robustness_curve_csv,
                                run_campaign, scheme_comparison_csv,
                                summarize, summarize_records, trace_to_jsonl)
from litelfuzz.fuzzing import OUTCOME_SUCCESSFUL_ATTACK, run_fuzzing
from litelfuzz.robustness import RobustnessRecord
from litelfuzz.scenarios import a1_navigate


def fake_record(seed, kind=None, steps=None):
    return {
        "seed": seed,
        "outcome": OUTCOME_SUCCESSFUL_ATTACK if kind else "SecureAtBudget",
        "failure_kind": kind,
        "steps_to_failure": steps,
        "invalid_count": 0,
        "test_cases": [],
    }


class TestConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            CampaignConfig(scheme="nope", executions=1)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            CampaignConfig(scheme="sa", executions=0)
        with pytest.raises(ValueError):
            CampaignConfig(scheme="sa", executions=1, workers=0)
        with pytest.raises(ValueError, match="budget"):
            CampaignConfig(scheme="sa", executions=1, budget=-1)
        assert CampaignConfig(scheme="sa", executions=1, budget=0).budget == 0

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            CampaignConfig(scheme="sa", executions=1, base_seed=-1)
        with pytest.raises(ValueError, match="seed"):
            run_fuzzing(a1_navigate(), "sa", budget=1, seed=-1)
        assert CampaignConfig(scheme="sa", executions=1).base_seed == 0

    def test_save_traces_needs_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            CampaignConfig(scheme="sa", executions=1, save_traces=True)


class TestAggregation:
    def test_accounting_invariant(self):
        records = ([fake_record(s, "DronesCollide", 40 + s) for s in range(3)]
                   + [fake_record(s + 3) for s in range(5)])
        report = summarize_records("sa", 0, records)
        assert report.executions == 8
        assert report.failures == 3
        assert sum(report.failure_counts.values()) == report.failures
        assert report.failures + (report.executions - report.failures) \
            == report.executions
        assert report.failure_rate == pytest.approx(3 / 8)
        assert report.mean_steps_to_failure == pytest.approx(41.0)

    def test_empty_failure_kinds_dropped(self):
        report = summarize_records("sa", 0, [fake_record(0)])
        assert report.failure_counts == {}
        assert report.mean_steps_to_failure is None

    def test_taxonomy_share_arithmetic(self):
        # published-style tallies: 1803 failures, 181 drone collisions,
        # 1622 obstacle crashes; shares must match plain division to 2 dp
        records = ([fake_record(s, "DronesCollide", 50) for s in range(181)]
                   + [fake_record(181 + s, "ObstacleCrash", 50)
                      for s in range(1622)])
        report = summarize_records("sa", 0, records)
        text = summarize(report)
        assert f"{100 * 181 / 1803:.2f}%" in text      # 10.04%
        assert f"{100 * 1622 / 1803:.2f}%" in text     # 89.96% (not 89.94%)
        assert report.failure_counts == {"DronesCollide": 181,
                                         "ObstacleCrash": 1622}

    def test_report_json_round_trip(self, tmp_path):
        records = [fake_record(0, "Timeout", 120), fake_record(1)]
        report = summarize_records("random", 5, records)
        path = tmp_path / "report.json"
        report.save(path)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report.to_dict(), sort_keys=True))


class TestReportFromDict:
    def report(self):
        return summarize_records("sa", 0, [fake_record(0, "ObstacleCrash", 7),
                                           fake_record(1)])

    def test_round_trip(self):
        report = self.report()
        data = json.loads(report.to_json())
        assert CampaignReport.from_dict(data) == report

    @pytest.mark.parametrize("change", [
        lambda d: d.pop("scheme"),
        lambda d: d.update(failure_counts=[]),
        lambda d: d.update(executions="2"),
        lambda d: d.update(failures=True),
        lambda d: d.update(failure_counts={"ObstacleCrash": "1"}),
    ])
    def test_malformed_raises_value_error(self, change):
        data = self.report().to_dict()
        change(data)
        with pytest.raises(ValueError):
            CampaignReport.from_dict(data)

    def test_non_object_raises_value_error(self):
        with pytest.raises(ValueError):
            CampaignReport.from_dict([])


class TestWorkerInvariance:
    def test_reports_and_traces_byte_identical(self, tmp_path):
        scn = a1_navigate()
        outs = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            cfg = CampaignConfig(scheme="random", executions=4, base_seed=11,
                                 budget=1, workers=workers, save_traces=True,
                                 out_dir=str(out))
            run_campaign(scn, cfg)
            outs.append(out)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2 and len(files1) >= 2
        for name in files1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestTraceExports:
    def setup_method(self):
        with traced_worlds() as worlds:
            self.result = run_fuzzing(a1_navigate(), "random", budget=1,
                                      seed=0, record_trace=True)
        # the worlds the run stepped through, after each step
        self.worlds = worlds[self.result.trace]

    def test_jsonl_row_per_step(self):
        text = trace_to_jsonl(self.result.trace)
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == len(self.worlds)
        for row in rows:
            assert {"t", "agents", "events", "rob"} <= row.keys()

    def test_jsonl_matches_in_memory_values(self):
        text = trace_to_jsonl(self.result.trace)
        rows = [json.loads(line) for line in text.splitlines()]
        for row, record, world in zip(rows, self.result.trace.robustness,
                                      self.worlds, strict=True):
            assert row["rob"]["swarm"] == pytest.approx(record.swarm)
            assert row["t"] == world.step_index
            for entry, agent in zip(row["agents"], world.agents, strict=True):
                assert entry["pos"] == pytest.approx(list(agent.position))

    def test_curve_csv(self):
        csv = robustness_curve_csv(self.result.trace)
        assert csv == "iteration,swarm_robustness,min_margin\n" + "".join(
            f"{world.step_index},{record.swarm:.9g},{record.min_margin:.9g}\n"
            for world, record in zip(self.worlds,
                                     self.result.trace.robustness,
                                     strict=True))
        # one line per step, numbered by the step index from 1
        assert [line.split(",")[0] for line in csv.splitlines()[1:]] \
            == [str(k) for k in range(1, len(self.worlds) + 1)]

    def test_traced_campaign_and_exports_build_no_record(self, tmp_path,
                                                         monkeypatch):
        """Probes, trace files and the curve read the stacked margins; only
        ``Trace.robustness`` builds records."""
        built = []
        init = RobustnessRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RobustnessRecord, "__init__", counted)
        run_campaign(a1_navigate(), CampaignConfig(
            scheme="sa", executions=2, budget=2, save_traces=True,
            out_dir=str(tmp_path)))
        trace = run_fuzzing(a1_navigate(), "ma", budget=2, seed=0,
                            record_trace=True).trace
        trace_to_jsonl(trace)
        robustness_curve_csv(trace)
        assert built == []
        assert len(trace.robustness) == len(built) > 0

    def test_scheme_comparison_csv(self):
        r1 = summarize_records("sa", 0, [fake_record(0, "Timeout", 10)])
        r2 = summarize_records("random", 0, [fake_record(0)])
        csv = scheme_comparison_csv([r1, r2])
        lines = csv.splitlines()
        assert lines[0] == "scheme,executions,failures,failure_rate"
        assert lines[1].startswith("sa,1,1,")
        assert lines[2].startswith("random,1,0,")


def test_failing_execution_names_seed_and_scheme(monkeypatch):
    real = litelfuzz.campaign.run_fuzzing

    def run_fuzzing(scenario, scheme, seed, **kwargs):
        if seed == 12:
            raise ValueError("boom")
        return real(scenario, scheme, seed=seed, **kwargs)

    monkeypatch.setattr(litelfuzz.campaign, "run_fuzzing", run_fuzzing)
    config = CampaignConfig(scheme="random", executions=4, base_seed=10,
                            budget=1)
    with pytest.raises(RuntimeError) as info:
        run_campaign(a1_navigate(), config)
    assert str(info.value) == "execution seed=12 scheme=random failed: boom"
    assert isinstance(info.value.__cause__, ValueError)
