"""CLI behaviour: commands, exit codes and logging env var."""
import json
import os
import subprocess
import sys

import pytest

from litelfuzz.cli import main
from litelfuzz.scenarios import a1_navigate, a2_search


def test_run_to_stdout(capsys):
    assert main(["run", "a1_navigate", "--scheme", "random",
                 "--executions", "1", "--budget", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scheme"] == "random"
    assert data["executions"] == 1


def test_run_writes_report_and_traces(tmp_path, capsys):
    out = tmp_path / "campaign"
    assert main(["run", "a1_navigate", "--scheme", "random",
                 "--executions", "2", "--budget", "1",
                 "--save-traces", "--out", str(out)]) == 0
    report = json.loads((out / "report_random.json").read_text())
    assert report["executions"] == 2
    traces = sorted(out.glob("trace_random_*.jsonl"))
    assert len(traces) == 2
    summary = capsys.readouterr().out
    assert "failure_rate" in summary


def test_save_traces_without_out_exits_2(capsys):
    assert main(["run", "a1_navigate", "--scheme", "random",
                 "--executions", "1", "--budget", "1", "--save-traces"]) == 2
    assert "save_traces needs an out_dir" in capsys.readouterr().err


def test_run_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "a1_navigate", "--budget", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out) in err
    assert "Traceback" not in err


def test_run_accepts_scenario_file(tmp_path, capsys):
    path = tmp_path / "scn.json"
    a1_navigate().save(path)
    assert main(["run", str(path), "--scheme", "random",
                 "--executions", "1", "--budget", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["executions"] == 1


def test_missing_scenario_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_invalid_scenario_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("content", [b'\xff\xfe{}', b'{"name": '],
                         ids=["not-utf8", "truncated"])
def test_unreadable_scenario_names_its_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["scenario-dump", str(path)]) == 2
    assert f"cannot read scenario {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "scenario-dump"])
def test_repeated_key_exits_2(tmp_path, capsys, command):
    data = json.dumps(a1_navigate().to_dict(), indent=2)
    path = tmp_path / "repeated.json"
    path.write_text(data.replace('"dt_s": 0.05,',
                                 '"dt_s": 0.05,\n  "dt_s": 0.5,', 1))
    assert main([command, str(path)]) == 2
    assert "repeated key 'dt_s'" in capsys.readouterr().err


def test_missing_search_key_exits_2(tmp_path, capsys):
    data = a2_search().to_dict()
    del data["search"]["bounds_lo_m"]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert "search: missing required key 'bounds_lo_m'" \
        in capsys.readouterr().err


def test_search_without_targets_exits_2(tmp_path, capsys):
    data = a2_search().to_dict()
    data["search"]["targets_m"] = []
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--executions", "1", "--budget", "1"]) == 2
    assert "search: dispersal_search requires at least one entry in " \
        "targets_m" in capsys.readouterr().err


def test_untyped_lookahead_exits_2(tmp_path, capsys):
    data = a1_navigate().to_dict()
    data["fuzz"]["lookahead_steps"] = None
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--executions", "1", "--budget", "1"]) == 2
    assert "fuzz: lookahead_steps must be an integer" \
        in capsys.readouterr().err


def test_zero_speed_limit_exits_2(tmp_path, capsys):
    data = a1_navigate().to_dict()
    data["v_max_mps"] = 0
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--executions", "1", "--budget", "1"]) == 2
    assert "v_max_mps must be finite and > 0" in capsys.readouterr().err


def test_nan_collision_radius_exits_2(tmp_path, capsys):
    data = a1_navigate().to_dict()
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data).replace(
        '"collision_radius_m": 0.05', '"collision_radius_m": NaN'))
    assert main(["run", str(path), "--executions", "1", "--budget", "1"]) == 2
    assert "collision_radius_m must be finite and >= 0, got nan" \
        in capsys.readouterr().err


def test_bad_executions_exits_2(capsys):
    assert main(["run", "a1_navigate", "--executions", "0"]) == 2


def test_negative_budget_exits_2(capsys):
    assert main(["run", "a1_navigate", "--executions", "1",
                 "--budget", "-1"]) == 2
    assert "budget must be >= 0" in capsys.readouterr().err


def test_plot_negative_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["plot", "robustness", "a1_navigate", "--budget", "-1",
                 "--out", str(out)]) == 2
    assert "budget must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "a1_navigate"],
    ["run", "a1_navigate", "--executions", "2", "--workers", "2"],
    ["plot", "robustness", "a1_navigate"]])
def test_negative_seed_exits_2(argv, capsys):
    assert main(argv + ["--budget", "1", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


def test_summarize(tmp_path, capsys):
    out = tmp_path / "c"
    main(["run", "a1_navigate", "--scheme", "random", "--executions", "1",
          "--budget", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(["summarize", str(out / "report_random.json")]) == 0
    text = capsys.readouterr().out
    assert "scheme" in text and "random" in text


def test_summarize_bad_report_exits_2(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("{}")
    assert main(["summarize", str(path)]) == 2


def test_plot_robustness(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["plot", "robustness", "a1_navigate", "--scheme", "random",
                 "--budget", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,swarm_robustness,min_margin"
    assert len(lines) > 1


@pytest.mark.parametrize("where", ["missing/curve.csv", "."])
def test_plot_out_that_is_no_file_path_exits_2(tmp_path, capsys, monkeypatch,
                                              where):
    """A file in a missing directory, or a directory: the path is checked
    before the execution runs."""
    def never(*args, **kwargs):
        raise AssertionError("run_fuzzing was called")

    monkeypatch.setattr("litelfuzz.cli.run_fuzzing", never)
    out = tmp_path / where
    assert main(["plot", "robustness", "a1_navigate", "--budget", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out) in err
    assert not (tmp_path / "missing").exists()


def test_plot_schemes(tmp_path, capsys):
    out = tmp_path / "c"
    main(["run", "a1_navigate", "--scheme", "random", "--executions", "1",
          "--budget", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(["plot", "schemes", str(out / "report_random.json")]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0] == "scheme,executions,failures,failure_rate"


def test_plot_schemes_malformed_report_exits_2(tmp_path, capsys):
    out = tmp_path / "c"
    main(["run", "a1_navigate", "--scheme", "random", "--executions", "1",
          "--budget", "1", "--out", str(out)])
    report = json.loads((out / "report_random.json").read_text())
    del report["failures"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["plot", "schemes", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "failures" in err


def test_scenario_dump(capsys):
    assert main(["scenario-dump", "a2_search"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["name"].startswith("a2_search")


def test_log_env_var_controls_verbosity():
    env = dict(os.environ, LITELFUZZ_LOG="INFO")
    cmd = [sys.executable, "-m", "litelfuzz", "run", "a1_navigate",
           "--scheme", "random", "--executions", "1", "--budget", "1"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "running 1 random executions" in proc.stderr
    quiet = subprocess.run(cmd, env=dict(os.environ, LITELFUZZ_LOG="WARNING"),
                           capture_output=True, text=True)
    assert quiet.returncode == 0
    assert "running 1 random executions" not in quiet.stderr


@pytest.mark.parametrize("name", ["basic_format", "no_such_level"])
def test_log_env_var_that_names_no_level_falls_back_to_warning(name):
    cmd = [sys.executable, "-m", "litelfuzz", "scenario-dump", "a1_navigate"]
    proc = subprocess.run(cmd, env=dict(os.environ, LITELFUZZ_LOG=name),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == a1_navigate().to_json()
