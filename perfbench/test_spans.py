"""Tests of the benchmark's span arithmetic and wrapper hygiene.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import litelfuzz.fuzzing  # noqa: E402
import litelfuzz.mission  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_children():
    # parent 0..10 holds child 1..4 (which holds grandchild 2..3) and a
    # second child 5..6
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    tracer.enter("parent")
    tracer.enter("child")
    tracer.enter("grandchild")
    tracer.exit()
    tracer.exit()
    tracer.enter("child")
    tracer.exit()
    tracer.exit()
    stats = tracer.stats
    assert (stats["parent"].calls, stats["parent"].total_s,
            stats["parent"].self_s) == (1, 10, 6)
    assert (stats["child"].calls, stats["child"].total_s,
            stats["child"].self_s) == (2, 4, 3)
    assert (stats["grandchild"].total_s, stats["grandchild"].self_s) == (1, 1)


def test_wrappers_removed_after_block_even_on_error():
    originals = {attr: vars(litelfuzz.fuzzing)[attr]
                 for attr in ("lookahead_score", "plan_path")}
    step = vars(litelfuzz.mission.Simulation)["step"]
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert spans.unrestored() == [
                f"{path}.{attr}" for path, attr, _ in spans.PATCH_POINTS]
            raise RuntimeError("campaign failed")
    assert spans.unrestored() == []
    for attr, fn in originals.items():
        assert getattr(litelfuzz.fuzzing, attr) is fn
    assert vars(litelfuzz.mission.Simulation)["step"] is step


def test_commands_split_by_caller_and_probe_steps_counted():
    from litelfuzz import a1_navigate, run_fuzzing
    plain = run_fuzzing(a1_navigate(), "sa", budget=1, seed=0).to_record()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run_fuzzing(a1_navigate(), "sa", budget=1,
                             seed=0).to_record()
    assert traced == plain
    stats = tracer.stats
    assert stats["controllers.commands.influence"].calls > 0
    assert stats["controllers.commands.mission"].calls \
        == stats["mission.step"].calls
    assert 0 < tracer.counters["probe_steps"] < tracer.counters["steps"]
    assert tracer.counters["steps"] == stats["mission.step"].calls
