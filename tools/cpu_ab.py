"""Paired in-process CPU A/B of two litelfuzz checkouts.

Run from anywhere, naming the two checkouts' roots:

    python3 tools/cpu_ab.py BASE HEAD --preset a3_navigate3d --scheme ma \\
        --seeds 11-40 --trace

Both checkouts' ``src/litelfuzz`` are imported side by side, afresh for
each repetition (``--repeat``) and in alternating import order, under the
package names ``litelfuzz_base_<rep>`` and ``litelfuzz_head_<rep>``. After
one untimed warm-up run on each, every seed runs one fuzzing execution of
budget ``BUDGET`` on each, in alternating order (BASE first on even
positions), timed in process CPU time: the execution and, with
``--trace``, writing its JSONL trace. Use an even ``--repeat`` so that
each import order runs as often. The two sides must give equal records
and equal JSONL text; the script exits 1 at the first seed where they
differ. For each repetition it prints the p50 and the total CPU per
execution of each side, on how many executions HEAD was faster and the
quartiles of the per-seed HEAD/BASE CPU ratio, the spread against which
a shift in the totals is read; its last line is one JSON object with the
same numbers.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BUDGET = 5      # test cases per execution, as in every perfbench workload


def load(root: Path, name: str):
    """The package ``src/litelfuzz`` of checkout ``root``, as ``name``."""
    init = root / "src" / "litelfuzz" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{root} holds no src/litelfuzz")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package      # its relative imports look it up
    spec.loader.exec_module(package)
    return package


def run(lf, preset: str, scheme: str, seed: int,
        trace: bool) -> tuple[float, dict, str]:
    """CPU seconds of one execution, its record and its JSONL text."""
    scenario = lf.builtin_scenario(preset)
    gc.collect()
    start = time.process_time()
    result = lf.run_fuzzing(scenario, scheme, budget=BUDGET, seed=seed,
                            record_trace=trace)
    text = lf.trace_to_jsonl(result.trace) if trace else ""
    return time.process_time() - start, result.to_record(), text


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--preset", default="a3_navigate3d")
    parser.add_argument("--scheme", default="ma")
    parser.add_argument("--seeds", type=seed_range, default="11-40",
                        help="first-last, inclusive")
    parser.add_argument("--trace", action="store_true",
                        help="record each trace and write it as JSONL")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    rounds = []
    for rep in range(args.repeat):
        # the package imported first ran about 2% faster in an A/A run of
        # one checkout against itself, so the import order alternates too
        sides = {}
        for side in ("base", "head") if rep % 2 == 0 else ("head", "base"):
            sides[side] = load(roots[side], f"litelfuzz_{side}_{rep}")
            # untimed: lazy set-up in this process
            run(sides[side], args.preset, args.scheme, args.seeds[0],
                args.trace)
        cpu = {"base": [], "head": []}
        for n, seed in enumerate(args.seeds):
            order = ("base", "head") if n % 2 == 0 else ("head", "base")
            out = {}
            for side in order:
                seconds, record, text = run(sides[side], args.preset,
                                            args.scheme, seed, args.trace)
                cpu[side].append(seconds)
                out[side] = record, text
            if out["base"] != out["head"]:
                print(f"seed {seed}: records or JSONL differ", flush=True)
                return 1
        summary = {side: {"p50_ms": 1e3 * statistics.median(times),
                          "total_s": sum(times)}
                   for side, times in cpu.items()}
        summary["head_faster"] = sum(h < b for b, h in
                                     zip(cpu["base"], cpu["head"]))
        summary["executions"] = len(args.seeds)
        summary["ratio_quartiles"] = np.percentile(
            np.divide(cpu["head"], cpu["base"]), [25, 50, 75]).tolist()
        rounds.append(summary)
        base, head = summary["base"], summary["head"]
        print(f"rep {rep + 1}: p50 {base['p50_ms']:.1f} -> "
              f"{head['p50_ms']:.1f} ms "
              f"({100 * (head['p50_ms'] / base['p50_ms'] - 1):+.1f}%), "
              f"total {base['total_s']:.2f} -> {head['total_s']:.2f} s "
              f"({100 * (head['total_s'] / base['total_s'] - 1):+.1f}%), "
              f"head faster on {summary['head_faster']} of "
              f"{summary['executions']}, head/base ratio quartiles "
              + " ".join(f"{q:.3f}" for q in summary["ratio_quartiles"]),
              flush=True)
    print(json.dumps({"preset": args.preset, "scheme": args.scheme,
                      "seeds": [args.seeds[0], args.seeds[-1]],
                      "budget": BUDGET, "trace": args.trace,
                      "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
