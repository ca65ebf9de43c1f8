#!/usr/bin/env python3
"""Smoke test of the benchmark itself on tiny corpora.

    python3 perfbench/selftest.py

Run from the root of a checkout. Asserts that
  - every workload runs untraced and traced, with `correct` true;
  - every metric BENCHMARK.json names is emitted, with its unit;
  - the traced replay's SAM body equals the CLI's 1-thread body (run.py
    reports `correct` false otherwise);
  - the input generator is deterministic for a fixed seed (and a
    different seed gives different inputs);
  - outside a full checkout the benchmark exits non-zero without
    printing a result.
Exits 0 when all hold, 1 with a diagnostic otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

SEED = 7


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS),
          "BENCHMARK.json names a workload run.py does not have")
    work_root = ROOT / ".bench_work"
    mine = work_root / "selftest"
    for d in [*work_root.glob(f"*-{SEED}-*"), mine]:
        shutil.rmtree(d, ignore_errors=True)

    for workload in bench.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p = run_bench(workload, trace)
            check(p.returncode == 0,
                  f"{workload} trace {trace} exit {p.returncode}:\n"
                  f"{p.stderr[-3000:]}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["attempted"] > 0,
                  f"{workload} trace {trace}: {result}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{workload} trace {trace}: metrics/units differ from "
                  f"BENCHMARK.json: {set(want) ^ set(got)}")
            for name, v in result["metrics"].items():
                check(isinstance(v["value"], (int, float)),
                      f"{workload}: {name} is not a number")
        print(f"selftest: {workload}: ok", flush=True)

    # Generator determinism.
    tools = bench.build(["perfbench_gen"])
    spec_p = dict(bench.WORKLOADS["paired-8m"], **bench.TINY["paired-8m"])
    outs = []
    for i, seed in enumerate((SEED, SEED, SEED + 1)):
        d = mine / f"gen{i}"
        d.mkdir(parents=True)
        bench.generate(tools, spec_p, seed, d)
        outs.append({f.name: f.read_bytes() for f in sorted(d.glob("in*"))})
    check(outs[0] == outs[1], "generator output differs for one seed")
    check(outs[0] != outs[2], "generator ignores the seed")
    print("selftest: generator: ok", flush=True)

    # Outside a full checkout: non-zero exit, no result line.
    bare = mine / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("short-8m", 0, cwd=bare)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          f"bare directory run: exit {p.returncode}, stdout {p.stdout!r}")
    print("selftest: bare checkout: ok", flush=True)

    for d in [*work_root.glob(f"*-{SEED}-*"), mine]:
        shutil.rmtree(d, ignore_errors=True)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
