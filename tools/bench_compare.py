#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench sweep against a committed
baseline (BENCH_kernel.json / BENCH_seed.json) with noise-aware
thresholds.

Sweep documents are the schema-versioned JSON grids the bench binaries
emit via --out=FILE (schema "seedex.bench_sweep/v1"). Cells are matched
by identity keys (qlen/band/isa for the kernel sweep, genome/config/batch
for the seeding sweep); cells present on only one side produce warnings,
not failures, so sweeps can grow.

Metrics come in two classes:
  ratio -- machine-independent (speedups, per-read work counts).
           Compared at the requested --threshold as-is.
  time  -- wall-clock rates (ns/extension, reads/s). Inherently noisier;
           they get an extra noise allowance on top of --threshold, and
           --ratios-only skips them entirely (the CI gate runs on
           machines unrelated to the baseline host).

Exit codes: 0 = no regression, 1 = regression(s) found, 2 = usage or
input error.

Usage:
  tools/bench_compare.py --baseline BENCH_kernel.json --candidate new.json
  tools/bench_compare.py --baseline BENCH_seed.json --candidate new.json \
      --ratios-only --threshold 0.60
  tools/bench_compare.py --self-test
"""

import argparse
import json
import sys

SCHEMA = "seedex.bench_sweep/v1"


class Metric:
    """One compared column: direction, class, and noise allowance."""

    def __init__(self, name, higher_is_better, kind, noise=0.0):
        assert kind in ("ratio", "time")
        self.name = name
        self.higher_is_better = higher_is_better
        self.kind = kind
        # Extra fractional tolerance on top of --threshold (time-class
        # metrics jitter with the host even on quiet machines).
        self.noise = noise


class TableSpec:
    """One array of cells in the sweep document."""

    def __init__(self, path, keys, metrics):
        self.path = path  # name of the array member
        self.keys = keys  # identity-key members of each cell
        self.metrics = metrics


class BenchSpec:
    def __init__(self, bench, tables, headline):
        self.bench = bench
        self.tables = tables
        self.headline = headline  # top-level Metric list


TIME_NOISE = 0.05

SPECS = {
    "bench_kernel": BenchSpec(
        "bench_kernel",
        tables=[
            TableSpec(
                "extension",
                keys=("qlen", "band", "isa"),
                metrics=[
                    Metric("ns_per_extension", False, "time", TIME_NOISE),
                    Metric("gcells_per_s", True, "time", TIME_NOISE),
                    Metric("speedup_vs_scalar", True, "ratio"),
                ],
            ),
            TableSpec(
                "gotoh",
                keys=("qlen", "band", "isa"),
                metrics=[
                    Metric("ns_per_extension", False, "time", TIME_NOISE),
                    Metric("gcells_per_s", True, "time", TIME_NOISE),
                    Metric("speedup_vs_scalar", True, "ratio"),
                ],
            ),
        ],
        headline=[Metric("speedup_101bp_band41", True, "ratio")],
    ),
    "bench_seed": BenchSpec(
        "bench_seed",
        tables=[
            TableSpec(
                "cells",
                keys=("genome_bp", "config", "batch"),
                metrics=[
                    Metric("reads_per_s", True, "time", TIME_NOISE),
                    Metric("mbases_per_s", True, "time", TIME_NOISE),
                    # Deterministic algorithmic work: more occ calls per
                    # read means the k-mer table / batching regressed.
                    Metric("occ_calls_per_read", False, "ratio"),
                    Metric("speedup_vs_naive", True, "ratio"),
                ],
            ),
        ],
        headline=[Metric("headline_speedup", True, "ratio")],
    ),
    "bench_threads": BenchSpec(
        "bench_threads",
        tables=[
            TableSpec(
                "cells",
                keys=("threads", "batch"),
                metrics=[
                    # Modeled from per-thread CPU time (sum of worker
                    # CPU / busiest worker), so portable across hosts;
                    # still CPU-measured, hence a small noise allowance.
                    Metric("modeled_speedup", True, "ratio",
                           noise=0.05),
                    Metric("modeled_efficiency", True, "ratio",
                           noise=0.05),
                    Metric("reads_per_s", True, "time", TIME_NOISE),
                    Metric("wall_seconds", False, "time", TIME_NOISE),
                ],
            ),
        ],
        headline=[
            Metric("modeled_speedup_8t", True, "ratio", noise=0.05),
            Metric("modeled_efficiency_8t", True, "ratio", noise=0.05),
        ],
    ),
}


def load_doc(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    schema = doc.get("schema")
    if schema is not None and schema != SCHEMA:
        raise SystemExit(
            f"bench_compare: {path}: unsupported schema {schema!r} "
            f"(expected {SCHEMA})")
    if "bench" not in doc:
        raise SystemExit(f"bench_compare: {path}: missing 'bench' member")
    return doc


def cell_key(cell, keys):
    return tuple(cell.get(k) for k in keys)


def fmt_key(keys, key):
    return ",".join(f"{k}={v}" for k, v in zip(keys, key))


def compare_metric(metric, base, cand, threshold):
    """Return (regressed, change) where change is the fractional move in
    the 'worse' direction (negative = improved)."""
    if base is None or cand is None:
        return False, None
    try:
        base = float(base)
        cand = float(cand)
    except (TypeError, ValueError):
        return False, None
    if base <= 0:
        return False, None
    if metric.higher_is_better:
        change = (base - cand) / base
    else:
        change = (cand - base) / base
    return change > threshold + metric.noise, change


def compare_docs(baseline, candidate, threshold, ratios_only, out=sys.stdout):
    """Compare two sweep docs; returns (regressions, comparisons)."""
    bench = baseline["bench"]
    if candidate["bench"] != bench:
        raise SystemExit(
            f"bench_compare: bench mismatch: baseline={bench!r} "
            f"candidate={candidate['bench']!r}")
    spec = SPECS.get(bench)
    if spec is None:
        raise SystemExit(
            f"bench_compare: no comparison spec for bench {bench!r} "
            f"(known: {sorted(SPECS)})")

    regressions = []
    comparisons = 0

    def check(where, metric, base_val, cand_val):
        nonlocal comparisons
        if ratios_only and metric.kind != "ratio":
            return
        regressed, change = compare_metric(metric, base_val, cand_val,
                                           threshold)
        if change is None:
            return
        comparisons += 1
        arrow = "worse" if change > 0 else "better"
        line = (f"  {where} {metric.name}: {float(base_val):.4g} -> "
                f"{float(cand_val):.4g} ({abs(change) * 100:.1f}% {arrow})")
        if regressed:
            regressions.append(line.strip())
            print(f"REGRESSION{line}", file=out)
        elif abs(change) > (threshold + metric.noise) / 2:
            print(f"note     {line}", file=out)

    for table in spec.tables:
        base_cells = {cell_key(c, table.keys): c
                      for c in baseline.get(table.path, [])}
        cand_cells = {cell_key(c, table.keys): c
                      for c in candidate.get(table.path, [])}
        for key in sorted(base_cells.keys() - cand_cells.keys(),
                          key=repr):
            print(f"warning: {table.path}[{fmt_key(table.keys, key)}] "
                  f"only in baseline", file=out)
        for key in sorted(cand_cells.keys() - base_cells.keys(),
                          key=repr):
            print(f"warning: {table.path}[{fmt_key(table.keys, key)}] "
                  f"only in candidate", file=out)
        for key in sorted(base_cells.keys() & cand_cells.keys(),
                          key=repr):
            where = f"{table.path}[{fmt_key(table.keys, key)}]"
            for metric in table.metrics:
                check(where, metric, base_cells[key].get(metric.name),
                      cand_cells[key].get(metric.name))

    for metric in spec.headline:
        check("headline", metric, baseline.get(metric.name),
              candidate.get(metric.name))

    return regressions, comparisons


def self_test():
    """Gate sanity: a synthetic 15% regression must trip the default
    threshold; a self-compare must not."""
    baseline = {
        "schema": SCHEMA,
        "bench": "bench_kernel",
        "dispatch": "avx2",
        "extension": [
            {"qlen": 101, "band": 41, "isa": "scalar",
             "ns_per_extension": 1000.0, "gcells_per_s": 1.0,
             "speedup_vs_scalar": 1.0},
            {"qlen": 101, "band": 41, "isa": "avx2",
             "ns_per_extension": 250.0, "gcells_per_s": 4.0,
             "speedup_vs_scalar": 4.0},
        ],
        "gotoh": [],
        "speedup_101bp_band41": 4.0,
    }
    # 15% worse on the ratio metric (and the headline).
    regressed = json.loads(json.dumps(baseline))
    regressed["extension"][1]["speedup_vs_scalar"] = 4.0 * 0.85
    regressed["speedup_101bp_band41"] = 4.0 * 0.85

    import io
    sink = io.StringIO()

    regs, comps = compare_docs(baseline, baseline, 0.10, False, out=sink)
    assert not regs, f"self-compare regressed: {regs}"
    assert comps > 0, "self-compare compared nothing"

    regs, _ = compare_docs(baseline, regressed, 0.10, False, out=sink)
    assert regs, "15% regression not detected at threshold 0.10"

    regs, _ = compare_docs(baseline, regressed, 0.10, True, out=sink)
    assert regs, "15% ratio regression not detected with --ratios-only"

    # A generous threshold must absorb it.
    regs, _ = compare_docs(baseline, regressed, 0.60, False, out=sink)
    assert not regs, f"threshold 0.60 still tripped: {regs}"

    # Time-class metrics get the extra noise allowance: a move just
    # under threshold+noise passes, just over fails.
    wobble = json.loads(json.dumps(baseline))
    wobble["extension"][1]["ns_per_extension"] = 250.0 * 1.14
    regs, _ = compare_docs(baseline, wobble, 0.10, False, out=sink)
    assert not regs, f"14% time wobble tripped a 10%+5% gate: {regs}"
    wobble["extension"][1]["ns_per_extension"] = 250.0 * 1.20
    regs, _ = compare_docs(baseline, wobble, 0.10, False, out=sink)
    assert regs, "20% time regression not detected at 10%+5%"
    regs, _ = compare_docs(baseline, wobble, 0.10, True, out=sink)
    assert not regs, "--ratios-only compared a time metric"

    # Seeding spec: occ_calls_per_read is lower-is-better.
    seed_base = {
        "schema": SCHEMA,
        "bench": "bench_seed",
        "cells": [
            {"genome_bp": 1048576, "config": "packed+kmer/batch",
             "batch": 16, "reads_per_s": 50000.0, "mbases_per_s": 5.0,
             "occ_calls_per_read": 120.0, "speedup_vs_naive": 3.5},
        ],
        "headline_speedup": 3.5,
    }
    seed_reg = json.loads(json.dumps(seed_base))
    seed_reg["cells"][0]["occ_calls_per_read"] = 120.0 * 1.15
    regs, _ = compare_docs(seed_base, seed_reg, 0.10, True, out=sink)
    assert regs, "15% occ_calls_per_read growth not detected"

    # Threading spec: a collapse of the modeled 8-thread speedup must
    # trip the ratios-only CI gate; wall-clock wobble must not.
    thr_base = {
        "schema": SCHEMA,
        "bench": "bench_threads",
        "cells": [
            {"threads": 8, "batch": 64, "modeled_speedup": 4.0,
             "modeled_efficiency": 0.5, "reads_per_s": 20000.0,
             "wall_seconds": 0.3},
        ],
        "modeled_speedup_8t": 4.0,
        "modeled_efficiency_8t": 0.5,
    }
    thr_reg = json.loads(json.dumps(thr_base))
    thr_reg["cells"][0]["modeled_speedup"] = 4.0 * 0.3
    thr_reg["modeled_speedup_8t"] = 4.0 * 0.3
    regs, _ = compare_docs(thr_base, thr_reg, 0.60, True, out=sink)
    assert regs, "70% modeled_speedup collapse not detected at 0.60"
    thr_wobble = json.loads(json.dumps(thr_base))
    thr_wobble["cells"][0]["wall_seconds"] = 0.3 * 3.0
    regs, _ = compare_docs(thr_base, thr_wobble, 0.60, True, out=sink)
    assert not regs, "--ratios-only compared threading wall clock"

    print("bench_compare: self-test PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare a bench sweep against a committed baseline.")
    parser.add_argument("--baseline", help="committed BENCH_*.json")
    parser.add_argument("--candidate", help="freshly produced sweep JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression threshold "
                             "(default 0.10)")
    parser.add_argument("--ratios-only", action="store_true",
                        help="compare only machine-independent ratio "
                             "metrics (for CI hosts unrelated to the "
                             "baseline machine)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in regression fixture and "
                             "exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required "
                     "(or use --self-test)")
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    baseline = load_doc(args.baseline)
    candidate = load_doc(args.candidate)
    regressions, comparisons = compare_docs(
        baseline, candidate, args.threshold, args.ratios_only)

    mode = "ratio metrics only" if args.ratios_only else "all metrics"
    if regressions:
        print(f"bench_compare: FAIL -- {len(regressions)} regression(s) "
              f"in {comparisons} comparison(s) ({mode}, threshold "
              f"{args.threshold:.0%})")
        return 1
    if comparisons == 0:
        print("bench_compare: FAIL -- nothing compared (key mismatch "
              "between baseline and candidate?)")
        return 1
    print(f"bench_compare: PASS -- {comparisons} comparison(s), no "
          f"regression ({mode}, threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            sys.exit(2)
        raise
