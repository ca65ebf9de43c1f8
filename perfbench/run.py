#!/usr/bin/env python3
"""End-to-end benchmark of `seedex index` and `seedex align`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the seedex CLI and
this benchmark's two helpers (perfbench_gen, perfbench_trace) from source
into $CARGO_TARGET_DIR (default .bench_build); inputs and outputs live in
.bench_work/ and are removed when the run ends.

Every run generates its workload from --seed (reference FASTA with
several contigs, FASTQ reads and a truth table), indexes it, and gates
correctness:
  - the --threads=N SAM body equals the --threads=1 body byte for byte
    (@PG ignored), and so does every repeated measurement run;
  - every record is checked against the tools/check_sam.py invariants
    (per record; --paired bookkeeping where it applies);
  - primary records are scored against the truth table.
Reads with no record, an invalid record or an N-thread record that
differs from the 1-thread one count as failed (`failed` / `attempted`
in the result line). A body or replay mismatch sets `correct` to false
and the exit code to 1.

--trace 0 (untraced): drives the CLI as separate processes, one at a
time, in a closed loop for --seconds, and reports the end-to-end
metrics as medians over the repetitions.

--trace 1 (traced): runs perfbench_trace, which replays the 1-thread
pipeline layer by layer with spans around each layer call (its SAM must
equal the CLI's byte for byte), then the threaded pipeline at N threads,
and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; a readable summary goes to stderr.
--workload all runs every workload in turn (one JSON line each).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREADS = len(os.sched_getaffinity(0))

# Each workload stresses a different layer; BENCHMARK.json records why.
# short-8m is not listed there: on a shared 4-vCPU host its 1-thread
# throughput spread over ten seeded runs reached 0.30 of the median,
# wider than the benchmark's regression bounds. paired-8m measures
# seeding and threading on the same reference; short-8m stays runnable
# by name for single-end profiles.
WORKLOADS = {
    # Seeding-bound (paper Fig. 17): 101 bp Illumina reads on an 8 Mbp
    # reference whose ~23 MB index misses L2 but fits the LLC.
    "short-8m": dict(ref_length=8 << 20, contigs=8, reads=50_000,
                     read_length=101, profile="illumina", paired=False),
    # Extension-bound: divergent 250 bp reads (about 4% substitutions,
    # 0.4% small indels, 10% long-indel reads); 1 Mbp keeps the index
    # cache-resident, so FM-index changes should not show here.
    "divergent-1m": dict(ref_length=1 << 20, contigs=4, reads=10_000,
                         read_length=250, profile="divergent",
                         paired=False),
    # The short-8m reads as FR pairs, insert 400+-50; every 10th R2 is
    # shredded as rescue bait, as in tools/check_metrics.sh.
    "paired-8m": dict(ref_length=8 << 20, contigs=8, reads=25_000,
                      read_length=101, profile="illumina", paired=True,
                      insert_mean=400, insert_sd=50, bait_every=10),
}

# Smoke-test sizes (--tiny): seconds to run, same code paths. The paired
# corpus is larger than the 1024-pair insert bootstrap so the
# post-bootstrap path runs too.
TINY = {"short-8m": dict(ref_length=1 << 18, reads=2000),
        "divergent-1m": dict(ref_length=1 << 18, reads=600),
        "paired-8m": dict(ref_length=1 << 18, reads=1500)}

# Timed rounds of the untraced loop run even when --seconds is shorter.
# On a shared host single processes swing by up to a third within
# seconds, so every timing is the median over the rounds.
MIN_ROUNDS = 5
# N-thread aligns per round. The N-thread run is the shortest and, as it
# keeps every vCPU busy, the one host contention moves most, so it gets
# the most samples.
NT_RUNS_PER_ROUND = 2
# Index builds per run (each round up to this many rebuilds the .sdx);
# index_s is their median. An 8 Mbp build takes ~4 s, so it is capped.
INDEX_BUILDS = 3
# No single process runs this long at these input sizes.
PROCESS_TIMEOUT_S = 100
# Largest share of the replay wall the layer self times may leave
# uncovered before the trace is rejected as not adding up.
TRACE_TOLERANCE = 0.10
# Untraced 1-thread runs the traced replay's wall is compared against.
TRACE_REFERENCE_RUNS = 3


class BenchError(Exception):
    """A failure that makes the run unusable (build, generator, CLI)."""


class GateError(Exception):
    """The program's output failed a byte-identity check."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The environment minus SEEDEX_* knobs, so every run uses the
    CLI's defaults whatever the caller's shell exports."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SEEDEX_")}


class Proc:
    """Wall time, CPU time and peak RSS of one finished child process."""

    def __init__(self, wall, rusage):
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0


def run(argv, log_path, stdout_path=None):
    """Run one process to completion and return its Proc; a non-zero
    exit or a timeout raises BenchError. The child is always reaped."""
    argv = [str(a) for a in argv]
    with open(log_path, "wb") as err, \
            open(stdout_path or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL, env=child_env())
        timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-2000:]
        raise BenchError(f"exit {p.returncode}: {' '.join(argv)}\n{tail}")
    return Proc(wall, rusage)


# ---- build ----------------------------------------------------------------

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(targets):
    """Configure and (re)build the named targets from source. Configuring
    every time is cheap on a configured tree, and CMake refuses a build
    directory that was configured from another checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no seedex sources under {ROOT / 'src'}")
    bdir = build_dir()
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "-j", str(THREADS),
                 "--target", *targets]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return {"seedex": bdir / "seedex" / "apps" / "seedex",
            "gen": bdir / "perfbench_gen",
            "trace": bdir / "perfbench_trace"}


# ---- inputs ---------------------------------------------------------------

class Inputs:
    """One workload's generated files and ground truth."""

    def __init__(self, spec, work):
        self.spec = spec
        self.paired = spec["paired"]
        self.fasta = work / "in.fa"
        self.fastq = work / "in.fq"
        self.r1, self.r2 = work / "in_1.fq", work / "in_2.fq"
        self.truth_path = work / "in.truth.tsv"
        self.sdx = work / "in.sdx"
        self.reads = spec["reads"] * (2 if self.paired else 1)

    def read_args(self):
        return (["-1", self.r1, "-2", self.r2] if self.paired
                else [self.fastq])

    def truth(self):
        table = {}
        with open(self.truth_path) as f:
            for line in f:
                name, mate, contig, pos, strand = line.rstrip("\n").split()
                table[(name, int(mate))] = (contig, int(pos), strand == "-")
        return table


def generate(tools, spec, seed, work):
    inp = Inputs(spec, work)
    argv = [tools["gen"], f"--out={work / 'in'}", f"--seed={seed}",
            f"--ref-length={spec['ref_length']}",
            f"--contigs={spec['contigs']}", f"--reads={spec['reads']}",
            f"--read-length={spec['read_length']}",
            f"--profile={spec['profile']}"]
    if inp.paired:
        argv += ["--paired", f"--insert-mean={spec['insert_mean']}",
                 f"--insert-sd={spec['insert_sd']}",
                 f"--bait-every={spec['bait_every']}"]
    run(argv, work / "gen.log")
    return inp


# ---- correctness gate -------------------------------------------------------

CIGAR_RE = re.compile(r"^(\d+[MIDNSHP=X])+$")
CIGAR_OP_RE = re.compile(r"(\d+)([MIDNSHP=X])")


def body_lines(path):
    """Alignment lines plus the header minus @PG (which carries the
    command line and so differs between runs)."""
    with open(path, "rb") as f:
        return [l for l in f.read().split(b"\n")
                if l and not l.startswith(b"@PG")]


def body_digest(path):
    return hashlib.sha256(b"\n".join(body_lines(path))).hexdigest()


def record_problem(f, contigs):
    """The first check_sam.py record invariant `f` breaks, or None."""
    if len(f) < 11:
        return f"{len(f)} columns"
    try:
        flag, pos, mapq = int(f[1]), int(f[3]), int(f[4])
        int(f[7]), int(f[8])
    except ValueError:
        return "non-integer field"
    rname, cigar, seq = f[2], f[5], f[9]
    if flag & 0x4:
        if (rname, pos, mapq, cigar, int(f[8])) != ("*", 0, 0, "*", 0):
            return "unmapped record with placement fields"
        return None
    if rname not in contigs:
        return f"RNAME {rname} not in @SQ"
    if not CIGAR_RE.match(cigar):
        return f"malformed CIGAR {cigar}"
    qlen = rlen = 0
    for n, op in CIGAR_OP_RE.findall(cigar):
        qlen += int(n) if op in "MIS=X" else 0
        rlen += int(n) if op in "MDN=X" else 0
    if seq != "*" and qlen != len(seq):
        return "CIGAR/SEQ length mismatch"
    if not 1 <= pos <= contigs[rname]:
        return f"POS {pos} outside {rname}"
    if pos + rlen - 1 > contigs[rname]:
        return f"alignment end {pos + rlen - 1} past {rname} length " \
               f"{contigs[rname]}"
    if not 0 <= mapq <= 60:
        return f"MAPQ {mapq}"
    return None


def pair_problem(a, b):
    """The first check_sam.py --paired bookkeeping rule the adjacent
    records a, b break, or None."""
    if a[0] != b[0]:
        return "adjacent records are not a QNAME-matched pair"
    fa, fb = int(a[1]), int(b[1])
    if not (fa & 0x1 and fb & 0x1):
        return "pair without 0x1"
    if bool(fa & 0x40) + bool(fb & 0x40) != 1 or \
            bool(fa & 0x80) + bool(fb & 0x80) != 1:
        return "need one 0x40 and one 0x80 mate"
    for f, m in ((fa, fb), (fb, fa)):
        if bool(f & 0x8) != bool(m & 0x4):
            return "0x8 does not mirror the mate's 0x4"
        if bool(f & 0x20) != (not m & 0x4 and bool(m & 0x10)):
            return "0x20 does not mirror the mate's strand"
    if bool(fa & 0x2) != bool(fb & 0x2):
        return "asymmetric 0x2"
    if fa & 0x2 and ((fa | fb) & 0x4 or a[2] != b[2] or
                     bool(fa & 0x10) == bool(fb & 0x10)):
        return "improper 0x2 pair"
    if not (fa | fb) & 0x4:
        pa, pb, ta, tb = int(a[3]), int(b[3]), int(a[8]), int(b[8])
        if int(a[7]) != pb or int(b[7]) != pa:
            return "PNEXT does not point at the mate"
        if a[2] == b[2]:
            if a[6] != "=" or b[6] != "=":
                return "same-contig pair without RNEXT '='"
            if ta + tb != 0 or ta == 0:
                return "TLEN not reciprocal"
            plus, minus = (a, b) if ta > 0 else (b, a)
            if int(plus[3]) > int(minus[3]):
                return "positive TLEN on the rightmost mate"
            if plus[3] == minus[3] and not int(plus[1]) & 0x40:
                return "POS tie without positive TLEN on 0x40"
        elif a[6] != b[2] or b[6] != a[2] or ta or tb:
            return "cross-contig RNEXT/TLEN"
    return None


def mate_of(flag):
    return 1 if flag & 0x40 else 2 if flag & 0x80 else 0


def gate(sam_1t, sam_nt, inp):
    """Score the 1-thread SAM and compare the N-thread one. Returns
    (bodies_equal, failed read keys, correctly mapped count)."""
    lines_1 = body_lines(sam_1t)
    lines_n = body_lines(sam_nt)
    truth = inp.truth()
    failed = set()
    header = [l.decode() for l in lines_1 if l.startswith(b"@")]
    records = [l.decode().split("\t") for l in lines_1
               if not l.startswith(b"@")]
    contigs = {}
    for h in header:
        if h.startswith("@SQ"):
            tags = dict(t.split(":", 1) for t in h.split("\t")[1:]
                        if ":" in t)
            contigs[tags.get("SN")] = int(tags.get("LN", 0))
    if not header or not header[0].startswith("@HD") or not contigs:
        log("gate: SAM header lacks @HD or @SQ")
        return False, set(truth), 0

    def key(f):
        return (f[0], mate_of(int(f[1])) if len(f) > 1 and
                f[1].isdigit() else 0)

    problems = []
    for f in records:
        problem = record_problem(f, contigs)
        if problem:
            failed.add(key(f))
            problems.append(f"{f[0]}: {problem}")
    if inp.paired:
        for a, b in zip(records[0::2], records[1::2]):
            if key(a) in failed or key(b) in failed:
                continue
            problem = pair_problem(a, b)
            if problem:
                failed.update((key(a), key(b)))
                problems.append(f"pair {a[0]}: {problem}")
        if len(records) % 2:
            failed.add(key(records[-1]))
    for p in problems[:3]:
        log(f"gate: {p}")
    if len(problems) > 3:
        log(f"gate: ... {len(problems)} invalid records or pairs in all")

    bodies_equal = lines_1 == lines_n
    if not bodies_equal:
        log("gate: N-thread SAM body differs from the 1-thread body")
        for a, b in zip(lines_1, lines_n):
            if a != b:
                failed.add(key(a.decode().split("\t")))
        if len(lines_1) != len(lines_n):
            failed.update(truth)

    primary = {}
    for f in records:
        if len(f) >= 11 and f[1].isdigit() and not int(f[1]) & 0x900:
            primary.setdefault(key(f), f)
    correct = 0
    tol = inp.spec["read_length"]
    for k, (contig, pos, reverse) in truth.items():
        f = primary.get(k)
        if f is None:
            failed.add(k)
            continue
        flag = int(f[1])
        if not flag & 0x4 and f[2] == contig and \
                bool(flag & 0x10) == reverse and \
                abs(int(f[3]) - 1 - pos) <= tol:
            correct += 1
    return bodies_equal, failed & set(truth), correct


# ---- runs -------------------------------------------------------------------

def align_argv(tools, inp, threads, out):
    return [tools["seedex"], "align", inp.sdx, *inp.read_args(),
            f"--threads={threads}", "-o", out]


def declared_metrics(kind):
    """(name, unit) of every metric BENCHMARK.json declares under
    `kind` ('end_to_end' or 'per_layer')."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def emit_metrics(kind, values):
    """The declared metrics with their units; a declared metric this run
    did not compute is a benchmark bug."""
    out = {}
    for name, unit in declared_metrics(kind):
        if name not in values:
            raise BenchError(f"metric {name} was not computed")
        out[name] = {"value": values[name], "unit": unit}
    return out


def measure_untraced(tools, inp, work, seconds):
    """Closed loop of CLI processes, one at a time, for `seconds`: each
    round aligns at 1 thread and NT_RUNS_PER_ROUND times at N threads
    and times set-up (an empty FASTQ); the first INDEX_BUILDS rounds
    first (re)build the index. Round 0 is a warm-up: its SAMs are the
    ones the gate checks, but its align and set-up times are dropped.
    Rounds start until the time is up and at least MIN_ROUNDS timed
    rounds have run."""
    empty = work / "empty.fq"
    empty.write_bytes(b"")
    procs = {"index": [], "setup": [], "1t": [], "nt": []}
    t0 = time.perf_counter()
    digests = {}
    rounds = 0
    while True:
        warmup = rounds == 0
        if len(procs["index"]) < INDEX_BUILDS:
            procs["index"].append(run([tools["seedex"], "index", inp.fasta,
                                       "-o", inp.sdx], work / "index.log"))
        out_1 = work / ("a1.sam" if warmup else "m1.sam")
        out_n = work / ("an.sam" if warmup else "mn.sam")
        runs = [("1t", 1, out_1), ("nt", THREADS, out_n), ("setup",)]
        runs += [("nt", THREADS, out_n)] * (NT_RUNS_PER_ROUND - 1)
        for kind, *args in runs:
            if kind == "setup":
                argv = [tools["seedex"], "align", inp.sdx, empty, "-o",
                        work / "empty.sam"]
            else:
                argv = align_argv(tools, inp, *args)
            p = run(argv, work / f"{kind}.log")
            if not warmup:
                procs[kind].append(p)
            if kind != "setup":
                d = body_digest(args[1])
                if d != digests.setdefault(kind, d):
                    raise GateError("a repeated run's SAM body differs "
                                    "from the first run's")
        rounds += 1
        if rounds > MIN_ROUNDS and time.perf_counter() - t0 >= seconds:
            break
    reads = inp.reads
    tn = procs["nt"]
    metrics = {
        "reads_per_s_1t": reads / median(p.wall for p in procs["1t"]),
        "reads_per_s_nt": reads / median(p.wall for p in tn),
        "cpu_s_per_mread_nt": median(p.cpu for p in tn) / reads * 1e6,
        "peak_rss_mb_nt": median(p.rss_mb for p in tn),
        "setup_s": median(p.wall for p in procs["setup"]),
        "index_s": median(p.wall for p in procs["index"]),
    }
    samples = {k: [p.wall for p in v] for k, v in procs.items()}
    return metrics, samples


def measure_traced(tools, inp, work):
    """Traced replay plus the untraced 1-thread reference it is
    compared against."""
    argv = [tools["trace"], f"--sdx={inp.sdx}", f"--threads={THREADS}",
            f"--replay-sam={work / 'replay.sam'}",
            f"--threaded-sam={work / 'threaded.sam'}",
            f"--spans-out={work / 'spans.tsv'}"]
    argv += ([f"--r1={inp.r1}", f"--r2={inp.r2}"] if inp.paired
             else [f"--reads={inp.fastq}"])
    run(argv, work / "trace.log", stdout_path=work / "trace.json")
    layer = json.loads((work / "trace.json").read_text())
    want = body_digest(work / "a1.sam")
    for name in ("replay", "threaded"):
        if body_digest(work / f"{name}.sam") != want:
            raise GateError(f"traced {name} SAM body differs from the "
                            f"CLI's 1-thread body")
    # Untraced 1-thread reference for the tracing overhead.
    walls = [run(align_argv(tools, inp, 1, work / "m1.sam"),
                 work / "align.log").wall
             for _ in range(TRACE_REFERENCE_RUNS)]
    layer["trace.overhead_frac"] = \
        layer["trace.replay_wall_s"] / median(walls) - 1
    if layer["trace.unattributed_frac"] > TRACE_TOLERANCE:
        raise GateError(
            f"layer self times cover only "
            f"{1 - layer['trace.unattributed_frac']:.1%} of the replay "
            f"wall (tolerance {TRACE_TOLERANCE:.0%})")
    return layer


def run_workload(tools, name, seed, seconds, trace, tiny):
    spec = dict(WORKLOADS[name], **(TINY[name] if tiny else {}))
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = generate(tools, spec, seed, work)
        correct = True
        try:
            if trace:
                run([tools["seedex"], "index", inp.fasta, "-o", inp.sdx],
                    work / "index.log")
                for t, out in ((1, "a1.sam"), (THREADS, "an.sam")):
                    run(align_argv(tools, inp, t, work / out),
                        work / "align.log")
            else:
                e2e, samples = measure_untraced(tools, inp, work, seconds)
        except GateError as e:
            log(f"gate: {e}")
            correct = False
        equal, failed, mapped_ok = gate(work / "a1.sam", work / "an.sam",
                                        inp)
        correct = correct and equal
        if trace and correct:
            try:
                values = measure_traced(tools, inp, work)
            except GateError as e:
                log(f"gate: {e}")
                correct = False
        result = {"correct": correct, "attempted": inp.reads,
                  "failed": len(failed)}
        if not correct:
            result["metrics"] = {}
            return result
        if trace:
            result["metrics"] = emit_metrics("per_layer", values)
            log(f"{name} seed {seed}: traced replay, {THREADS} threads")
            for k, v in result["metrics"].items():
                na = k.startswith("paired.") and not inp.paired
                log(f"  {k:42s} " + ("{:>14s} (single-end: layer not run)"
                                     .format("n/a") if na else
                                     f"{v['value']:14.6g} {v['unit']}"))
        else:
            e2e["mapped_correct_frac"] = mapped_ok / inp.reads
            result["metrics"] = emit_metrics("end_to_end", e2e)
            log(f"{name} seed {seed}: {inp.reads} reads, N = {THREADS} "
                f"threads")
            for k, v in result["metrics"].items():
                log(f"  {k:24s} {v['value']:14.6g} {v['unit']}")
            log(f"  {'failed_reads_frac':24s} "
                f"{len(failed) / inp.reads:14.6g} fraction")
            for k, walls in samples.items():
                log(f"  {k} wall s: n={len(walls)} " +
                    " ".join(f"{w:.3f}" for w in walls))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test corpus sizes")
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped (see run()) instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        tools = build(["seedex_bin", "perfbench_gen"] +
                      (["perfbench_trace"] if args.trace else []))
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        ok = True
        for name in names:
            result = run_workload(tools, name, args.seed, args.seconds,
                                  args.trace, args.tiny)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
