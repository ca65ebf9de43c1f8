/**
 * @file
 * Thread-scaling benchmark for the worker pipeline: a threads ×
 * batch-size sweep reporting modeled parallel speedup and measured
 * throughput.
 *
 * The headline claim: at 8 threads the pipeline's modeled speedup over
 * its own single-threaded execution is >= 2.5x. "Modeled" because CI
 * hosts may expose a single core: each cell measures per-thread CPU
 * time (CLOCK_THREAD_CPUTIME_ID) and models the wall clock of the
 * parallel schedule as the busiest worker's CPU time,
 *
 *   modeled_speedup = sum of worker CPU / max worker CPU
 *                   = (producer_cpu + consumer_cpu) / max_worker_cpu,
 *
 * versus the serial schedule of the same work. CPU time is what the
 * threads would burn on real cores, so the ratio does not depend on
 * clock speed (a ratio-class metric for bench_compare.py). Workers pull
 * batches greedily, though, so on a host with fewer cores than workers
 * the threads the scheduler runs most take the most batches: the ratio
 * then approaches the core count, not the worker count. The raw
 * wall-clock columns remain time-class and are skipped by the CI gate's
 * --ratios-only mode.
 *
 * Every multi-threaded cell is also verified bit-identical to the
 * single-threaded aligner on the same reads (the §VI equivalence bar).
 *
 * Emits BENCH_threads.json (override with --out=FILE, schema
 * seedex.bench_sweep/v1); --quick shrinks the sweep;
 * --metrics-out=FILE exports the run report with the `threading`
 * section populated from the 8-thread cell.
 */
#include <cstdint>

#include "bench_common.h"
#include "util/stopwatch.h"

using namespace seedex;
using namespace seedex::bench;

namespace {

struct CellResult
{
    ThreadedReport report;
    double wall_seconds = 0;
    double modeled_wall = 0;      ///< busiest worker's CPU
    double modeled_wall_1t = 0;   ///< serial schedule, same measured CPU
    double modeled_speedup = 0;
    double modeled_efficiency = 0;
    bool identical = false;       ///< vs single-threaded aligner
};

CellResult
runCell(const Sequence &reference,
        const std::vector<std::pair<std::string, Sequence>> &reads,
        const std::vector<SamRecord> &expected, int threads, size_t batch)
{
    ThreadedConfig config;
    config.setTotalThreads(threads);
    config.batch_size = batch;
    config.pipeline.engine = EngineKind::SeedEx;

    CellResult res;
    Stopwatch wall;
    wall.start();
    const std::vector<SamRecord> got =
        alignThreaded(reference, reads, config, &res.report);
    wall.stop();
    res.wall_seconds = wall.seconds();

    res.identical = got.size() == expected.size();
    for (size_t i = 0; res.identical && i < got.size(); ++i)
        res.identical = got[i].sameAlignment(expected[i]);

    const ThreadedReport &r = res.report;
    res.modeled_wall_1t = r.producer_cpu_seconds + r.consumer_cpu_seconds;
    res.modeled_wall = r.max_worker_cpu_seconds;
    res.modeled_speedup = res.modeled_wall > 0
        ? res.modeled_wall_1t / res.modeled_wall
        : 0;
    res.modeled_efficiency =
        threads > 0 ? res.modeled_speedup / threads : 0;
    return res;
}

void
appendCell(obs::JsonWriter &json, int threads, size_t batch,
           size_t n_reads, const CellResult &res)
{
    const ThreadedReport &r = res.report;
    json.beginObject();
    json.kv("threads", static_cast<int64_t>(threads));
    json.kv("batch", static_cast<uint64_t>(batch));
    json.kv("reads", static_cast<uint64_t>(n_reads));
    json.kv("identical_to_single_thread", res.identical);
    // Ratio class (machine-portable; the CI gate compares these).
    json.kv("modeled_speedup", res.modeled_speedup);
    json.kv("modeled_efficiency", res.modeled_efficiency);
    // Time class (host-dependent; skipped by --ratios-only).
    json.kv("wall_seconds", res.wall_seconds);
    json.kv("reads_per_s", res.wall_seconds > 0
                ? static_cast<double>(n_reads) / res.wall_seconds
                : 0);
    json.kv("modeled_wall_seconds", res.modeled_wall);
    json.kv("producer_cpu_seconds", r.producer_cpu_seconds);
    json.kv("consumer_cpu_seconds", r.consumer_cpu_seconds);
    json.kv("max_worker_cpu_seconds", r.max_worker_cpu_seconds);
    json.kv("batches", r.batches);
    json.kv("reorder_max_pending", r.reorder.max_pending);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Thread scaling: symmetric seed+extend workers",
           "the worker pipeline scales to 8 threads at >= 2.5x "
           "modeled speedup");

    const bool quick = quickMode(argc, argv);
    std::string out_path = flagValue(argc, argv, "--out", nullptr);
    if (out_path.empty())
        out_path = "BENCH_threads.json";
    const std::string metrics_path = metricsOutPath(argc, argv);
    const std::string trace_out = traceOutPath(argc, argv);

    const size_t ref_len = quick ? 200000 : 600000;
    const size_t n_reads = quick ? 1200 : 6000;
    Rng rng(20200712);
    ReferenceParams ref_params;
    ref_params.length = ref_len;
    const Sequence reference = generateReference(ref_params, rng);
    ReadSimulator simulator(reference, ReadSimParams::illumina());
    std::vector<std::pair<std::string, Sequence>> reads;
    reads.reserve(n_reads);
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead r = simulator.simulate(rng, i);
        reads.emplace_back(r.name, r.seq);
    }

    // Bit-identity oracle: the single-threaded full-band pipeline on the
    // same reads (every SeedEx cell must reproduce it exactly).
    PipelineConfig base;
    Aligner baseline(reference, base);
    const std::vector<SamRecord> expected = baseline.alignBatch(reads);

    const std::vector<int> thread_counts{1, 2, 4, 8};
    const std::vector<size_t> batches{16, 64};

    TextTable table;
    table.setHeader({"threads", "batch", "reads/s", "speedup*", "eff*",
                     "batches", "identical"});
    obs::JsonWriter json;
    json.beginObject();
    beginSweepDoc(json, "bench_threads");
    json.key("cells").beginArray();

    double headline_speedup = 0, headline_efficiency = 0;
    ThreadedReport report_8t;
    bool all_identical = true;

    for (size_t batch : batches) {
        for (int threads : thread_counts) {
            const CellResult res =
                runCell(reference, reads, expected, threads, batch);
            all_identical &= res.identical;
            if (threads == 8) {
                if (res.modeled_speedup > headline_speedup) {
                    headline_speedup = res.modeled_speedup;
                    headline_efficiency = res.modeled_efficiency;
                }
                report_8t = res.report;
            }
            appendCell(json, threads, batch, n_reads, res);
            table.addRow(
                {std::to_string(threads), std::to_string(batch),
                 strprintf("%.0f", res.wall_seconds > 0
                               ? n_reads / res.wall_seconds
                               : 0),
                 strprintf("%.2f", res.modeled_speedup),
                 strprintf("%.2f", res.modeled_efficiency),
                 std::to_string(res.report.batches),
                 res.identical ? "yes" : "NO"});
        }
    }
    json.endArray();
    json.kv("modeled_speedup_8t", headline_speedup);
    json.kv("modeled_efficiency_8t", headline_efficiency);
    json.kv("all_identical", all_identical);
    json.endObject();

    std::cout << table.render();
    std::cout << strprintf(
        "\n* modeled from per-thread CPU time (busiest worker vs "
        "serial)\nheadline: %.2fx modeled speedup at 8 threads "
        "(claim >= 2.5x), efficiency %.2f\n",
        headline_speedup, headline_efficiency);

    if (!all_identical) {
        std::cerr << "[bench] FAIL: a multi-threaded cell diverged from "
                     "the single-threaded aligner\n";
        return 1;
    }

    if (!obs::writeTextFile(out_path, json.str()))
        std::cerr << "[bench] FAILED to write " << out_path << "\n";
    else
        std::cout << "[bench] sweep written to " << out_path << "\n";

    writeRunReport(metrics_path, "bench_threads", nullptr, &report_8t);
    maybeWriteTrace(trace_out);
    return 0;
}
