#include "aligner/threaded.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "aligner/reorder_buffer.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace seedex {

namespace {

/** Worker instruments: the batch/rerun counters the ThreadedReport
 *  aggregates per run (reorder pressure lives in reorder_buffer.cc). */
struct ThreadedMetrics
{
    obs::Counter &reads =
        obs::MetricsRegistry::global().counter("threaded.reads");
    obs::Counter &batches =
        obs::MetricsRegistry::global().counter("threaded.batches");
    obs::Counter &extensions =
        obs::MetricsRegistry::global().counter("threaded.extensions");
    obs::Counter &reruns =
        obs::MetricsRegistry::global().counter("threaded.reruns");
    obs::LatencyHistogram &batch_wall =
        obs::MetricsRegistry::global().histogram(
            "threaded.batch.wall_seconds");
};

ThreadedMetrics &
threadedMetrics()
{
    static ThreadedMetrics metrics;
    return metrics;
}

/** Hardware-counter profiles for the two phases of a worker's batch
 *  (same names as the TraceSpans). */
struct ThreadedProfiles
{
    obs::StageProfile &seed_chunk =
        obs::PerfRegistry::global().stage("threaded.seed_chunk");
    obs::StageProfile &extend_batch =
        obs::PerfRegistry::global().stage("threaded.extend_batch");
};

ThreadedProfiles &
threadedProfiles()
{
    static ThreadedProfiles profiles;
    return profiles;
}

/** Reorder window per worker, in batches. A worker holds one batch at
 *  a time; the second slot lets a worker that finished ahead of a slow
 *  window head start its next batch instead of waiting in reserve(). */
constexpr size_t kWindowPerWorker = 2;

/** One read's seeding output, held by its worker between the batch's
 *  seeding and extension phases. Recycled batch after batch, so the
 *  steady state allocates no chain or reverse-complement storage. */
struct ChainedRead
{
    /** The first n_chains entries are live (chainSeedsInto's contract),
     *  the rest spare capacity. */
    std::vector<Chain> chains;
    size_t n_chains = 0;
    /** Seeds collected for the read (provenance ledger). */
    uint32_t n_seeds = 0;
    /** Filled only when a kept chain is reverse. */
    Sequence reverse_complement;
};

} // namespace

long
ThreadedConfig::workers() const
{
    return std::max(1L, static_cast<long>(seeding_threads) + fpga_threads);
}

void
ThreadedConfig::setTotalThreads(long total)
{
    if (total > kMaxWorkerThreads)
        throw std::invalid_argument(
            "thread count " + std::to_string(total) +
            " is above the limit of " + std::to_string(kMaxWorkerThreads));
    seeding_threads = static_cast<int>(std::max<long>(1, total));
    fpga_threads = 0;
}

void
ThreadedConfig::applyEnv()
{
    const char *v = std::getenv("SEEDEX_THREADS");
    if (v == nullptr)
        return;
    char *end = nullptr;
    const long threads = std::strtol(v, &end, 10);
    if (end != v && threads > 0)
        setTotalThreads(threads);
}

void
alignThreadedSource(const Sequence &reference, const ReadSource &source,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report, const FmdIndex *external_index)
{
    const long n_workers = config.workers();
    if (n_workers > kMaxWorkerThreads)
        throw std::invalid_argument(
            "threaded run asks for " + std::to_string(n_workers) +
            " workers, above the limit of " +
            std::to_string(kMaxWorkerThreads));
    std::unique_ptr<FmdIndex> owned_index;
    if (external_index == nullptr) {
        owned_index = std::make_unique<FmdIndex>(reference);
        external_index = owned_index.get();
    }
    const FmdIndex &index = *external_index;

    // Paired mode rounds the batch up to even so a pair never straddles
    // a batch boundary: with an even batch size and whole-pair feeds,
    // mates sit at items 2j/2j+1 of one batch by construction.
    size_t batch_size = std::max<size_t>(1, config.batch_size);
    if (config.paired)
        batch_size += batch_size & 1;

    // The feed: the source runs under this mutex together with sequence
    // and base assignment, so batch numbering stays dense and read
    // indices contiguous even though workers interleave pulls.
    std::mutex source_mutex;
    uint64_t next_seq = 0;
    size_t next_base = 0;
    bool source_done = false;
    // Failure forwarding (guarded by source_mutex): an exception in a
    // worker — a parse error from the source, bad_alloc — must neither
    // escape its thread nor strand the others in reserve(). The first
    // one is kept and the feed ends; a failing worker still completes
    // its batch (empty) so the window head keeps moving; from then on
    // nothing reaches the sink, so the caller gets an input-order prefix
    // of the records and then the exception, rethrown after every
    // worker has joined.
    std::exception_ptr failure;
    std::atomic<bool> failed{false};
    const auto fail = [&](std::exception_ptr e) {
        std::lock_guard<std::mutex> lock(source_mutex);
        if (!failure)
            failure = std::move(e);
        source_done = true;
        failed.store(true);
    };

    const size_t window = kWindowPerWorker * static_cast<size_t>(n_workers);
    ReorderBuffer reorder(
        window, [&](size_t base, std::vector<SamRecord> &&recs) {
            if (failed.load())
                return;
            try {
                for (size_t i = 0; i < recs.size(); ++i)
                    sink(base + i, std::move(recs[i]));
            } catch (...) {
                fail(std::current_exception());
            }
        });

    std::atomic<uint64_t> extensions{0}, reruns{0}, batches{0};
    std::atomic<uint64_t> pair_count{0}, pair_proper{0}, pair_rescues{0},
        pair_rescue_ext{0}, pair_rescue_passes{0};
    std::mutex cpu_mutex;
    double seeding_cpu = 0, extension_cpu = 0, max_worker_cpu = 0;

    Stopwatch wall;
    wall.start();

    const size_t seed_chunk = seedBatchSize();
    const auto run_worker = [&] {
        // One engine per worker, built exactly as the Aligner builds its
        // own; it extends chains and rescues mates alike. Its filter
        // tallies depend on which batches a worker draws but never reach
        // the output: accepted narrow-band results carry the full-band
        // optimality proof, so SAM bytes are schedule-independent.
        const std::unique_ptr<ExtensionEngine> engine =
            makeEngine(config.pipeline);
        const auto *seedex_engine =
            dynamic_cast<const SeedExEngine *>(engine.get());
        const auto rejections = [seedex_engine]() -> uint64_t {
            if (seedex_engine == nullptr)
                return 0;
            const FilterStats &f = seedex_engine->stats();
            return f.total - f.pass_s2 - f.pass_checks;
        };
        const PairContext pair_ctx{reference, config.pipeline.contigs,
                                   config.pipeline.extension,
                                   config.insert, config.mate_rescue};
        SeedWorkspace &ws = SeedWorkspace::tls();
        ChainWorkspace &cws = ChainWorkspace::tls();
        std::vector<const Sequence *> queries(seed_chunk);
        std::vector<std::vector<Seed>> seeds(seed_chunk);
        // Worker-local batch storage, recycled across batches (the
        // source assigns into the existing strings/sequences).
        std::vector<std::pair<std::string, Sequence>> reads(batch_size);
        std::vector<ChainedRead> chained(batch_size);
        // Paired mode: each mate's ledger record is held (by batch
        // item) until the pair's outcome is folded in.
        std::vector<std::optional<obs::ReadRecord>> held(
            config.paired ? batch_size : 0);
        double my_seeding_cpu = 0, my_extension_cpu = 0;

        // Seed, chain, extend and (paired) finalize reads[0..n) into
        // `recs`; `ledger_base` numbers the reads' ledger records.
        const auto align_batch = [&](size_t n, uint64_t ledger_base,
                                     std::vector<SamRecord> &recs) {
            const double cpu_begin = threadCpuSeconds();
            // Seeding + chaining: lockstep SMEM searches a seed-chunk at
            // a time so the FM-index walks overlap in the memory system.
            for (size_t chunk = 0; chunk < n; chunk += seed_chunk) {
                const size_t m = std::min(seed_chunk, n - chunk);
                obs::TraceSpan span("threaded.seed_chunk", "threaded");
                obs::PerfScope perf(threadedProfiles().seed_chunk);
                for (size_t r = 0; r < m; ++r)
                    queries[r] = &reads[chunk + r].second;
                collectSeedsBatch(index, queries.data(), m,
                                  config.pipeline.seeding, ws, seeds);
                for (size_t r = 0; r < m; ++r) {
                    ChainedRead &item = chained[chunk + r];
                    item.n_seeds = static_cast<uint32_t>(seeds[r].size());
                    item.n_chains = chainSeedsInto(
                        seeds[r], config.pipeline.chaining, cws,
                        item.chains);
                    bool any_reverse = false;
                    for (size_t c = 0; c < item.n_chains; ++c)
                        any_reverse |= item.chains[c].reverse;
                    if (any_reverse)
                        queries[r]->reverseComplementInto(
                            item.reverse_complement);
                }
            }
            const double cpu_seeded = threadCpuSeconds();

            // Extension: every read through the Aligner's per-read body.
            obs::TraceSpan span("threaded.extend_batch", "threaded");
            obs::PerfScope perf(threadedProfiles().extend_batch);
            // Chain extensions only: mate rescue below shares the engine
            // and is counted under seedex.paired.rescue_extensions.
            uint64_t batch_extensions = 0;
            const uint64_t rejected_before = rejections();
            for (size_t i = 0; i < n; ++i) {
                const ChainedRead &item = chained[i];
                obs::ReadScope ledger_scope(ledger_base + i,
                                            reads[i].first);
                ReadAlignment aln = alignChains(
                    reads[i].first, reads[i].second,
                    item.reverse_complement, item.chains, item.n_chains,
                    item.n_seeds, reference, *engine, config.pipeline);
                recs[i] = std::move(aln.record);
                batch_extensions += aln.extensions;
                if (config.paired && ledger_scope.record() != nullptr)
                    held[i] = ledger_scope.release();
            }
            extensions += batch_extensions;
            reruns += rejections() - rejected_before;

            // Pair finalization: mates sit at items 2j/2j+1 of this batch
            // (even batch size + whole-pair feed), so rescue, the proper
            // verdict, and the SAM pair bookkeeping run here — before the
            // batch enters the reorder window, which then emits both
            // records adjacently in input order for free.
            for (size_t i = 0; config.paired && i + 1 < n; i += 2) {
                const PairOutcome po =
                    finalizePair(recs[i], recs[i + 1], reads[i].second,
                                 reads[i + 1].second, *engine, pair_ctx);
                ++pair_count;
                pair_proper += po.proper ? 1 : 0;
                pair_rescues += po.rescued() ? 1 : 0;
                pair_rescue_ext += po.rescue_extensions;
                pair_rescue_passes += po.rescue_passes;
                publishPairRecords(po, recs[i], recs[i + 1], held[i],
                                   held[i + 1]);
            }
            my_seeding_cpu += cpu_seeded - cpu_begin;
            my_extension_cpu += threadCpuSeconds() - cpu_seeded;
            return batch_extensions;
        };

        for (;;) {
            size_t n = 0;
            uint64_t seq = 0;
            size_t base = 0;
            // Ledger numbers continue the process-wide sequence, so a
            // run after other numbered reads (the paired bootstrap)
            // never reuses an index.
            uint64_t ledger_base = 0;
            {
                std::lock_guard<std::mutex> lock(source_mutex);
                if (source_done)
                    break;
                n = source(reads, batch_size);
                if (n == 0) {
                    source_done = true;
                    break;
                }
                seq = next_seq++;
                base = next_base;
                next_base += n;
                ledger_base = obs::Ledger::global().reserveReadIndices(n);
            }
            // Admission control after the pull (the source mutex is not
            // held across a blocking wait). Deadlock-free: the worker
            // holding the window head never blocks here, so the head
            // always retires.
            reorder.reserve(seq);
            Stopwatch batch_watch;
            batch_watch.start();
            ++batches;
            std::vector<SamRecord> recs;
            uint64_t batch_extensions = 0;
            try {
                recs.resize(n);
                batch_extensions = align_batch(n, ledger_base, recs);
            } catch (...) {
                fail(std::current_exception());
                recs.clear();
            }
            reorder.complete(seq, base, std::move(recs));

            batch_watch.stop();
            ThreadedMetrics &m = threadedMetrics();
            m.batches.inc();
            m.reads.inc(n);
            m.batch_wall.observe(batch_watch.seconds());
            SEEDEX_LOG(Debug, "threaded",
                       "batch %llu: %zu reads, %llu extensions in %.3f ms",
                       static_cast<unsigned long long>(seq), n,
                       static_cast<unsigned long long>(batch_extensions),
                       batch_watch.seconds() * 1e3);
        }
        std::lock_guard<std::mutex> lock(cpu_mutex);
        seeding_cpu += my_seeding_cpu;
        extension_cpu += my_extension_cpu;
        max_worker_cpu =
            std::max(max_worker_cpu, my_seeding_cpu + my_extension_cpu);
    };
    // Exceptions that hold no batch (worker setup, the source) end up
    // here; one that holds a batch was already forwarded in the loop.
    const auto worker = [&] {
        try {
            run_worker();
        } catch (...) {
            fail(std::current_exception());
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n_workers));
    try {
        for (long t = 0; t < n_workers; ++t)
            threads.emplace_back(worker);
    } catch (...) {
        fail(std::current_exception()); // thread creation failed
    }
    for (std::thread &t : threads)
        t.join();
    wall.stop();
    if (failure)
        std::rethrow_exception(failure);

    {
        ThreadedMetrics &m = threadedMetrics();
        m.extensions.inc(extensions);
        m.reruns.inc(reruns);
    }
    SEEDEX_LOG(Info, "threaded",
               "%zu reads in %.3f s (%ld threads, %llu batches, %llu "
               "extensions, %llu reruns)",
               next_base, wall.seconds(), n_workers,
               static_cast<unsigned long long>(batches.load()),
               static_cast<unsigned long long>(extensions.load()),
               static_cast<unsigned long long>(reruns.load()));

    if (report) {
        report->wall_seconds = wall.seconds();
        report->reads = next_base;
        report->batches = batches;
        report->extensions = extensions;
        report->reruns = reruns;
        report->seeding_threads = static_cast<int>(n_workers);
        report->fpga_threads = static_cast<int>(n_workers);
        report->batch_size = batch_size;
        report->producer_cpu_seconds = seeding_cpu;
        report->consumer_cpu_seconds = extension_cpu;
        report->max_worker_cpu_seconds = max_worker_cpu;
        report->reorder.retired = reorder.retired();
        report->reorder.max_pending = reorder.maxPending();
        report->reorder.window = window;
        report->paired.pairs = pair_count;
        report->paired.proper = pair_proper;
        report->paired.rescues = pair_rescues;
        report->paired.rescue_extensions = pair_rescue_ext;
        report->paired.rescue_passes = pair_rescue_passes;
    }
}

void
alignThreadedStream(const Sequence &reference,
                    const std::vector<std::pair<std::string, Sequence>> &reads,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report, const FmdIndex *index)
{
    if (config.paired && reads.size() % 2 != 0)
        throw std::invalid_argument(
            "paired threaded run requires an even read count "
            "(whole pairs)");
    size_t next = 0;
    const ReadSource source =
        [&](std::vector<std::pair<std::string, Sequence>> &out,
            size_t max) {
            const size_t n = std::min(max, reads.size() - next);
            for (size_t i = 0; i < n; ++i)
                out[i] = reads[next + i];
            next += n;
            return n;
        };
    alignThreadedSource(reference, source, config, sink, report, index);
}

std::vector<SamRecord>
alignThreaded(const Sequence &reference,
              const std::vector<std::pair<std::string, Sequence>> &reads,
              const ThreadedConfig &config, ThreadedReport *report)
{
    std::vector<SamRecord> records(reads.size());
    alignThreadedStream(
        reference, reads, config,
        [&](size_t read_idx, SamRecord &&rec) {
            records[read_idx] = std::move(rec);
        },
        report);
    return records;
}

} // namespace seedex
