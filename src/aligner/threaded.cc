#include "aligner/threaded.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "aligner/batch_ring.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace seedex {

namespace {

/** Producer-consumer instruments (Fig. 12): the batch/rerun counters
 *  the ThreadedReport aggregates per run (queue/pool/reorder pressure
 *  lives with the structures in batch_ring.cc). */
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

/** Hardware-counter profiles for the producer-consumer stages (same
 *  names as the TraceSpans). */
struct ThreadedProfiles
{
    obs::StageProfile &seed_chunk =
        obs::PerfRegistry::global().stage("threaded.seed_chunk");
    obs::StageProfile &fpga_batch =
        obs::PerfRegistry::global().stage("threaded.fpga_batch");
};

ThreadedProfiles &
threadedProfiles()
{
    static ThreadedProfiles profiles;
    return profiles;
}

/** Hand-off ring capacity in whole batches: enough producer slack to
 *  ride out a slow slab, small enough to bound in-flight memory. */
constexpr size_t kRingCapacity = 8;

} // namespace

void
ThreadedConfig::setTotalThreads(long total)
{
    seeding_threads = static_cast<int>(std::max<long>(1, (total * 3) / 4));
    fpga_threads =
        static_cast<int>(std::max<long>(1, total - seeding_threads));
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

namespace {

/**
 * The shared pipeline body behind alignThreadedStream (vector feed,
 * `reads_vec` non-null) and alignThreadedSource (pull feed, `source`
 * non-null). The two modes differ only in how producers obtain a batch
 * worth of reads and in where read storage lives (caller's vector vs
 * the slab's own names/seqs); seeding, extension, and the reorder
 * hand-off are identical.
 */
void
runThreadedPipeline(const Sequence &reference,
                    const std::vector<std::pair<std::string, Sequence>>
                        *reads_vec,
                    const ReadSource *source, const ThreadedConfig &config,
                    const SamSink &sink, ThreadedReport *report,
                    const FmdIndex *external_index)
{
    std::unique_ptr<FmdIndex> owned_index;
    if (external_index == nullptr) {
        owned_index = std::make_unique<FmdIndex>(reference);
        external_index = owned_index.get();
    }
    const FmdIndex &index = *external_index;

    if (config.paired && reads_vec != nullptr &&
        reads_vec->size() % 2 != 0)
        throw std::invalid_argument(
            "paired threaded run requires an even read count "
            "(whole pairs)");

    // Paired mode rounds the batch up to even so a pair never straddles
    // a slab boundary: with an even batch size and whole-pair feeds,
    // mates sit at items 2j/2j+1 of one batch by construction.
    size_t batch_size = std::max<size_t>(1, config.batch_size);
    if (config.paired)
        batch_size += batch_size & 1;
    const int n_producers = std::max(1, config.seeding_threads);
    const int n_consumers = std::max(1, config.fpga_threads);

    // In-flight bound: every batch is either unpushed in a producer, in
    // the ring, or claimed by a consumer. The pool free list is sized to
    // it so it never regrows, and the reorder window is at least as
    // large so producer-side reserve() admits the whole in-flight set.
    const size_t inflight_bound = kRingCapacity +
        static_cast<size_t>(n_producers) +
        static_cast<size_t>(n_consumers) + 2;

    BatchRing ring(kRingCapacity);
    BatchPool pool(inflight_bound, batch_size);
    ReorderBuffer reorder(
        inflight_bound,
        [&](size_t base, std::vector<SamRecord> &&recs) {
            for (size_t i = 0; i < recs.size(); ++i)
                sink(base + i, std::move(recs[i]));
        });

    std::atomic<size_t> next_read{0};
    std::atomic<uint64_t> extensions{0}, reruns{0}, batches{0};
    std::atomic<uint64_t> pair_count{0}, pair_proper{0}, pair_rescues{0},
        pair_rescue_ext{0}, pair_rescue_passes{0};
    std::mutex cpu_mutex;
    double producer_cpu = 0, consumer_cpu = 0;

    Stopwatch wall;
    wall.start();

    // Pull-feed state: the source callback runs under this mutex
    // together with sequence/base assignment, so batch numbering stays
    // dense and read indices contiguous even though producers
    // interleave pulls.
    std::mutex source_mutex;
    uint64_t source_next_seq = 0;
    size_t source_next_base = 0;
    bool source_done = false;

    // ---- Producers: seeding + chaining into pooled batch slabs. Each
    // claims a whole batch worth of reads and advances their SMEM
    // searches in lockstep (collectSeedsBatch) a seed-chunk at a time,
    // so the FM-index walks overlap in the memory system; the filled
    // slab is published with a single ring operation.
    const size_t seed_chunk = seedBatchSize();
    // Seed and chain a slab whose items[i].name/read pointers are
    // already set: lockstep SMEM searches a seed-chunk at a time so the
    // FM-index walks overlap in the memory system (identical for both
    // feeds).
    auto seed_slab = [&](SeededBatch *batch,
                         std::vector<const Sequence *> &queries,
                         std::vector<std::vector<Seed>> &seeds,
                         SeedWorkspace &ws, ChainWorkspace &cws) {
        const size_t n = batch->n_items;
        for (size_t chunk = 0; chunk < n; chunk += seed_chunk) {
            const size_t m = std::min(seed_chunk, n - chunk);
            obs::TraceSpan span("threaded.seed_chunk", "threaded");
            obs::PerfScope perf(threadedProfiles().seed_chunk);
            for (size_t r = 0; r < m; ++r)
                queries[r] = batch->items[chunk + r].read;
            collectSeedsBatch(index, queries.data(), m,
                              config.pipeline.seeding, ws, seeds);
            for (size_t r = 0; r < m; ++r) {
                SeededRead &item = batch->items[chunk + r];
                item.n_seeds = static_cast<uint32_t>(seeds[r].size());
                item.n_chains = chainSeedsInto(
                    seeds[r], config.pipeline.chaining, cws,
                    item.chains);
                bool any_reverse = false;
                for (size_t c = 0; c < item.n_chains; ++c)
                    any_reverse |= item.chains[c].reverse;
                if (any_reverse)
                    item.read->reverseComplementInto(
                        item.reverse_complement);
            }
        }
    };

    auto seeding_worker = [&] {
        SeedWorkspace &ws = SeedWorkspace::tls();
        ChainWorkspace &cws = ChainWorkspace::tls();
        std::vector<const Sequence *> queries(seed_chunk);
        std::vector<std::vector<Seed>> seeds(seed_chunk);
        // Pull-feed buffer, recycled across pulls (the source assigns
        // into the existing strings/sequences, reusing their capacity).
        std::vector<std::pair<std::string, Sequence>> pulled;
        if (source != nullptr)
            pulled.resize(batch_size);
        const double cpu_begin = threadCpuSeconds();
        for (;;) {
            SeededBatch *batch = nullptr;
            if (reads_vec != nullptr) {
                const size_t base = next_read.fetch_add(batch_size);
                if (base >= reads_vec->size())
                    break;
                const size_t n =
                    std::min(batch_size, reads_vec->size() - base);
                // Admission control: wait until this sequence number
                // fits the reorder window BEFORE taking a slab.
                // Published batches are then inside the window by
                // construction, so consumers never block in
                // reorder.complete() and always drain the ring (a
                // consumer parked at the window edge while the head
                // batch sat unclaimed in the ring would deadlock the
                // run).
                reorder.reserve(base / batch_size);
                batch = pool.acquire();
                batch->seq = base / batch_size;
                batch->base = base;
                batch->n_items = n;
                for (size_t i = 0; i < n; ++i) {
                    SeededRead &item = batch->items[i];
                    item.read_idx = base + i;
                    item.name = &(*reads_vec)[base + i].first;
                    item.read = &(*reads_vec)[base + i].second;
                }
            } else {
                size_t n = 0;
                uint64_t seq = 0;
                size_t base = 0;
                {
                    std::lock_guard<std::mutex> lock(source_mutex);
                    if (source_done)
                        break;
                    n = (*source)(pulled, batch_size);
                    if (n == 0) {
                        source_done = true;
                        break;
                    }
                    seq = source_next_seq++;
                    base = source_next_base;
                    source_next_base += n;
                }
                // Admission control AFTER the pull (the mutex cannot be
                // held across a blocking reserve). Still deadlock-free:
                // smaller sequence numbers are always handed out first,
                // and their holders either block in reserve() on yet
                // smaller numbers or go on to publish, so the window
                // head always advances. Blocking here parks only this
                // producer's pulled reads — memory stays bounded by
                // producers × batch_size.
                reorder.reserve(seq);
                batch = pool.acquire();
                batch->ensureOwned(batch_size);
                batch->seq = seq;
                batch->base = base;
                batch->n_items = n;
                for (size_t i = 0; i < n; ++i) {
                    std::swap(batch->names[i], pulled[i].first);
                    std::swap(batch->seqs[i], pulled[i].second);
                    SeededRead &item = batch->items[i];
                    item.read_idx = base + i;
                    item.name = &batch->names[i];
                    item.read = &batch->seqs[i];
                }
            }
            seed_slab(batch, queries, seeds, ws, cws);
            ring.push(batch);
        }
        const double cpu = threadCpuSeconds() - cpu_begin;
        std::lock_guard<std::mutex> lock(cpu_mutex);
        producer_cpu += cpu;
    };

    // ---- Consumers: FPGA threads. Every read of a claimed slab runs
    // through the Aligner's own per-read body (alignChains).
    auto fpga_worker = [&] {
        // One engine per consumer, built exactly as the Aligner builds
        // its own; it extends chains and rescues mates alike. Engine
        // state (band-predictor history, filter tallies) depends on how
        // batches interleave but never reaches the output: accepted
        // narrow-band results carry the full-band optimality proof, so
        // SAM bytes are schedule-independent.
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
        // Paired mode: each mate's ledger record is held (by batch
        // item) until the pair's outcome is folded in.
        std::vector<std::optional<obs::ReadRecord>> held(
            config.paired ? batch_size : 0);
        const double cpu_begin = threadCpuSeconds();
        for (;;) {
            SeededBatch *claimed = ring.pop();
            if (claimed == nullptr)
                break;
            SeededBatch &batch = *claimed;
            obs::TraceSpan batch_span("threaded.fpga_batch", "threaded");
            obs::PerfScope batch_perf(threadedProfiles().fpga_batch);
            Stopwatch batch_watch;
            batch_watch.start();
            ++batches;

            // Chain extensions only: mate rescue below shares the engine
            // and is counted under seedex.paired.rescue_extensions.
            uint64_t batch_extensions = 0;
            const uint64_t rejected_before = rejections();
            std::vector<SamRecord> recs(batch.n_items);
            for (size_t i = 0; i < batch.n_items; ++i) {
                const SeededRead &item = batch.items[i];
                obs::ReadScope ledger_scope(item.read_idx, *item.name);
                ReadAlignment aln = alignChains(
                    *item.name, *item.read, item.reverse_complement,
                    item.chains, item.n_chains, item.n_seeds, reference,
                    *engine, config.pipeline);
                recs[i] = std::move(aln.record);
                batch_extensions += aln.extensions;
                if (config.paired && ledger_scope.record() != nullptr)
                    held[i] = ledger_scope.release();
            }
            extensions += batch_extensions;
            reruns += rejections() - rejected_before;

            // Pair finalization: mates sit at items 2j/2j+1 of this
            // slab (even batch size + whole-pair feed), so rescue, the
            // proper verdict, and the SAM pair bookkeeping run here —
            // before the batch enters the reorder window, which then
            // emits both records adjacently in input order for free.
            if (config.paired) {
                for (size_t i = 0; i + 1 < batch.n_items; i += 2) {
                    const PairOutcome po = finalizePair(
                        recs[i], recs[i + 1], *batch.items[i].read,
                        *batch.items[i + 1].read, *engine, pair_ctx);
                    ++pair_count;
                    pair_proper += po.proper ? 1 : 0;
                    pair_rescues += po.rescued() ? 1 : 0;
                    pair_rescue_ext += po.rescue_extensions;
                    pair_rescue_passes += po.rescue_passes;
                    for (size_t m = 0; m < 2; ++m) {
                        std::optional<obs::ReadRecord> &rec = held[i + m];
                        if (!rec)
                            continue;
                        rec->paired = true;
                        rec->proper = po.proper;
                        const bool rescued = m == 0 ? po.rescued_first
                                                    : po.rescued_second;
                        rec->pair_rescued = rescued;
                        if (rescued)
                            rec->rescue_extensions += po.rescue_extensions;
                        // Rescue can replace the record outright.
                        rec->score = recs[i + m].score;
                        rec->mapped = recs[i + m].mapped();
                        obs::Ledger::global().publish(std::move(*rec));
                        rec.reset();
                    }
                }
            }
            const uint64_t seq = batch.seq;
            const size_t base = batch.base;
            const size_t n_items = batch.n_items;
            // Slab back to the pool before the (possibly blocking)
            // reorder hand-off so producers can refill it immediately.
            pool.release(claimed);
            reorder.complete(seq, base, std::move(recs));

            batch_watch.stop();
            ThreadedMetrics &m = threadedMetrics();
            m.batches.inc();
            m.reads.inc(n_items);
            m.batch_wall.observe(batch_watch.seconds());
            SEEDEX_LOG(Debug, "threaded",
                       "fpga batch: %zu reads, %llu extensions in %.3f ms",
                       n_items,
                       static_cast<unsigned long long>(batch_extensions),
                       batch_watch.seconds() * 1e3);
        }
        const double cpu = threadCpuSeconds() - cpu_begin;
        std::lock_guard<std::mutex> lock(cpu_mutex);
        consumer_cpu += cpu;
    };

    std::vector<std::thread> workers;
    for (int t = 0; t < n_consumers; ++t)
        workers.emplace_back(fpga_worker);
    {
        std::vector<std::thread> producers;
        for (int t = 0; t < n_producers; ++t)
            producers.emplace_back(seeding_worker);
        for (std::thread &t : producers)
            t.join();
        ring.close();
    }
    for (std::thread &t : workers)
        t.join();
    wall.stop();

    {
        ThreadedMetrics &m = threadedMetrics();
        m.extensions.inc(extensions);
        m.reruns.inc(reruns);
    }
    const size_t total_reads =
        reads_vec != nullptr ? reads_vec->size() : source_next_base;
    SEEDEX_LOG(Info, "threaded",
               "%zu reads in %.3f s (%d seeding + %d fpga threads, %llu "
               "batches, %llu extensions, %llu reruns, %llu wakeups)",
               total_reads, wall.seconds(), n_producers, n_consumers,
               static_cast<unsigned long long>(batches.load()),
               static_cast<unsigned long long>(extensions.load()),
               static_cast<unsigned long long>(reruns.load()),
               static_cast<unsigned long long>(ring.wakeups()));

    if (report) {
        report->wall_seconds = wall.seconds();
        report->reads = total_reads;
        report->batches = batches;
        report->extensions = extensions;
        report->reruns = reruns;
        report->seeding_threads = n_producers;
        report->fpga_threads = n_consumers;
        report->batch_size = batch_size;
        report->producer_cpu_seconds = producer_cpu;
        report->consumer_cpu_seconds = consumer_cpu;
        report->queue.publishes = ring.publishes();
        report->queue.claims = ring.claims();
        report->queue.wakeups = ring.wakeups();
        report->queue.capacity_batches = ring.capacity();
        report->queue.max_depth = ring.maxDepth();
        report->queue.avg_depth = ring.avgDepth();
        report->pool.hits = pool.hits();
        report->pool.misses = pool.misses();
        report->reorder.retired = reorder.retired();
        report->reorder.max_pending = reorder.maxPending();
        report->paired.pairs = pair_count;
        report->paired.proper = pair_proper;
        report->paired.rescues = pair_rescues;
        report->paired.rescue_extensions = pair_rescue_ext;
        report->paired.rescue_passes = pair_rescue_passes;
    }
}

} // namespace

void
alignThreadedStream(const Sequence &reference,
                    const std::vector<std::pair<std::string, Sequence>> &reads,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report, const FmdIndex *index)
{
    runThreadedPipeline(reference, &reads, nullptr, config, sink, report,
                        index);
}

void
alignThreadedSource(const Sequence &reference, const ReadSource &source,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report, const FmdIndex *index)
{
    runThreadedPipeline(reference, nullptr, &source, config, sink, report,
                        index);
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
