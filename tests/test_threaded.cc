/**
 * @file
 * The worker pipeline (threaded.h) and its reorder buffer
 * (reorder_buffer.h).
 *
 * Covers: in-order streaming out of the reorder buffer under
 * adversarial completion orders, the operator-new steady-state
 * zero-allocation guarantee of a worker's recycled chain and
 * reverse-complement storage, a 16-worker stress run over >= 5k reads
 * asserting bit-identical, in-input-order output vs the single-threaded
 * pipeline, and the SEEDEX_THREADS rule.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "aligner/pipeline.h"
#include "aligner/reorder_buffer.h"
#include "aligner/threaded.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/metrics.h"
#include "util/rng.h"

using namespace seedex;

// ---------------------------------------------------------------------
// Allocation-counting hooks (same scheme as test_kernel.cc): every
// global operator new bumps a counter the steady-state test snapshots.

namespace {
std::atomic<uint64_t> g_new_calls{0};

void *
countedAlloc(size_t n, size_t align)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n ? n : 1);
    } else if (posix_memalign(&p, align, n ? n : align) != 0) {
        p = nullptr;
    }
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *operator new(size_t n) { return countedAlloc(n, 0); }
void *operator new[](size_t n) { return countedAlloc(n, 0); }
void *
operator new(size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<size_t>(a));
}
void *
operator new[](size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

// -------------------------------------------------------- ReorderBuffer

TEST(ReorderBuffer, StreamsInOrderUnderAnyCompletionOrder)
{
    Rng rng(401);
    const size_t n_batches = 64;
    const size_t per_batch = 3;
    std::vector<size_t> order(n_batches);
    for (size_t i = 0; i < n_batches; ++i)
        order[i] = i;
    for (size_t i = n_batches; i > 1; --i)
        std::swap(order[i - 1], order[rng.pick(i)]);

    std::vector<size_t> retired_bases;
    ReorderBuffer reorder(n_batches, // window >= worst-case skew
                          [&](size_t base, std::vector<SamRecord> &&recs) {
                              EXPECT_EQ(recs.size(), per_batch);
                              retired_bases.push_back(base);
                          });
    for (size_t seq : order) {
        std::vector<SamRecord> recs(per_batch);
        reorder.complete(seq, seq * per_batch, std::move(recs));
    }
    ASSERT_EQ(retired_bases.size(), n_batches);
    for (size_t i = 0; i < n_batches; ++i)
        EXPECT_EQ(retired_bases[i], i * per_batch) << i;
    EXPECT_EQ(reorder.retired(), n_batches);
    EXPECT_GE(reorder.maxPending(), 1);
}

// ------------------------------------- Steady-state zero-allocation path

Sequence
randomSeq(Rng &rng, int len)
{
    Sequence s;
    s.reserve(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

TEST(HandoffAllocation, SteadyStateHandoffAllocatesNothing)
{
    // Deterministic drive of what a worker keeps between a batch's
    // seeding and extension phases: each read's chains go into recycled
    // chain storage (chainSeedsInto) and its reverse complement into a
    // recycled sequence (reverseComplementInto). After one warm-up
    // batch every buffer has grown to its high-water mark; later
    // batches over the same storage must then be allocation-free.
    Rng rng(403);
    const size_t kReads = 16;
    std::vector<Sequence> reads;
    std::vector<std::vector<Seed>> seeds(kReads);
    for (size_t i = 0; i < kReads; ++i) {
        reads.push_back(randomSeq(rng, 101));
        // Repeat-flavored seed sets: several loci per read, both
        // strands, reference-sorted within each strand block.
        uint64_t rbeg = 1000 + 37 * i;
        for (int k = 0; k < 12; ++k) {
            seeds[i].push_back({(k % 4) * 20, 19, rbeg, false, 1});
            rbeg += (k % 3 == 2) ? 5000 : 21;
        }
        rbeg = 2000 + 53 * i;
        for (int k = 0; k < 6; ++k) {
            seeds[i].push_back({(k % 3) * 30, 19, rbeg, true, 1});
            rbeg += 31;
        }
    }

    ChainingParams params;
    ChainWorkspace ws;
    std::vector<std::vector<Chain>> chains(kReads);
    std::vector<Sequence> rcs(kReads);
    size_t live_chains = 0;
    auto batch = [&] {
        live_chains = 0;
        for (size_t i = 0; i < kReads; ++i) {
            live_chains += chainSeedsInto(seeds[i], params, ws, chains[i]);
            reads[i].reverseComplementInto(rcs[i]);
        }
    };

    for (int warm = 0; warm < 3; ++warm)
        batch();
    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int it = 0; it < 100; ++it)
        batch();
    const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
    EXPECT_GT(live_chains, kReads) << "seed sets chained to nothing";
    EXPECT_EQ(rcs[0].size(), reads[0].size());
    EXPECT_EQ(after - before, 0u)
        << "steady-state chain/reverse-complement recycling allocated";
}

// --------------------------------------------------- Threaded stress run

class ThreadedStress : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(409);
        ReferenceParams params;
        params.length = 150000;
        ref_ = generateReference(params, rng);
    }

    std::vector<std::pair<std::string, Sequence>>
    simulateReads(size_t count, uint64_t seed)
    {
        Rng rng(seed);
        ReadSimulator sim(ref_, ReadSimParams::illumina());
        std::vector<std::pair<std::string, Sequence>> reads;
        for (size_t i = 0; i < count; ++i) {
            const SimulatedRead r = sim.simulate(rng, i);
            reads.emplace_back(r.name, r.seq);
        }
        return reads;
    }

    Sequence ref_;
};

TEST_F(ThreadedStress, EightByEightStreamsBitIdenticalInInputOrder)
{
    const size_t kReads = 5000;
    const auto reads = simulateReads(kReads, 411);

    PipelineConfig base;
    Aligner baseline(ref_, base);
    const auto expected = baseline.alignBatch(reads);

    // 8 + 8: sixteen workers on small batches, so many batches race
    // through the reorder window out of order.
    ThreadedConfig config;
    config.seeding_threads = 8;
    config.fpga_threads = 8;
    config.batch_size = 32;
    config.pipeline.engine = EngineKind::SeedEx;
    ThreadedReport report;
    std::vector<SamRecord> got;
    got.reserve(kReads);
    size_t next_idx = 0;
    bool ordered = true;
    alignThreadedStream(
        ref_, reads, config,
        [&](size_t read_idx, SamRecord &&rec) {
            // The reorder buffer's contract: strictly increasing
            // read_idx with no gaps, straight off worker threads.
            ordered &= read_idx == next_idx;
            ++next_idx;
            got.push_back(std::move(rec));
        },
        &report);
    EXPECT_TRUE(ordered) << "sink saw out-of-order read indices";
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].sameAlignment(expected[i]))
            << "read " << i << "\n  base: " << expected[i].render()
            << "\n  thrd: " << got[i].render();
    }

    // Report sanity: every batch retired, the finished-but-unretired
    // set stayed inside the reorder window, and both phases were timed.
    EXPECT_EQ(report.reads, kReads);
    EXPECT_EQ(report.batches, (kReads + 31) / 32);
    EXPECT_EQ(report.reorder.retired, report.batches);
    EXPECT_GE(report.reorder.max_pending, 1);
    EXPECT_LE(report.reorder.max_pending,
              static_cast<int64_t>(report.reorder.window));
    EXPECT_EQ(report.seeding_threads, 16);
    EXPECT_EQ(report.fpga_threads, 16);
    EXPECT_GT(report.producer_cpu_seconds, 0.0);
    EXPECT_GT(report.consumer_cpu_seconds, 0.0);
    EXPECT_GT(report.max_worker_cpu_seconds, 0.0);
    EXPECT_LE(report.max_worker_cpu_seconds,
              report.producer_cpu_seconds + report.consumer_cpu_seconds);
}

TEST_F(ThreadedStress, SourceErrorIsRethrownAfterAnInOrderPrefix)
{
    // A throwing source (a malformed input file) must neither kill the
    // process from a worker thread nor strand the other workers: the
    // run ends, the sink has seen an input-order prefix, and the error
    // reaches the caller.
    const auto reads = simulateReads(400, 417);
    for (const int workers : {1, 4}) {
        ThreadedConfig config;
        config.setTotalThreads(workers);
        config.batch_size = 16;
        size_t next = 0, pulls = 0;
        const ReadSource source =
            [&](std::vector<std::pair<std::string, Sequence>> &out,
                size_t max) -> size_t {
            if (++pulls == 6)
                throw std::runtime_error("reads.fq: record 81: truncated");
            const size_t n = std::min(max, reads.size() - next);
            for (size_t i = 0; i < n; ++i)
                out[i] = reads[next + i];
            next += n;
            return n;
        };
        size_t emitted = 0;
        bool ordered = true;
        try {
            alignThreadedSource(
                ref_, source, config,
                [&](size_t read_idx, SamRecord &&rec) {
                    ordered &= read_idx == emitted &&
                               rec.qname == reads[read_idx].first;
                    ++emitted;
                });
            ADD_FAILURE() << workers << " workers: no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "reads.fq: record 81: truncated");
        }
        EXPECT_TRUE(ordered) << workers << " workers";
        EXPECT_LE(emitted, 5u * 16u) << workers << " workers";
    }
}

/** Kernel dispatches across every tier, and filter verdicts. */
std::pair<uint64_t, uint64_t>
kernelCallsAndVerdicts()
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    uint64_t calls = 0;
    for (const char *isa : {"scalar", "sse", "avx2"})
        calls += snap.counterValue(std::string("align.kernel.dispatch.") +
                                   isa);
    return {calls, snap.counterValue("filter.verdict.total")};
}

TEST_F(ThreadedStress, KernelWorkEqualsSingleThreadedUnderFixedPolicy)
{
    // One extension path: threaded workers run the Aligner's engine
    // through extendChain, so they dispatch exactly the kernel calls and
    // filter verdicts the single-threaded Aligner does on the same reads
    // — no second pass per extension. (The test name dates from when a
    // second, adaptive band policy existed.)
    const auto reads = simulateReads(600, 421);
    PipelineConfig pcfg;
    pcfg.engine = EngineKind::SeedEx;
    pcfg.band = 11; // narrow: rejected extensions rerun at full band

    const auto before_1t = kernelCallsAndVerdicts();
    Aligner aligner(ref_, pcfg);
    const auto expected = aligner.alignBatch(reads);
    const auto after_1t = kernelCallsAndVerdicts();

    ThreadedConfig config;
    config.seeding_threads = 3;
    config.fpga_threads = 2;
    config.batch_size = 16;
    config.pipeline = pcfg;
    ThreadedReport report;
    const auto got = alignThreaded(ref_, reads, config, &report);
    const auto after_nt = kernelCallsAndVerdicts();

    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i].render(), expected[i].render()) << i;
    const uint64_t calls_1t = after_1t.first - before_1t.first;
    const uint64_t verdicts_1t = after_1t.second - before_1t.second;
    EXPECT_GT(verdicts_1t, 0u);
    EXPECT_GT(calls_1t, verdicts_1t) << "no full-band rerun exercised";
    EXPECT_EQ(after_nt.first - after_1t.first, calls_1t);
    EXPECT_EQ(after_nt.second - after_1t.second, verdicts_1t);
    EXPECT_EQ(report.extensions, verdicts_1t);
}

namespace {
struct SimWorkload
{
    Sequence reference;
    std::vector<std::pair<std::string, Sequence>> reads;
};

SimWorkload
simWorkload(uint64_t seed, size_t n_reads)
{
    SimWorkload w;
    Rng rng(seed);
    ReferenceParams rp;
    rp.length = 80000;
    w.reference = generateReference(rp, rng);
    ReadSimParams sim = ReadSimParams::illumina();
    sim.base_error_rate = 0.02;
    ReadSimulator simulator(w.reference, sim);
    for (size_t i = 0; i < n_reads; ++i) {
        SimulatedRead r = simulator.simulate(rng, i);
        w.reads.emplace_back(std::move(r.name), std::move(r.seq));
    }
    return w;
}

std::string
renderAll(const std::vector<SamRecord> &records)
{
    std::string out;
    for (const SamRecord &rec : records)
        out += rec.render() + '\n';
    return out;
}
} // namespace

TEST(SeedExAligner, SamBitIdenticalToFullBand)
{
    // The Aligner's SeedEx engine emits the full-band oracle's bytes at
    // the deployed band and at a narrow one, where many extensions fail
    // the checks and rerun at full band.
    const SimWorkload w = simWorkload(61, 400);
    Aligner oracle(w.reference, PipelineConfig{}); // full-band engine
    const std::string want = renderAll(oracle.alignBatch(w.reads));

    for (const int band : {41, 13}) {
        PipelineConfig seedex;
        seedex.engine = EngineKind::SeedEx;
        seedex.band = band;
        Aligner aligner(w.reference, seedex);
        EXPECT_EQ(renderAll(aligner.alignBatch(w.reads)), want)
            << "band " << band;
    }
}

TEST(ThreadedDeterminism, SeedExThreadCountNeverChangesBytes)
{
    // The SeedEx engine's bytes equal the full-band oracle's at 2 and 5
    // workers, which draw totally different batch interleavings (and so
    // accumulate different filter tallies).
    const SimWorkload w = simWorkload(62, 600);
    Aligner oracle(w.reference, PipelineConfig{}); // full-band engine
    const std::string want = renderAll(oracle.alignBatch(w.reads));

    for (const int workers : {2, 5}) {
        ThreadedConfig cfg;
        cfg.setTotalThreads(workers);
        cfg.batch_size = 32;
        cfg.pipeline.engine = EngineKind::SeedEx;
        EXPECT_EQ(renderAll(alignThreaded(w.reference, w.reads, cfg)), want)
            << workers << " workers";
    }
}

// ---------------------------------------------------------- Environment

TEST(ThreadedConfigEnv, KnobsApplyAndGarbageIsIgnored)
{
    ThreadedConfig config;
    setenv("SEEDEX_THREADS", "8", 1);
    config.applyEnv();
    EXPECT_EQ(config.workers(), 8);
    EXPECT_EQ(config.seeding_threads + config.fpga_threads, 8);

    setenv("SEEDEX_THREADS", "garbage", 1);
    config.applyEnv();
    EXPECT_EQ(config.workers(), 8); // unchanged

    setenv("SEEDEX_THREADS", "-3", 1);
    config.applyEnv();
    EXPECT_EQ(config.workers(), 8); // unchanged

    setenv("SEEDEX_THREADS", "1", 1);
    config.applyEnv();
    EXPECT_EQ(config.workers(), 1);

    // Above the limit: rejected before any thread could start.
    setenv("SEEDEX_THREADS", "100000", 1);
    EXPECT_THROW(config.applyEnv(), std::invalid_argument);
    EXPECT_EQ(config.workers(), 1); // unchanged
    EXPECT_THROW(config.setTotalThreads(kMaxWorkerThreads + 1),
                 std::invalid_argument);
    config.setTotalThreads(kMaxWorkerThreads);
    EXPECT_EQ(config.workers(), kMaxWorkerThreads);

    unsetenv("SEEDEX_THREADS");
}

} // namespace
