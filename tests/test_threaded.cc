/**
 * @file
 * The batch-granular producer→consumer hand-off (batch_ring.h) and the
 * threaded pipeline built on it.
 *
 * Covers: FIFO/close semantics and the wakeup audit of the batch ring,
 * slab recycling through the pool, in-order streaming out of the
 * reorder buffer under adversarial completion orders, the operator-new
 * steady-state zero-allocation guarantee of the whole hand-off path
 * (ring + pool + chaining + reverse-complement recycling), and an
 * 8-producer/8-consumer stress run over >= 5k reads asserting
 * bit-identical, in-input-order output vs the single-threaded pipeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "aligner/batch_ring.h"
#include "aligner/pipeline.h"
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

// ------------------------------------------------------------ BatchRing

TEST(BatchRing, SingleShardFifoAndDrain)
{
    BatchRing ring(4);
    SeededBatch a, b, c;
    ring.push(&a);
    ring.push(&b);
    ring.push(&c);
    EXPECT_EQ(ring.pop(), &a);
    EXPECT_EQ(ring.pop(), &b);
    ring.close();
    EXPECT_EQ(ring.pop(), &c);
    EXPECT_EQ(ring.pop(), nullptr);
    EXPECT_EQ(ring.publishes(), 3u);
    EXPECT_EQ(ring.claims(), 3u);
}

TEST(BatchRing, WakeupsBoundedByPublishesPlusClaims)
{
    // Uncontended single-threaded use: nobody ever waits, so not a
    // single notify should fire.
    BatchRing ring(2);
    SeededBatch a;
    for (int i = 0; i < 10; ++i) {
        ring.push(&a);
        EXPECT_EQ(ring.pop(), &a);
    }
    EXPECT_EQ(ring.wakeups(), 0u);
    EXPECT_LE(ring.wakeups(), ring.publishes() + ring.claims());
}

TEST(BatchRing, BlockedProducerAndConsumerMakeProgress)
{
    BatchRing ring(1); // capacity 1: producer must block
    std::vector<SeededBatch> batches(64);
    std::vector<SeededBatch *> got;
    std::thread consumer([&] {
        while (SeededBatch *x = ring.pop())
            got.push_back(x);
    });
    for (size_t i = 0; i < batches.size(); ++i)
        ring.push(&batches[i]);
    ring.close();
    consumer.join();
    ASSERT_EQ(got.size(), batches.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], &batches[i]) << i; // FIFO preserved
    EXPECT_LE(ring.wakeups(), ring.publishes() + ring.claims());
}

// ------------------------------------------------------------ BatchPool

TEST(BatchPool, RecyclesSlabsAfterWarmup)
{
    BatchPool pool(4, 8);
    SeededBatch *a = pool.acquire();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->items.size(), 8u);
    EXPECT_EQ(pool.misses(), 1u);
    a->n_items = 5;
    a->items[0].n_chains = 3;
    pool.release(a);
    SeededBatch *b = pool.acquire();
    EXPECT_EQ(b, a); // recycled, not reallocated
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(b->n_items, 0u); // prepared empty...
    EXPECT_EQ(b->items[0].n_chains, 3u); // ...but item storage retained
}

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
    // Deterministic single-threaded drive of the full hand-off path a
    // producer and consumer share: pool acquire -> chain into recycled
    // slab storage (chainSeedsInto + reverseComplementInto) -> ring
    // publish -> ring claim -> pool release. After one warm-up cycle
    // every structure has grown to its high-water mark; the loop below
    // must then be allocation-free (the DpWorkspace discipline applied
    // to the producer->consumer boundary).
    Rng rng(403);
    const size_t kReads = 16;
    std::vector<std::string> names;
    std::vector<Sequence> reads;
    std::vector<std::vector<Seed>> seeds(kReads);
    for (size_t i = 0; i < kReads; ++i) {
        names.push_back("r" + std::to_string(i));
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
    BatchPool pool(4, kReads);
    BatchRing ring(4);
    auto cycle = [&] {
        SeededBatch *batch = pool.acquire();
        batch->seq = 0;
        batch->base = 0;
        batch->n_items = kReads;
        for (size_t i = 0; i < kReads; ++i) {
            SeededRead &item = batch->items[i];
            item.read_idx = i;
            item.name = &names[i];
            item.read = &reads[i];
            item.n_seeds = static_cast<uint32_t>(seeds[i].size());
            item.n_chains =
                chainSeedsInto(seeds[i], params, ws, item.chains);
            item.read->reverseComplementInto(item.reverse_complement);
        }
        ring.push(batch);
        SeededBatch *claimed = ring.pop();
        ASSERT_EQ(claimed, batch);
        pool.release(claimed);
    };

    for (int warm = 0; warm < 3; ++warm)
        cycle();
    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int it = 0; it < 100; ++it)
        cycle();
    const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state hand-off performed heap allocations";
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
            // read_idx with no gaps, straight off consumer threads.
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

    // Report sanity: every published batch was claimed and retired, the
    // pool recycled after warm-up, and the wakeup audit holds.
    EXPECT_EQ(report.reads, kReads);
    EXPECT_EQ(report.queue.publishes, report.batches);
    EXPECT_EQ(report.queue.claims, report.batches);
    EXPECT_EQ(report.reorder.retired, report.batches);
    EXPECT_EQ(report.pool.hits + report.pool.misses,
              report.queue.publishes);
    EXPECT_GT(report.pool.hitRate(), 0.5);
    EXPECT_LE(report.queue.wakeups,
              report.queue.publishes + report.queue.claims);
    EXPECT_LE(report.queue.max_depth,
              static_cast<int64_t>(report.queue.capacity_batches));
    EXPECT_GT(report.producer_cpu_seconds, 0.0);
    EXPECT_GT(report.consumer_cpu_seconds, 0.0);
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
    // One extension path: threaded consumers run the Aligner's engine
    // through extendChain, so under the fixed band policy they dispatch
    // exactly the kernel calls and filter verdicts the single-threaded
    // Aligner does on the same reads — no second pass per extension.
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

// ---------------------------------------------------------- Environment

TEST(ThreadedConfigEnv, KnobsApplyAndGarbageIsIgnored)
{
    ThreadedConfig config;
    setenv("SEEDEX_THREADS", "8", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 6); // 3:1 split of 8
    EXPECT_EQ(config.fpga_threads, 2);

    setenv("SEEDEX_THREADS", "garbage", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 6); // unchanged
    EXPECT_EQ(config.fpga_threads, 2);

    setenv("SEEDEX_THREADS", "-3", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 6); // unchanged

    setenv("SEEDEX_THREADS", "1", 1);
    config.applyEnv();
    EXPECT_EQ(config.seeding_threads, 1); // at least one each side
    EXPECT_EQ(config.fpga_threads, 1);

    unsetenv("SEEDEX_THREADS");
}

} // namespace
