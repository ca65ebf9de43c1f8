/**
 * @file
 * Differential validation of the high-throughput seeding stack.
 *
 * The packed popcount FM-index, the k-mer interval table, and the
 * lockstep batch drivers all promise bit-identical results with the
 * naive scalar baseline. This file fuzzes that promise across random
 * genomes with injected N runs, sentinel-adjacent patterns, and reads
 * shorter than the k-mer table depth, checks index serialization
 * round-trips, verifies the seed.* instruments advance, and asserts the
 * steady-state batch seeding path performs zero heap allocations via
 * global operator new/delete counting hooks.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

#include "aligner/seeding.h"
#include "fmindex/fmd_index.h"
#include "fmindex/smem.h"
#include "genome/reference.h"
#include "obs/metrics.h"
#include "util/rng.h"

using namespace seedex;

// ---------------------------------------------------------------------
// Allocation-counting hooks (same discipline as test_kernel.cc): every
// global operator new bumps a counter so the zero-allocation test can
// snapshot the steady state.

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

namespace seedex {
namespace {

// ---------------------------------------------------------------------
// Workload generation

/** Synthetic reference with a few injected runs of N (the generator
 *  itself never emits N; index construction collapses them to A, and
 *  both layouts must do so identically). */
Sequence
referenceWithNRuns(Rng &rng, size_t len)
{
    ReferenceParams params;
    params.length = len;
    params.repeat_fraction = 0.15;
    Sequence ref = generateReference(params, rng);
    for (int run = 0; run < 4; ++run) {
        const size_t run_len = 2 + rng.pick(6);
        const size_t at = rng.pick(ref.size() - run_len);
        for (size_t i = 0; i < run_len; ++i)
            ref[at + i] = kBaseN;
    }
    return ref;
}

/** A read sampled from the reference with a few mismatches and an
 *  occasional N, on either strand. */
Sequence
sampleRead(Rng &rng, const Sequence &ref, size_t len)
{
    const size_t pos = rng.pick(ref.size() - len);
    Sequence read = ref.slice(pos, len);
    const int edits = static_cast<int>(rng.pick(4));
    for (int e = 0; e < edits; ++e) {
        const size_t at = rng.pick(len);
        read[at] = rng.coin(0.2)
            ? kBaseN
            : static_cast<Base>((read[at] + 1 + rng.pick(3)) % 4);
    }
    if (rng.coin(0.5))
        read = read.reverseComplement();
    return read;
}

/** The four index configurations the differential tests cross-check:
 *  the trusted oracle (naive layout, no k-mer table) against every
 *  acceleration axis. */
struct IndexSet
{
    FmdIndex naive_plain;
    FmdIndex packed_plain;
    FmdIndex packed_kmer;

    explicit IndexSet(const Sequence &ref)
        : naive_plain(ref, FmdIndexOptions{FmLayout::Naive, 0}),
          packed_plain(ref, FmdIndexOptions{FmLayout::Packed, 0}),
          packed_kmer(ref, FmdIndexOptions{FmLayout::Packed, 8})
    {}
};

class SeedingDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(4242);
        ref_ = referenceWithNRuns(rng, 6000);
        set_ = std::make_unique<IndexSet>(ref_);
    }

    Sequence ref_;
    std::unique_ptr<IndexSet> set_;
};

// --------------------------------------------------------- interval layer

TEST_F(SeedingDifferential, MatchIntervalsAgreeAcrossLayouts)
{
    Rng rng(11);
    std::vector<Sequence> patterns;
    // Sentinel-adjacent spans: the very start and end of the reference
    // (whose suffixes neighbor the $ row in the BWT matrix).
    patterns.push_back(ref_.slice(0, 12));
    patterns.push_back(ref_.slice(ref_.size() - 12, 12));
    for (int it = 0; it < 200; ++it) {
        const size_t len = 1 + rng.pick(24);
        patterns.push_back(sampleRead(rng, ref_, len));
    }
    for (const Sequence &p : patterns) {
        bool clean = true;
        for (size_t i = 0; i < p.size(); ++i)
            clean &= p[i] < kNumBases;
        if (!clean)
            continue; // match() requires resolved bases
        const FmdInterval want = set_->naive_plain.match(p);
        EXPECT_EQ(set_->packed_plain.match(p), want) << p.toString();
        EXPECT_EQ(set_->packed_kmer.match(p), want) << p.toString();
    }
}

TEST_F(SeedingDifferential, LocateAgreesAcrossLayouts)
{
    Rng rng(13);
    for (int it = 0; it < 100; ++it) {
        const size_t len = 6 + rng.pick(14);
        const size_t pos = rng.pick(ref_.size() - len);
        const Sequence p = ref_.slice(pos, len);
        bool clean = true;
        for (size_t i = 0; i < p.size(); ++i)
            clean &= p[i] < kNumBases;
        if (!clean)
            continue;
        const FmdInterval iv = set_->naive_plain.match(p);
        if (iv.empty())
            continue;
        const auto want = set_->naive_plain.locate(iv, 64, len);
        EXPECT_EQ(set_->packed_plain.locate(iv, 64, len), want);
        EXPECT_EQ(set_->packed_kmer.locate(iv, 64, len), want);
        // And the incremental form appends the same hits.
        std::vector<FmdHit> into;
        set_->packed_kmer.locateInto(iv, 64, len, into);
        EXPECT_EQ(into, want);
    }
}

// ------------------------------------------------------------- SMEM layer

TEST_F(SeedingDifferential, SmemsIdenticalAcrossAllConfigurations)
{
    Rng rng(17);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out;
    std::vector<const Sequence *> queries;
    std::vector<Sequence> reads;
    for (int it = 0; it < 48; ++it)
        reads.push_back(sampleRead(rng, ref_, 40 + rng.pick(80)));

    // Oracle: scalar path on the naive, table-free index.
    std::vector<std::vector<Smem>> want;
    for (const Sequence &read : reads)
        want.push_back(collectSmems(set_->naive_plain, read, 12));

    for (const FmdIndex *index :
         {&set_->packed_plain, &set_->packed_kmer}) {
        for (size_t r = 0; r < reads.size(); ++r)
            EXPECT_EQ(collectSmems(*index, reads[r], 12), want[r])
                << "scalar, read " << r;
        queries.clear();
        for (const Sequence &read : reads)
            queries.push_back(&read);
        batch_out.assign(reads.size(), {});
        collectSmemsBatch(*index, queries.data(), queries.size(), 12, 1,
                          ws, batch_out);
        for (size_t r = 0; r < reads.size(); ++r)
            EXPECT_EQ(batch_out[r], want[r]) << "batch, read " << r;
    }
}

TEST_F(SeedingDifferential, ReadsShorterThanTableDepthAgree)
{
    // packed_kmer has k = 8: reads of length 1..8 exercise the
    // table-only forward sweep (and the lookup's length clamp).
    Rng rng(19);
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> batch_out(1);
    for (int it = 0; it < 120; ++it) {
        const Sequence read = sampleRead(rng, ref_, 1 + rng.pick(8));
        const auto want = collectSmems(set_->naive_plain, read, 2);
        EXPECT_EQ(collectSmems(set_->packed_kmer, read, 2), want);
        const Sequence *q = &read;
        collectSmemsBatch(set_->packed_kmer, &q, 1, 2, 1, ws, batch_out);
        EXPECT_EQ(batch_out[0], want);
    }
}

// ------------------------------------------------------------- seed layer

TEST_F(SeedingDifferential, SeedBatchMatchesScalarSeeds)
{
    Rng rng(23);
    SeedingParams params;
    params.min_seed_len = 15;
    SeedWorkspace ws;
    std::vector<Sequence> reads;
    for (int it = 0; it < 33; ++it) // deliberately not a batch multiple
        reads.push_back(sampleRead(rng, ref_, 101));

    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> batch_out(reads.size());
    collectSeedsBatch(set_->packed_kmer, queries.data(), queries.size(),
                      params, ws, batch_out);
    for (size_t r = 0; r < reads.size(); ++r) {
        const auto scalar =
            collectSeeds(set_->packed_kmer, reads[r], params);
        EXPECT_EQ(batch_out[r].size(), scalar.size()) << "read " << r;
        for (size_t s = 0;
             s < std::min(batch_out[r].size(), scalar.size()); ++s) {
            EXPECT_EQ(batch_out[r][s].qbeg, scalar[s].qbeg);
            EXPECT_EQ(batch_out[r][s].len, scalar[s].len);
            EXPECT_EQ(batch_out[r][s].rbeg, scalar[s].rbeg);
            EXPECT_EQ(batch_out[r][s].reverse, scalar[s].reverse);
            EXPECT_EQ(batch_out[r][s].occurrences,
                      scalar[s].occurrences);
        }
        // And the naive oracle produces the same seeds.
        EXPECT_EQ(collectSeeds(set_->naive_plain, reads[r], params).size(),
                  scalar.size());
    }
}

// ---------------------------------------------------------- serialization

TEST_F(SeedingDifferential, SerializationRoundTripsBothLayouts)
{
    Rng rng(29);
    for (const FmdIndex *index :
         {&set_->naive_plain, &set_->packed_kmer}) {
        std::stringstream ss;
        ASSERT_TRUE(index->save(ss));
        const auto loaded = FmdIndex::load(ss);
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ(loaded->layout(), index->layout());
        EXPECT_EQ(loaded->referenceLength(), index->referenceLength());
        for (int it = 0; it < 40; ++it) {
            const size_t len = 8 + rng.pick(12);
            const size_t pos = rng.pick(ref_.size() - len);
            const Sequence p = ref_.slice(pos, len);
            bool clean = true;
            for (size_t i = 0; i < p.size(); ++i)
                clean &= p[i] < kNumBases;
            if (!clean)
                continue;
            const FmdInterval want = index->match(p);
            EXPECT_EQ(loaded->match(p), want);
            if (!want.empty()) {
                EXPECT_EQ(loaded->locate(want, 64, len),
                          index->locate(want, 64, len));
            }
        }
        const Sequence read = sampleRead(rng, ref_, 101);
        EXPECT_EQ(collectSmems(*loaded, read, 12),
                  collectSmems(*index, read, 12));
    }
}

TEST(SeedingSerialization, RejectsMalformedStreams)
{
    std::stringstream empty;
    EXPECT_EQ(FmdIndex::load(empty), nullptr);
    std::stringstream garbage("not an index at all, not even close");
    EXPECT_EQ(FmdIndex::load(garbage), nullptr);
}

// ------------------------------------------------------------ observability

TEST_F(SeedingDifferential, SeedInstrumentsAdvance)
{
    Rng rng(31);
    auto &registry = obs::MetricsRegistry::global();
    const auto before = registry.snapshot();
    const uint64_t occ0 = before.counterValue("seed.occ_calls");
    const uint64_t kmer0 = before.counterValue("seed.kmer_hits");

    SeedingParams params;
    SeedWorkspace ws;
    std::vector<Sequence> reads;
    for (int it = 0; it < 8; ++it)
        reads.push_back(sampleRead(rng, ref_, 101));
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> out(reads.size());
    collectSeedsBatch(set_->packed_kmer, queries.data(), queries.size(),
                      params, ws, out);

    const auto after = registry.snapshot();
    EXPECT_GT(after.counterValue("seed.occ_calls"), occ0);
    EXPECT_GT(after.counterValue("seed.kmer_hits"), kmer0);
    bool found_gauge = false;
    for (const auto &[name, value] : after.gauges)
        if (name == "seed.batch_size") {
            found_gauge = true;
            EXPECT_EQ(value.first,
                      static_cast<int64_t>(reads.size()));
        }
    EXPECT_TRUE(found_gauge);
    const auto *hist = after.findHistogram("seed.batch.seconds");
    ASSERT_NE(hist, nullptr);
    EXPECT_GT(hist->count, 0u);
}

// ----------------------------------------------------------- allocations

TEST_F(SeedingDifferential, SteadyStateBatchSeedingAllocatesNothing)
{
    Rng rng(37);
    SeedingParams params;
    SeedWorkspace ws;
    std::vector<Sequence> reads;
    for (int it = 0; it < 16; ++it)
        reads.push_back(sampleRead(rng, ref_, 101));
    std::vector<const Sequence *> queries;
    for (const Sequence &read : reads)
        queries.push_back(&read);
    std::vector<std::vector<Seed>> out(reads.size());

    // Warm-up: grow every workspace buffer (and the registry statics,
    // locate scratch, seed vectors) to the workload high-water mark.
    for (int warm = 0; warm < 2; ++warm)
        collectSeedsBatch(set_->packed_kmer, queries.data(),
                          queries.size(), params, ws, out);

    const uint64_t allocs_before =
        g_new_calls.load(std::memory_order_relaxed);
    collectSeedsBatch(set_->packed_kmer, queries.data(), queries.size(),
                      params, ws, out);
    const uint64_t allocs_after =
        g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(allocs_after, allocs_before)
        << "steady-state batch seeding must not touch the heap";
}

} // namespace
} // namespace seedex
