/**
 * @file
 * Adaptive band speculation (DESIGN.md §13): the escalation ladder must
 * be invisible in output bytes. The tests here are the proof chain —
 * parse-layer units, predictor determinism, a differential fuzz of the
 * ladder against the full band, aligner- and thread-level SAM byte
 * identity, the steady-state zero-allocation guarantee, and the
 * provenance ledger's ladder accounting (including BandedEngine's
 * zdrop/band-clip attribution).
 */
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "align/extend.h"
#include "aligner/pipeline.h"
#include "aligner/threaded.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/ledger.h"
#include "seedex/band_policy.h"
#include "seedex/filter.h"
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

namespace seedex {
namespace {

// ----------------------------------------------------------- Parse layer

TEST(BandPolicyParse, KindNames)
{
    EXPECT_EQ(parseBandPolicyKind("fixed"), BandPolicyKind::Fixed);
    EXPECT_EQ(parseBandPolicyKind("adaptive"), BandPolicyKind::Adaptive);
    EXPECT_STREQ(bandPolicyKindName(BandPolicyKind::Fixed), "fixed");
    EXPECT_STREQ(bandPolicyKindName(BandPolicyKind::Adaptive),
                 "adaptive");
    EXPECT_THROW(parseBandPolicyKind(""), std::invalid_argument);
    EXPECT_THROW(parseBandPolicyKind("Adaptive"), std::invalid_argument);
    EXPECT_THROW(parseBandPolicyKind("greedy"), std::invalid_argument);
}

TEST(BandPolicyParse, LadderAcceptsAscendingList)
{
    EXPECT_EQ(parseBandLadder("9,19,41"), (std::vector<int>{9, 19, 41}));
    EXPECT_EQ(parseBandLadder("15"), (std::vector<int>{15}));
}

TEST(BandPolicyParse, LadderRejectsGarbage)
{
    for (const char *bad : {"", "banana", "9,,19", "9,banana", "0",
                            "-3", "19,9", "9,9", "9x"})
        EXPECT_THROW(parseBandLadder(bad), std::invalid_argument)
            << "'" << bad << "' was accepted";
}

// ------------------------------------------------------------- Predictor

TEST(BandPredictor, SeededAtFloorAndDeterministic)
{
    const BandPolicyConfig cfg = BandPolicyConfig::adaptive(41);
    BandPredictor a(cfg), b(cfg);
    EXPECT_EQ(a.ewmaBand(), cfg.min_band);
    EXPECT_EQ(a.predict({}), cfg.min_band + cfg.headroom);

    // Identical observation sequences must yield identical state: the
    // predictor is the only mutable policy state, and the determinism
    // contract rests on it being a pure fold over observations.
    Rng rng(404);
    for (int i = 0; i < 500; ++i) {
        const int sample = static_cast<int>(rng.pick(60)) - 5;
        a.observe(sample);
        b.observe(sample);
        ASSERT_EQ(a.ewmaBand(), b.ewmaBand());
        ASSERT_EQ(a.predict({}), b.predict({}));
    }
    EXPECT_EQ(a.observations(), 500u);
}

TEST(BandPredictor, EwmaTracksObservedOffsets)
{
    const BandPolicyConfig cfg = BandPolicyConfig::adaptive(41);
    BandPredictor p(cfg);
    for (int i = 0; i < 64; ++i)
        p.observe(30);
    EXPECT_GE(p.ewmaBand(), 29);
    EXPECT_LE(p.ewmaBand(), 31);
    // Quiet stretch decays back toward the floor.
    for (int i = 0; i < 64; ++i)
        p.observe(0);
    EXPECT_LE(p.ewmaBand(), 2);
}

TEST(BandPredictor, HintWidensPredictionWithinBounds)
{
    const BandPolicyConfig cfg = BandPolicyConfig::adaptive(41);
    BandPredictor p(cfg);
    const int base = p.predict({});

    BandHint divergent;
    divergent.read_len = 101;
    divergent.chain_weight = 41; // 60 uncovered bases
    divergent.n_seeds = 4;
    EXPECT_GT(p.predict(divergent), base);

    // Predictions never leave [min_band, base_band], whatever the hint
    // or the EWMA says.
    BandHint wild;
    wild.read_len = 100000;
    wild.chain_weight = 1;
    wild.n_seeds = 1000;
    for (int i = 0; i < 64; ++i)
        p.observe(500);
    EXPECT_EQ(p.predict(wild), cfg.base_band);
    BandPredictor fresh(cfg);
    EXPECT_GE(fresh.predict({}), cfg.min_band);
}

// ---------------------------------------------------- Differential fuzz

/** Random pair generator: target from the reference alphabet, query a
 *  mutated copy (substitutions plus occasional short indels), so the
 *  fuzz covers the whole verdict spectrum from clean accepts to deep
 *  escalations and full-band fallbacks. */
struct FuzzCase
{
    Sequence query;
    Sequence target;
    int h0 = 0;
    BandHint hint;
};

FuzzCase
makeFuzzCase(Rng &rng)
{
    const int tlen = 60 + static_cast<int>(rng.pick(120));
    std::vector<Base> tv;
    tv.reserve(tlen);
    for (int i = 0; i < tlen; ++i)
        tv.push_back(static_cast<Base>(rng.pick(4)));

    // Error rate per case: 0 .. ~12%.
    const uint64_t err_permille = rng.pick(120);
    std::vector<Base> qv;
    qv.reserve(tv.size());
    for (size_t i = 0; i + 20 < tv.size(); ++i) {
        const uint64_t roll = rng.pick(1000);
        if (roll < err_permille) {
            const uint64_t kind = rng.pick(10);
            if (kind < 7) { // substitution
                qv.push_back(static_cast<Base>(
                    (static_cast<uint64_t>(tv[i]) + 1 + rng.pick(3)) %
                    4));
            } else if (kind < 9) { // deletion of 1-3 target bases
                i += rng.pick(3);
            } else { // insertion of 1-3 random bases
                for (uint64_t k = 0; k <= rng.pick(3); ++k)
                    qv.push_back(static_cast<Base>(rng.pick(4)));
                qv.push_back(tv[i]);
            }
        } else {
            qv.push_back(tv[i]);
        }
    }
    if (qv.empty())
        qv.push_back(static_cast<Base>(rng.pick(4)));

    FuzzCase c;
    c.query = Sequence(std::move(qv));
    c.target = Sequence(std::move(tv));
    c.h0 = 10 + static_cast<int>(rng.pick(50));
    c.hint.read_len = static_cast<int>(c.query.size());
    c.hint.chain_weight = static_cast<int>(
        c.query.size() - std::min<uint64_t>(c.query.size(),
                                            rng.pick(40)));
    c.hint.n_seeds = 1 + static_cast<int>(rng.pick(5));
    return c;
}

/** The output contract across bands (same as Filter.
 *  OutputInvariantAcrossBands): score/qle/tle must match and gscore
 *  must be equivalent. max_off is explicitly NOT part of the contract —
 *  it reports the band the winning run used. */
void
expectEquivalent(const ExtendResult &got, const ExtendResult &want,
                 const char *what, int iteration)
{
    ASSERT_EQ(got.score, want.score) << what << " @" << iteration;
    ASSERT_EQ(got.qle, want.qle) << what << " @" << iteration;
    ASSERT_EQ(got.tle, want.tle) << what << " @" << iteration;
    ASSERT_TRUE(gscoreEquivalent(got, want)) << what << " @" << iteration;
}

TEST(BandPolicyDiff, LadderMatchesFullBandFuzz)
{
    SeedExConfig filter_cfg;
    const SeedExFilter filter(filter_cfg);

    BandPolicy adaptive(BandPolicyConfig::adaptive(filter_cfg.band));
    BandPolicyConfig explicit_cfg =
        BandPolicyConfig::adaptive(filter_cfg.band);
    explicit_cfg.ladder = {11, 23, 41};
    BandPolicy explicit_ladder(std::move(explicit_cfg));
    BandPolicy fixed(BandPolicyConfig::fixed(filter_cfg.band));

    FilterStats stats;
    Rng rng(20260809);
    const int kCases = 3000;
    uint64_t accepted = 0, fallbacks = 0, escalated = 0;
    for (int i = 0; i < kCases; ++i) {
        const FuzzCase c = makeFuzzCase(rng);

        // Oracle: the unconditional estimated-full-band extension.
        ExtendConfig full;
        full.scoring = filter_cfg.scoring;
        full.band = estimateFullBand(static_cast<int>(c.query.size()),
                                     filter_cfg.scoring,
                                     filter_cfg.end_bonus);
        const ExtendResult want =
            kswExtend(c.query, c.target, c.h0, full);

        const LadderOutcome lo =
            adaptive.extend(filter, c.query, c.target, c.h0, c.hint,
                            &stats);
        expectEquivalent(lo.result, want, "adaptive", i);
        ASSERT_GE(lo.rungs_run, 1) << i;
        ASSERT_EQ(lo.escalations, lo.rungs_run - 1) << i;
        ASSERT_GE(lo.band_predicted, adaptive.config().min_band) << i;
        ASSERT_LE(lo.band_predicted, adaptive.config().base_band) << i;
        accepted += lo.accepted;
        fallbacks += !lo.accepted;
        escalated += lo.escalations > 0;

        const LadderOutcome le = explicit_ladder.extend(
            filter, c.query, c.target, c.h0, c.hint, nullptr);
        expectEquivalent(le.result, want, "explicit-ladder", i);

        const LadderOutcome lf =
            fixed.extend(filter, c.query, c.target, c.h0, c.hint,
                         nullptr);
        expectEquivalent(lf.result, want, "fixed", i);
        ASSERT_EQ(lf.rungs_run, 1) << i;
        ASSERT_EQ(lf.band_predicted, -1) << i;
    }

    // Exactly one verdict per extension reached the funnel.
    EXPECT_EQ(stats.total, static_cast<uint64_t>(kCases));
    EXPECT_EQ(stats.pass_s2 + stats.pass_checks, accepted);
    // The fuzz must actually cover all three regimes.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(fallbacks, 0u);
    EXPECT_GT(escalated, 0u);
}

// ------------------------------------------------- Aligner-level identity

std::string
renderAll(const std::vector<SamRecord> &records)
{
    std::string out;
    for (const SamRecord &rec : records) {
        out += rec.render();
        out += '\n';
    }
    return out;
}

struct SimWorkload
{
    Sequence reference;
    std::vector<std::pair<std::string, Sequence>> reads;
};

SimWorkload
simWorkload(uint64_t seed, size_t ref_len, size_t n_reads,
            double error_rate)
{
    SimWorkload w;
    Rng rng(seed);
    ReferenceParams rp;
    rp.length = ref_len;
    w.reference = generateReference(rp, rng);
    ReadSimParams sim = ReadSimParams::illumina();
    sim.base_error_rate = error_rate;
    ReadSimulator simulator(w.reference, sim);
    for (size_t i = 0; i < n_reads; ++i) {
        SimulatedRead r = simulator.simulate(rng, i);
        w.reads.emplace_back(std::move(r.name), std::move(r.seq));
    }
    return w;
}

TEST(BandPolicyAligner, AdaptiveSamBitIdenticalToFullBand)
{
    const SimWorkload w = simWorkload(61, 80000, 400, 0.02);

    PipelineConfig full_cfg; // full-band engine
    Aligner oracle(w.reference, full_cfg);
    const std::string want = renderAll(oracle.alignBatch(w.reads));

    for (const BandPolicyKind kind :
         {BandPolicyKind::Fixed, BandPolicyKind::Adaptive}) {
        PipelineConfig cfg;
        cfg.engine = EngineKind::SeedEx;
        cfg.band_policy.kind = kind;
        Aligner aligner(w.reference, cfg);
        EXPECT_EQ(renderAll(aligner.alignBatch(w.reads)), want)
            << bandPolicyKindName(kind);
    }

    // An explicit ladder must not change bytes either.
    PipelineConfig cfg;
    cfg.engine = EngineKind::SeedEx;
    cfg.band_policy.kind = BandPolicyKind::Adaptive;
    cfg.band_policy.ladder = {13, 27};
    Aligner aligner(w.reference, cfg);
    EXPECT_EQ(renderAll(aligner.alignBatch(w.reads)), want);
}

// ------------------------------------------------- Threaded determinism

TEST(BandPolicyThreaded, ThreadCountNeverChangesBytes)
{
    const SimWorkload w = simWorkload(62, 80000, 600, 0.02);

    PipelineConfig full_cfg;
    Aligner oracle(w.reference, full_cfg);
    const std::string want = renderAll(oracle.alignBatch(w.reads));

    // 2 and 5 workers: per-worker predictor state sees totally
    // different batch interleavings; bytes must not care.
    for (const auto &[seeding, fpga] : {std::pair{1, 1}, {3, 2}}) {
        ThreadedConfig cfg;
        cfg.seeding_threads = seeding;
        cfg.fpga_threads = fpga;
        cfg.batch_size = 32;
        cfg.pipeline.engine = EngineKind::SeedEx;
        cfg.pipeline.band_policy.kind = BandPolicyKind::Adaptive;
        std::vector<SamRecord> got(w.reads.size());
        alignThreadedStream(w.reference, w.reads, cfg,
                            [&](size_t idx, SamRecord &&rec) {
                                got[idx] = std::move(rec);
                            });
        EXPECT_EQ(renderAll(got), want)
            << seeding << "+" << fpga << " threads";
    }
}

// ------------------------------------------- Steady-state allocation-free

TEST(BandPolicySteadyState, LadderAllocatesNothingAfterWarmup)
{
    SeedExConfig filter_cfg;
    const SeedExFilter filter(filter_cfg);
    BandPolicy policy(BandPolicyConfig::adaptive(filter_cfg.band));

    // Pre-generate the cases (generation itself allocates).
    Rng rng(77);
    std::vector<FuzzCase> cases;
    cases.reserve(64);
    for (int i = 0; i < 64; ++i)
        cases.push_back(makeFuzzCase(rng));

    // Warm-up pass sizes the thread-local DP workspaces.
    for (const FuzzCase &c : cases)
        policy.extend(filter, c.query, c.target, c.h0, c.hint, nullptr);

    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int round = 0; round < 4; ++round)
        for (const FuzzCase &c : cases)
            policy.extend(filter, c.query, c.target, c.h0, c.hint,
                          nullptr);
    EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed), before)
        << "ladder steady state must not allocate";
}

// --------------------------------------------------- Ledger provenance

/** Scoped enable/clear so a failing test cannot leak ledger state. */
struct ScopedLedger
{
    explicit ScopedLedger(uint32_t sample = 1)
    {
        obs::Ledger::global().clear();
        obs::Ledger::global().enable(sample);
    }
    ~ScopedLedger()
    {
        obs::Ledger::global().disable();
        obs::Ledger::global().clear();
    }
};

TEST(BandPolicyLedger, LadderRungsReconcileWithCounters)
{
    const SimWorkload w = simWorkload(63, 60000, 200, 0.02);
    PipelineConfig cfg;
    cfg.engine = EngineKind::SeedEx;
    cfg.band_policy.kind = BandPolicyKind::Adaptive;
    Aligner aligner(w.reference, cfg);

    ScopedLedger ledger;
    const obs_detail::BandPolicyCounters before = bandPolicyCounters();
    aligner.alignBatch(w.reads);
    const obs_detail::BandPolicyCounters after = bandPolicyCounters();

    const obs::LedgerSummary sum = obs::Ledger::global().summary();
    ASSERT_EQ(sum.records, w.reads.size());
    EXPECT_GT(sum.extensions, 0u);
    // Rung accounting: every extension ran >= 1 rung, and the rungs
    // beyond the first are exactly the escalations the process-wide
    // counter saw during this run.
    EXPECT_EQ(sum.ladder_rungs,
              sum.extensions + (after.escalations - before.escalations));
    EXPECT_EQ(after.predicted - before.predicted, sum.extensions);

    // Per-record: rungs >= extensions, and adaptive runs with at least
    // one extension carry a real prediction.
    size_t with_prediction = 0;
    for (const obs::ReadRecord &rec : obs::Ledger::global().collect()) {
        EXPECT_GE(rec.ladder_rungs, rec.extensions) << rec.name;
        if (rec.extensions > 0) {
            EXPECT_GE(rec.band_predicted, cfg.band_policy.min_band)
                << rec.name;
            ++with_prediction;
        } else {
            EXPECT_EQ(rec.band_predicted, -1) << rec.name;
        }
    }
    EXPECT_GT(with_prediction, 0u);
}

TEST(BandPolicyLedger, BandedEngineReportsZdropAndClip)
{
    // A band-2 engine on an indel-rich pair must clip (max_off at the
    // band edge); a zdrop-5 engine on a read whose tail is garbage must
    // z-drop. Both must land in the read record (satellite: BandedEngine
    // provenance).
    ScopedLedger ledger;
    Rng rng(91);
    std::vector<Base> tv;
    for (int i = 0; i < 120; ++i)
        tv.push_back(static_cast<Base>(rng.pick(4)));

    { // clip: one inserted base every 20 target bases drifts the
      // optimal diagonal past a band of 2 while the score keeps rising,
      // so the running max is updated at the band edge (max_off == w).
        std::vector<Base> qv;
        for (size_t i = 0; i < tv.size(); ++i) {
            if (i > 0 && i % 20 == 0)
                qv.push_back(static_cast<Base>(rng.pick(4)));
            qv.push_back(tv[i]);
        }
        BandedEngine engine(2);
        obs::ReadScope scope("clipped");
        ASSERT_NE(scope.record(), nullptr);
        engine.extend(Sequence(std::vector<Base>(qv)), Sequence(tv), 30);
        EXPECT_GE(scope.record()->band_clips, 1u);
        EXPECT_EQ(scope.record()->zdrops, 0u);
    }
    { // zdrop: 40 matching bases then 80 of noise, tight zdrop
        std::vector<Base> qv(tv.begin(), tv.begin() + 40);
        for (int i = 0; i < 80; ++i)
            qv.push_back(
                static_cast<Base>((static_cast<uint64_t>(
                                       tv[40 + i % 60]) +
                                   1 + rng.pick(3)) %
                                  4));
        BandedEngine engine(41, Scoring::bwaDefault(), 5, /*zdrop=*/5);
        obs::ReadScope scope("dropped");
        ASSERT_NE(scope.record(), nullptr);
        engine.extend(Sequence(std::move(qv)), Sequence(tv), 30);
        EXPECT_GE(scope.record()->zdrops, 1u);
    }

    const obs::LedgerSummary sum = obs::Ledger::global().summary();
    EXPECT_GE(sum.band_clips, 1u);
    EXPECT_GE(sum.zdrops, 1u);
}

} // namespace
} // namespace seedex
