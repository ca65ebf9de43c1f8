/**
 * @file
 * Differential validation of the vectorized banded-extension engine.
 *
 * The vector tiers (SSE4.1 / AVX2) promise bit-exactness with the scalar
 * reference on every ExtendResult field AND the band-edge E trace the
 * SeedEx optimality checks consume, plus identical banded-global (Gotoh)
 * scores and traceback paths. This file drives >= 10k seeded random
 * pairs across band widths, scoring schemes, z-drop settings and
 * saturation-boundary initial scores through every compiled tier, and
 * verifies the steady-state extension paths perform zero heap
 * allocations via global operator new/delete counting hooks.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "align/dp.h"
#include "align/kernel.h"
#include "align/workspace.h"
#include "aligner/extension.h"
#include "hw/edit_machine.h"
#include "hw/systolic.h"
#include "obs/metrics.h"
#include "seedex/checks.h"
#include "seedex/filter.h"
#include "util/rng.h"

using namespace seedex;

// ---------------------------------------------------------------------
// Allocation-counting hooks: every global operator new bumps a counter.
// The zero-allocation tests snapshot the counter around a steady-state
// region; the replacement must therefore cover the aligned overloads the
// DpWorkspace arena uses as well as the plain ones.

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

// ---------------------------------------------------------------------
// Workload generation

Sequence
randomSeq(Rng &rng, int len, bool with_n)
{
    Sequence s;
    s.reserve(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i) {
        if (with_n && rng.below(50) == 0)
            s.push_back(kBaseN);
        else
            s.push_back(static_cast<Base>(rng.below(4)));
    }
    return s;
}

/** `src` with ~3% SNPs and ~1% short indels, resized to `len`. */
Sequence
mutated(Rng &rng, const Sequence &src, int len, bool with_n)
{
    Sequence s;
    s.reserve(static_cast<size_t>(len));
    size_t t = 0;
    while (static_cast<int>(s.size()) < len) {
        const Base ref =
            src.empty() ? static_cast<Base>(rng.below(4))
                        : src[t % src.size()];
        const uint64_t roll = rng.below(200);
        if (roll < 6) {
            s.push_back(static_cast<Base>((ref + 1 + rng.below(3)) % 4));
            ++t;
        } else if (roll < 8) {
            s.push_back(static_cast<Base>(rng.below(4))); // insertion
        } else if (roll < 10) {
            t += 1 + rng.below(3); // deletion
        } else if (with_n && roll < 12) {
            s.push_back(kBaseN);
            ++t;
        } else {
            s.push_back(ref);
            ++t;
        }
    }
    return s;
}

Scoring
pickScoring(Rng &rng)
{
    switch (rng.below(5)) {
      case 0: return Scoring::bwaDefault();
      case 1: return Scoring::affine(2, 8, 12, 2);
      case 2: return Scoring::editDistance();
      case 3: return Scoring{1, 4, 6, 5, 1, 2}; // asymmetric gaps
      default: return Scoring{3, 5, 4, 9, 2, 1};
    }
}

int
pickBand(Rng &rng, int qlen, int tlen)
{
    switch (rng.below(7)) {
      case 0: return 0;
      case 1: return 1 + static_cast<int>(rng.below(3));
      case 2: return 5;
      case 3: return 11;
      case 4: return 41;
      case 5: return qlen + tlen; // effectively unbanded
      default: return INT_MAX / 4;
    }
}

struct Case
{
    Sequence q, t;
    int h0 = 1;
    ExtendConfig cfg;
};

Case
makeCase(uint64_t seed)
{
    Rng rng(seed);
    Case c;
    const int qlen = static_cast<int>(rng.below(150)) +
        (rng.below(40) == 0 ? 0 : 1);
    const int tlen = static_cast<int>(rng.below(180)) +
        (rng.below(40) == 0 ? 0 : 1);
    const bool with_n = rng.below(8) == 0;
    switch (rng.below(3)) {
      case 0: // unrelated pair
        c.q = randomSeq(rng, qlen, with_n);
        c.t = randomSeq(rng, tlen, with_n);
        break;
      case 1: // target derived from query
        c.q = randomSeq(rng, qlen, with_n);
        c.t = mutated(rng, c.q, tlen, with_n);
        break;
      default: // query derived from target
        c.t = randomSeq(rng, tlen, with_n);
        c.q = mutated(rng, c.t, qlen, with_n);
        break;
    }
    c.cfg.scoring = pickScoring(rng);
    c.cfg.band = pickBand(rng, qlen, tlen);
    c.cfg.zdrop = rng.below(4) == 0
        ? static_cast<int>(rng.below(3)) * 40 + 10
        : -1;
    if (rng.below(16) == 0) {
        // Saturation boundary: straddle the int16 overflow guard
        // h0 + qlen*max(match,1) <= 30000 so both the widest in-range
        // scores and the escape path get exercised.
        const int guard =
            30000 - qlen * std::max(c.cfg.scoring.match, 1);
        c.h0 = std::max(1, guard - 2 + static_cast<int>(rng.below(5)));
    } else {
        c.h0 = 1 + static_cast<int>(rng.below(200));
    }
    return c;
}

std::string
describe(const Case &c, uint64_t seed)
{
    return "seed=" + std::to_string(seed) +
        " qlen=" + std::to_string(c.q.size()) +
        " tlen=" + std::to_string(c.t.size()) +
        " h0=" + std::to_string(c.h0) +
        " band=" + std::to_string(c.cfg.band) +
        " zdrop=" + std::to_string(c.cfg.zdrop) +
        " m=" + std::to_string(c.cfg.scoring.match) +
        " x=" + std::to_string(c.cfg.scoring.mismatch);
}

void
expectSameResult(const ExtendResult &ref, const BandEdgeTrace &ref_trace,
                 const ExtendResult &got, const BandEdgeTrace &got_trace,
                 const std::string &what)
{
    ASSERT_EQ(ref, got) << what << " score=" << ref.score << "/"
                        << got.score << " qle=" << ref.qle << "/"
                        << got.qle << " tle=" << ref.tle << "/" << got.tle
                        << " gscore=" << ref.gscore << "/" << got.gscore
                        << " gtle=" << ref.gtle << "/" << got.gtle
                        << " max_off=" << ref.max_off << "/"
                        << got.max_off;
    ASSERT_EQ(ref_trace.boundary_e, got_trace.boundary_e) << what;
}

// ---------------------------------------------------------------------
// Extension: every compiled tier vs the scalar reference

TEST(KernelFuzz, ExtensionTiersMatchScalar)
{
    const std::vector<KernelIsa> &isas = availableKernelIsas();
    constexpr uint64_t kCases = 10500;
    uint64_t vector_checks = 0;
    for (uint64_t seed = 0; seed < kCases; ++seed) {
        const Case c = makeCase(0xFACE0000ULL + seed);
        BandEdgeTrace ref_trace;
        ExtendConfig ref_cfg = c.cfg;
        ref_cfg.edge_trace = &ref_trace;
        const ExtendResult ref =
            bandedExtend(c.q, c.t, c.h0, ref_cfg, KernelIsa::Scalar);
        for (KernelIsa isa : isas) {
            if (isa == KernelIsa::Scalar)
                continue;
            BandEdgeTrace trace;
            ExtendConfig cfg = c.cfg;
            cfg.edge_trace = &trace;
            const ExtendResult got =
                bandedExtend(c.q, c.t, c.h0, cfg, isa);
            expectSameResult(ref, ref_trace, got, trace,
                             std::string(kernelIsaName(isa)) + " " +
                                 describe(c, seed));
            ++vector_checks;
        }
    }
    // The suite is vacuous on a scalar-only build; record that loudly.
    if (isas.size() == 1)
        GTEST_SKIP() << "no vector tier compiled/supported on this host";
    EXPECT_GE(vector_checks, kCases);
}

TEST(KernelFuzz, ExtensionMatchesOracleSubset)
{
    // Independent full-matrix oracle on a subset (the oracle is O(N*M)
    // dense): kernel semantics themselves, not just tier agreement.
    for (uint64_t seed = 0; seed < 400; ++seed) {
        const Case c = makeCase(0x0A0B0C00ULL + seed);
        if (c.cfg.zdrop >= 0 || c.q.empty() || c.t.empty())
            continue; // the oracle has no z-drop
        for (KernelIsa isa : availableKernelIsas()) {
            const ExtendResult got =
                bandedExtend(c.q, c.t, c.h0, c.cfg, isa);
            const ExtendResult oracle = extendOracleBanded(
                c.q, c.t, c.h0, c.cfg.scoring, c.cfg.band);
            ASSERT_EQ(got.score, oracle.score)
                << kernelIsaName(isa) << " " << describe(c, seed);
            // gscore <= 0 means "no live to-end path" in both
            // implementations, but the trimmed kernel reports -1 where
            // the untrimmed oracle can record a dead 0 (BWA's clip
            // decision treats them identically); compare exactly only
            // when a live path exists.
            if (oracle.gscore > 0) {
                ASSERT_EQ(got.gscore, oracle.gscore)
                    << kernelIsaName(isa) << " " << describe(c, seed);
            } else {
                ASSERT_LE(got.gscore, 0)
                    << kernelIsaName(isa) << " " << describe(c, seed);
            }
            ASSERT_EQ(got.qle, oracle.qle)
                << kernelIsaName(isa) << " " << describe(c, seed);
            ASSERT_EQ(got.tle, oracle.tle)
                << kernelIsaName(isa) << " " << describe(c, seed);
        }
    }
}

TEST(KernelFuzz, SaturationBoundaryEscapesToScalar)
{
    // Deterministic probes of the int16 overflow guard: just inside the
    // guard stays on the vector tier; just outside must escape (counted
    // on align.kernel.overflow_escape) and still match scalar exactly.
    const std::vector<KernelIsa> &isas = availableKernelIsas();
    if (isas.size() == 1)
        GTEST_SKIP() << "no vector tier compiled/supported on this host";
    Rng rng(0x5a7u);
    const int qlen = 101;
    const Sequence q = randomSeq(rng, qlen, false);
    const Sequence t = mutated(rng, q, 141, false);
    ExtendConfig cfg; // bwaDefault: match = 1
    cfg.band = 41;
    obs::Counter &escapes = obs::MetricsRegistry::global().counter(
        "align.kernel.overflow_escape");
    const int guard = 30000 - qlen; // max in-range h0
    for (int h0 : {1, guard - 1, guard, guard + 1, guard + 500}) {
        const ExtendResult ref =
            bandedExtend(q, t, h0, cfg, KernelIsa::Scalar);
        for (KernelIsa isa : isas) {
            if (isa == KernelIsa::Scalar)
                continue;
            const uint64_t before = escapes.value();
            const ExtendResult got = bandedExtend(q, t, h0, cfg, isa);
            ASSERT_EQ(ref, got)
                << kernelIsaName(isa) << " h0=" << h0;
            if (h0 > guard)
                EXPECT_GT(escapes.value(), before)
                    << "expected an overflow escape at h0=" << h0;
            else
                EXPECT_EQ(escapes.value(), before)
                    << "unexpected escape at h0=" << h0;
        }
    }
}

// ---------------------------------------------------------------------
// Banded-global (Gotoh) fill: scores and traceback paths per tier

/** Mirror of globalAlignBanded's traceback over a GotohFill, emitting
 *  the op string; "!" when the walk fails to reach the origin. */
std::string
tracePath(const GotohFill &fill, int qlen, int tlen, int band)
{
    std::string ops;
    auto at = [&](int i, int j) {
        return static_cast<size_t>(i) * fill.width + (j - (i - band));
    };
    int i = tlen, j = qlen;
    int channel = -1;
    while (i > 0 || j > 0) {
        const size_t k = at(i, j);
        if (channel == -1) {
            const uint8_t src = fill.bh[k];
            if (src == kGotohFromStart)
                break;
            if (src == kGotohFromDiag) {
                ops.push_back('M');
                --i;
                --j;
                continue;
            }
            channel = src == kGotohFromE ? 1 : 2;
            continue;
        }
        if (channel == 1) {
            ops.push_back('D');
            if (fill.be[k] == 0)
                channel = -1;
            --i;
            continue;
        }
        ops.push_back('I');
        if (fill.bf[k] == 0)
            channel = -1;
        --j;
    }
    if (i != 0 || j != 0)
        ops.push_back('!');
    return ops;
}

TEST(KernelFuzz, GotohTiersMatchScalar)
{
    const std::vector<KernelIsa> &isas = availableKernelIsas();
    for (uint64_t seed = 0; seed < 1500; ++seed) {
        Rng rng(0x60706000ULL + seed);
        const int qlen = 1 + static_cast<int>(rng.below(120));
        const int tlen =
            std::max(1, qlen - 8 + static_cast<int>(rng.below(17)));
        const bool with_n = rng.below(8) == 0;
        const Sequence t = randomSeq(rng, tlen, with_n);
        const Sequence q = mutated(rng, t, qlen, with_n);
        const Scoring scoring = pickScoring(rng);
        const int band = std::abs(qlen - tlen) + 1 +
            static_cast<int>(rng.below(30));

        // The fills share workspace grids, so extract score+path per
        // tier before running the next one.
        const GotohFill ref =
            gotohBandedFill(q, t, scoring, band, KernelIsa::Scalar);
        const int ref_score = ref.score;
        const std::string ref_path = tracePath(ref, qlen, tlen, band);
        ASSERT_EQ(ref_path.find('!'), std::string::npos)
            << "scalar walk broken, seed=" << seed;
        for (KernelIsa isa : isas) {
            if (isa == KernelIsa::Scalar)
                continue;
            const GotohFill got =
                gotohBandedFill(q, t, scoring, band, isa);
            ASSERT_EQ(ref_score, got.score)
                << kernelIsaName(isa) << " seed=" << seed << " qlen="
                << qlen << " tlen=" << tlen << " band=" << band;
            ASSERT_EQ(ref_path, tracePath(got, qlen, tlen, band))
                << kernelIsaName(isa) << " seed=" << seed;
        }

        // Wide band == full-matrix global alignment (all cells admitted).
        if (seed % 10 == 0) {
            const GotohFill wide = gotohBandedFill(
                q, t, scoring, std::max(qlen, tlen), KernelIsa::Scalar);
            const Alignment full =
                alignFull(q, t, scoring, AlignMode::Global);
            ASSERT_EQ(wide.score, full.score) << "seed=" << seed;
        }
    }
}

TEST(KernelFuzz, GotohSentinelGuardEscapes)
{
    // Penalties big enough to breach the int16 sentinel-separation guard
    // must fall back to the scalar fill and still agree.
    Rng rng(0xbeefu);
    const Sequence t = randomSeq(rng, 160, false);
    const Sequence q = mutated(rng, t, 150, false);
    const Scoring heavy = Scoring::affine(10, 40, 60, 10);
    const int band = 20;
    const GotohFill ref =
        gotohBandedFill(q, t, heavy, band, KernelIsa::Scalar);
    const int ref_score = ref.score;
    const std::string ref_path =
        tracePath(ref, static_cast<int>(q.size()),
                  static_cast<int>(t.size()), band);
    for (KernelIsa isa : availableKernelIsas()) {
        const GotohFill got = gotohBandedFill(q, t, heavy, band, isa);
        EXPECT_EQ(ref_score, got.score) << kernelIsaName(isa);
        EXPECT_EQ(ref_path,
                  tracePath(got, static_cast<int>(q.size()),
                            static_cast<int>(t.size()), band))
            << kernelIsaName(isa);
    }
}

// ---------------------------------------------------------------------
// Dispatch plumbing

TEST(KernelDispatch, AvailableTiersAreOrderedAndNamed)
{
    const std::vector<KernelIsa> &isas = availableKernelIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), KernelIsa::Scalar);
    for (size_t i = 1; i < isas.size(); ++i)
        EXPECT_LT(static_cast<int>(isas[i - 1]),
                  static_cast<int>(isas[i]));
    EXPECT_STREQ(kernelIsaName(KernelIsa::Scalar), "scalar");
    EXPECT_STREQ(kernelIsaName(KernelIsa::Sse), "sse");
    EXPECT_STREQ(kernelIsaName(KernelIsa::Avx2), "avx2");
    // The dispatched tier must be one of the available ones, and honor
    // an explicit SEEDEX_KERNEL override when set to a supported tier.
    const KernelIsa chosen = kernelDispatch();
    EXPECT_NE(std::find(isas.begin(), isas.end(), chosen), isas.end());
    if (const char *env = std::getenv("SEEDEX_KERNEL")) {
        const std::string want(env);
        if (want == "scalar") {
            EXPECT_EQ(chosen, KernelIsa::Scalar);
        }
    }
    // The instrumented path counts its dispatch tier.
    Rng rng(0x11u);
    const Sequence q = randomSeq(rng, 50, false);
    const Sequence t = mutated(rng, q, 60, false);
    obs::Counter &c = obs::MetricsRegistry::global().counter(
        std::string("align.kernel.dispatch.") + kernelIsaName(chosen));
    const uint64_t before = c.value();
    kswExtend(q, t, 30, ExtendConfig{});
    EXPECT_GT(c.value(), before);
}

// ---------------------------------------------------------------------
// Zero heap allocations in steady state

TEST(ZeroAlloc, SteadyStateExtensionPathsDoNotAllocate)
{
    Rng rng(0x2a11u);
    const Sequence q = randomSeq(rng, 101, false);
    const Sequence t = mutated(rng, q, 141, false);
    const int h0 = 60;

    ExtendConfig cfg;
    cfg.band = 41;
    SeedExConfig filter_cfg;
    filter_cfg.band = 41;
    const SeedExFilter filter(filter_cfg);
    const EditMachine machine(41);
    const SystolicBswCore core(41);
    DpWorkspace &ws = DpWorkspace::tls();
    ws.prepareExtension(q.size(), t.size());

    auto exercise = [&] {
        kswExtend(q, t, h0, cfg);
        filter.run(q, t, h0);
        editCheck(q, t, 41, h0, Scoring::bwaDefault(),
                  Scoring::relaxedEdit());
        EditMachineStats mstats;
        machine.run(q, t, h0, Scoring::bwaDefault(), &mstats);
        BswCoreStats cstats;
        core.run(q, t, h0, &cstats);
    };

    // Warm-up: one-time lazy work (workspace growth, metric interning,
    // dispatch resolution) happens here.
    for (int i = 0; i < 3; ++i)
        exercise();

    const uint64_t allocs_before =
        g_new_calls.load(std::memory_order_relaxed);
    const uint64_t grows_before = ws.growEvents();
    for (int i = 0; i < 64; ++i)
        exercise();
    EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed), allocs_before)
        << "steady-state extension paths allocated on the heap";
    EXPECT_EQ(ws.growEvents(), grows_before)
        << "workspace grew after warm-up";
    EXPECT_GT(ws.bytesReserved(), 0u);
}

TEST(ZeroAlloc, SeedExEngineAllocatesNothingAfterWarmup)
{
    // The SeedEx engine's one speculation step — accepted narrow runs
    // and full-band reruns alike — reuses the thread's DP workspace.
    Rng rng(77);
    std::vector<Case> cases;
    cases.reserve(64);
    for (int i = 0; i < 64; ++i) {
        Case c;
        c.t = randomSeq(rng, 60 + static_cast<int>(rng.below(120)), false);
        c.q = i % 4 == 0
            ? randomSeq(rng, static_cast<int>(c.t.size()) - 20, false)
            : mutated(rng, c.t, static_cast<int>(c.t.size()) - 20, false);
        c.h0 = 10 + static_cast<int>(rng.below(50));
        cases.push_back(std::move(c));
    }
    SeedExEngine engine{SeedExConfig{}};
    for (const Case &c : cases)
        engine.extend(c.q, c.t, c.h0);

    const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int round = 0; round < 4; ++round)
        for (const Case &c : cases)
            engine.extend(c.q, c.t, c.h0);
    EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed), before)
        << "SeedEx engine steady state must not allocate";
    const FilterStats &stats = engine.stats();
    EXPECT_GT(stats.pass_s2 + stats.pass_checks, 0u);
    EXPECT_LT(stats.pass_s2 + stats.pass_checks, stats.total)
        << "no full-band rerun exercised";
}

TEST(ZeroAlloc, WorkspaceGrowthIsGeometricAndCounted)
{
    DpWorkspace &ws = DpWorkspace::tls();
    const uint64_t grows_before = ws.growEvents();
    // A query longer than anything the suite has run so far must grow
    // the arena exactly once per slot it enlarges, then stabilize.
    Rng rng(0x9999u);
    const Sequence q = randomSeq(rng, 4096, false);
    const Sequence t = mutated(rng, q, 4200, false);
    ExtendConfig cfg;
    cfg.band = 25;
    kswExtend(q, t, 50, cfg);
    const uint64_t grows_mid = ws.growEvents();
    EXPECT_GT(grows_mid, grows_before);
    kswExtend(q, t, 50, cfg);
    EXPECT_EQ(ws.growEvents(), grows_mid);
    EXPECT_GE(ws.bytesReserved(), 4096u);
}

} // namespace
