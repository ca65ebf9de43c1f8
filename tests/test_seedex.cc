#include <gtest/gtest.h>

#include "align/dp.h"
#include "aligner/extension.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "seedex/checks.h"
#include "seedex/filter.h"
#include "util/rng.h"

namespace seedex {
namespace {

// ------------------------------------------------------------- Thresholds

TEST(Thresholds, SemiGlobalFormula)
{
    // S1 = h0 - (go + w*ge) + (N-w)*m ; S2 = h0 - (go + w*ge) + N*m.
    const Thresholds t =
        computeThresholds(101, 41, 30, Scoring::bwaDefault());
    EXPECT_EQ(t.s1, 30 - (6 + 41) + (101 - 41));
    EXPECT_EQ(t.s2, 30 - (6 + 41) + 101);
}

TEST(Thresholds, S2IsStricterByBandMatches)
{
    const Scoring s = Scoring::bwaDefault();
    for (int w : {5, 10, 41, 80}) {
        const Thresholds t = computeThresholds(101, w, 50, s);
        EXPECT_EQ(t.s2 - t.s1, w * s.match);
    }
}

TEST(Thresholds, GlobalDoublesGapTerms)
{
    const Scoring s = Scoring::bwaDefault();
    const Thresholds semi =
        computeThresholds(101, 41, 30, s, ExtensionKind::SemiGlobal);
    const Thresholds global =
        computeThresholds(101, 41, 30, s, ExtensionKind::Global);
    EXPECT_EQ(semi.s1 - global.s1, 6 + 41);
    EXPECT_EQ(semi.s2 - global.s2, 6 + 41);
}

TEST(Thresholds, S1IsTrueUpperBoundAboveBand)
{
    // Construct an alignment that must go above the band (insertion-heavy)
    // and verify its unbanded score never exceeds S1.
    Rng rng(71);
    for (int it = 0; it < 30; ++it) {
        const int w = 5 + static_cast<int>(rng.pick(20));
        std::vector<Base> tv, qv;
        for (int i = 0; i < 40; ++i)
            tv.push_back(static_cast<Base>(rng.pick(4)));
        // Query = target prefix + big insertion + target suffix.
        const int ins = w + 1 + static_cast<int>(rng.pick(10));
        for (int i = 0; i < 20; ++i)
            qv.push_back(tv[i]);
        for (int i = 0; i < ins; ++i)
            qv.push_back(static_cast<Base>(rng.pick(4)));
        for (int i = 20; i < 40; ++i)
            qv.push_back(tv[i]);
        const Sequence q{qv}, t{tv};
        const int h0 = 20;
        const Thresholds thr = computeThresholds(
            static_cast<int>(q.size()), w, h0, Scoring::bwaDefault());
        // The query needs > w net insertions, so every alignment is above
        // the band; its score must be bounded by S1.
        const ExtendResult full = kswExtend(q, t, h0, {});
        EXPECT_LE(full.gscore, thr.s1);
    }
}

// ------------------------------------------------------------ EScoreBound

TEST(EScore, BoundFormula)
{
    BandEdgeTrace trace;
    trace.boundary_e = {0, 7, 0, 3};
    // qlen = 10, m = 1: max(7 + (10-1-1), 3 + (10-3-1)) = max(15, 9).
    EXPECT_EQ(eScoreBound(trace, 10, 1), 15);
}

TEST(EScore, DeadCrossingsIgnored)
{
    BandEdgeTrace trace;
    trace.boundary_e = {0, 0, 0};
    EXPECT_EQ(eScoreBound(trace, 10, 1), 0);
}

TEST(EScore, EmptyTraceIsZero)
{
    EXPECT_EQ(eScoreBound(BandEdgeTrace{}, 101, 1), 0);
}

// -------------------------------------------------------------- EditCheck

TEST(EditCheck, EmptyRegionWhenTargetShort)
{
    const Sequence q = Sequence::fromString("ACGTACGTAC");
    const Sequence t = Sequence::fromString("ACGTACGTACGT");
    // w + 2 = 13 > tlen: no cell below the band.
    const EditCheckResult r =
        editCheck(q, t, 11, 30, Scoring::bwaDefault());
    EXPECT_EQ(r.scoreEd(), 0);
    EXPECT_EQ(r.gscore_bound, 0);
}

TEST(EditCheck, DetectsDeepDeletionAlignment)
{
    // Left-entry path: target = junk + query; aligning the query needs a
    // huge leading deletion, which lives entirely below a small band.
    const Sequence q = Sequence::fromString("ACGGTCAAGGCTTACGGATC");
    Sequence t = Sequence::fromString("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTT");
    t.append(q);
    const int w = 3, h0 = 60;
    const EditCheckResult r = editCheck(q, t, w, h0, Scoring::bwaDefault());
    // The relaxed bound must be at least the true affine score of that
    // path: h0 - (go + 30*ge) + 20 matches.
    const int true_path = 60 - (6 + 30) + 20;
    EXPECT_GE(r.scoreEd(), true_path);
    EXPECT_GE(r.gscore_bound, true_path);
}

TEST(EditCheck, RelaxedSchemeRequired)
{
    // The default relaxed scheme must dominate the affine scheme; the
    // helper is also exercised with plain edit distance for comparison.
    const Sequence q = Sequence::fromString("ACGGTCAAGGCTTACGGATC");
    Sequence t = Sequence::fromString("GGGGGGGGGGGGGGGG");
    t.append(q);
    const EditCheckResult relaxed =
        editCheck(q, t, 3, 40, Scoring::bwaDefault());
    const EditCheckResult plain = editCheck(
        q, t, 3, 40, Scoring::bwaDefault(), Scoring::editDistance());
    EXPECT_GE(relaxed.scoreEd(), plain.scoreEd());
}

// ---------------------------------------------------- Filter workflow unit

TEST(Filter, PerfectExtensionPassesS2)
{
    Rng rng(73);
    std::vector<Base> b(101);
    for (auto &x : b)
        x = static_cast<Base>(rng.pick(4));
    const Sequence q{b};
    Sequence t = q;
    t.append(Sequence::fromString("ACGTACGTACGT"));
    SeedExConfig cfg;
    cfg.band = 41;
    const SeedExFilter filter(cfg);
    const FilterOutcome out = filter.run(q, t, 30);
    EXPECT_EQ(out.verdict, Verdict::PassS2);
    EXPECT_TRUE(out.isAccepted());
    EXPECT_EQ(out.narrow.score, 30 + 101);
}

TEST(Filter, GarbageExtensionFailsS1)
{
    // Query aligns nowhere: score stays h0, below S1.
    const Sequence q{std::vector<Base>(101, kBaseA)};
    const Sequence t{std::vector<Base>(150, kBaseC)};
    SeedExConfig cfg;
    cfg.band = 41;
    const SeedExFilter filter(cfg);
    const FilterOutcome out = filter.run(q, t, 30);
    EXPECT_EQ(out.verdict, Verdict::FailS1);
    EXPECT_FALSE(out.isAccepted());
}

TEST(Filter, DisabledChecksForceRerunInGrayZone)
{
    // A read with enough mismatches to land between S1 and S2.
    Rng rng(79);
    ReferenceParams rp;
    rp.length = 50000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimParams sp;
    sp.base_error_rate = 0.08; // heavy errors keep scores below S2
    sp.long_indel_read_fraction = 0;
    sp.reverse_fraction = 0;
    ReadSimulator sim(ref, sp);

    SeedExConfig with;
    with.band = 41;
    with.strict_gscore = false;
    SeedExConfig without = with;
    without.enable_e_check = false;
    const SeedExFilter f_with(with), f_without(without);

    int gray = 0, accepted_with = 0, accepted_without = 0;
    for (int i = 0; i < 200; ++i) {
        const auto read = sim.simulate(rng, i);
        const Sequence q = read.seq;
        const Sequence t = ref.slice(read.true_pos, q.size() + 50);
        const FilterOutcome a = f_with.run(q, t, 30);
        const FilterOutcome b = f_without.run(q, t, 30);
        if (a.verdict == Verdict::PassChecks ||
            a.verdict == Verdict::FailEScore ||
            a.verdict == Verdict::FailEditCheck) {
            ++gray;
            accepted_with += a.isAccepted();
            accepted_without += b.isAccepted();
            EXPECT_FALSE(b.isAccepted());
        }
    }
    ASSERT_GT(gray, 0) << "workload never hit the gray zone";
    EXPECT_GT(accepted_with, accepted_without);
}

TEST(FilterStats, Accumulates)
{
    FilterStats stats;
    FilterOutcome pass;
    pass.verdict = Verdict::PassS2;
    FilterOutcome checks;
    checks.verdict = Verdict::PassChecks;
    checks.ran_edit_machine = true;
    FilterOutcome fail;
    fail.verdict = Verdict::FailEditCheck;
    fail.ran_edit_machine = true;
    stats.add(pass);
    stats.add(checks);
    stats.add(fail);
    EXPECT_EQ(stats.total, 3u);
    EXPECT_EQ(stats.edit_machine_runs, 2u);
    EXPECT_DOUBLE_EQ(stats.passRate(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(stats.thresholdPassRate(), 1.0 / 3.0);
}

// --------------------------------------- The optimality guarantee property

struct PropertyParams
{
    int seed;
    int band;
};

class OptimalityProperty
    : public ::testing::TestWithParam<PropertyParams>
{
  protected:
    /** Build one realistic extension job and its unbanded truth. */
    struct Job
    {
        Sequence query, target;
        int h0;
        ExtendResult truth;
    };

    std::vector<Job>
    makeJobs(int seed, int count)
    {
        Rng rng(9000 + seed);
        ReferenceParams rp;
        rp.length = 100000;
        const Sequence ref = generateReference(rp, rng);
        ReadSimParams sp;
        sp.long_indel_read_fraction = 0.08;
        sp.base_error_rate = 0.01;
        sp.small_indel_rate = 0.002;
        ReadSimulator sim(ref, sp);
        std::vector<Job> jobs;
        for (int i = 0; i < count; ++i) {
            const auto read = sim.simulate(rng, i);
            const Sequence oriented =
                read.reverse ? read.seq.reverseComplement() : read.seq;
            const size_t split = rng.pick(60);
            Job job;
            job.query = oriented.slice(split, 101);
            job.target =
                ref.slice(read.true_pos + split,
                          job.query.size() + 50 + rng.pick(30));
            job.h0 = 1 + static_cast<int>(split);
            if (job.query.empty() || job.target.empty())
                continue;
            job.truth = kswExtend(job.query, job.target, job.h0, {});
            jobs.push_back(std::move(job));
        }
        return jobs;
    }
};

TEST_P(OptimalityProperty, AcceptedResultsAreBitEquivalent)
{
    const auto p = GetParam();
    SeedExConfig cfg;
    cfg.band = p.band;
    cfg.strict_gscore = true;
    const SeedExFilter filter(cfg);
    int accepted = 0;
    for (const auto &job : makeJobs(p.seed, 60)) {
        const FilterOutcome out =
            filter.run(job.query, job.target, job.h0);
        if (!out.isAccepted())
            continue;
        ++accepted;
        EXPECT_EQ(out.narrow.score, job.truth.score);
        EXPECT_EQ(out.narrow.qle, job.truth.qle);
        EXPECT_EQ(out.narrow.tle, job.truth.tle);
        EXPECT_TRUE(gscoreEquivalent(out.narrow, job.truth))
            << out.narrow.gscore << " vs " << job.truth.gscore;
    }
    // The workload is benign enough that some extensions must pass.
    EXPECT_GT(accepted, 0);
}

TEST_P(OptimalityProperty, PaperModeAcceptedScoresAreOptimal)
{
    const auto p = GetParam();
    SeedExConfig cfg;
    cfg.band = p.band;
    cfg.strict_gscore = false; // the published checks
    const SeedExFilter filter(cfg);
    for (const auto &job : makeJobs(p.seed + 100, 60)) {
        const FilterOutcome out =
            filter.run(job.query, job.target, job.h0);
        if (!out.isAccepted())
            continue;
        EXPECT_EQ(out.narrow.score, job.truth.score);
        EXPECT_EQ(out.narrow.qle, job.truth.qle);
        EXPECT_EQ(out.narrow.tle, job.truth.tle);
    }
}

TEST_P(OptimalityProperty, RerunWorkflowAlwaysOptimalScore)
{
    const auto p = GetParam();
    SeedExConfig cfg;
    cfg.band = p.band;
    const SeedExFilter filter(cfg);
    FilterStats stats;
    for (const auto &job : makeJobs(p.seed + 200, 40)) {
        const ExtendResult final_res = filter.runWithRerun(
            job.query, job.target, job.h0, &stats);
        EXPECT_EQ(final_res.score, job.truth.score);
        EXPECT_EQ(final_res.qle, job.truth.qle);
        EXPECT_EQ(final_res.tle, job.truth.tle);
    }
    EXPECT_EQ(stats.total, 40u);
}

INSTANTIATE_TEST_SUITE_P(
    BandsAndSeeds, OptimalityProperty,
    ::testing::Values(PropertyParams{0, 5}, PropertyParams{1, 5},
                      PropertyParams{2, 10}, PropertyParams{3, 10},
                      PropertyParams{4, 20}, PropertyParams{5, 41},
                      PropertyParams{6, 41}, PropertyParams{7, 80}),
    [](const auto &info) {
        return "seed" + std::to_string(info.param.seed) + "_w" +
               std::to_string(info.param.band);
    });

/** Adversarial stress: pure-random string pairs (no planted alignment). */
class AdversarialProperty : public ::testing::TestWithParam<int>
{};

TEST_P(AdversarialProperty, RandomPairsNeverAcceptWrongScore)
{
    Rng rng(5000 + GetParam());
    for (int it = 0; it < 150; ++it) {
        const size_t qlen = 20 + rng.pick(100);
        const size_t tlen = 20 + rng.pick(160);
        std::vector<Base> qv(qlen), tv(tlen);
        for (auto &x : qv)
            x = static_cast<Base>(rng.pick(4));
        for (auto &x : tv)
            x = static_cast<Base>(rng.pick(4));
        // Half the time, plant a shared block to create partial homology.
        if (rng.coin(0.5) && qlen > 12 && tlen > 12) {
            const size_t len = 8 + rng.pick(std::min(qlen, tlen) - 10);
            const size_t qp = rng.pick(qlen - len);
            const size_t tp = rng.pick(tlen - len);
            for (size_t k = 0; k < len; ++k)
                tv[tp + k] = qv[qp + k];
        }
        const Sequence q{qv}, t{tv};
        const int h0 = 1 + static_cast<int>(rng.pick(60));
        const int band = 1 + static_cast<int>(rng.pick(30));

        SeedExConfig cfg;
        cfg.band = band;
        cfg.strict_gscore = true;
        const SeedExFilter filter(cfg);
        const FilterOutcome out = filter.run(q, t, h0);
        if (!out.isAccepted())
            continue;
        const ExtendResult truth = kswExtend(q, t, h0, {});
        ASSERT_EQ(out.narrow.score, truth.score)
            << "band " << band << " h0 " << h0 << " q "
            << q.toString() << " t " << t.toString();
        ASSERT_TRUE(gscoreEquivalent(out.narrow, truth))
            << "band " << band << " h0 " << h0 << " gscore "
            << out.narrow.gscore << " vs " << truth.gscore << " q "
            << q.toString() << " t " << t.toString();
        ASSERT_EQ(out.narrow.qle, truth.qle);
        ASSERT_EQ(out.narrow.tle, truth.tle);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialProperty,
                         ::testing::Range(0, 10));

/** The paper's Fig. 13 claim in miniature: SeedEx output is invariant to
 *  the band setting. */
TEST(Filter, OutputInvariantAcrossBands)
{
    Rng rng(87);
    ReferenceParams rp;
    rp.length = 60000;
    const Sequence ref = generateReference(rp, rng);
    ReadSimulator sim(ref, {});
    for (int i = 0; i < 30; ++i) {
        const auto read = sim.simulate(rng, i);
        const Sequence q =
            read.reverse ? read.seq.reverseComplement() : read.seq;
        const Sequence t = ref.slice(read.true_pos, q.size() + 40);
        ExtendResult first;
        bool have_first = false;
        for (int band : {5, 10, 41, 100}) {
            SeedExConfig cfg;
            cfg.band = band;
            const ExtendResult r =
                SeedExFilter(cfg).runWithRerun(q, t, 30);
            if (!have_first) {
                first = r;
                have_first = true;
            } else {
                EXPECT_EQ(r.score, first.score);
                EXPECT_EQ(r.qle, first.qle);
                EXPECT_EQ(r.tle, first.tle);
                EXPECT_TRUE(gscoreEquivalent(r, first));
            }
        }
    }
}

// ------------------------------------------- One-step engine vs full band

/** Random pair: target from the reference alphabet, query a mutated copy
 *  (0-12% errors, substitutions plus occasional 1-3 base indels), so the
 *  fuzz covers clean accepts and full-band reruns alike. */
struct FuzzCase
{
    Sequence query;
    Sequence target;
    int h0 = 0;
};

FuzzCase
makeFuzzCase(Rng &rng)
{
    const int tlen = 60 + static_cast<int>(rng.pick(120));
    std::vector<Base> tv;
    tv.reserve(tlen);
    for (int i = 0; i < tlen; ++i)
        tv.push_back(static_cast<Base>(rng.pick(4)));

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
    return c;
}

/** The SeedEx engine's one speculative rung (capped at the estimate)
 *  plus host rerun returns the estimated-full-band result on every
 *  fuzzed pair, at the deployed band and at a narrow one. max_off is not
 *  part of the contract: it reports the band the winning run used. */
TEST(SeedExEngineDiff, MatchesFullBandFuzz)
{
    for (const int band : {41, 11}) {
        SeedExConfig cfg;
        cfg.band = band;
        SeedExEngine engine(cfg);
        Rng rng(20260809 + band);
        const int kCases = 1500;
        for (int i = 0; i < kCases; ++i) {
            const FuzzCase c = makeFuzzCase(rng);
            ExtendConfig full;
            full.scoring = cfg.scoring;
            full.band = estimateFullBand(static_cast<int>(c.query.size()),
                                         cfg.scoring, cfg.end_bonus);
            const ExtendResult want =
                kswExtend(c.query, c.target, c.h0, full);
            const ExtendResult got = engine.extend(c.query, c.target, c.h0);
            ASSERT_EQ(got.score, want.score) << band << " @" << i;
            ASSERT_EQ(got.qle, want.qle) << band << " @" << i;
            ASSERT_EQ(got.tle, want.tle) << band << " @" << i;
            ASSERT_TRUE(gscoreEquivalent(got, want)) << band << " @" << i;
        }
        // Exactly one verdict per extension, and both regimes covered.
        const FilterStats &stats = engine.stats();
        EXPECT_EQ(stats.total, static_cast<uint64_t>(kCases));
        EXPECT_GT(stats.pass_s2 + stats.pass_checks, 0u) << band;
        EXPECT_LT(stats.pass_s2 + stats.pass_checks, stats.total) << band;
    }
}

} // namespace
} // namespace seedex
