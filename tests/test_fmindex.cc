#include <gtest/gtest.h>

#include <set>

#include "fmindex/fmd_index.h"
#include "fmindex/smem.h"
#include "fmindex/suffix_array.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"

namespace seedex {
namespace {

std::vector<uint8_t>
randomText(Rng &rng, size_t len, int alphabet)
{
    std::vector<uint8_t> t(len);
    for (auto &c : t)
        c = static_cast<uint8_t>(rng.pick(alphabet));
    return t;
}

// ------------------------------------------------------------ SuffixArray

TEST(SuffixArray, EmptyAndSingle)
{
    EXPECT_TRUE(buildSuffixArray({}).empty());
    EXPECT_EQ(buildSuffixArray({7}), std::vector<int32_t>{0});
}

TEST(SuffixArray, KnownBanana)
{
    // "banana" with b=1,a=0,n=2.
    const std::vector<uint8_t> text{1, 0, 2, 0, 2, 0};
    EXPECT_EQ(buildSuffixArray(text), buildSuffixArrayNaive(text));
}

TEST(SuffixArray, AllSameCharacter)
{
    const std::vector<uint8_t> text(64, 3);
    const auto sa = buildSuffixArray(text);
    // Suffixes of a unary string sort longest-last.
    for (size_t i = 0; i < text.size(); ++i)
        EXPECT_EQ(sa[i], static_cast<int32_t>(text.size() - 1 - i));
}

TEST(SuffixArray, PeriodicText)
{
    std::vector<uint8_t> text;
    for (int i = 0; i < 40; ++i)
        text.push_back(static_cast<uint8_t>(i % 4));
    EXPECT_EQ(buildSuffixArray(text), buildSuffixArrayNaive(text));
}

class SuffixArrayRandom : public ::testing::TestWithParam<int>
{};

TEST_P(SuffixArrayRandom, MatchesNaive)
{
    Rng rng(6000 + GetParam());
    for (int it = 0; it < 10; ++it) {
        const size_t len = 1 + rng.pick(500);
        const int alphabet = 2 + static_cast<int>(rng.pick(5));
        const auto text = randomText(rng, len, alphabet);
        EXPECT_EQ(buildSuffixArray(text), buildSuffixArrayNaive(text))
            << "len " << len << " alphabet " << alphabet;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArrayRandom, ::testing::Range(0, 6));

// --------------------------------------------------------------- FmdIndex

class FmdFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(61);
        ReferenceParams params;
        params.length = 3000;
        params.repeat_fraction = 0.1;
        ref_ = generateReference(params, rng);
        index_ = std::make_unique<FmdIndex>(ref_);
    }

    /** Brute-force count of pattern occurrences on both strands. */
    size_t
    countBothStrands(const Sequence &pattern) const
    {
        size_t n = 0;
        const std::string hay = ref_.toString();
        const std::string fwd = pattern.toString();
        const std::string rev = pattern.reverseComplement().toString();
        for (size_t i = 0; i + fwd.size() <= hay.size(); ++i) {
            n += hay.compare(i, fwd.size(), fwd) == 0;
            if (rev != fwd)
                n += hay.compare(i, rev.size(), rev) == 0;
        }
        return n;
    }

    Sequence ref_;
    std::unique_ptr<FmdIndex> index_;
};

TEST_F(FmdFixture, MatchCountsAgreeWithBruteForce)
{
    Rng rng(63);
    for (int it = 0; it < 40; ++it) {
        const size_t len = 3 + rng.pick(18);
        const size_t pos = rng.pick(ref_.size() - len);
        Sequence pattern = ref_.slice(pos, len);
        if (rng.coin(0.3))
            pattern = pattern.reverseComplement();
        const FmdInterval iv = index_->match(pattern);
        EXPECT_EQ(iv.s, countBothStrands(pattern))
            << pattern.toString();
    }
}

TEST_F(FmdFixture, AbsentPatternHasEmptyInterval)
{
    // Random 25-mers are almost surely absent from a 3 kbp reference;
    // verify against brute force either way.
    Rng rng(67);
    for (int it = 0; it < 20; ++it) {
        std::vector<Base> b(25);
        for (auto &x : b)
            x = static_cast<Base>(rng.pick(4));
        const Sequence pattern{b};
        EXPECT_EQ(index_->match(pattern).s, countBothStrands(pattern));
    }
}

TEST_F(FmdFixture, IntervalSymmetry)
{
    // The l field of W's interval is the k field of revcomp(W)'s.
    Rng rng(69);
    for (int it = 0; it < 25; ++it) {
        const size_t len = 4 + rng.pick(12);
        const size_t pos = rng.pick(ref_.size() - len);
        const Sequence w = ref_.slice(pos, len);
        const FmdInterval a = index_->match(w);
        const FmdInterval b = index_->match(w.reverseComplement());
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a.l, b.k);
        EXPECT_EQ(a.s, b.s);
    }
}

TEST_F(FmdFixture, ForwardExtensionEqualsBackwardSearch)
{
    Rng rng(71);
    for (int it = 0; it < 25; ++it) {
        const size_t len = 4 + rng.pick(12);
        const size_t pos = rng.pick(ref_.size() - len);
        const Sequence w = ref_.slice(pos, len);
        // Build the interval left-to-right with forward extensions.
        FmdInterval iv = index_->init(w[0]);
        for (size_t i = 1; i < w.size(); ++i)
            iv = index_->extend(iv, w[i], false);
        const FmdInterval back = index_->match(w);
        EXPECT_EQ(iv.k, back.k);
        EXPECT_EQ(iv.l, back.l);
        EXPECT_EQ(iv.s, back.s);
    }
}

TEST_F(FmdFixture, LocateFindsTruePositions)
{
    Rng rng(73);
    for (int it = 0; it < 25; ++it) {
        const size_t len = 12 + rng.pick(10);
        const size_t pos = rng.pick(ref_.size() - len);
        const bool use_rev = rng.coin(0.5);
        Sequence pattern = ref_.slice(pos, len);
        if (use_rev)
            pattern = pattern.reverseComplement();
        const FmdInterval iv = index_->match(pattern);
        ASSERT_GE(iv.s, 1u);
        const auto hits = index_->locate(iv, 64, len);
        ASSERT_EQ(hits.size(), std::min<uint64_t>(iv.s, 64));
        bool found = false;
        for (const FmdHit &hit : hits) {
            // Every hit must reproduce the pattern on the right strand.
            Sequence at = ref_.slice(hit.pos, len);
            if (hit.reverse)
                at = at.reverseComplement();
            EXPECT_EQ(at, pattern);
            found |= hit.pos == pos;
        }
        EXPECT_TRUE(found);
    }
}

TEST_F(FmdFixture, StorageAccounted)
{
    EXPECT_GT(index_->storageBytes(), ref_.size());
}

// ------------------------------------------------------------- KmerTable

TEST(KmerTable, DefaultKIsLog4OfTheGenomeClampedToFourToEight)
{
    // Benchmark-sized genomes (8 Mbp, 1 Mbp) and larger hit the cap.
    EXPECT_EQ(KmerTable::defaultK(8u << 20), 8);
    EXPECT_EQ(KmerTable::defaultK(1u << 20), 8);
    EXPECT_EQ(KmerTable::defaultK(uint64_t{3} << 30), 8);
    // Small genomes: the smallest k with 4^k >= length, at least 4.
    EXPECT_EQ(KmerTable::defaultK(0), 4);
    EXPECT_EQ(KmerTable::defaultK(256), 4);
    EXPECT_EQ(KmerTable::defaultK(257), 5);
    EXPECT_EQ(KmerTable::defaultK(3000), 6);
    EXPECT_EQ(KmerTable::defaultK(16384), 7);
    EXPECT_EQ(KmerTable::defaultK(16385), 8);
}

TEST_F(FmdFixture, KmerTableAtKEightIsTwoMebibytes)
{
    // sum_{l=1..8} 4^l = 87380 entries of 24 bytes, whatever the genome.
    const KmerTable table(*index_, 8);
    EXPECT_EQ(table.storageBytes(), 2097120u);
    // The fixture's 3 kbp genome gets the k=6 default table.
    ASSERT_NE(index_->kmerTable(), nullptr);
    EXPECT_EQ(index_->kmerTable()->k(), 6);
}

// ------------------------------------------------------------------- SMEM

class SmemFixture : public FmdFixture
{};

TEST_F(SmemFixture, ErrorFreeReadYieldsSpanningSmem)
{
    Rng rng(77);
    for (int it = 0; it < 10; ++it) {
        const size_t pos = rng.pick(ref_.size() - 101);
        const Sequence read = ref_.slice(pos, 101);
        const auto smems = collectSmems(*index_, read);
        ASSERT_FALSE(smems.empty());
        // Some SMEM must span the entire read (unique region) or at
        // least cover most of it (repeat region).
        int best = 0;
        for (const auto &smem : smems)
            best = std::max(best, smem.length());
        EXPECT_GE(best, 60);
    }
}

TEST_F(SmemFixture, SmemsAreMaximal)
{
    Rng rng(79);
    const size_t pos = rng.pick(ref_.size() - 101);
    Sequence read = ref_.slice(pos, 101);
    // Introduce two mismatches to split matches.
    read[30] = static_cast<Base>((read[30] + 1) % 4);
    read[70] = static_cast<Base>((read[70] + 2) % 4);
    const auto smems = collectSmems(*index_, read, 10);
    ASSERT_FALSE(smems.empty());
    for (const auto &smem : smems) {
        // Exact occurrence count of the SMEM substring must equal the
        // interval size.
        const Sequence sub = read.slice(smem.qbeg, smem.length());
        EXPECT_EQ(index_->match(sub).s, smem.interval.s);
        // Left-maximality: extending one base left kills or shrinks it.
        if (smem.qbeg > 0) {
            Sequence wider = read.slice(smem.qbeg - 1, smem.length() + 1);
            EXPECT_LT(index_->match(wider).s, smem.interval.s);
        }
        // Right-maximality.
        if (smem.qend < static_cast<int>(read.size())) {
            Sequence wider = read.slice(smem.qbeg, smem.length() + 1);
            EXPECT_LT(index_->match(wider).s, smem.interval.s);
        }
    }
}

TEST_F(SmemFixture, NoSmemContainsAnother)
{
    Rng rng(83);
    ReadSimParams sp;
    sp.base_error_rate = 0.02;
    ReadSimulator sim(ref_, sp);
    for (int it = 0; it < 10; ++it) {
        const auto read = sim.simulate(rng, it);
        const auto smems = collectSmems(*index_, read.seq, 10);
        for (size_t a = 0; a < smems.size(); ++a) {
            for (size_t b = 0; b < smems.size(); ++b) {
                if (a == b)
                    continue;
                const bool contains =
                    smems[a].qbeg <= smems[b].qbeg &&
                    smems[b].qend <= smems[a].qend;
                EXPECT_FALSE(contains)
                    << "SMEM " << a << " contains " << b;
            }
        }
    }
}

TEST_F(SmemFixture, AmbiguousBasesBreakMatches)
{
    const size_t pos = 500;
    Sequence read = ref_.slice(pos, 60);
    read[30] = kBaseN;
    const auto smems = collectSmems(*index_, read, 10);
    for (const auto &smem : smems) {
        // No SMEM crosses the N.
        EXPECT_TRUE(smem.qend <= 30 || smem.qbeg > 30);
    }
}

} // namespace
} // namespace seedex
