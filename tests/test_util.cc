#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/crc32.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace seedex {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, CoinMatchesProbability)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 50000; ++i)
        heads += rng.coin(0.25);
    EXPECT_NEAR(heads / 50000.0, 0.25, 0.02);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 2);
}

/** Bit-at-a-time reflected CRC-32: the definition the table-driven
 *  implementation must reproduce. */
uint32_t
crc32Bitwise(const uint8_t *p, size_t len)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t>
randomBytes(uint64_t seed, size_t len)
{
    Rng rng(seed);
    std::vector<uint8_t> bytes(len);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    return bytes;
}

TEST(Crc32, CheckValueAndEmptyInput)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(check, 0), 0u);
    Crc32 empty;
    EXPECT_EQ(empty.value(), 0u);
}

TEST(Crc32, ChunkedUpdateMatchesOneShotAtEverySplit)
{
    const std::vector<uint8_t> buf = randomBytes(11, 1024);
    const uint32_t whole = crc32(buf.data(), buf.size());
    EXPECT_EQ(whole, crc32Bitwise(buf.data(), buf.size()));
    for (size_t split = 0; split <= buf.size(); ++split) {
        Crc32 crc;
        crc.update(buf.data(), split);
        crc.update(buf.data() + split, buf.size() - split);
        ASSERT_EQ(crc.value(), whole) << "split at " << split;
    }
}

TEST(Crc32, WordWidePathMatchesBytewiseAtEveryOffset)
{
    // Lengths straddle the 8-byte word loop and its bytewise tail;
    // offsets 0..7 put the words at every alignment.
    const std::vector<uint8_t> buf = randomBytes(12, 64 + 8);
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t len = 0; len <= 64; ++len) {
            const uint8_t *p = buf.data() + offset;
            ASSERT_EQ(crc32(p, len), crc32Bitwise(p, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Histogram, CountsAndFractions)
{
    Histogram h;
    for (int i = 0; i < 90; ++i)
        h.add(5);
    for (int i = 0; i < 10; ++i)
        h.add(50);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.countAtMost(5), 90u);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(10), 0.9);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(50), 1.0);
    EXPECT_EQ(h.countInRange(6, 50), 10u);
    EXPECT_EQ(h.max(), 50);
    EXPECT_NEAR(h.mean(), 0.9 * 5 + 0.1 * 50, 1e-9);
}

TEST(Histogram, Quantile)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.quantile(0.5), 50);
    EXPECT_EQ(h.quantile(0.98), 98);
    EXPECT_EQ(h.quantile(1.0), 100);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.fractionAtMost(10), 0.0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_EQ(h.percentile(0.5), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, PercentileNearestRank)
{
    Histogram h;
    for (int v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 50);
    EXPECT_EQ(h.percentile(0.90), 90);
    EXPECT_EQ(h.percentile(0.99), 99);
    EXPECT_EQ(h.percentile(1.0), 100);
    // Small q still returns the smallest value (rank clamps to >= 1),
    // and out-of-range q clamps instead of misbehaving.
    EXPECT_EQ(h.percentile(0.0), 1);
    EXPECT_EQ(h.percentile(0.001), 1);
    EXPECT_EQ(h.percentile(-1.0), 1);
    EXPECT_EQ(h.percentile(7.0), 100);
}

TEST(Histogram, PercentileSmallSampleRanks)
{
    Histogram h;
    h.add(10);
    h.add(20);
    h.add(30);
    // ceil(0.5 * 3) = 2nd smallest; ceil(0.34 * 3) = 2nd as well.
    EXPECT_EQ(h.percentile(0.5), 20);
    EXPECT_EQ(h.percentile(0.34), 20);
    EXPECT_EQ(h.percentile(0.33), 10);
    EXPECT_EQ(h.percentile(0.67), 30);
}

TEST(RunningStats, Basics)
{
    RunningStats s;
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stopwatch, AccumulatesAcrossIntervals)
{
    Stopwatch w;
    w.start();
    w.stop();
    const double first = w.seconds();
    w.start();
    w.stop();
    EXPECT_GE(w.seconds(), first);
    w.reset();
    EXPECT_EQ(w.seconds(), 0.0);
}

TEST(Stopwatch, StartWhileRunningKeepsAccumulating)
{
    // Resume semantics: a second start() must not rebase the interval
    // and drop the time accumulated since the first start().
    Stopwatch w;
    w.start();
    // Burn a measurable amount of time.
    volatile double sink = 0;
    for (int i = 0; i < 2000000; ++i)
        sink = sink + static_cast<double>(i);
    const double before = w.seconds();
    ASSERT_GT(before, 0.0);
    w.start(); // no-op: already running
    EXPECT_GE(w.seconds(), before);
    w.stop();
    EXPECT_GE(w.seconds(), before);
}

TEST(Stopwatch, LapFoldsIntervalsAndReturnsThem)
{
    Stopwatch w;
    // lap() on a stopped watch starts it and returns 0.
    EXPECT_EQ(w.lap(), 0.0);
    volatile double sink = 0;
    for (int i = 0; i < 1000000; ++i)
        sink = sink + static_cast<double>(i);
    const double lap1 = w.lap();
    EXPECT_GT(lap1, 0.0);
    // The folded interval is part of the running total.
    EXPECT_GE(w.seconds(), lap1);
    const double lap2 = w.lap();
    EXPECT_GE(lap2, 0.0);
    w.stop();
    EXPECT_GE(w.seconds(), lap1 + lap2);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"a", "long_column"});
    t.addRow({"xx", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("long_column"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, HandlesRowsWiderThanHeader)
{
    TextTable t;
    t.setHeader({"only"});
    t.addRow({"a", "b", "c"});
    EXPECT_NE(t.render().find("c"), std::string::npos);
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
    EXPECT_EQ(strprintf("empty"), "empty");
}

} // namespace
} // namespace seedex
