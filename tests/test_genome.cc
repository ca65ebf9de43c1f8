#include <gtest/gtest.h>

#include <sstream>

#include "genome/fasta.h"
#include "genome/nucleotide.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "genome/sequence.h"

namespace seedex {
namespace {

TEST(Nucleotide, RoundTrip)
{
    for (char c : std::string("ACGTN")) {
        EXPECT_EQ(charFromBase(baseFromChar(c)), c);
    }
    EXPECT_EQ(baseFromChar('a'), kBaseA);
    EXPECT_EQ(baseFromChar('x'), kBaseN);
}

TEST(Nucleotide, Complement)
{
    EXPECT_EQ(complement(kBaseA), kBaseT);
    EXPECT_EQ(complement(kBaseT), kBaseA);
    EXPECT_EQ(complement(kBaseC), kBaseG);
    EXPECT_EQ(complement(kBaseG), kBaseC);
    EXPECT_EQ(complement(kBaseN), kBaseN);
}

TEST(Sequence, StringRoundTrip)
{
    const std::string text = "ACGTNACGT";
    EXPECT_EQ(Sequence::fromString(text).toString(), text);
}

TEST(Sequence, Slice)
{
    const Sequence s = Sequence::fromString("ACGTACGT");
    EXPECT_EQ(s.slice(2, 3).toString(), "GTA");
    EXPECT_EQ(s.slice(6, 10).toString(), "GT"); // clamped
    EXPECT_TRUE(s.slice(100, 3).empty());
}

TEST(Sequence, ReverseComplement)
{
    const Sequence s = Sequence::fromString("AACGT");
    EXPECT_EQ(s.reverseComplement().toString(), "ACGTT");
    // Involution.
    EXPECT_EQ(s.reverseComplement().reverseComplement(), s);
}

TEST(Sequence, Append)
{
    Sequence s = Sequence::fromString("AC");
    s.append(Sequence::fromString("GT"));
    EXPECT_EQ(s.toString(), "ACGT");
}

TEST(PackedSequence, RoundTripNoN)
{
    Rng rng(3);
    std::vector<Base> bases;
    for (int i = 0; i < 1000; ++i)
        bases.push_back(static_cast<Base>(rng.pick(4)));
    const Sequence s{std::vector<Base>(bases)};
    const PackedSequence p = PackedSequence::pack(s);
    ASSERT_EQ(p.size(), s.size());
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(p[i], s[i]) << i;
    EXPECT_EQ(p.unpack(10, 50), s.slice(10, 50));
}

TEST(PackedSequence, CollapsesN)
{
    const PackedSequence p =
        PackedSequence::pack(Sequence::fromString("ANGT"));
    EXPECT_EQ(p[1], kBaseA);
}

TEST(PackedSequence, StorageIsTwoBits)
{
    const PackedSequence p = PackedSequence::pack(
        Sequence{std::vector<Base>(1024, kBaseC)});
    EXPECT_EQ(p.storageBytes(), 1024u / 4);
}

TEST(Fasta, RoundTrip)
{
    std::vector<FastaRecord> recs{{"chr1", Sequence::fromString("ACGTACGT")},
                                  {"chr2 description",
                                   Sequence::fromString(std::string(200, 'G'))}};
    std::stringstream buf;
    writeFasta(buf, recs);
    const auto parsed = readFasta(buf);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].name, "chr1");
    EXPECT_EQ(parsed[0].seq, recs[0].seq);
    EXPECT_EQ(parsed[1].seq, recs[1].seq);
}

TEST(Fasta, RejectsSequenceBeforeHeader)
{
    std::stringstream buf("ACGT\n");
    EXPECT_THROW(readFasta(buf), std::runtime_error);
}

TEST(Fastq, RoundTrip)
{
    std::vector<FastqRecord> recs{
        {"r1", Sequence::fromString("ACGT"), "IIII"},
        {"r2", Sequence::fromString("GGTT"), "!!!!"}};
    std::stringstream buf;
    writeFastq(buf, recs);
    const auto parsed = readFastq(buf);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].seq.toString(), "ACGT");
    EXPECT_EQ(parsed[1].qual, "!!!!");
}

TEST(Fastq, RejectsQualityLengthMismatch)
{
    std::stringstream buf("@r\nACGT\n+\nII\n");
    EXPECT_THROW(readFastq(buf), std::runtime_error);
}

TEST(FastxFiles, WriteFailureThrowsInsteadOfTruncating)
{
    // /dev/full opens fine and fails every write (ENOSPC): the writers
    // must report it, not leave a silently short file behind.
    const std::vector<FastaRecord> fasta{
        {"chr", Sequence::fromString("ACGTACGTAC")}};
    const std::vector<FastqRecord> fastq{
        {"r1", Sequence::fromString("ACGT"), "IIII"}};
    EXPECT_THROW(writeFastaFile("/dev/full", fasta), std::runtime_error);
    EXPECT_THROW(writeFastqFile("/dev/full", fastq), std::runtime_error);
}

TEST(Reference, GeneratesRequestedLengthWithoutN)
{
    Rng rng(1);
    ReferenceParams params;
    params.length = 10000;
    const Sequence ref = generateReference(params, rng);
    EXPECT_EQ(ref.size(), 10000u);
    for (Base b : ref)
        EXPECT_LT(b, kNumBases);
}

TEST(Reference, GcContentApproximatelyHonored)
{
    Rng rng(2);
    ReferenceParams params;
    params.length = 200000;
    params.gc_content = 0.41;
    params.repeat_fraction = 0;
    const Sequence ref = generateReference(params, rng);
    size_t gc = 0;
    for (Base b : ref)
        gc += b == kBaseG || b == kBaseC;
    EXPECT_NEAR(static_cast<double>(gc) / ref.size(), 0.41, 0.01);
}

TEST(Reference, Deterministic)
{
    ReferenceParams params;
    params.length = 5000;
    Rng a(9), b(9);
    EXPECT_EQ(generateReference(params, a), generateReference(params, b));
}

class ReadSimTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(17);
        ReferenceParams params;
        params.length = 100000;
        ref_ = generateReference(params, rng);
    }

    Sequence ref_;
};

TEST_F(ReadSimTest, ReadLengthAndDeterminism)
{
    ReadSimulator sim(ref_, {});
    Rng a(5), b(5);
    const auto r1 = sim.simulate(a, 0);
    const auto r2 = sim.simulate(b, 0);
    EXPECT_EQ(r1.seq, r2.seq);
    EXPECT_EQ(r1.seq.size(), sim.params().read_length);
}

TEST_F(ReadSimTest, ErrorFreeReadsMatchReference)
{
    ReadSimParams p;
    p.base_error_rate = 0;
    p.snp_rate = 0;
    p.small_indel_rate = 0;
    p.long_indel_read_fraction = 0;
    p.reverse_fraction = 0;
    ReadSimulator sim(ref_, p);
    Rng rng(21);
    for (int i = 0; i < 20; ++i) {
        const auto read = sim.simulate(rng, i);
        EXPECT_EQ(read.seq,
                  ref_.slice(read.true_pos, p.read_length));
        EXPECT_EQ(read.substitutions, 0);
        EXPECT_EQ(read.inserted + read.deleted, 0);
    }
}

TEST_F(ReadSimTest, ReverseStrandReadsMatchReverseComplement)
{
    ReadSimParams p;
    p.base_error_rate = 0;
    p.snp_rate = 0;
    p.small_indel_rate = 0;
    p.long_indel_read_fraction = 0;
    p.reverse_fraction = 1.0;
    ReadSimulator sim(ref_, p);
    Rng rng(23);
    const auto read = sim.simulate(rng, 0);
    EXPECT_EQ(read.seq.reverseComplement(),
              ref_.slice(read.true_pos, p.read_length));
}

TEST_F(ReadSimTest, SubstitutionRateRoughlyHonored)
{
    ReadSimParams p;
    p.base_error_rate = 0.01;
    p.snp_rate = 0.01;
    p.small_indel_rate = 0;
    p.long_indel_read_fraction = 0;
    ReadSimulator sim(ref_, p);
    Rng rng(29);
    uint64_t subs = 0, bases = 0;
    for (int i = 0; i < 500; ++i) {
        const auto read = sim.simulate(rng, i);
        subs += static_cast<uint64_t>(read.substitutions);
        bases += read.seq.size();
    }
    EXPECT_NEAR(static_cast<double>(subs) / static_cast<double>(bases),
                0.02, 0.005);
}

TEST_F(ReadSimTest, LongIndelFractionRoughlyHonored)
{
    ReadSimParams p;
    p.small_indel_rate = 0;
    p.long_indel_read_fraction = 0.2;
    ReadSimulator sim(ref_, p);
    Rng rng(31);
    int with_long = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const auto read = sim.simulate(rng, i);
        with_long += read.inserted >= p.long_indel_min ||
                     read.deleted >= p.long_indel_min;
    }
    EXPECT_NEAR(with_long / static_cast<double>(n), 0.2, 0.04);
}

TEST_F(ReadSimTest, BatchProducesDistinctPositions)
{
    ReadSimulator sim(ref_, {});
    Rng rng(37);
    const auto reads = sim.simulateBatch(rng, 50);
    ASSERT_EQ(reads.size(), 50u);
    size_t distinct = 0;
    for (size_t i = 1; i < reads.size(); ++i)
        distinct += reads[i].true_pos != reads[0].true_pos;
    EXPECT_GT(distinct, 40u);
}

} // namespace
} // namespace seedex
