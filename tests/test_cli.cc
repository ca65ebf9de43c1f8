#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "apps/cli.h"
#include "fmindex/sdx.h"
#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "util/rng.h"

namespace seedex {
namespace {

// ---- helpers ------------------------------------------------------------

/** Drive the CLI in-process with a literal argv. */
int
cli(std::initializer_list<std::string> args)
{
    std::vector<std::string> store(args);
    std::vector<char *> argv;
    for (std::string &s : store)
        argv.push_back(s.data());
    return runCli(static_cast<int>(argv.size()), argv.data());
}

/** A path in this process's own scratch directory, removed at exit.
 *  ctest runs every test in its own process, in parallel, and fixtures
 *  rewrite their inputs, so a path shared across processes races (one
 *  process truncates a FASTA another is reading). */
std::string
tempPath(const std::string &name)
{
    struct ScratchDir
    {
        const std::filesystem::path path =
            std::filesystem::path(::testing::TempDir()) /
            ("seedex_cli_" + std::to_string(::getpid()));
        ScratchDir() { std::filesystem::create_directories(path); }
        ~ScratchDir()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const ScratchDir dir;
    return (dir.path / name).string();
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = 0;
    for (;;) {
        const size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/** One alignment line parsed back out of a SAM file. */
struct ParsedSam
{
    std::string qname;
    int flag = 0;
    std::string rname;
    uint64_t pos = 0; ///< 1-based, as rendered
    int mapq = 0;
    std::string cigar;
    int64_t tlen = 0;
    int score = 0; ///< AS:i:
};

struct ParsedSamFile
{
    std::vector<std::string> header;
    std::vector<ParsedSam> records;
};

ParsedSamFile
parseSamFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    ParsedSamFile sam;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] == '@') {
            sam.header.push_back(line);
            continue;
        }
        const std::vector<std::string> f = splitTabs(line);
        EXPECT_GE(f.size(), 11u) << line;
        if (f.size() < 11)
            continue;
        ParsedSam rec;
        rec.qname = f[0];
        rec.flag = std::stoi(f[1]);
        rec.rname = f[2];
        rec.pos = std::stoull(f[3]);
        rec.mapq = std::stoi(f[4]);
        rec.cigar = f[5];
        rec.tlen = std::stoll(f[8]);
        for (size_t i = 11; i < f.size(); ++i)
            if (f[i].rfind("AS:i:", 0) == 0)
                rec.score = std::stoi(f[i].substr(5));
        sam.records.push_back(std::move(rec));
    }
    return sam;
}

/** A two-contig workload: FASTA + FASTQ on disk plus the in-memory
 *  concatenated reference / contig table / read list the in-process
 *  Aligner consumes. */
struct Workload
{
    std::string fasta_path;
    std::string fastq_path;
    Sequence reference;
    ContigTable contigs;
    std::vector<std::pair<std::string, Sequence>> reads;
};

Workload
buildWorkload(const std::string &tag, size_t n_reads)
{
    Workload w;
    Rng rng(42);
    ReferenceParams pa;
    pa.length = 30000;
    const Sequence chr_a = generateReference(pa, rng);
    pa.length = 20000;
    const Sequence chr_b = generateReference(pa, rng);

    std::vector<Base> all(chr_a.bases());
    all.insert(all.end(), chr_b.bases().begin(), chr_b.bases().end());
    w.reference = Sequence(std::move(all));
    w.contigs.add("chrA", chr_a.size());
    w.contigs.add("chrB", chr_b.size());

    // Full FASTA names carry descriptions; the CLI must key @SQ on the
    // first token only.
    w.fasta_path = tempPath(tag + ".fa");
    writeFastaFile(w.fasta_path, {{"chrA first contig", chr_a},
                                  {"chrB second contig", chr_b}});

    ReadSimulator sim(w.reference, ReadSimParams::illumina());
    std::ofstream fq(w.fastq_path = tempPath(tag + ".fq"));
    for (size_t i = 0; i < n_reads; ++i) {
        SimulatedRead read = sim.simulate(rng, i);
        fq << '@' << read.name << '\n'
           << read.seq.toString() << '\n'
           << "+\n"
           << std::string(read.seq.size(), 'I') << '\n';
        w.reads.emplace_back(std::move(read.name), std::move(read.seq));
    }
    return w;
}

// ---- .sdx container -----------------------------------------------------

TEST(Sdx, SaveLoadRoundTrip)
{
    Rng rng(7);
    ReferenceParams pa;
    pa.length = 5000;
    Sequence ref = generateReference(pa, rng);
    // Inject Ns: the container must preserve them even though the
    // FM-index itself collapses N to A during construction.
    std::vector<Base> bases = ref.bases();
    bases[100] = kBaseN;
    bases[4999] = kBaseN;
    ref = Sequence(std::move(bases));

    const FmdIndex index(ref);
    const std::string path = tempPath("roundtrip.sdx");
    saveSdx(path, {{"c1", 3000}, {"c2", 2000}}, ref, index);
    EXPECT_TRUE(isSdxFile(path));

    const SdxData data = loadSdx(path);
    EXPECT_EQ(data.version, kSdxVersion);
    ASSERT_EQ(data.contigs.size(), 2u);
    EXPECT_EQ(data.contigs[0].name, "c1");
    EXPECT_EQ(data.contigs[1].length, 2000u);
    ASSERT_EQ(data.reference.size(), ref.size());
    EXPECT_EQ(data.reference.bases(), ref.bases());
    EXPECT_EQ(data.reference[100], kBaseN);
    ASSERT_NE(data.index, nullptr);
    EXPECT_EQ(data.index->referenceLength(), ref.size());
}

TEST(Sdx, SingleFlippedByteRejected)
{
    Rng rng(8);
    ReferenceParams pa;
    pa.length = 2000;
    const Sequence ref = generateReference(pa, rng);
    const FmdIndex index(ref);
    const std::string path = tempPath("corrupt.sdx");
    saveSdx(path, {{"c", 2000}}, ref, index);

    std::ifstream in(path, std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();

    // Flip one byte at several depths: contig header, packed reference,
    // FM-index payload, CRC footer itself.
    for (const size_t at : {size_t{10}, size_t{30}, blob.size() / 2,
                            blob.size() - 2}) {
        std::string bad = blob;
        bad[at] = static_cast<char>(bad[at] ^ 0x40);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
        out.close();
        try {
            loadSdx(path);
            FAIL() << "flipped byte at " << at << " was accepted";
        } catch (const SdxError &e) {
            EXPECT_NE(std::string(e.what()).find("seedex index"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Sdx, TruncationAndBadMagicRejected)
{
    Rng rng(9);
    ReferenceParams pa;
    pa.length = 2000;
    const Sequence ref = generateReference(pa, rng);
    const FmdIndex index(ref);
    const std::string path = tempPath("trunc.sdx");
    saveSdx(path, {{"c", 2000}}, ref, index);

    std::ifstream in(path, std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();

    for (const size_t keep : {size_t{0}, size_t{4}, size_t{20},
                              blob.size() - 5}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(blob.data(), static_cast<std::streamsize>(keep));
        out.close();
        EXPECT_THROW(loadSdx(path), SdxError) << "kept " << keep;
    }

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not an index at all, definitely long enough to read";
    out.close();
    EXPECT_THROW(loadSdx(path), SdxError);
    EXPECT_FALSE(isSdxFile(path));
}

// ---- CLI round trip -----------------------------------------------------

class CliRoundTrip : public ::testing::Test
{
  protected:
    static const Workload &
    workload()
    {
        static const Workload w = buildWorkload("rt", 300);
        return w;
    }

    static const std::string &
    sdxPath()
    {
        static const std::string path = [] {
            const std::string p = tempPath("rt.sdx");
            EXPECT_EQ(cli({"seedex", "index", workload().fasta_path, "-o",
                           p}),
                      0);
            return p;
        }();
        return path;
    }

    /** CLI align vs in-process Aligner: every record must agree on
     *  flag/rname/pos/cigar/score (sameAlignment plus coordinates). */
    void
    check(EngineKind engine, const std::string &engine_flag, int threads)
    {
        const Workload &w = workload();
        const std::string out = tempPath(
            "rt_" + engine_flag + "_t" + std::to_string(threads) + ".sam");
        std::vector<std::string> args = {"seedex",      "align",
                                         sdxPath(),     w.fastq_path,
                                         "-o",          out,
                                         "--engine=" + engine_flag,
                                         "--threads=" + std::to_string(
                                             threads)};
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        ASSERT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);

        PipelineConfig config;
        config.engine = engine;
        config.contigs = w.contigs;
        Aligner aligner(w.reference, config);
        const std::vector<SamRecord> expected =
            aligner.alignBatch(w.reads);

        const ParsedSamFile sam = parseSamFile(out);
        ASSERT_EQ(sam.records.size(), expected.size());
        ASSERT_GE(sam.header.size(), 4u); // @HD + 2x @SQ + @PG
        EXPECT_EQ(sam.header[0].rfind("@HD\tVN:1.6", 0), 0u);
        EXPECT_EQ(sam.header[1], "@SQ\tSN:chrA\tLN:30000");
        EXPECT_EQ(sam.header[2], "@SQ\tSN:chrB\tLN:20000");
        EXPECT_EQ(sam.header[3].rfind("@PG\tID:seedex\tPN:seedex", 0), 0u);

        size_t mapped = 0;
        for (size_t i = 0; i < expected.size(); ++i) {
            const ParsedSam &got = sam.records[i];
            const SamRecord &want = expected[i];
            EXPECT_EQ(got.qname, want.qname);
            EXPECT_EQ(got.flag, want.flag) << want.qname;
            EXPECT_EQ(got.rname, want.rname) << want.qname;
            const uint64_t want_pos = want.mapped() ? want.pos + 1 : 0;
            EXPECT_EQ(got.pos, want_pos) << want.qname;
            EXPECT_EQ(got.cigar,
                      want.mapped() ? want.cigar.toString() : "*")
                << want.qname;
            EXPECT_EQ(got.score, want.score) << want.qname;
            EXPECT_EQ(got.mapq, want.mapped() ? want.mapq : 0)
                << want.qname;
            mapped += want.mapped();
        }
        // The workload must actually exercise the mapped path.
        EXPECT_GT(mapped, expected.size() / 2);
    }
};

TEST_F(CliRoundTrip, FullBandSingleThread)
{
    check(EngineKind::FullBand, "fullband", 1);
}

TEST_F(CliRoundTrip, SeedExSingleThread)
{
    check(EngineKind::SeedEx, "seedex", 1);
}

TEST_F(CliRoundTrip, SeedExFourThreads)
{
    check(EngineKind::SeedEx, "seedex", 4);
}

TEST_F(CliRoundTrip, FullBandFourThreads)
{
    check(EngineKind::FullBand, "fullband", 4);
}

TEST_F(CliRoundTrip, BandedFourThreads)
{
    // The unguaranteed engine too: threaded workers build the same
    // engine the single-threaded Aligner runs.
    check(EngineKind::Banded, "banded", 4);

    // ...and the run really has four workers, each of which seeded and
    // extended (the report's threaded section carries both CPU splits).
    const std::string metrics = tempPath("rt_banded_t4.json");
    ASSERT_EQ(cli({"seedex", "align", sdxPath(), workload().fastq_path,
                   "-o", tempPath("rt_banded_t4_m.sam"), "--engine=banded",
                   "--threads=4", "--metrics-out=" + metrics}),
              0);
    std::ifstream in(metrics);
    std::stringstream report;
    report << in.rdbuf();
    const std::string text = report.str();
    const size_t section = text.find("\"threaded\":{");
    ASSERT_NE(section, std::string::npos) << text;
    const std::string threaded =
        text.substr(section, text.find('}', section) - section);
    for (const char *key : {"\"threads\":4", "\"producer_cpu_seconds\":",
                            "\"consumer_cpu_seconds\":"})
        EXPECT_NE(threaded.find(key), std::string::npos) << threaded;
    EXPECT_EQ(threaded.find("seeding_threads"), std::string::npos)
        << threaded;
}

// ---- CLI failure modes --------------------------------------------------

TEST(CliErrors, CorruptSdxExitsNonZero)
{
    const Workload w = buildWorkload("err", 5);
    const std::string sdx = tempPath("err.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", sdx}), 0);

    std::fstream f(sdx,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(64);
    f.write(&byte, 1);
    f.close();

    const std::string out = tempPath("err.sam");
    EXPECT_EQ(cli({"seedex", "align", sdx, w.fastq_path, "-o", out}), 1);
}

/** A stream buffer whose every write fails, like stdout on a full
 *  disk (`> /dev/full`). */
class FailingStreambuf : public std::streambuf
{
  protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
    std::streamsize xsputn(const char *, std::streamsize) override
    {
        return 0;
    }
};

TEST(CliErrors, StdoutWriteFailureExitsOne)
{
    const Workload w = buildWorkload("full", 5);
    for (const char *threads : {"--threads=1", "--threads=4"}) {
        FailingStreambuf full;
        std::ostringstream err;
        std::streambuf *saved_out = std::cout.rdbuf(&full);
        std::streambuf *saved_err = std::cerr.rdbuf(err.rdbuf());
        const int rc =
            cli({"seedex", "align", w.fasta_path, w.fastq_path, threads});
        std::cout.rdbuf(saved_out);
        std::cerr.rdbuf(saved_err);
        std::cout.clear();
        EXPECT_EQ(rc, 1) << threads;
        EXPECT_NE(err.str().find("<stdout>: write failed"),
                  std::string::npos)
            << threads << ": " << err.str();
    }
}

TEST(CliErrors, UsageErrorsExitTwo)
{
    EXPECT_EQ(cli({"seedex"}), 2);
    EXPECT_EQ(cli({"seedex", "frobnicate"}), 2);
    EXPECT_EQ(cli({"seedex", "index", "ref.fa"}), 2); // missing -o
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--bogus=1"}), 2);
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--threads=soon"}), 2);
    // Worker counts outside [1, 1024] are refused before any input is
    // read or thread started.
    for (const char *flag :
         {"--threads=100000", "--threads=0", "--threads=-5"})
        EXPECT_EQ(cli({"seedex", "align", "a", "b", flag}), 2) << flag;
    // Band widths and ledger strides outside [1, INT_MAX] and
    // [1, UINT32_MAX] are refused instead of wrapping.
    for (const char *flag :
         {"--band=0", "--band=-5", "--band=2147483648",
          "--ledger-sample=0", "--ledger-sample=-1",
          "--ledger-sample=4294967296"})
        EXPECT_EQ(cli({"seedex", "align", "a", "b", flag}), 2) << flag;
    // --threads is the only thread-shape flag: every worker seeds and
    // extends.
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--seeding-threads=2"}), 2);
    EXPECT_EQ(cli({"seedex", "align", "a", "b", "--fpga-threads=2"}), 2);
    // Seeding and hand-off tuning flags are gone: production runs one
    // measured FM-index path.
    for (const char *flag :
         {"--batch=16", "--queue-cap=2", "--queue-shards=3",
          "--kernel=scalar", "--fm-layout=naive", "--kmer=0"})
        EXPECT_EQ(cli({"seedex", "align", "a", "b", flag}), 2) << flag;
    EXPECT_EQ(cli({"seedex", "index", "ref.fa", "-o", "ref.sdx",
                   "--fm-layout=naive"}),
              2);
    EXPECT_EQ(cli({"seedex", "index", "ref.fa", "-o", "ref.sdx",
                   "--kmer=0"}),
              2);
    EXPECT_EQ(cli({"seedex", "--version"}), 0);
    EXPECT_EQ(cli({"seedex", "--help"}), 0);
}

TEST(CliErrors, MissingInputsExitOne)
{
    EXPECT_EQ(cli({"seedex", "index", tempPath("nope.fa"), "-o",
                   tempPath("nope.sdx")}),
              1);
    EXPECT_EQ(cli({"seedex", "align", tempPath("nope.fa"),
                   tempPath("nope.fq")}),
              1);
}

TEST(CliErrors, MalformedFastqExitsOneAfterPartialOutput)
{
    const Workload w = buildWorkload("badfq", 3);
    const std::string fq = tempPath("badfq_broken.fq");
    {
        std::ofstream out(fq);
        out << "@ok\nACGTACGTACGTACGTACGTACGT\n+\n"
            << std::string(24, 'I') << '\n'
            << "@broken\nACGT\n"; // truncated record
    }
    const std::string out = tempPath("badfq.sam");
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, fq, "-o", out}), 1);
    // Multi-threaded: the parse error must end the stream cleanly, not
    // crash a worker thread.
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, fq, "-o", out,
                   "--threads=4"}),
              1);
}

// ---- flag vs environment precedence ------------------------------------

/** RAII environment override (restores the prior value on exit so a
 *  failing test cannot poison later ones). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (saved_.empty())
            ::unsetenv(name_.c_str());
        else
            ::setenv(name_.c_str(), saved_.c_str(), 1);
    }

  private:
    std::string name_;
    std::string saved_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Value of `"key":` in a flat JSON document, as raw text up to the
 *  next comma/brace (whitespace-tolerant; enough for report fields). */
std::string
jsonValue(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\"";
    size_t at = doc.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return {};
    at = doc.find(':', at + needle.size());
    EXPECT_NE(at, std::string::npos) << key;
    ++at;
    while (at < doc.size() && (doc[at] == ' ' || doc[at] == '\t'))
        ++at;
    size_t end = at;
    while (end < doc.size() && doc[end] != ',' && doc[end] != '}' &&
           doc[end] != '\n')
        ++end;
    std::string value = doc.substr(at, end - at);
    while (!value.empty() && (value.back() == ' ' || value.back() == '"'))
        value.pop_back();
    if (!value.empty() && value.front() == '"')
        value.erase(value.begin());
    return value;
}

class CliPrecedence : public ::testing::Test
{
  protected:
    /** Run an align with extra flags, return the metrics report text. */
    std::string
    alignReport(const std::string &tag,
                std::initializer_list<std::string> extra)
    {
        static const Workload w = buildWorkload("prec", 40);
        const std::string out = tempPath("prec_" + tag + ".sam");
        const std::string metrics =
            tempPath("prec_" + tag + "_metrics.json");
        std::vector<std::string> args = {"seedex", "align", w.fasta_path,
                                         w.fastq_path, "-o", out,
                                         "--metrics-out=" + metrics};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (std::string &s : args)
            argv.push_back(s.data());
        EXPECT_EQ(runCli(static_cast<int>(argv.size()), argv.data()), 0);
        return slurp(metrics);
    }
};

TEST_F(CliPrecedence, BandFlagBeatsEnv)
{
    ScopedEnv env("SEEDEX_BAND", "7");
    // Env alone reaches the pipeline...
    EXPECT_EQ(jsonValue(alignReport("band_env", {}), "band"), "7");
    // ...but an explicit flag always wins.
    EXPECT_EQ(jsonValue(alignReport("band_flag", {"--band=21"}), "band"),
              "21");
}

TEST_F(CliPrecedence, ThreadLimitAppliesToEnvToo)
{
    // SEEDEX_THREADS follows the --threads rule: above the limit it is
    // a usage error before any input is read or thread started...
    ScopedEnv env("SEEDEX_THREADS", "100000");
    EXPECT_EQ(cli({"seedex", "align", "a", "b"}), 2);
    // ...unless an explicit flag overrides it (then the missing inputs
    // are the error).
    EXPECT_EQ(cli({"seedex", "align", tempPath("nope.fa"),
                   tempPath("nope.fq"), "--threads=2"}),
              1);
}

TEST_F(CliPrecedence, BadPolicyValuesAreUsageErrors)
{
    // The band-policy flags are gone: the SeedEx engine runs one
    // speculative rung at --band, so every value, well-formed or not, is
    // a usage error before any input is read or output opened.
    const Workload w = buildWorkload("badpol", 3);
    const std::string out = tempPath("badpol.sam");
    for (const char *flag :
         {"--band-policy=fixed", "--band-policy=adaptive",
          "--band-policy=greedy", "--band-ladder=11,23,41",
          "--band-ladder=19,9", "--band-ladder=banana"}) {
        EXPECT_EQ(cli({"seedex", "align", w.fasta_path, w.fastq_path, "-o",
                       out, "--engine=seedex", flag}),
                  2)
            << flag;
        EXPECT_FALSE(std::filesystem::exists(out)) << flag;
    }
    // Without them the same run succeeds.
    EXPECT_EQ(cli({"seedex", "align", w.fasta_path, w.fastq_path, "-o", out,
                   "--engine=seedex"}),
              0);
}

// ---- unmapped-record SAM fields ----------------------------------------

TEST(CliSeedingEnv, RemovedSeedingKnobsChangeNothing)
{
    // The layout and k-mer variables are no longer read anywhere: a
    // default index is the packed, k-mer-seeded production index, and
    // `seedex index` writes the same bytes with or without them.
    const Workload w = buildWorkload("seedenv", 1);
    const std::string plain = tempPath("seedenv_plain.sdx");
    const std::string knobbed = tempPath("seedenv_knobbed.sdx");
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", plain}), 0);

    ScopedEnv layout("SEEDEX_FM_LAYOUT", "naive");
    ScopedEnv kmer("SEEDEX_SEED_KMER", "0");
    const FmdIndex index(w.reference);
    EXPECT_EQ(index.layout(), FmLayout::Packed);
    EXPECT_NE(index.kmerTable(), nullptr);
    ASSERT_EQ(cli({"seedex", "index", w.fasta_path, "-o", knobbed}), 0);
    EXPECT_TRUE(slurp(plain) == slurp(knobbed))
        << "index bytes depend on the environment";
}

TEST(CliBandEnv, RemovedBandPolicyKnobsChangeNothing)
{
    // SEEDEX_BAND_POLICY and SEEDEX_BAND_LADDER are no longer read: the
    // SeedEx engine's one speculative rung writes the same SAM body with
    // or without them.
    const Workload w = buildWorkload("bandenv", 60);
    const std::string plain = tempPath("bandenv_plain.sam");
    const std::string knobbed = tempPath("bandenv_knobbed.sam");
    ASSERT_EQ(cli({"seedex", "align", w.fasta_path, w.fastq_path, "-o",
                   plain}),
              0);
    ScopedEnv policy("SEEDEX_BAND_POLICY", "adaptive");
    ScopedEnv ladder("SEEDEX_BAND_LADDER", "9");
    ASSERT_EQ(cli({"seedex", "align", w.fasta_path, w.fastq_path, "-o",
                   knobbed}),
              0);
    const auto body = [](const std::string &path) {
        std::string text = slurp(path);
        size_t at = 0;
        while (at < text.size() && text[at] == '@')
            at = text.find('\n', at) + 1;
        return text.substr(at);
    };
    const std::string want = body(plain);
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(body(knobbed) == want)
        << "SAM body depends on the removed band-policy variables";
}

TEST(SamSpec, UnmappedRecordFields)
{
    const SamRecord rec =
        unmappedRecord("lost", Sequence::fromString("ACGTACGT"));
    const std::vector<std::string> f = splitTabs(rec.render());
    ASSERT_GE(f.size(), 11u);
    EXPECT_EQ(f[1], "4");  // FLAG: unmapped
    EXPECT_EQ(f[2], "*");  // RNAME
    EXPECT_EQ(f[3], "0");  // POS: 0, not 1
    EXPECT_EQ(f[4], "0");  // MAPQ
    EXPECT_EQ(f[5], "*");  // CIGAR
    EXPECT_EQ(f[6], "*");  // RNEXT
    EXPECT_EQ(f[7], "0");  // PNEXT
    EXPECT_EQ(f[8], "0");  // TLEN
}

// ---- streaming readers --------------------------------------------------

TEST(FastxStream, FastqCrlfAndBlankSeparators)
{
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n"
                          "\n\n"
                          "@r2 with description\nTTGG\n+r2\nJJJJ\n");
    FastqReader reader(in);
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r1");
    EXPECT_EQ(rec.seq.toString(), "ACGT");
    EXPECT_EQ(rec.qual, "IIII");
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r2 with description");
    EXPECT_EQ(rec.seq.toString(), "TTGG");
    EXPECT_FALSE(reader.next(rec));
    EXPECT_EQ(reader.recordsRead(), 2u);
}

TEST(FastxStream, FastqBlankLineInsideRecordDiagnosed)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n\nIIII\n");
    FastqReader reader(in, "reads.fq");
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    try {
        reader.next(rec);
        FAIL() << "blank line inside record 2 was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("reads.fq"), std::string::npos) << msg;
        EXPECT_NE(msg.find("FASTQ record 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("blank line"), std::string::npos) << msg;
    }
}

TEST(FastxStream, FastqTruncatedAndLengthMismatchDiagnosed)
{
    {
        std::istringstream in("@r1\nACGT\n+\n");
        FastqReader reader(in);
        FastqRecord rec;
        EXPECT_THROW(reader.next(rec), std::runtime_error);
    }
    {
        std::istringstream in("@r1\nACGT\n+\nIII\n");
        FastqReader reader(in);
        FastqRecord rec;
        try {
            reader.next(rec);
            FAIL() << "quality length mismatch accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("quality length"),
                      std::string::npos);
        }
    }
}

TEST(FastxStream, FastaRejectsEmptyAndDuplicateNames)
{
    {
        std::istringstream in(">\nACGT\n");
        FastaReader reader(in, "ref.fa");
        FastaRecord rec;
        try {
            reader.next(rec);
            FAIL() << "empty contig name accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FASTA record 1"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("empty contig name"), std::string::npos)
                << msg;
        }
    }
    {
        std::istringstream in(">chr1\nACGT\n>chr1\nTTTT\n");
        FastaReader reader(in, "ref.fa");
        FastaRecord rec;
        ASSERT_TRUE(reader.next(rec));
        try {
            reader.next(rec);
            FAIL() << "duplicate contig name accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("FASTA record 2"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("duplicate contig name"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(FastxStream, OffsetsStay64BitPastFourGiB)
{
    // A reader resumed at byte 5 GiB: every offset it reports must keep
    // the high bits (the arithmetic is uint64 throughout; a 32-bit
    // truncation would wrap these to small numbers).
    const uint64_t five_gib = 5ull * 1024 * 1024 * 1024;
    const std::string payload = "@r1\nACGT\n+\nIIII\n@r2\nGGCC\n+\nJJJJ\n";
    std::istringstream in(payload);
    FastqReader reader(in, "big.fq", five_gib);
    FastqRecord rec;
    ASSERT_TRUE(reader.next(rec));
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r2");
    EXPECT_EQ(reader.byteOffset(), five_gib + payload.size());
    EXPECT_GT(reader.byteOffset(), uint64_t{1} << 32);

    std::istringstream in2(payload);
    LineScanner scanner(in2, "big.fq", five_gib);
    std::string line;
    ASSERT_TRUE(scanner.next(line));
    EXPECT_EQ(scanner.lineOffset(), five_gib);
    ASSERT_TRUE(scanner.next(line));
    EXPECT_EQ(scanner.lineOffset(), five_gib + 4);
    EXPECT_EQ(scanner.lineNumber(), 2u);
}

} // namespace
} // namespace seedex
