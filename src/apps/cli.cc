#include "apps/cli.h"

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "aligner/threaded.h"
#include "fmindex/fmd_index.h"
#include "fmindex/sdx.h"
#include "genome/fasta.h"
#include "genome/fastx_stream.h"
#include "genome/read_sim.h"
#include "genome/reference.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace seedex {

namespace {

/** Thrown for command-line mistakes (mapped to exit code 2). */
class UsageError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

const char kUsage[] =
    "usage: seedex <command> [options]\n"
    "\n"
    "commands:\n"
    "  index <ref.fa> -o <ref.sdx>          build a checksummed index\n"
    "  align <ref.sdx|ref.fa> <reads.fq>    align reads, SAM on stdout\n"
    "  align <ref.sdx|ref.fa> -1 <r1.fq> -2 <r2.fq>   paired-end mode\n"
    "  simulate -o <prefix>                 write a synthetic ref + reads\n"
    "\n"
    "align options (env-knob equivalents in parentheses):\n"
    "  -o FILE             SAM output path (default: stdout)\n"
    "  -1 FILE / -2 FILE   paired-end mate files (zipped record by record)\n"
    "  --interleaved       treat <reads.fq> as interleaved pairs\n"
    "  --insert-mean=F / --insert-sd=F  pin the insert-size model instead\n"
    "                      of bootstrapping it from the first pairs\n"
    "  --no-rescue         disable SeedEx-checked mate rescue\n"
    "  --engine=NAME       fullband | banded | seedex   [seedex]\n"
    "  --band=N            band width for banded/seedex engines "
    "(SEEDEX_BAND)\n"
    "  --threads=N         worker threads, each seeding and extending its\n"
    "                      own batches (SEEDEX_THREADS)  [1, max 1024]\n"
    "  --metrics-out=FILE  machine-readable run report (SEEDEX_METRICS_OUT)\n"
    "  --trace-out=FILE    Chrome trace (SEEDEX_TRACE)\n"
    "  --ledger-out=FILE   per-read provenance JSONL (SEEDEX_LEDGER_OUT)\n"
    "  --ledger-sample=N   ledger sampling stride (SEEDEX_LEDGER_SAMPLE)\n"
    "\n"
    "simulate options:\n"
    "  --length=N          reference length in bases        [1048576]\n"
    "  --reads=N           number of reads (pairs with --paired) [10000]\n"
    "  --read-length=N     read length in bases             [101]\n"
    "  --seed=N            random seed                      [20200613]\n"
    "  --paired            write FR mate files <prefix>_1.fq/_2.fq\n"
    "  --insert-mean=F / --insert-sd=F  fragment model      [400 / 50]\n";

/** Parsed command line: positional operands plus --name[=value] flags
 *  (`-o FILE` is folded into flags["-o"]). */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    bool has(const std::string &name) const { return flags.count(name) > 0; }

    std::string
    get(const std::string &name, const std::string &fallback = {}) const
    {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }

    /** Flag value, falling back to an environment variable, then "". */
    std::string
    getOrEnv(const std::string &name, const char *env) const
    {
        auto it = flags.find(name);
        if (it != flags.end())
            return it->second;
        if (const char *v = std::getenv(env))
            return v;
        return {};
    }

    long
    getLong(const std::string &name, long fallback) const
    {
        auto it = flags.find(name);
        if (it == flags.end())
            return fallback;
        char *end = nullptr;
        const long n = std::strtol(it->second.c_str(), &end, 10);
        if (end == it->second.c_str() || *end != '\0')
            throw UsageError(name + " expects an integer, got '" +
                             it->second + "'");
        return n;
    }

    /** getLong, rejecting values outside [lo, hi]. */
    long
    getLongIn(const std::string &name, long fallback, long lo,
              long hi) const
    {
        const long n = getLong(name, fallback);
        if (n < lo || n > hi)
            throw UsageError(name + " expects an integer in [" +
                             std::to_string(lo) + ", " +
                             std::to_string(hi) + "], got '" +
                             get(name) + "'");
        return n;
    }

    double
    getDouble(const std::string &name, double fallback) const
    {
        auto it = flags.find(name);
        if (it == flags.end())
            return fallback;
        char *end = nullptr;
        const double x = std::strtod(it->second.c_str(), &end);
        if (end == it->second.c_str() || *end != '\0')
            throw UsageError(name + " expects a number, got '" +
                             it->second + "'");
        return x;
    }
};

Args
parseArgs(int argc, char **argv, int first,
          const std::vector<std::string> &known,
          const std::vector<std::string> &value_shorts = {"-o"})
{
    Args args;
    const auto is_value_short = [&](const std::string &arg) {
        for (const std::string &s : value_shorts)
            if (s == arg)
                return true;
        return false;
    };
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (is_value_short(arg)) {
            if (i + 1 >= argc)
                throw UsageError(arg + " expects a file path");
            args.flags[arg] = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            const size_t eq = arg.find('=');
            const std::string name = arg.substr(0, eq);
            bool ok = false;
            for (const std::string &k : known)
                ok |= (k == name);
            if (!ok)
                throw UsageError("unknown option " + name);
            args.flags[name] =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

/** First whitespace-delimited token of a FASTA name: the @SQ SN: key
 *  (SN values must be whitespace-free per the SAM spec). */
std::string
contigToken(const std::string &name)
{
    const size_t ws = name.find_first_of(" \t");
    return ws == std::string::npos ? name : name.substr(0, ws);
}

/** The reference as the aligner consumes it: one concatenated sequence
 *  plus the contig dictionary for SAM emission. */
struct Reference
{
    ContigTable contigs;
    std::vector<SdxContig> sdx_contigs;
    Sequence seq;
    std::unique_ptr<FmdIndex> index; ///< null until built/loaded
};

/** Stream a FASTA file into a Reference (no index yet). */
Reference
loadFasta(const std::string &path)
{
    Reference ref;
    FastaReader reader(path);
    FastaRecord rec;
    std::vector<Base> all;
    while (reader.next(rec)) {
        const std::string token = contigToken(rec.name);
        // FastaReader rejects duplicate full names; tokenized SN keys
        // can still collide ("chr1 a" vs "chr1 b"), which add() rejects.
        ref.contigs.add(token, rec.seq.size());
        ref.sdx_contigs.push_back({token, rec.seq.size()});
        all.insert(all.end(), rec.seq.bases().begin(),
                   rec.seq.bases().end());
    }
    if (all.empty())
        throw std::runtime_error(path + ": no sequences found");
    ref.seq = Sequence(std::move(all));
    return ref;
}

/** Load either a `.sdx` container or a plain FASTA reference. */
Reference
loadReference(const std::string &path)
{
    if (isSdxFile(path)) {
        SdxData data = loadSdx(path);
        Reference ref;
        for (const SdxContig &c : data.contigs) {
            ref.contigs.add(c.name, c.length);
            ref.sdx_contigs.push_back(c);
        }
        ref.seq = std::move(data.reference);
        ref.index = std::move(data.index);
        return ref;
    }
    return loadFasta(path);
}

EngineKind
parseEngine(const std::string &name)
{
    if (name == "fullband")
        return EngineKind::FullBand;
    if (name == "banded")
        return EngineKind::Banded;
    if (name == "seedex")
        return EngineKind::SeedEx;
    throw UsageError("unknown engine '" + name +
                     "' (expected fullband, banded, or seedex)");
}

std::string
joinArgv(int argc, char **argv)
{
    std::string cl;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            cl += ' ';
        cl += argv[i];
    }
    return cl;
}

// ---- seedex index -------------------------------------------------------

int
cmdIndex(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv, 2, {});
    if (args.positional.size() != 1)
        throw UsageError("index expects exactly one reference FASTA");
    if (!args.has("-o"))
        throw UsageError("index requires -o <ref.sdx>");

    Reference ref = loadFasta(args.positional[0]);
    Stopwatch watch;
    watch.start();
    const FmdIndex index(ref.seq);
    watch.stop();
    saveSdx(args.get("-o"), ref.sdx_contigs, ref.seq, index);
    std::cerr << strprintf(
        "seedex index: %zu contig(s), %zu bases -> %s (built in %.2f s)\n",
        ref.contigs.size(), ref.seq.size(), args.get("-o").c_str(),
        watch.seconds());
    return 0;
}

// ---- seedex align -------------------------------------------------------

int
cmdAlign(int argc, char **argv)
{
    const Args args = parseArgs(
        argc, argv, 2,
        {"--engine", "--band", "--threads", "--metrics-out", "--trace-out",
         "--ledger-out", "--ledger-sample", "--interleaved", "--insert-mean",
         "--insert-sd", "--no-rescue"},
        {"-o", "-1", "-2"});

    // Paired-end input shape: -1/-2 (two files, no reads operand) or
    // --interleaved (one file of alternating mates).
    const bool interleaved = args.has("--interleaved");
    if (args.has("-1") != args.has("-2"))
        throw UsageError("-1 and -2 must be given together");
    if (args.has("-1") && interleaved)
        throw UsageError("-1/-2 and --interleaved are mutually exclusive");
    const bool paired = args.has("-1") || interleaved;
    if (args.has("-1")) {
        if (args.positional.size() != 1)
            throw UsageError(
                "align -1/-2 expects exactly <ref.sdx|ref.fa>");
    } else if (args.positional.size() != 2) {
        throw UsageError("align expects <ref.sdx|ref.fa> <reads.fq>");
    }
    if (!paired &&
        (args.has("--insert-mean") || args.has("--insert-sd") ||
         args.has("--no-rescue")))
        throw UsageError("--insert-mean/--insert-sd/--no-rescue require "
                         "paired input (-1/-2 or --interleaved)");

    const std::string reads_path =
        args.has("-1") ? std::string() : args.positional[1];

    // The insert-size model: explicit flags pin it; otherwise it is
    // bootstrapped from the first pairs (the BWA-MEM recipe) and frozen
    // before any worker needs a proper-pair verdict.
    const bool insert_override =
        args.has("--insert-mean") || args.has("--insert-sd");
    InsertModel insert_prior;
    insert_prior.mean = args.getDouble("--insert-mean", insert_prior.mean);
    insert_prior.sd = args.getDouble("--insert-sd", insert_prior.sd);
    if (insert_prior.mean <= 0 || insert_prior.sd <= 0)
        throw UsageError("--insert-mean/--insert-sd must be positive");
    const bool mate_rescue = !args.has("--no-rescue");

    // Validate every flag before touching the filesystem, so a typo is
    // a usage error (exit 2) even when the inputs are also unreadable.
    PipelineConfig pconfig;
    pconfig.engine = parseEngine(args.get("--engine", "seedex"));
    // The band follows the CLI-wide precedence contract: --band beats
    // SEEDEX_BAND, which beats the built-in default (see the README
    // flag table).
    if (args.has("--band")) {
        pconfig.band = static_cast<int>(
            args.getLongIn("--band", pconfig.band, 1, INT_MAX));
    } else if (const char *v = std::getenv("SEEDEX_BAND")) {
        char *end = nullptr;
        const long n = std::strtol(v, &end, 10);
        if (end != v && *end == '\0' && n > 0 && n <= INT_MAX)
            pconfig.band = static_cast<int>(n);
    }

    // Worker count: --threads beats SEEDEX_THREADS, which beats 1.
    // Counts outside [1, kMaxWorkerThreads] are usage errors, caught
    // here before any input is read or thread started.
    ThreadedConfig tconfig;
    tconfig.setTotalThreads(1);
    if (args.has("--threads")) {
        tconfig.setTotalThreads(
            args.getLongIn("--threads", 1, 1, kMaxWorkerThreads));
    } else {
        try {
            tconfig.applyEnv();
        } catch (const std::invalid_argument &e) {
            throw UsageError(std::string("SEEDEX_THREADS: ") + e.what());
        }
    }
    const long threads = tconfig.workers();
    const long ledger_sample =
        args.getLongIn("--ledger-sample", 1, 1, UINT32_MAX);

    // Observability passthrough (same contract as the bench binaries):
    // enabling trace/ledger must happen before the run, writing after.
    const std::string metrics_out =
        args.getOrEnv("--metrics-out", "SEEDEX_METRICS_OUT");
    const std::string trace_out =
        args.getOrEnv("--trace-out", "SEEDEX_TRACE");
    const std::string ledger_out =
        args.getOrEnv("--ledger-out", "SEEDEX_LEDGER_OUT");
    if (!trace_out.empty())
        obs::TraceSession::global().enable();
    if (!ledger_out.empty()) {
        obs::Ledger::global().clear();
        obs::Ledger::global().enable(static_cast<uint32_t>(ledger_sample));
    }

    Reference ref = loadReference(args.positional[0]);
    pconfig.contigs = ref.contigs;
    tconfig.pipeline = pconfig;

    std::ofstream file_out;
    if (args.has("-o")) {
        file_out.open(args.get("-o"), std::ios::binary | std::ios::trunc);
        if (!file_out)
            throw std::runtime_error(args.get("-o") +
                                     ": cannot open for writing");
    }
    std::ostream &out = args.has("-o") ? file_out : std::cout;

    out << renderSamHeader(ref.contigs, ref.seq.size(),
                           joinArgv(argc, argv));

    Stopwatch wall;
    wall.start();
    uint64_t total_reads = 0;
    ThreadedReport treport;
    InsertModel insert_model = insert_prior;
    uint64_t insert_observations = 0;
    const SamSink emit = [&](size_t, SamRecord &&sam) {
        out << sam.render() << '\n';
    };
    // The sources run on worker threads; a parse error they throw ends
    // the run, and alignThreadedSource rethrows it once every worker
    // has joined (exit 1 after the records emitted so far).
    if (paired) {
        auto pair_source = interleaved
            ? std::make_unique<PairedReadSource>(reads_path)
            : std::make_unique<PairedReadSource>(args.get("-1"),
                                                 args.get("-2"));
        Aligner aligner(ref.seq, pconfig, std::move(ref.index));

        // Bootstrap chunk: the first pairs are aligned by the
        // single-threaded Aligner in EVERY mode, so the frozen insert
        // model — and the output bytes — cannot depend on --threads.
        std::vector<PairedRecord> boot;
        boot.reserve(InsertEstimator::kBootstrapPairs);
        PairedRecord pr;
        while (boot.size() < InsertEstimator::kBootstrapPairs &&
               pair_source->next(pr))
            boot.push_back(std::move(pr));
        std::vector<std::pair<std::string, Sequence>> chunk;
        chunk.reserve(boot.size() * 2);
        for (const PairedRecord &p : boot) {
            chunk.emplace_back(p.name, p.first);
            chunk.emplace_back(p.name, p.second);
        }
        // Ledger records are held until the pair is finalized, so they
        // carry the pair fields just as the workers' records do.
        std::vector<std::optional<obs::ReadRecord>> held;
        std::vector<SamRecord> recs = aligner.alignBatch(chunk, held);
        if (!insert_override) {
            InsertEstimator est(insert_prior);
            for (size_t i = 0; i + 1 < recs.size(); i += 2)
                est.observe(recs[i], recs[i + 1]);
            insert_model = est.freeze();
            insert_observations = est.observations();
        }
        const PairContext ctx{ref.seq,      pconfig.contigs,
                              pconfig.extension, insert_model,
                              mate_rescue};
        for (size_t i = 0; i + 1 < recs.size(); i += 2) {
            const PairOutcome po =
                finalizePair(recs[i], recs[i + 1], chunk[i].second,
                             chunk[i + 1].second, aligner.engine(), ctx);
            publishPairRecords(po, recs[i], recs[i + 1], held[i],
                               held[i + 1]);
            out << recs[i].render() << '\n'
                << recs[i + 1].render() << '\n';
        }
        total_reads = recs.size();

        tconfig.paired = true;
        tconfig.insert = insert_model;
        tconfig.mate_rescue = mate_rescue;
        // Whole-pair pull: two consecutive slots per pair, so mates
        // share a batch (batch sizes are even in paired mode).
        ReadSource source =
            [&](std::vector<std::pair<std::string, Sequence>> &pulled,
                size_t max) -> size_t {
            size_t n = 0;
            while (n + 1 < max && pair_source->next(pr)) {
                pulled[n].first = pr.name;
                pulled[n].second = std::move(pr.first);
                pulled[n + 1].first = std::move(pr.name);
                pulled[n + 1].second = std::move(pr.second);
                n += 2;
            }
            return n;
        };
        alignThreadedSource(ref.seq, source, tconfig, emit, &treport,
                            &aligner.index());
    } else {
        FastqReader reader(reads_path);
        FastqRecord rec;
        ReadSource source =
            [&](std::vector<std::pair<std::string, Sequence>> &pulled,
                size_t max) -> size_t {
            size_t n = 0;
            while (n < max && reader.next(rec)) {
                pulled[n].first = std::move(rec.name);
                pulled[n].second = std::move(rec.seq);
                ++n;
            }
            return n;
        };
        alignThreadedSource(ref.seq, source, tconfig, emit, &treport,
                            ref.index.get());
    }
    total_reads += treport.reads;
    wall.stop();
    out.flush();
    if (!out)
        throw std::runtime_error(
            (args.has("-o") ? args.get("-o") : std::string("<stdout>")) +
            ": write failed (disk full?)");

    std::cerr << strprintf(
        "seedex align: %llu reads in %.2f s (%ld thread%s)\n",
        static_cast<unsigned long long>(total_reads), wall.seconds(),
        threads, threads == 1 ? "" : "s");
    if (paired) {
        const PairedCounters pc = pairedCounters();
        std::cerr << strprintf(
            "seedex align: %llu pairs, %llu proper, %llu rescued "
            "(insert %.1f +/- %.1f, %s)\n",
            static_cast<unsigned long long>(pc.pairs),
            static_cast<unsigned long long>(pc.proper),
            static_cast<unsigned long long>(pc.rescues),
            insert_model.mean, insert_model.sd,
            insert_override
                ? "pinned"
                : strprintf("estimated from %llu observation(s)",
                            static_cast<unsigned long long>(
                                insert_observations))
                      .c_str());
    }

    if (!trace_out.empty()) {
        obs::TraceSession::global().disable();
        if (!obs::TraceSession::global().writeJson(trace_out))
            std::cerr << "seedex align: FAILED to write trace to "
                      << trace_out << "\n";
    }
    if (!ledger_out.empty() &&
        !obs::Ledger::global().writeJsonl(ledger_out))
        std::cerr << "seedex align: FAILED to write ledger to "
                  << ledger_out << "\n";
    if (!metrics_out.empty()) {
        obs::RunReport report("seedex_align");
        report.section("run", [&](obs::JsonWriter &w) {
            w.kv("reads", total_reads);
            w.kv("wall_seconds", wall.seconds());
            w.kv("engine", args.get("--engine", "seedex"));
            w.kv("band", static_cast<int64_t>(pconfig.band));
            w.kv("threads", static_cast<uint64_t>(threads));
        });
        report.section("threaded", [&](obs::JsonWriter &w) {
            w.kv("threads", static_cast<int64_t>(threads));
            w.kv("batches", treport.batches);
            w.kv("extensions", treport.extensions);
            w.kv("reruns", treport.reruns);
            w.kv("batch_size", treport.batch_size);
            w.kv("producer_cpu_seconds", treport.producer_cpu_seconds);
            w.kv("consumer_cpu_seconds", treport.consumer_cpu_seconds);
        });
        if (paired) {
            report.section("paired", [&](obs::JsonWriter &w) {
                const PairedCounters pc = pairedCounters();
                w.kv("pairs", pc.pairs);
                w.kv("proper", pc.proper);
                w.kv("rescues", pc.rescues);
                w.kv("rescue_attempts", pc.rescue_attempts);
                w.kv("rescue_extensions", pc.rescue_extensions);
                w.kv("rescue_passes", pc.rescue_passes);
                w.kv("insert_mean", insert_model.mean);
                w.kv("insert_sd", insert_model.sd);
                w.kv("insert_estimated", !insert_override);
                w.kv("insert_observations", insert_observations);
            });
        }
        report.addMetrics(obs::MetricsRegistry::global().snapshot());
        if (!report.write(metrics_out))
            std::cerr << "seedex align: FAILED to write metrics to "
                      << metrics_out << "\n";
    }
    return 0;
}

// ---- seedex simulate ----------------------------------------------------

int
cmdSimulate(int argc, char **argv)
{
    const Args args = parseArgs(
        argc, argv, 2,
        {"--length", "--reads", "--read-length", "--seed", "--paired",
         "--insert-mean", "--insert-sd"});
    if (!args.positional.empty())
        throw UsageError("simulate takes only options");
    if (!args.has("-o"))
        throw UsageError("simulate requires -o <prefix>");
    const std::string prefix = args.get("-o");
    const bool paired = args.has("--paired");
    if (!paired && (args.has("--insert-mean") || args.has("--insert-sd")))
        throw UsageError("--insert-mean/--insert-sd require --paired");

    Rng rng(static_cast<uint64_t>(args.getLong("--seed", 20200613)));
    ReferenceParams ref_params;
    ref_params.length =
        static_cast<size_t>(args.getLong("--length", 1 << 20));
    const Sequence reference = generateReference(ref_params, rng);

    ReadSimParams sim_params = ReadSimParams::illumina();
    sim_params.read_length = static_cast<size_t>(
        args.getLong("--read-length",
                     static_cast<long>(sim_params.read_length)));
    sim_params.insert_mean =
        args.getDouble("--insert-mean", sim_params.insert_mean);
    sim_params.insert_sd =
        args.getDouble("--insert-sd", sim_params.insert_sd);
    if (sim_params.insert_mean <= 0 || sim_params.insert_sd <= 0)
        throw UsageError("--insert-mean/--insert-sd must be positive");
    ReadSimulator simulator(reference, sim_params);
    const size_t n_reads =
        static_cast<size_t>(args.getLong("--reads", 10000));

    writeFastaFile(prefix + ".fa", {{"sim", reference}});
    std::string qual;
    const auto open_fq = [&](const std::string &path) {
        std::ofstream fq(path, std::ios::binary | std::ios::trunc);
        if (!fq)
            throw std::runtime_error(path + ": cannot open for writing");
        return fq;
    };
    const auto emit = [&](std::ofstream &fq, const SimulatedRead &read) {
        qual.assign(read.seq.size(), 'I');
        fq << '@' << read.name << '\n'
           << read.seq.toString() << '\n'
           << "+\n"
           << qual << '\n';
    };
    if (paired) {
        // --reads counts PAIRS here: <prefix>_1.fq/_2.fq carry mate i of
        // every fragment, record-aligned for `seedex align -1/-2`.
        std::ofstream fq1 = open_fq(prefix + "_1.fq");
        std::ofstream fq2 = open_fq(prefix + "_2.fq");
        for (size_t i = 0; i < n_reads; ++i) {
            const SimulatedPair pair = simulator.simulatePair(rng, i);
            emit(fq1, pair.first);
            emit(fq2, pair.second);
        }
        if (!fq1.flush())
            throw std::runtime_error(prefix + "_1.fq: write failed");
        if (!fq2.flush())
            throw std::runtime_error(prefix + "_2.fq: write failed");
        std::cerr << strprintf(
            "seedex simulate: %zu bp reference, %zu pairs -> "
            "%s.fa + %s_{1,2}.fq\n",
            reference.size(), n_reads, prefix.c_str(), prefix.c_str());
        return 0;
    }
    std::ofstream fq = open_fq(prefix + ".fq");
    for (size_t i = 0; i < n_reads; ++i) {
        const SimulatedRead read = simulator.simulate(rng, i);
        emit(fq, read);
    }
    if (!fq.flush())
        throw std::runtime_error(prefix + ".fq: write failed");
    std::cerr << strprintf(
        "seedex simulate: %zu bp reference, %zu reads -> %s.{fa,fq}\n",
        reference.size(), n_reads, prefix.c_str());
    return 0;
}

} // namespace

int
runCli(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw UsageError("no command given");
        const std::string cmd = argv[1];
        if (cmd == "--version" || cmd == "version") {
            std::cout << "seedex " << kSeedexVersion << "\n";
            return 0;
        }
        if (cmd == "--help" || cmd == "help" || cmd == "-h") {
            std::cout << kUsage;
            return 0;
        }
        if (cmd == "index")
            return cmdIndex(argc, argv);
        if (cmd == "align")
            return cmdAlign(argc, argv);
        if (cmd == "simulate")
            return cmdSimulate(argc, argv);
        throw UsageError("unknown command '" + cmd + "'");
    } catch (const UsageError &e) {
        std::cerr << "seedex: " << e.what() << "\n\n" << kUsage;
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "seedex: " << e.what() << "\n";
        return 1;
    }
}

} // namespace seedex
