// Traced layer-by-layer replay for the end-to-end benchmark.
//
// Replays `seedex align` layer by layer in production order, from this
// file, with a span around every call into a layer:
//
//   single-end: FastqReader::next -> collectSeedsBatch -> chainSeedsInto
//               -> extendChain -> best/sub pick -> buildSamRecord
//               -> SamRecord::render -> write
//   paired:     PairedReadSource::next -> insert-size bootstrap (the same
//               single-end layers on the first pairs) -> finalizePair
//               (mate rescue) -> render -> write
//
// The replay runs single-threaded and writes its SAM to --replay-sam, so
// the caller can byte-compare it with the CLI's 1-thread output: the
// trace then provably measures the same program. Afterwards the threaded
// pipeline (alignThreadedSource) runs at --threads with wrapped
// source/sink callbacks and writes --threaded-sam.
//
// Spans stay in memory until the run ends; they are then written to
// --spans-out (TSV: thread, span, parent, name, start_ns, dur_ns) and
// folded into per-layer self times (span time minus child spans). The
// per-layer metrics go to stdout as one JSON object.
//
//   perfbench_trace --sdx=REF.sdx (--reads=R.fq | --r1=R1.fq --r2=R2.fq)
//                   --threads=N --replay-sam=F --threaded-sam=F
//                   --spans-out=F

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/kernel.h"
#include "aligner/paired.h"
#include "aligner/pipeline.h"
#include "aligner/sam.h"
#include "aligner/threaded.h"
#include "fmindex/sdx.h"
#include "genome/fastx_stream.h"
#include "obs/metrics.h"

using namespace seedex;

namespace {

// ---- spans ---------------------------------------------------------------

enum Layer : uint32_t
{
    kParse,
    kLoad,
    kSeeding,
    kChaining,
    kExtension,
    kSamBuild,
    kSamRender,
    kWrite,
    kBootstrap,
    kFinalize,
    kSource,
    kSink,
    kLayers
};

const char *const kLayerNames[kLayers] = {
    "genome.parse",     "fmindex.load",    "seeding",    "chaining",
    "extension",        "sam.build",       "sam.render", "output.write",
    "paired.bootstrap", "paired.finalize", "threaded.source",
    "threaded.sink"};

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    Layer layer;
    int32_t parent; ///< index in the same thread's buffer, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
};

/** One thread's spans plus its stack of open spans. */
struct SpanBuffer
{
    std::vector<Span> spans;
    std::vector<int32_t> open;
};

/** Every thread's span buffer; buffers outlive their threads so worker
 *  spans survive until the run ends. */
class SpanLog
{
  public:
    static SpanLog &
    global()
    {
        static SpanLog log;
        return log;
    }

    SpanBuffer &
    local()
    {
        thread_local SpanBuffer *buf = nullptr;
        if (buf == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<SpanBuffer>());
            buffers_.back()->spans.reserve(1 << 16);
            buf = buffers_.back().get();
        }
        return *buf;
    }

    const std::vector<std::unique_ptr<SpanBuffer>> &
    buffers() const
    {
        return buffers_;
    }

  private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

class ScopedSpan
{
  public:
    explicit ScopedSpan(Layer layer) : buf_(SpanLog::global().local())
    {
        const int32_t parent = buf_.open.empty() ? -1 : buf_.open.back();
        idx_ = static_cast<int32_t>(buf_.spans.size());
        buf_.spans.push_back({layer, parent, nowNs(), 0});
        buf_.open.push_back(idx_);
    }

    ~ScopedSpan()
    {
        buf_.spans[static_cast<size_t>(idx_)].end_ns = nowNs();
        buf_.open.pop_back();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanBuffer &buf_;
    int32_t idx_;
};

/** Per-layer totals folded from every thread's spans. */
struct LayerTimes
{
    double total[kLayers] = {};
    double self[kLayers] = {};
};

LayerTimes
foldSpans()
{
    LayerTimes t;
    for (const auto &buf : SpanLog::global().buffers()) {
        std::vector<int64_t> self(buf->spans.size());
        for (size_t i = 0; i < buf->spans.size(); ++i) {
            const Span &s = buf->spans[i];
            const int64_t dur = s.end_ns - s.start_ns;
            self[i] += dur;
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= dur;
            t.total[s.layer] += 1e-9 * static_cast<double>(dur);
        }
        for (size_t i = 0; i < buf->spans.size(); ++i)
            t.self[buf->spans[i].layer] +=
                1e-9 * static_cast<double>(self[i]);
    }
    return t;
}

void
writeSpans(const std::string &path, int64_t origin_ns)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    size_t tid = 0;
    for (const auto &buf : SpanLog::global().buffers()) {
        for (size_t i = 0; i < buf->spans.size(); ++i) {
            const Span &s = buf->spans[i];
            out << tid << '\t' << i << '\t' << s.parent << '\t'
                << kLayerNames[s.layer] << '\t' << (s.start_ns - origin_ns)
                << '\t' << (s.end_ns - s.start_ns) << '\n';
        }
        ++tid;
    }
    out.flush();
    if (!out)
        throw std::runtime_error(path + ": write failed");
}

// ---- registry deltas -----------------------------------------------------

/** The registry counters and kernel timers the per-layer metrics use. */
struct Counts
{
    std::map<std::string, double> v;

    static Counts
    take()
    {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        Counts c;
        for (const auto &[name, value] : snap.counters)
            c.v[name] = static_cast<double>(value);
        for (const auto &[name, h] : snap.histograms)
            c.v[name + ".sum"] = h.sum;
        // Only the ISAs that ran have dispatch counters; the sums exist
        // once any kernel has run.
        double calls = 0, kernel_s = 0;
        bool any = false;
        for (int i = 0; i < 3; ++i) {
            const std::string isa = kernelIsaName(static_cast<KernelIsa>(i));
            any = any || c.v.count("align.kernel.dispatch." + isa);
            calls += c.get("align.kernel.dispatch." + isa);
            kernel_s += c.get("align.kernel." + isa + ".seconds.sum");
        }
        if (any) {
            c.v["kernel.calls"] = calls;
            c.v["kernel.seconds"] = kernel_s;
        }
        return c;
    }

    /** 0 for a name not yet registered (a baseline taken before its
     *  layer first ran). */
    double
    get(const std::string &name) const
    {
        auto it = v.find(name);
        return it == v.end() ? 0.0 : it->second;
    }

    /** A metric the per-layer figures are built on: missing from the
     *  snapshot (renamed, or its layer never ran) is an error, not 0. */
    double
    need(const std::string &name) const
    {
        auto it = v.find(name);
        if (it == v.end())
            throw std::runtime_error("metrics registry has no " + name);
        return it->second;
    }

    Counts
    operator-(const Counts &before) const
    {
        Counts d;
        for (const auto &[name, value] : v)
            d.v[name] = value - before.get(name);
        return d;
    }
};

/** num / den; a zero denominator means the layer did no work, which no
 *  workload should produce, so it is an error rather than a quiet 0. */
double
ratio(double num, double den, const char *what)
{
    if (!(den > 0))
        throw std::runtime_error(std::string("no denominator for ") + what);
    return num / den;
}

// ---- the replay ----------------------------------------------------------

/** Engine decorator: a span around every extension the pipeline (or
 *  mate rescue) runs, forwarding the active band hint unchanged. */
class TimedEngine : public ExtensionEngine
{
  public:
    explicit TimedEngine(ExtensionEngine &inner) : inner_(inner) {}

    ExtendResult
    extend(const Sequence &query, const Sequence &target, int h0) override
    {
        ScopedSpan span(kExtension);
        ++calls_; // finalizePair counts rescue extensions by calls()
        const BandHint hint = hint_ != nullptr ? *hint_ : BandHint{};
        return inner_.extendHinted(query, target, h0, hint);
    }

    std::string name() const override { return inner_.name(); }

  private:
    ExtensionEngine &inner_;
};

/** Reads per single-threaded alignBatch call in `seedex align`. */
constexpr size_t kAlignChunk = 1024;

using ReadChunk = std::vector<std::pair<std::string, Sequence>>;

struct ReplayStats
{
    uint64_t reads = 0;
    uint64_t seeds = 0;
    uint64_t chains = 0;
    uint64_t sam_bytes = 0;
};

/** Aligner::alignBatch, one layer call at a time. */
std::vector<SamRecord>
alignChunk(Aligner &aligner, TimedEngine &engine, const ReadChunk &reads,
           ReplayStats &stats)
{
    const PipelineConfig &config = aligner.config();
    const Sequence &ref = aligner.reference();
    std::vector<SamRecord> records;
    records.reserve(reads.size());
    const size_t batch = std::max<size_t>(1, seedBatchSize());
    SeedWorkspace &ws = SeedWorkspace::tls();
    std::vector<const Sequence *> queries(batch);
    std::vector<std::vector<Seed>> seeds(batch);
    std::vector<Chain> chains;
    std::vector<ChainAlignment> results;
    for (size_t base = 0; base < reads.size(); base += batch) {
        const size_t n = std::min(batch, reads.size() - base);
        for (size_t r = 0; r < n; ++r)
            queries[r] = &reads[base + r].second;
        {
            ScopedSpan span(kSeeding);
            collectSeedsBatch(aligner.index(), queries.data(), n,
                              config.seeding, ws, seeds);
        }
        for (size_t r = 0; r < n; ++r) {
            const std::string &name = reads[base + r].first;
            const Sequence &read = reads[base + r].second;
            stats.seeds += seeds[r].size();
            size_t n_chains;
            {
                ScopedSpan span(kChaining);
                n_chains = chainSeedsInto(seeds[r], config.chaining,
                                          ChainWorkspace::tls(), chains);
            }
            stats.chains += n_chains;
            if (n_chains == 0) {
                ScopedSpan span(kSamBuild);
                records.push_back(unmappedRecord(name, read));
                continue;
            }
            results.clear();
            {
                ScopedSpan span(kExtension);
                const Sequence rc = read.reverseComplement();
                for (size_t c = 0; c < n_chains; ++c) {
                    const Sequence &oriented =
                        chains[c].reverse ? rc : read;
                    results.push_back(extendChain(chains[c], oriented, ref,
                                                  engine, config.extension));
                }
            }
            ScopedSpan span(kSamBuild);
            size_t best = 0;
            int sub = 0;
            for (size_t i = 1; i < results.size(); ++i) {
                if (results[i].score > results[best].score) {
                    sub = results[best].score;
                    best = i;
                } else {
                    sub = std::max(sub, results[i].score);
                }
            }
            records.push_back(buildSamRecord(name, read, results[best], sub,
                                             ref, config.extension.scoring,
                                             config.contigs));
        }
    }
    stats.reads += reads.size();
    return records;
}

void
emit(std::ofstream &out, const SamRecord &rec, ReplayStats &stats)
{
    std::string line;
    {
        ScopedSpan span(kSamRender);
        line = rec.render();
    }
    ScopedSpan span(kWrite);
    line += '\n';
    stats.sam_bytes += line.size();
    out << line;
}

struct Options
{
    std::string sdx, reads, r1, r2, replay_sam, threaded_sam, spans_out;
    int threads = 1;
    bool paired() const { return !r1.empty(); }
};

/** `seedex align` set-up: .sdx load and the default pipeline config. */
std::unique_ptr<Aligner>
load(const std::string &sdx)
{
    ScopedSpan span(kLoad);
    SdxData data = loadSdx(sdx);
    PipelineConfig pconfig;
    pconfig.engine = EngineKind::SeedEx;
    for (const SdxContig &c : data.contigs)
        pconfig.contigs.add(c.name, c.length);
    return std::make_unique<Aligner>(data.reference, pconfig,
                                     std::move(data.index));
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error(path + ": cannot open for writing");
    return out;
}

void
closeOut(std::ofstream &out, const std::string &path)
{
    ScopedSpan span(kWrite);
    out.flush();
    if (!out)
        throw std::runtime_error(path + ": write failed");
}

struct PairedTotals
{
    uint64_t pairs = 0;
    /** Rescue extensions whose narrow band was accepted. finalizePair
     *  only counts these when its engine is a SeedExEngine, which the
     *  timing decorator hides, so the replay reads them here. */
    uint64_t rescue_passes = 0;
    InsertModel model;
};

/** Single-threaded replay of `seedex align` into opt.replay_sam. */
void
replay(const Options &opt, Aligner &aligner, ReplayStats &stats,
       PairedTotals &paired)
{
    TimedEngine engine(aligner.engine());
    std::ofstream out = openOut(opt.replay_sam);
    {
        ScopedSpan span(kWrite);
        out << renderSamHeader(aligner.config().contigs,
                               aligner.reference().size(),
                               "perfbench_trace");
    }
    ReadChunk chunk;
    if (!opt.paired()) {
        FastqReader reader(opt.reads);
        FastqRecord rec;
        chunk.reserve(kAlignChunk);
        for (;;) {
            chunk.clear();
            {
                ScopedSpan span(kParse);
                while (chunk.size() < kAlignChunk && reader.next(rec))
                    chunk.emplace_back(std::move(rec.name),
                                       std::move(rec.seq));
            }
            if (chunk.empty())
                break;
            for (const SamRecord &sam : alignChunk(aligner, engine, chunk,
                                                   stats))
                emit(out, sam, stats);
        }
        closeOut(out, opt.replay_sam);
        return;
    }

    const PipelineConfig &pconfig = aligner.config();
    PairedReadSource source(opt.r1, opt.r2);
    PairedRecord pr;
    const auto pull = [&](size_t max_pairs) {
        ScopedSpan span(kParse);
        chunk.clear();
        while (chunk.size() / 2 < max_pairs && source.next(pr)) {
            chunk.emplace_back(pr.name, std::move(pr.first));
            chunk.emplace_back(std::move(pr.name), std::move(pr.second));
        }
    };
    std::vector<SamRecord> recs;
    {
        // The serial insert-size bootstrap of `seedex align`.
        ScopedSpan span(kBootstrap);
        pull(InsertEstimator::kBootstrapPairs);
        recs = alignChunk(aligner, engine, chunk, stats);
        InsertEstimator est(InsertModel{});
        for (size_t i = 0; i + 1 < recs.size(); i += 2)
            est.observe(recs[i], recs[i + 1]);
        paired.model = est.freeze();
    }
    const PairContext ctx{aligner.reference(), pconfig.contigs,
                          pconfig.extension, paired.model, true};
    const auto *sx = dynamic_cast<const SeedExEngine *>(&aligner.engine());
    const auto passes = [sx] {
        return sx ? sx->stats().pass_s2 + sx->stats().pass_checks : 0;
    };
    for (;;) {
        for (size_t i = 0; i + 1 < recs.size(); i += 2) {
            const uint64_t passes_before = passes();
            {
                ScopedSpan span(kFinalize);
                finalizePair(recs[i], recs[i + 1], chunk[i].second,
                             chunk[i + 1].second, engine, ctx);
            }
            paired.rescue_passes += passes() - passes_before;
            emit(out, recs[i], stats);
            emit(out, recs[i + 1], stats);
        }
        paired.pairs += recs.size() / 2;
        pull(kAlignChunk / 2);
        if (chunk.empty())
            break;
        recs = alignChunk(aligner, engine, chunk, stats);
    }
    closeOut(out, opt.replay_sam);
}

/** The threaded pipeline as `seedex align --threads=N` drives it, with
 *  spans around the source and sink callbacks. */
ThreadedReport
runThreaded(const Options &opt, Aligner &aligner, const InsertModel &model)
{
    const PipelineConfig &pconfig = aligner.config();
    ThreadedConfig tconfig;
    tconfig.applyEnv();
    tconfig.seeding_threads = std::max(1, (opt.threads * 3) / 4);
    tconfig.fpga_threads = std::max(1, opt.threads - tconfig.seeding_threads);
    tconfig.pipeline = pconfig;

    std::ofstream out = openOut(opt.threaded_sam);
    out << renderSamHeader(pconfig.contigs, aligner.reference().size(),
                           "perfbench_trace");
    const SamSink sink = [&](size_t, SamRecord &&sam) {
        ScopedSpan span(kSink);
        out << sam.render() << '\n';
    };
    ThreadedReport report;
    if (!opt.paired()) {
        FastqReader reader(opt.reads);
        FastqRecord rec;
        const ReadSource source = [&](ReadChunk &pulled, size_t max) {
            ScopedSpan span(kSource);
            size_t n = 0;
            while (n < max && reader.next(rec)) {
                pulled[n].first = std::move(rec.name);
                pulled[n].second = std::move(rec.seq);
                ++n;
            }
            return n;
        };
        alignThreadedSource(aligner.reference(), source, tconfig, sink,
                            &report, &aligner.index());
    } else {
        // Bootstrap chunk: single-threaded in every mode, as in the CLI.
        PairedReadSource pairs(opt.r1, opt.r2);
        PairedRecord pr;
        ReadChunk chunk;
        while (chunk.size() / 2 < InsertEstimator::kBootstrapPairs &&
               pairs.next(pr)) {
            chunk.emplace_back(pr.name, std::move(pr.first));
            chunk.emplace_back(std::move(pr.name), std::move(pr.second));
        }
        std::vector<SamRecord> recs = aligner.alignBatch(chunk);
        const PairContext ctx{aligner.reference(), pconfig.contigs,
                              pconfig.extension, model, true};
        for (size_t i = 0; i + 1 < recs.size(); i += 2) {
            finalizePair(recs[i], recs[i + 1], chunk[i].second,
                         chunk[i + 1].second, aligner.engine(), ctx);
            out << recs[i].render() << '\n'
                << recs[i + 1].render() << '\n';
        }
        tconfig.paired = true;
        tconfig.insert = model;
        tconfig.mate_rescue = true;
        const ReadSource source = [&](ReadChunk &pulled, size_t max) {
            ScopedSpan span(kSource);
            size_t n = 0;
            while (n + 1 < max && pairs.next(pr)) {
                pulled[n].first = pr.name;
                pulled[n].second = std::move(pr.first);
                pulled[n + 1].first = std::move(pr.name);
                pulled[n + 1].second = std::move(pr.second);
                n += 2;
            }
            return n;
        };
        alignThreadedSource(aligner.reference(), source, tconfig, sink,
                            &report, &aligner.index());
    }
    out.flush();
    if (!out)
        throw std::runtime_error(opt.threaded_sam + ": write failed");
    return report;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    const std::map<std::string, std::string *> paths = {
        {"--sdx", &opt.sdx},
        {"--reads", &opt.reads},
        {"--r1", &opt.r1},
        {"--r2", &opt.r2},
        {"--replay-sam", &opt.replay_sam},
        {"--threaded-sam", &opt.threaded_sam},
        {"--spans-out", &opt.spans_out}};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        if (eq == std::string::npos)
            throw std::runtime_error("expected --name=value, got " + arg);
        const std::string value = arg.substr(eq + 1);
        if (key == "--threads")
            opt.threads = std::max(1, std::stoi(value));
        else if (paths.count(key))
            *paths.at(key) = value;
        else
            throw std::runtime_error("unknown option " + key);
    }
    if (opt.sdx.empty() || (opt.reads.empty() == opt.r1.empty()) ||
        opt.r1.empty() != opt.r2.empty() || opt.replay_sam.empty() ||
        opt.threaded_sam.empty() || opt.spans_out.empty())
        throw std::runtime_error(
            "usage: perfbench_trace --sdx=F (--reads=F | --r1=F --r2=F) "
            "--threads=N --replay-sam=F --threaded-sam=F --spans-out=F");
    return opt;
}

uint64_t
fileBytes(const std::string &path)
{
    return path.empty() ? 0 : std::filesystem::file_size(path);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseOptions(argc, argv);
        const int64_t origin = nowNs();

        // ---- single-threaded traced replay
        const std::unique_ptr<Aligner> aligner = load(opt.sdx);
        const Counts before = Counts::take();
        ReplayStats st;
        PairedTotals paired;
        replay(opt, *aligner, st, paired);
        const double replay_wall =
            1e-9 * static_cast<double>(nowNs() - origin);
        const Counts d = Counts::take() - before;

        // ---- threaded pipeline at N threads
        const Counts t0 = Counts::take();
        const ThreadedReport tr =
            runThreaded(opt, *aligner, paired.model);
        const Counts td = Counts::take() - t0;

        const LayerTimes lt = foldSpans();
        writeSpans(opt.spans_out, origin);

        double replay_self = 0;
        for (uint32_t l = 0; l < kLayers; ++l)
            if (l != kSource && l != kSink)
                replay_self += lt.self[l];

        const double reads = static_cast<double>(st.reads);
        const double ext = d.need("filter.verdict.total");
        const auto perRead = [reads](double x) {
            return ratio(x, reads, "per-read counts");
        };
        const auto perExt = [ext](double x) {
            return ratio(x, ext, "per-extension counts");
        };
        std::map<std::string, double> m;
        m["genome.parse.self_s"] = lt.self[kParse];
        m["genome.parse_mb_per_s"] = ratio(
            static_cast<double>(fileBytes(opt.reads) + fileBytes(opt.r1) +
                                fileBytes(opt.r2)) / (1 << 20),
            lt.self[kParse], "genome.parse_mb_per_s");
        m["fmindex.load.self_s"] = lt.self[kLoad];
        m["fmindex.occ_calls_per_read"] = perRead(d.need("seed.occ_calls"));
        m["fmindex.kmer_hits_per_read"] = perRead(d.need("seed.kmer_hits"));
        m["seeding.self_s"] = lt.self[kSeeding];
        m["seeding.us_per_read"] = 1e6 * perRead(lt.self[kSeeding]);
        m["seeding.seeds_per_read"] = perRead(static_cast<double>(st.seeds));
        m["chaining.self_s"] = lt.self[kChaining];
        m["chaining.chains_per_read"] =
            perRead(static_cast<double>(st.chains));
        m["extension.self_s"] = lt.self[kExtension];
        m["extension.extensions_per_read"] = perRead(ext);
        m["align.kernel_s"] = d.need("kernel.seconds");
        m["align.dp_cells_per_read"] =
            perRead(d.need("align.kernel.cells"));
        m["align.kernel_calls_per_extension"] =
            perExt(d.need("kernel.calls"));
        const double passes = d.need("filter.verdict.pass_s2") +
            d.need("filter.verdict.pass_checks");
        m["seedex.rerun_frac"] = perExt(ext - passes);
        m["seedex.edit_machine_runs_per_extension"] =
            perExt(d.need("filter.edit_machine.runs"));
        for (const char *v : {"pass_s2", "pass_checks", "fail_s1",
                              "fail_e_score", "fail_edit_check",
                              "fail_gscore_guard"})
            m[std::string("seedex.verdict.") + v + "_frac"] =
                perExt(d.need(std::string("filter.verdict.") + v));
        m["band.escalations_per_extension"] =
            perExt(d.need("seedex.band.escalations"));
        m["sam.build.self_s"] = lt.self[kSamBuild];
        m["align.gotoh_s"] = d.need("align.kernel.gotoh.seconds.sum");
        m["sam.render.self_s"] = lt.self[kSamRender];
        m["sam.bytes_per_read"] = perRead(static_cast<double>(st.sam_bytes));
        m["output.write.self_s"] = lt.self[kWrite];
        // Single-end workloads do not run the paired layer: its metrics
        // are emitted as 0 and marked not applicable by run.py.
        const char *kPairedMetrics[] = {
            "paired.bootstrap_s", "paired.finalize.self_s",
            "paired.rescue_attempts_per_pair",
            "paired.rescue_extensions_per_pair", "paired.rescues_per_pair",
            "paired.rescue_pass_rate", "paired.proper_frac"};
        for (const char *name : kPairedMetrics)
            m[name] = 0;
        if (opt.paired()) {
            const double pairs = static_cast<double>(paired.pairs);
            const auto perPair = [pairs](double x) {
                return ratio(x, pairs, "per-pair counts");
            };
            const double rescue_ext =
                d.need("seedex.paired.rescue_extensions");
            m["paired.bootstrap_s"] = lt.total[kBootstrap];
            m["paired.finalize.self_s"] = lt.self[kFinalize];
            m["paired.rescue_attempts_per_pair"] =
                perPair(d.need("seedex.paired.rescue_attempts"));
            m["paired.rescue_extensions_per_pair"] = perPair(rescue_ext);
            m["paired.rescues_per_pair"] =
                perPair(d.need("seedex.paired.rescues"));
            m["paired.rescue_pass_rate"] =
                ratio(static_cast<double>(paired.rescue_passes), rescue_ext,
                      "paired.rescue_pass_rate");
            m["paired.proper_frac"] =
                perPair(d.need("seedex.paired.proper"));
        }

        const double wall = tr.wall_seconds;
        m["threaded.threads"] = opt.threads;
        m["threaded.wall_s"] = wall;
        m["threaded.producer_busy_frac"] =
            ratio(tr.producer_cpu_seconds, tr.seeding_threads * wall,
                  "threaded.producer_busy_frac");
        m["threaded.consumer_busy_frac"] =
            ratio(tr.consumer_cpu_seconds, tr.fpga_threads * wall,
                  "threaded.consumer_busy_frac");
        m["threaded.source.self_s"] = lt.self[kSource];
        m["threaded.sink.self_s"] = lt.self[kSink];
        m["hw.device_emulation_cpu_s"] = tr.device_emulation_cpu_seconds;
        m["threaded.kernel_calls_per_extension"] =
            ratio(td.need("kernel.calls"), td.need("filter.verdict.total"),
                  "threaded.kernel_calls_per_extension");
        m["threaded.queue_avg_depth"] = tr.queue.avg_depth;
        m["threaded.wakeups_per_batch"] =
            ratio(static_cast<double>(tr.queue.wakeups),
                  static_cast<double>(tr.batches),
                  "threaded.wakeups_per_batch");
        m["threaded.pool_hit_rate"] = tr.pool.hitRate();
        m["threaded.reorder_max_pending"] =
            static_cast<double>(tr.reorder.max_pending);
        m["trace.replay_wall_s"] = replay_wall;
        m["trace.unattributed_frac"] =
            ratio(replay_wall - replay_self, replay_wall,
                  "trace.unattributed_frac");

        std::string json = "{";
        for (const auto &[name, value] : m) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", value);
            json += (json.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
        }
        std::cout << json << "}\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_trace: " << e.what() << "\n";
        return 1;
    }
}
