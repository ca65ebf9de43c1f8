#include "aligner/pipeline.h"

#include <algorithm>

#include "align/kernel.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"

namespace seedex {

namespace {

/** Registry instruments for the alignRead stage boundaries (Fig. 17's
 *  per-stage bars, now as live counters/latency percentiles). */
struct AlignerMetrics
{
    obs::Counter &reads =
        obs::MetricsRegistry::global().counter("aligner.reads");
    obs::Counter &unmapped =
        obs::MetricsRegistry::global().counter("aligner.unmapped");
    obs::Counter &extensions =
        obs::MetricsRegistry::global().counter("aligner.extensions");
    obs::LatencyHistogram &seeding =
        obs::MetricsRegistry::global().histogram("aligner.seeding.seconds");
    obs::LatencyHistogram &extension =
        obs::MetricsRegistry::global().histogram(
            "aligner.extension.seconds");
    obs::LatencyHistogram &other =
        obs::MetricsRegistry::global().histogram("aligner.other.seconds");
};

AlignerMetrics &
alignerMetrics()
{
    static AlignerMetrics metrics;
    return metrics;
}

/** Hardware-counter profiles for the alignRead stage boundaries (same
 *  names as the TraceSpans so timeline and IPC line up). */
struct AlignerProfiles
{
    obs::StageProfile &seeding =
        obs::PerfRegistry::global().stage("aligner.seeding");
    obs::StageProfile &extension =
        obs::PerfRegistry::global().stage("aligner.extension");
    obs::StageProfile &postprocess =
        obs::PerfRegistry::global().stage("aligner.postprocess");
};

AlignerProfiles &
alignerProfiles()
{
    static AlignerProfiles profiles;
    return profiles;
}

/** Engine decorator that captures every extension job for the device
 *  model (the Fig. 16-18 benches replay captured jobs through it). */
class CapturingEngine : public ExtensionEngine
{
  public:
    CapturingEngine(ExtensionEngine &inner,
                    std::vector<ExtensionJob> *sink)
        : inner_(inner), sink_(sink)
    {}

    ExtendResult
    extend(const Sequence &query, const Sequence &target, int h0) override
    {
        ++calls_;
        // Forward the active hint so captured jobs carry the same
        // band-prediction signals the inner engine sees.
        const BandHint hint = hint_ != nullptr ? *hint_ : BandHint{};
        if (sink_)
            sink_->push_back({query, target, h0, hint});
        return inner_.extendHinted(query, target, h0, hint);
    }

    std::string name() const override { return inner_.name(); }

  private:
    ExtensionEngine &inner_;
    std::vector<ExtensionJob> *sink_;
};

} // namespace

std::unique_ptr<ExtensionEngine>
makeEngine(const PipelineConfig &config)
{
    switch (config.engine) {
      case EngineKind::FullBand:
        return std::make_unique<FullBandEngine>(config.extension.scoring,
                                                config.extension.end_bonus);
      case EngineKind::Banded:
        return std::make_unique<BandedEngine>(config.band,
                                              config.extension.scoring,
                                              config.extension.end_bonus,
                                              config.seedex.zdrop);
      case EngineKind::SeedEx: {
        SeedExConfig sx = config.seedex;
        sx.band = config.band;
        sx.scoring = config.extension.scoring;
        BandPolicyConfig pol = config.band_policy;
        pol.base_band = config.band;
        return std::make_unique<SeedExEngine>(sx, std::move(pol));
      }
    }
    return nullptr;
}

ReadAlignment
alignChains(const std::string &name, const Sequence &read,
            const Sequence &rc, const std::vector<Chain> &chains,
            size_t n_chains, uint32_t n_seeds, const Sequence &reference,
            ExtensionEngine &engine, const PipelineConfig &config,
            StageTimes *times)
{
    ReadAlignment out;
    Stopwatch extension_watch, other_watch;
    int chain_chosen = -1;
    if (n_chains == 0) {
        other_watch.start();
        out.record = unmappedRecord(name, read);
        other_watch.stop();
    } else {
        // --- Seed extension through the configured engine. Result
        //     storage is recycled per thread.
        thread_local std::vector<ChainAlignment> results;
        {
            obs::TraceSpan span("aligner.extension", "aligner");
            obs::PerfScope perf(alignerProfiles().extension);
            extension_watch.start();
            results.clear();
            const uint64_t calls_before = engine.calls();
            for (size_t c = 0; c < n_chains; ++c) {
                const Chain &chain = chains[c];
                results.push_back(extendChain(chain,
                                              chain.reverse ? rc : read,
                                              reference, engine,
                                              config.extension));
            }
            out.extensions = engine.calls() - calls_before;
            extension_watch.stop();
        }

        // --- Pick best + runner-up, traceback, SAM.
        obs::TraceSpan span("aligner.postprocess", "aligner");
        obs::PerfScope perf(alignerProfiles().postprocess);
        other_watch.start();
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
        out.record = buildSamRecord(name, read, results[best], sub,
                                    reference, config.extension.scoring,
                                    config.contigs);
        chain_chosen = static_cast<int>(best);
        other_watch.stop();
    }

    if (obs::ReadRecord *rec = obs::Ledger::active()) {
        rec->seeds = n_seeds;
        rec->band = config.engine == EngineKind::FullBand ? -1 : config.band;
        rec->kernel = kernelIsaName(kernelDispatch());
        rec->chains = static_cast<uint32_t>(n_chains);
        rec->chain_chosen = chain_chosen;
        rec->extensions = static_cast<uint32_t>(out.extensions);
        rec->score = out.record.score;
        rec->mapped = out.record.mapped();
    }
    if (times) {
        times->extension += extension_watch.seconds();
        times->other += other_watch.seconds();
    }
    return out;
}

Aligner::Aligner(const Sequence &reference, PipelineConfig config)
    : Aligner(reference, std::move(config), nullptr)
{}

Aligner::Aligner(const Sequence &reference, PipelineConfig config,
                 std::unique_ptr<FmdIndex> index)
    : ref_(reference), config_(std::move(config)),
      index_(index ? std::move(index)
                   : std::make_unique<FmdIndex>(reference)),
      engine_(makeEngine(config_))
{}

SamRecord
Aligner::alignRead(const std::string &name, const Sequence &read,
                   PipelineStats *stats,
                   std::vector<ExtensionJob> *capture)
{
    Stopwatch seed_watch;
    seed_watch.start();
    const std::vector<Seed> seeds =
        collectSeeds(*index_, read, config_.seeding);
    seed_watch.stop();
    return alignSeeded(name, read, seeds, seed_watch.seconds(), stats,
                       capture);
}

SamRecord
Aligner::alignSeeded(const std::string &name, const Sequence &read,
                     const std::vector<Seed> &seeds, double seed_seconds,
                     PipelineStats *stats,
                     std::vector<ExtensionJob> *capture)
{
    // Provenance ledger: one record per read when enabled; alignChains
    // and the lower layers (filter funnel, extend kernel) attribute onto
    // it via the open thread-local scope.
    obs::ReadScope ledger_scope(name);

    // --- Chaining (charged to the "seeding" bar of Fig. 17 together
    //     with the SMEM/locate time handed in by the caller). Chain and
    //     reverse-complement storage is recycled per thread: steady
    //     state allocates nothing.
    thread_local std::vector<Chain> chains;
    thread_local Sequence rc;
    Stopwatch seeding_watch;
    size_t n_chains = 0;
    {
        obs::TraceSpan span("aligner.seeding", "aligner");
        obs::PerfScope perf(alignerProfiles().seeding);
        seeding_watch.start();
        n_chains = chainSeedsInto(seeds, config_.chaining,
                                  ChainWorkspace::tls(), chains);
        seeding_watch.stop();
    }
    if (n_chains != 0)
        read.reverseComplementInto(rc);

    CapturingEngine engine(*engine_, capture);
    StageTimes times;
    ReadAlignment aln =
        alignChains(name, read, rc, chains, n_chains,
                    static_cast<uint32_t>(seeds.size()), ref_, engine,
                    config_, &times);
    const SamRecord &rec = aln.record;

    const double seeding_seconds = seed_seconds + seeding_watch.seconds();
    if (stats) {
        ++stats->reads;
        stats->unmapped += !rec.mapped();
        stats->extensions += aln.extensions;
        stats->times.seeding += seeding_seconds;
        stats->times.extension += times.extension;
        stats->times.other += times.other;
        if (auto *sx = dynamic_cast<SeedExEngine *>(engine_.get()))
            stats->filter = sx->stats();
    }

    AlignerMetrics &m = alignerMetrics();
    m.reads.inc();
    if (!rec.mapped())
        m.unmapped.inc();
    if (aln.extensions)
        m.extensions.inc(aln.extensions);
    m.seeding.observe(seeding_seconds);
    if (n_chains != 0)
        m.extension.observe(times.extension);
    m.other.observe(times.other);
    SEEDEX_LOG(Trace, "aligner",
               "read %s: %zu chains, %llu extensions, mapped=%d",
               name.c_str(), n_chains,
               static_cast<unsigned long long>(aln.extensions),
               rec.mapped() ? 1 : 0);
    return std::move(aln.record);
}

std::vector<SamRecord>
Aligner::alignBatch(
    const std::vector<std::pair<std::string, Sequence>> &reads,
    PipelineStats *stats, std::vector<ExtensionJob> *capture)
{
    std::vector<SamRecord> records;
    records.reserve(reads.size());
    const size_t batch = seedBatchSize();
    SeedWorkspace &ws = SeedWorkspace::tls();
    std::vector<const Sequence *> queries(batch);
    std::vector<std::vector<Seed>> seeds(batch);
    for (size_t base = 0; base < reads.size(); base += batch) {
        const size_t n = std::min(batch, reads.size() - base);
        for (size_t r = 0; r < n; ++r)
            queries[r] = &reads[base + r].second;
        Stopwatch seed_watch;
        seed_watch.start();
        collectSeedsBatch(*index_, queries.data(), n, config_.seeding, ws,
                          seeds);
        seed_watch.stop();
        const double per_read = seed_watch.seconds() / n;
        for (size_t r = 0; r < n; ++r)
            records.push_back(alignSeeded(reads[base + r].first,
                                          reads[base + r].second, seeds[r],
                                          per_read, stats, capture));
    }
    return records;
}

} // namespace seedex
