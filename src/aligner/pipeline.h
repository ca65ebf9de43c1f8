#ifndef SEEDEX_ALIGNER_PIPELINE_H
#define SEEDEX_ALIGNER_PIPELINE_H

#include <memory>
#include <optional>
#include <vector>

#include "aligner/chaining.h"
#include "aligner/extension.h"
#include "aligner/sam.h"
#include "aligner/seeding.h"
#include "fmindex/fmd_index.h"
#include "hw/throughput_model.h"
#include "obs/ledger.h"
#include "util/stopwatch.h"

namespace seedex {

/** Which seed-extension engine the pipeline runs. */
enum class EngineKind
{
    FullBand, ///< BWA-MEM/BWA-MEM2 software baseline
    Banded,   ///< fixed narrow band, NO guarantee (Fig. 13 baseline)
    SeedEx,   ///< speculative narrow band + checks + rerun (this paper)
};

/** End-to-end aligner configuration. */
struct PipelineConfig
{
    SeedingParams seeding;
    ChainingParams chaining;
    ExtensionParams extension;
    EngineKind engine = EngineKind::FullBand;
    /** Band for Banded/SeedEx engines. */
    int band = 41;
    SeedExConfig seedex;
    /** Contig dictionary for SAM emission (RNAME/POS resolution); the
     *  empty default is the legacy single-contig "ref" mode. */
    ContigTable contigs;
};

/** Wall-clock seconds per software pipeline stage (Fig. 17 inputs). */
struct StageTimes
{
    double seeding = 0;   ///< SMEM generation + seed lookup + chaining
    double extension = 0; ///< the banded-SW kernel (what SeedEx offloads)
    double other = 0;     ///< traceback, SAM output, bookkeeping

    double total() const { return seeding + extension + other; }
};

/** Counters and timings accumulated over a batch. */
struct PipelineStats
{
    StageTimes times;
    uint64_t reads = 0;
    uint64_t unmapped = 0;
    uint64_t extensions = 0;
    /** SeedEx filter verdicts (only for EngineKind::SeedEx). */
    FilterStats filter;
};

/** Build the extension engine `config` selects. The single-threaded
 *  Aligner and every threaded worker build their engines here, so both
 *  pipelines run the same extension code. */
std::unique_ptr<ExtensionEngine> makeEngine(const PipelineConfig &config);

/** One read aligned by alignChains(). */
struct ReadAlignment
{
    SamRecord record;
    /** Engine extensions run for the read's chains. */
    uint64_t extensions = 0;
};

/**
 * The per-read body both pipelines share (the Aligner is its N=1 caller;
 * each threaded worker calls it once per read): extend each of the
 * first `n_chains` chains with extendChain() through `engine`, keep the
 * best score and the runner-up, and build the SAM record. `rc` is the
 * read's reverse complement, read only for reverse-strand chains. The
 * read's provenance (seeds, chains, chosen chain, extensions, score) is
 * written to the ledger record open on this thread, if any; `times`
 * (nullable) accumulates the extension and post-processing seconds.
 */
ReadAlignment alignChains(const std::string &name, const Sequence &read,
                          const Sequence &rc,
                          const std::vector<Chain> &chains, size_t n_chains,
                          uint32_t n_seeds, const Sequence &reference,
                          ExtensionEngine &engine,
                          const PipelineConfig &config,
                          StageTimes *times = nullptr);

/**
 * The single-end mini-aligner (the BWA-MEM stand-in of DESIGN.md §1):
 * FMD-index seeding, chaining, two-sided banded extension through a
 * pluggable engine, host traceback, SAM records. Its measured stage
 * times drive the Fig. 17 model; its output equivalence across engines
 * reproduces Fig. 13 at application level.
 */
class Aligner
{
  public:
    Aligner(const Sequence &reference, PipelineConfig config);

    /** Construct around a prebuilt FM-index (e.g. loaded from a `.sdx`
     *  cache); `index` must have been built over `reference` and may be
     *  null, in which case the index is built here. */
    Aligner(const Sequence &reference, PipelineConfig config,
            std::unique_ptr<FmdIndex> index);

    /** Align one read; stats are accumulated if non-null. Extension jobs
     *  are appended to `capture` (if non-null) for the accelerator
     *  device model. */
    SamRecord alignRead(const std::string &name, const Sequence &read,
                        PipelineStats *stats = nullptr,
                        std::vector<ExtensionJob> *capture = nullptr);

    /** Align a batch of (name, read) pairs. Seeding runs in lockstep
     *  batches of seedBatchSize() reads (identical output to alignRead
     *  per read, but with cross-read prefetching on the FM-index). */
    std::vector<SamRecord>
    alignBatch(const std::vector<std::pair<std::string, Sequence>> &reads,
               PipelineStats *stats = nullptr,
               std::vector<ExtensionJob> *capture = nullptr);

    /** alignBatch() that holds each read's ledger record in `held`
     *  (index-aligned with `reads`; empty when the ledger is off or the
     *  read was sampled out) instead of publishing it, so the caller
     *  can fold later facts in first: the paired CLI's insert-size
     *  bootstrap publishes them through publishPairRecords(). */
    std::vector<SamRecord>
    alignBatch(const std::vector<std::pair<std::string, Sequence>> &reads,
               std::vector<std::optional<obs::ReadRecord>> &held);

    const FmdIndex &index() const { return *index_; }
    const Sequence &reference() const { return ref_; }
    ExtensionEngine &engine() { return *engine_; }
    const PipelineConfig &config() const { return config_; }

  private:
    /** Both alignBatch() overloads; `held` (nullable) points at one
     *  slot per read. */
    std::vector<SamRecord>
    alignReads(const std::vector<std::pair<std::string, Sequence>> &reads,
               PipelineStats *stats, std::vector<ExtensionJob> *capture,
               std::optional<obs::ReadRecord> *held);

    /** Chain, extend, and emit one read whose seeds were already
     *  collected (`seed_seconds` is charged to the seeding stage). The
     *  read's ledger record is published, or moved into `*held` when
     *  `held` is non-null. */
    SamRecord alignSeeded(const std::string &name, const Sequence &read,
                          const std::vector<Seed> &seeds,
                          double seed_seconds, PipelineStats *stats,
                          std::vector<ExtensionJob> *capture,
                          std::optional<obs::ReadRecord> *held = nullptr);

    Sequence ref_;
    PipelineConfig config_;
    std::unique_ptr<FmdIndex> index_;
    std::unique_ptr<ExtensionEngine> engine_;
};

} // namespace seedex

#endif // SEEDEX_ALIGNER_PIPELINE_H
