#ifndef SEEDEX_ALIGNER_EXTENSION_H
#define SEEDEX_ALIGNER_EXTENSION_H

#include <memory>
#include <string>

#include "aligner/chaining.h"
#include "align/extend.h"
#include "seedex/filter.h"

namespace seedex {

/** Placeholder type of ExtensionEngine::extendHinted. No engine reads
 *  it; it is kept, empty, only because perfbench/trace.cc's engine
 *  decorator still forwards one. */
struct BandHint
{
};

/**
 * Pluggable seed-extension engine: the pipeline stage SeedEx accelerates.
 * Implementations must be drop-in equivalent *interfaces*; only the
 * guaranteed engines (full band, SeedEx) promise full-band-optimal
 * results.
 */
class ExtensionEngine
{
  public:
    virtual ~ExtensionEngine() = default;

    /** Perform one semi-global extension with initial score h0. */
    virtual ExtendResult extend(const Sequence &query,
                                const Sequence &target, int h0) = 0;

    /** extend() with a BandHint attached; kept only for
     *  perfbench/trace.cc, which forwards `hint_` through it. */
    ExtendResult
    extendHinted(const Sequence &query, const Sequence &target, int h0,
                 const BandHint &hint)
    {
        hint_ = &hint;
        ExtendResult r = extend(query, target, h0);
        hint_ = nullptr;
        return r;
    }

    virtual std::string name() const = 0;

    /** Extensions executed (for throughput accounting). */
    uint64_t calls() const { return calls_; }

  protected:
    /** Hint of the in-flight extendHinted() call (perfbench/trace.cc
     *  only); null for extend() calls. */
    const BandHint *hint_ = nullptr;
    uint64_t calls_ = 0;
};

/** Software full-band engine: BWA-MEM's per-extension estimated band. */
class FullBandEngine : public ExtensionEngine
{
  public:
    explicit FullBandEngine(Scoring scoring = Scoring::bwaDefault(),
                            int end_bonus = 5)
        : scoring_(scoring), end_bonus_(end_bonus)
    {}

    ExtendResult extend(const Sequence &query, const Sequence &target,
                        int h0) override;
    std::string name() const override { return "full-band"; }

  private:
    Scoring scoring_;
    int end_bonus_;
};

/** Fixed narrow band with NO optimality guarantee (the Fig. 13 "BSW"
 *  baseline whose output diverges at small bands). */
class BandedEngine : public ExtensionEngine
{
  public:
    explicit BandedEngine(int band,
                          Scoring scoring = Scoring::bwaDefault(),
                          int end_bonus = 5, int zdrop = -1)
        : band_(band), scoring_(scoring), end_bonus_(end_bonus),
          zdrop_(zdrop)
    {}

    ExtendResult extend(const Sequence &query, const Sequence &target,
                        int h0) override;
    std::string name() const override
    {
        return "banded-w" + std::to_string(band_);
    }

  private:
    int band_;
    Scoring scoring_;
    int end_bonus_;
    int zdrop_;
};

/** The SeedEx engine: speculative narrow band + optimality checks +
 *  host rerun (SeedExFilter::runWithRerun). Guaranteed band-invariant
 *  output. */
class SeedExEngine : public ExtensionEngine
{
  public:
    explicit SeedExEngine(SeedExConfig config) : filter_(config) {}

    ExtendResult extend(const Sequence &query, const Sequence &target,
                        int h0) override;
    std::string name() const override
    {
        return "seedex-w" + std::to_string(filter_.config().band);
    }

    const FilterStats &stats() const { return stats_; }

  private:
    SeedExFilter filter_;
    FilterStats stats_;
};

/** One extended chain: a candidate alignment of the oriented read. */
struct ChainAlignment
{
    int score = 0;
    bool reverse = false;
    /** Aligned spans: query (oriented-read coords) and reference. */
    int qbeg = 0, qend = 0;
    uint64_t rbeg = 0, rend = 0;
    /** Anchor seed score (h0 fed to the left extension). */
    int seed_score = 0;
    /** Max diagonal offset either extension observed; 0 means the whole
     *  alignment is gap-free and traceback is trivial. */
    int max_off = 0;
};

/** Extension-stage configuration. */
struct ExtensionParams
{
    Scoring scoring = Scoring::bwaDefault();
    /** Reference window slack fetched beyond the query remainder (BWA's
     *  rmax band margin). */
    int window_slack = 100;
    /** End bonus b: to-end extension wins when
     *  gscore >= local max - b (BWA's pen_clip logic, default 5). */
    int end_bonus = 5;
};

/**
 * Extend one chain with the given engine: a left extension from the
 * anchor seed (reversed strings), then a right extension seeded with the
 * accumulated score — BWA-MEM's two-sided extension with h0 propagation
 * (§V-B), including the clip-vs-to-end decision on each side.
 */
ChainAlignment extendChain(const Chain &chain, const Sequence &oriented_read,
                           const Sequence &reference,
                           ExtensionEngine &engine,
                           const ExtensionParams &params);

} // namespace seedex

#endif // SEEDEX_ALIGNER_EXTENSION_H
