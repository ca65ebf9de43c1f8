#include "aligner/paired.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"

namespace seedex {

namespace {

/** Paired-pipeline instruments: one funnel shared by the single-threaded
 *  PairedAligner and the threaded workers (both finalize pairs through
 *  finalizePair, so the counters reconcile for either path). */
struct PairedMetrics
{
    obs::Counter &pairs =
        obs::MetricsRegistry::global().counter("seedex.paired.pairs");
    obs::Counter &proper =
        obs::MetricsRegistry::global().counter("seedex.paired.proper");
    obs::Counter &rescues =
        obs::MetricsRegistry::global().counter("seedex.paired.rescues");
    obs::Counter &rescue_attempts = obs::MetricsRegistry::global().counter(
        "seedex.paired.rescue_attempts");
    obs::Counter &rescue_extensions =
        obs::MetricsRegistry::global().counter(
            "seedex.paired.rescue_extensions");
    obs::Counter &rescue_passes = obs::MetricsRegistry::global().counter(
        "seedex.paired.rescue_passes");
};

PairedMetrics &
pairedMetrics()
{
    static PairedMetrics metrics;
    return metrics;
}

/** Leftmost coordinate and rightmost end of a mapped record. */
uint64_t
recordEnd(const SamRecord &rec)
{
    return rec.pos + static_cast<uint64_t>(rec.cigar.referenceLength());
}

/** Rescue anchor k-mer: short enough to survive dense substitutions
 *  (an exact run of 11 exists between mismatches 12 bases apart), long
 *  enough to stay specific inside a few-hundred-base window. */
constexpr size_t kRescueSeedLen = 11;
/** Extension budget per rescue: the longest few anchors only. */
constexpr size_t kRescueMaxAnchors = 4;

/** One maximal exact match of the oriented mate inside the window. */
struct RescueAnchor
{
    int qbeg = 0;
    uint64_t rbeg = 0; ///< global reference coordinate
    int len = 0;
};

/**
 * Collect maximal exact k-mer anchors of `oriented` inside
 * reference[win_beg, win_end), deduplicated per diagonal (keeping the
 * longest), sorted longest-first with deterministic tie-breaks.
 */
std::vector<RescueAnchor>
collectRescueAnchors(const Sequence &oriented, const Sequence &reference,
                     uint64_t win_beg, uint64_t win_end)
{
    std::vector<RescueAnchor> anchors;
    const size_t k = kRescueSeedLen;
    const size_t w = static_cast<size_t>(win_end - win_beg);
    const size_t n = oriented.size();
    if (n < k || w < k)
        return anchors;

    // Index every window k-mer (2 bits/base; k=11 fits 22 bits). Bases
    // >= 4 (N) poison a k-mer for k positions.
    const uint32_t mask = (1u << (2 * k)) - 1;
    std::unordered_map<uint32_t, std::vector<uint32_t>> table;
    table.reserve(w);
    uint32_t kmer = 0;
    size_t valid = 0;
    for (size_t t = 0; t < w; ++t) {
        const Base b = reference[win_beg + t];
        if (b >= 4) {
            valid = 0;
            kmer = 0;
            continue;
        }
        kmer = ((kmer << 2) | static_cast<uint32_t>(b)) & mask;
        if (++valid >= k)
            table[kmer].push_back(static_cast<uint32_t>(t + 1 - k));
    }

    // Scan the mate's k-mers; extend each hit to its maximal run, and
    // keep only maximal starts so one long match is recorded once.
    std::unordered_map<int64_t, RescueAnchor> by_diagonal;
    kmer = 0;
    valid = 0;
    for (size_t q = 0; q < n; ++q) {
        const Base b = oriented[q];
        if (b >= 4) {
            valid = 0;
            kmer = 0;
            continue;
        }
        kmer = ((kmer << 2) | static_cast<uint32_t>(b)) & mask;
        if (++valid < k)
            continue;
        const size_t qbeg = q + 1 - k;
        const auto it = table.find(kmer);
        if (it == table.end())
            continue;
        for (const uint32_t tbeg : it->second) {
            if (qbeg > 0 && tbeg > 0 &&
                oriented[qbeg - 1] == reference[win_beg + tbeg - 1])
                continue; // not a maximal start; already recorded
            size_t len = k;
            while (qbeg + len < n && tbeg + len < w &&
                   oriented[qbeg + len] == reference[win_beg + tbeg + len])
                ++len;
            RescueAnchor a;
            a.qbeg = static_cast<int>(qbeg);
            a.rbeg = win_beg + tbeg;
            a.len = static_cast<int>(len);
            const int64_t diag = static_cast<int64_t>(a.rbeg) -
                static_cast<int64_t>(a.qbeg);
            auto slot = by_diagonal.find(diag);
            if (slot == by_diagonal.end())
                by_diagonal.emplace(diag, a);
            else if (a.len > slot->second.len ||
                     (a.len == slot->second.len &&
                      a.rbeg < slot->second.rbeg))
                slot->second = a;
        }
    }

    anchors.reserve(by_diagonal.size());
    for (const auto &entry : by_diagonal)
        anchors.push_back(entry.second);
    std::sort(anchors.begin(), anchors.end(),
              [](const RescueAnchor &a, const RescueAnchor &b) {
                  if (a.len != b.len)
                      return a.len > b.len;
                  if (a.rbeg != b.rbeg)
                      return a.rbeg < b.rbeg;
                  return a.qbeg < b.qbeg;
              });
    if (anchors.size() > kRescueMaxAnchors)
        anchors.resize(kRescueMaxAnchors);
    return anchors;
}

} // namespace

bool
isProperPair(const SamRecord &a, const SamRecord &b,
             const InsertModel &model)
{
    if (!a.mapped() || !b.mapped())
        return false;
    if (a.rname != b.rname)
        return false;
    const bool a_rev = a.flag & kSamFlagReverse;
    const bool b_rev = b.flag & kSamFlagReverse;
    if (a_rev == b_rev)
        return false;
    const SamRecord &fwd = a_rev ? b : a;
    const SamRecord &rev = a_rev ? a : b;
    if (rev.pos + 1 < fwd.pos) // reverse mate must sit at/after forward
        return false;
    const int64_t insert = static_cast<int64_t>(recordEnd(rev)) -
                           static_cast<int64_t>(fwd.pos);
    return insert >= model.lo() && insert <= model.hi();
}

void
InsertEstimator::observe(const SamRecord &first, const SamRecord &second)
{
    if (!first.mapped() || !second.mapped())
        return;
    if (first.rname != second.rname)
        return;
    if (first.mapq < kMinMapq || second.mapq < kMinMapq)
        return;
    const bool first_rev = first.flag & kSamFlagReverse;
    const bool second_rev = second.flag & kSamFlagReverse;
    if (first_rev == second_rev)
        return;
    const SamRecord &fwd = first_rev ? second : first;
    const SamRecord &rev = first_rev ? first : second;
    if (rev.pos + 1 < fwd.pos)
        return;
    const int64_t insert = static_cast<int64_t>(recordEnd(rev)) -
                           static_cast<int64_t>(fwd.pos);
    if (insert <= 0 || insert > kMaxInsert)
        return;
    inserts_.push_back(static_cast<double>(insert));
}

InsertModel
InsertEstimator::freeze() const
{
    if (inserts_.size() < kMinObservations)
        return fallback_;
    std::vector<double> sorted = inserts_;
    std::sort(sorted.begin(), sorted.end());
    const auto quantile = [&](double f) {
        const size_t i = static_cast<size_t>(
            f * static_cast<double>(sorted.size() - 1));
        return sorted[i];
    };
    // BWA-MEM's recipe: interquartile fences, then plain mean/sd over
    // the inliers (robust to chimeric/discordant bootstrap pairs).
    const double q1 = quantile(0.25);
    const double q3 = quantile(0.75);
    const double iqr = q3 - q1;
    const double lo = q1 - 2.0 * iqr;
    const double hi = q3 + 2.0 * iqr;
    double sum = 0;
    size_t count = 0;
    for (const double x : sorted) {
        if (x < lo || x > hi)
            continue;
        sum += x;
        ++count;
    }
    if (count < kMinObservations)
        return fallback_;
    const double mean = sum / static_cast<double>(count);
    double var = 0;
    for (const double x : sorted) {
        if (x < lo || x > hi)
            continue;
        var += (x - mean) * (x - mean);
    }
    var /= static_cast<double>(count);
    InsertModel model = fallback_;
    model.mean = mean;
    model.sd = std::max(1.0, std::sqrt(var));
    return model;
}

SamRecord
rescueMate(const std::string &name, const Sequence &mate,
           const SamRecord &anchor, ExtensionEngine &engine,
           const PairContext &ctx, uint32_t *extensions_out)
{
    // Expected window (FR): the mate lies downstream of a forward anchor
    // or upstream of a reverse anchor, reverse-complemented. Window
    // coordinates are global (the anchor's contig-local POS rebased).
    const Sequence &reference = ctx.reference;
    const bool anchor_rev = anchor.flag & kSamFlagReverse;
    uint64_t anchor_global = anchor.pos;
    if (!ctx.contigs.empty()) {
        uint64_t offset = 0;
        for (size_t c = 0; c < ctx.contigs.size(); ++c) {
            if (ctx.contigs.name(c) == anchor.rname) {
                anchor_global = offset + anchor.pos;
                break;
            }
            offset += ctx.contigs[c].length;
        }
    }
    const uint64_t anchor_end_global =
        anchor_global + static_cast<uint64_t>(anchor.cigar.referenceLength());
    const int64_t lo_off =
        ctx.insert.lo() - static_cast<int64_t>(mate.size());
    const int64_t hi_off = ctx.insert.hi();
    uint64_t win_beg, win_end;
    if (!anchor_rev) {
        win_beg = anchor_global +
            static_cast<uint64_t>(std::max<int64_t>(0, lo_off));
        win_end =
            std::min<uint64_t>(reference.size(), anchor_global + hi_off);
    } else {
        win_beg = anchor_end_global > static_cast<uint64_t>(hi_off)
            ? anchor_end_global - static_cast<uint64_t>(hi_off)
            : 0;
        win_end = anchor_end_global >
                static_cast<uint64_t>(std::max<int64_t>(0, lo_off))
            ? anchor_end_global -
                static_cast<uint64_t>(std::max<int64_t>(0, lo_off))
            : 0;
        win_end = std::min<uint64_t>(
            reference.size(),
            win_end + mate.size()); // room for the mate itself
    }
    SamRecord rec = unmappedRecord(name, mate);
    if (win_end <= win_beg + mate.size() / 2)
        return rec;

    // The rescued mate aligns on the strand opposite the anchor (FR).
    const bool mate_rev = !anchor_rev;
    const Sequence oriented = mate_rev ? mate.reverseComplement() : mate;
    const std::vector<RescueAnchor> candidates =
        collectRescueAnchors(oriented, reference, win_beg, win_end);
    if (candidates.empty())
        return rec;

    // Extend each candidate as a single-seed chain through the engine:
    // extendChain runs both flanks through engine.extend(), so rescue
    // extensions hit the same speculate-and-test filter (and the same
    // FilterStats funnel) as primary extensions.
    const uint64_t calls_before = engine.calls();
    ChainAlignment best;
    ChainAlignment runner_up;
    bool have_best = false;
    for (const RescueAnchor &a : candidates) {
        Chain chain;
        chain.reverse = mate_rev;
        Seed seed;
        seed.qbeg = a.qbeg;
        seed.len = a.len;
        seed.rbeg = a.rbeg;
        seed.reverse = mate_rev;
        seed.occurrences = 1;
        chain.seeds.push_back(seed);
        chain.weight = a.len;
        const ChainAlignment aln =
            extendChain(chain, oriented, reference, engine, ctx.extension);
        if (!have_best) {
            best = aln;
            have_best = true;
            continue;
        }
        // Deterministic ranking; duplicate extents (several anchors of
        // one alignment) neither replace the best nor count as a
        // runner-up, so MAPQ is not self-suppressed.
        if (aln.rbeg == best.rbeg && aln.rend == best.rend &&
            aln.qbeg == best.qbeg && aln.qend == best.qend)
            continue;
        const bool better = aln.score > best.score ||
            (aln.score == best.score &&
             (aln.rbeg < best.rbeg ||
              (aln.rbeg == best.rbeg && aln.qbeg < best.qbeg)));
        if (better) {
            if (runner_up.score < best.score)
                runner_up = best;
            best = aln;
        } else if (aln.score > runner_up.score) {
            runner_up = aln;
        }
    }
    if (extensions_out != nullptr)
        *extensions_out +=
            static_cast<uint32_t>(engine.calls() - calls_before);

    // Require a confident hit (most of the read aligned).
    if (!have_best ||
        best.score <
            static_cast<int>(mate.size()) * ctx.extension.scoring.match / 2)
        return rec;

    rec = buildSamRecord(name, mate, best, runner_up.score, reference,
                         ctx.extension.scoring, ctx.contigs);
    // A rescue is pulled in by its partner, not found on its own merit:
    // its confidence cannot exceed the anchor's.
    rec.mapq = std::min(rec.mapq, anchor.mapq);
    return rec;
}

PairOutcome
finalizePair(SamRecord &first, SamRecord &second, const Sequence &read1,
             const Sequence &read2, ExtensionEngine &engine,
             const PairContext &ctx)
{
    PairOutcome out;
    PairedMetrics &metrics = pairedMetrics();
    metrics.pairs.inc();

    // Mate rescue: one end lost while the other is confident. Track the
    // filter's accepted-speculation count across the rescue so the
    // rescue_passes instrument reports how often the narrow band proved
    // optimal on rescue extensions specifically.
    if (ctx.mate_rescue) {
        const auto *sx = dynamic_cast<const SeedExEngine *>(&engine);
        const uint64_t passes_before = sx != nullptr
            ? sx->stats().pass_s2 + sx->stats().pass_checks
            : 0;
        if (!first.mapped() && second.mapped() &&
            second.mapq >= ctx.min_anchor_mapq) {
            metrics.rescue_attempts.inc();
            SamRecord rescued = rescueMate(first.qname, read1, second,
                                           engine, ctx,
                                           &out.rescue_extensions);
            if (rescued.mapped()) {
                first = std::move(rescued);
                out.rescued_first = true;
            }
        } else if (!second.mapped() && first.mapped() &&
                   first.mapq >= ctx.min_anchor_mapq) {
            metrics.rescue_attempts.inc();
            SamRecord rescued = rescueMate(second.qname, read2, first,
                                           engine, ctx,
                                           &out.rescue_extensions);
            if (rescued.mapped()) {
                second = std::move(rescued);
                out.rescued_second = true;
            }
        }
        if (sx != nullptr)
            out.rescue_passes = static_cast<uint32_t>(
                sx->stats().pass_s2 + sx->stats().pass_checks -
                passes_before);
    }

    out.proper = isProperPair(first, second, ctx.insert);

    // SAM pair bookkeeping.
    auto decorate = [&](SamRecord &rec, const SamRecord &mate,
                        int which_flag) {
        rec.flag |= kSamFlagPaired | which_flag;
        if (out.proper)
            rec.flag |= kSamFlagProperPair;
        if (!mate.mapped())
            rec.flag |= kSamFlagMateUnmapped;
        else if (mate.flag & kSamFlagReverse)
            rec.flag |= kSamFlagMateReverse;
        if (rec.mapped() && mate.mapped()) {
            rec.pnext = mate.pos;
            if (rec.rname == mate.rname) {
                rec.rnext = "=";
                const int64_t left =
                    static_cast<int64_t>(std::min(rec.pos, mate.pos));
                const int64_t right = static_cast<int64_t>(
                    std::max(recordEnd(rec), recordEnd(mate)));
                // Reciprocal TLEN: the leftmost mate carries the
                // positive sign; first-in-pair breaks exact-position
                // ties (sum-to-zero even at pos == pnext).
                const bool leftmost = rec.pos < mate.pos ||
                    (rec.pos == mate.pos &&
                     which_flag == kSamFlagFirstInPair);
                rec.tlen = leftmost ? right - left : left - right;
            } else {
                rec.rnext = mate.rname;
                rec.tlen = 0;
            }
        }
    };
    decorate(first, second, kSamFlagFirstInPair);
    decorate(second, first, kSamFlagSecondInPair);

    if (out.proper)
        metrics.proper.inc();
    if (out.rescued())
        metrics.rescues.inc();
    if (out.rescue_extensions > 0)
        metrics.rescue_extensions.inc(out.rescue_extensions);
    if (out.rescue_passes > 0)
        metrics.rescue_passes.inc(out.rescue_passes);
    return out;
}

void
publishPairRecords(const PairOutcome &outcome, const SamRecord &first,
                   const SamRecord &second,
                   std::optional<obs::ReadRecord> &first_record,
                   std::optional<obs::ReadRecord> &second_record)
{
    const auto publish = [&](std::optional<obs::ReadRecord> &rec,
                             const SamRecord &sam, bool rescued) {
        if (!rec)
            return;
        rec->paired = true;
        rec->proper = outcome.proper;
        rec->pair_rescued = rescued;
        if (rescued)
            rec->rescue_extensions += outcome.rescue_extensions;
        rec->score = sam.score;
        rec->mapped = sam.mapped();
        obs::Ledger::global().publish(std::move(*rec));
        rec.reset();
    };
    publish(first_record, first, outcome.rescued_first);
    publish(second_record, second, outcome.rescued_second);
}

PairedCounters
pairedCounters()
{
    PairedMetrics &m = pairedMetrics();
    PairedCounters c;
    c.pairs = m.pairs.value();
    c.proper = m.proper.value();
    c.rescues = m.rescues.value();
    c.rescue_attempts = m.rescue_attempts.value();
    c.rescue_extensions = m.rescue_extensions.value();
    c.rescue_passes = m.rescue_passes.value();
    return c;
}

PairedAligner::PairedAligner(const Sequence &reference, PairedConfig config)
    : config_(config), single_(reference, config.pipeline)
{}

PairedResult
PairedAligner::alignPair(const std::string &name, const Sequence &read1,
                         const Sequence &read2, PipelineStats *stats)
{
    PairedResult out;
    out.first = single_.alignRead(name, read1, stats);
    out.second = single_.alignRead(name, read2, stats);

    PairContext ctx{single_.reference(), single_.config().contigs,
                    single_.config().extension, config_.insert,
                    config_.mate_rescue};
    const PairOutcome outcome = finalizePair(
        out.first, out.second, read1, read2, single_.engine(), ctx);
    out.proper = outcome.proper;
    out.rescued = outcome.rescued();
    return out;
}

} // namespace seedex
