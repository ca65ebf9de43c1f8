#include "aligner/extension.h"

#include <algorithm>

#include "align/workspace.h"

namespace seedex {

namespace {

Sequence
reversed(const Sequence &s)
{
    std::vector<Base> b(s.bases().rbegin(), s.bases().rend());
    return Sequence(std::move(b));
}

} // namespace

ExtendResult
FullBandEngine::extend(const Sequence &query, const Sequence &target,
                       int h0)
{
    ++calls_;
    ExtendConfig cfg;
    cfg.scoring = scoring_;
    // BWA-MEM sizes the band from the query length *including* the clip
    // penalty (pen_clip enters max_ins/max_del), which matters for short
    // flanks where a to-end gap can beat clipping by up to the bonus.
    cfg.band = estimateFullBand(static_cast<int>(query.size()), scoring_,
                                end_bonus_);
    return kswExtend(query, target, h0, cfg);
}

ExtendResult
BandedEngine::extend(const Sequence &query, const Sequence &target, int h0)
{
    ++calls_;
    ExtendConfig cfg;
    cfg.scoring = scoring_;
    // BWA caps the configured band at the per-extension estimate (the
    // estimate is the band that cannot miss anything affordable).
    const int est = estimateFullBand(static_cast<int>(query.size()),
                                     scoring_, end_bonus_);
    cfg.band = std::min(band_, est);
    cfg.zdrop = zdrop_;
    const ExtendResult r = kswExtend(query, target, h0, cfg);
    // Unguaranteed-path provenance: this engine has no optimality
    // checks, so the ledger records *why* its output may diverge from
    // the full band (Fig. 13): the kernel z-dropped, or the optimal
    // path pressed against a band narrower than the estimate.
    if (obs::ReadRecord *rec = obs::Ledger::active()) {
        if (r.zdropped)
            ++rec->zdrops;
        if (cfg.band < est && r.max_off >= cfg.band)
            ++rec->band_clips;
    }
    return r;
}

ExtendResult
SeedExEngine::extend(const Sequence &query, const Sequence &target, int h0)
{
    ++calls_;
    // The band policy runs the speculation ladder: for the fixed policy
    // that is exactly one filtered rung at min(config band, BWA's
    // estimate) plus the host full-band rerun on rejection (the
    // pre-policy behavior); the adaptive policy predicts the first rung
    // and escalates through wider filtered rungs first. Either way every
    // rung replays the optimality checks, so accepted results stay
    // bit-identical to the estimated-band baseline (narrow <= estimated
    // <= unbanded, and acceptance proves narrow == unbanded).
    const BandHint hint = hint_ != nullptr ? *hint_ : BandHint{};
    return policy_.extend(filter_, query, target, h0, hint, &stats_)
        .result;
}

ChainAlignment
extendChain(const Chain &chain, const Sequence &oriented_read,
            const Sequence &reference, ExtensionEngine &engine,
            const ExtensionParams &params)
{
    const Seed &anchor = chain.anchor();
    const int n = static_cast<int>(oriented_read.size());
    const uint64_t ref_len = reference.size();

    // Both flanks are bounded by the read length plus the window slack;
    // sizing the thread's workspace here keeps both pipelines (the
    // Aligner and every threaded consumer) allocation-free in steady
    // state.
    DpWorkspace::tls().prepareExtension(
        oriented_read.size(),
        oriented_read.size() + static_cast<size_t>(params.window_slack));

    // Band-prediction signals for both flanks: the oriented read length,
    // how much of it the chain's seeds cover, and how fragmented the
    // chain is (junctions between seeds are where indels hide).
    BandHint hint;
    hint.read_len = n;
    hint.chain_weight = chain.weight;
    hint.n_seeds = static_cast<int>(chain.seeds.size());

    ChainAlignment out;
    out.reverse = chain.reverse;
    out.seed_score = anchor.len * params.scoring.match;
    out.qbeg = anchor.qbeg;
    out.qend = anchor.qend();
    out.rbeg = anchor.rbeg;
    out.rend = anchor.rend();
    int score = out.seed_score;

    // ---- Left extension: read prefix vs reference window, reversed.
    if (anchor.qbeg > 0) {
        const Sequence q = reversed(oriented_read.slice(
            0, static_cast<size_t>(anchor.qbeg)));
        const uint64_t window = std::min<uint64_t>(
            anchor.rbeg,
            static_cast<uint64_t>(anchor.qbeg + params.window_slack));
        const Sequence t = reversed(reference.slice(
            anchor.rbeg - window, static_cast<size_t>(window)));
        const ExtendResult r = engine.extendHinted(q, t, score, hint);
        out.max_off = std::max(out.max_off, r.max_off);
        // BWA's clip decision: prefer reaching the read end unless the
        // local max beats it by more than the end bonus.
        if (r.gscore <= 0 || r.gscore < r.score - params.end_bonus) {
            score = r.score; // clipped
            out.qbeg = anchor.qbeg - r.qle;
            out.rbeg = anchor.rbeg - static_cast<uint64_t>(r.tle);
        } else {
            score = r.gscore; // to the read's 5' end
            out.qbeg = 0;
            out.rbeg = anchor.rbeg - static_cast<uint64_t>(r.gtle);
        }
    }

    // ---- Right extension, seeded with the accumulated score (§V-B:
    // "the initial score must be updated with the left extension score").
    if (anchor.qend() < n) {
        const int remain = n - anchor.qend();
        const Sequence q = oriented_read.slice(
            static_cast<size_t>(anchor.qend()),
            static_cast<size_t>(remain));
        const uint64_t window = std::min<uint64_t>(
            ref_len - std::min<uint64_t>(ref_len, anchor.rend()),
            static_cast<uint64_t>(remain + params.window_slack));
        const Sequence t =
            reference.slice(anchor.rend(), static_cast<size_t>(window));
        const ExtendResult r = engine.extendHinted(q, t, score, hint);
        out.max_off = std::max(out.max_off, r.max_off);
        if (r.gscore <= 0 || r.gscore < r.score - params.end_bonus) {
            score = r.score;
            out.qend = anchor.qend() + r.qle;
            out.rend = anchor.rend() + static_cast<uint64_t>(r.tle);
        } else {
            score = r.gscore;
            out.qend = n;
            out.rend = anchor.rend() + static_cast<uint64_t>(r.gtle);
        }
    }

    out.score = score;
    return out;
}

} // namespace seedex
