#include "seedex/filter.h"

#include <algorithm>

#include "align/workspace.h"
#include "obs/metrics.h"

namespace seedex {

namespace {

/** Registry counters mirroring FilterStats, one per Verdict value.
 *  FilterStats::add is the single funnel every workflow (software
 *  engine, device model, ad-hoc filter runs) goes through, so these
 *  stay consistent with any locally accumulated FilterStats. */
struct VerdictCounters
{
    obs::Counter &total =
        obs::MetricsRegistry::global().counter("filter.verdict.total");
    obs::Counter &pass_s2 =
        obs::MetricsRegistry::global().counter("filter.verdict.pass_s2");
    obs::Counter &pass_checks =
        obs::MetricsRegistry::global().counter("filter.verdict.pass_checks");
    obs::Counter &fail_s1 =
        obs::MetricsRegistry::global().counter("filter.verdict.fail_s1");
    obs::Counter &fail_e =
        obs::MetricsRegistry::global().counter("filter.verdict.fail_e_score");
    obs::Counter &fail_edit =
        obs::MetricsRegistry::global().counter(
            "filter.verdict.fail_edit_check");
    obs::Counter &fail_gscore_guard =
        obs::MetricsRegistry::global().counter(
            "filter.verdict.fail_gscore_guard");
    obs::Counter &edit_machine_runs =
        obs::MetricsRegistry::global().counter("filter.edit_machine.runs");
    /** Always 0: one speculative rung never escalates to a wider one.
     *  Registered only because perfbench/trace.cc reads the name. */
    obs::Counter &band_escalations =
        obs::MetricsRegistry::global().counter("seedex.band.escalations");
};

VerdictCounters &
verdictCounters()
{
    static VerdictCounters counters;
    return counters;
}

} // namespace

void
FilterStats::add(const FilterOutcome &o)
{
    VerdictCounters &vc = verdictCounters();
    ++total;
    vc.total.inc();
    // Provenance ledger: attribute the verdict to the read whose scope
    // is open on this thread (single-threaded and threaded pipelines
    // alike: each opens a scope around the read it is extending).
    if (obs::ReadRecord *rec = obs::Ledger::active()) {
        rec->addVerdict(ledgerVerdict(o.verdict), o.ran_edit_machine);
        if (!o.isAccepted())
            ++rec->reruns;
    }
    switch (o.verdict) {
      case Verdict::PassS2: ++pass_s2; vc.pass_s2.inc(); break;
      case Verdict::PassChecks: ++pass_checks; vc.pass_checks.inc(); break;
      case Verdict::FailS1: ++fail_s1; vc.fail_s1.inc(); break;
      case Verdict::FailEScore: ++fail_e; vc.fail_e.inc(); break;
      case Verdict::FailEditCheck: ++fail_edit; vc.fail_edit.inc(); break;
      case Verdict::FailGscoreGuard:
        ++fail_gscore_guard;
        vc.fail_gscore_guard.inc();
        break;
    }
    if (o.ran_edit_machine) {
        ++edit_machine_runs;
        vc.edit_machine_runs.inc();
    }
}

double
FilterStats::passRate() const
{
    return total == 0
        ? 0.0
        : static_cast<double>(pass_s2 + pass_checks) /
              static_cast<double>(total);
}

double
FilterStats::thresholdPassRate() const
{
    return total == 0
        ? 0.0
        : static_cast<double>(pass_s2) / static_cast<double>(total);
}

FilterOutcome
SeedExFilter::run(const Sequence &query, const Sequence &target,
                  int h0) const
{
    return runAt(query, target, h0, config_.band);
}

FilterOutcome
SeedExFilter::runAt(const Sequence &query, const Sequence &target, int h0,
                    int band) const
{
    FilterOutcome out;
    const int qlen = static_cast<int>(query.size());

    // The trace buffer lives in the thread's DP workspace so the
    // steady-state filter path performs no heap allocation; kswExtend
    // re-assigns it to qlen zeros below high-water capacity.
    BandEdgeTrace &trace = DpWorkspace::tls().edge_trace;
    ExtendConfig cfg;
    cfg.scoring = config_.scoring;
    cfg.band = band;
    cfg.zdrop = config_.zdrop;
    cfg.edge_trace = &trace;
    out.narrow = kswExtend(query, target, h0, cfg);

    out.thresholds = computeThresholds(qlen, band, h0,
                                       config_.scoring, config_.kind);
    const int score = out.narrow.score;

    // Stage 1: thresholding (§III-A). Below S1 the score is so small the
    // narrow band clearly missed the action; rerun on the host.
    if (score <= out.thresholds.s1) {
        out.verdict = Verdict::FailS1;
        return out;
    }

    // The strict gscore guard needs the check bounds even when the score
    // clears S2, so compute lazily but share between stages.
    auto computeEBound = [&] {
        return eScoreBound(trace, qlen, config_.scoring.match);
    };
    auto computeEdit = [&] {
        return editCheck(query, target, band, h0, config_.scoring);
    };

    Verdict verdict;
    if (score > out.thresholds.s2) {
        // Stage 2a: the stricter threshold already proves optimality of
        // the best score (§III-A case b).
        verdict = Verdict::PassS2;
    } else {
        // Stage 2b: S1 < score <= S2 (§III-A case c): apply the checks.
        if (!config_.enable_e_check) {
            out.verdict = Verdict::FailEScore;
            return out;
        }
        out.score_max_e = computeEBound();
        if (out.score_max_e >= score) {
            out.verdict = Verdict::FailEScore;
            return out;
        }
        if (!config_.enable_edit_check) {
            out.verdict = Verdict::FailEditCheck;
            return out;
        }
        out.ran_edit_machine = true;
        out.edit = computeEdit();
        if (out.edit.scoreEd() >= score) {
            out.verdict = Verdict::FailEditCheck;
            return out;
        }
        verdict = Verdict::PassChecks;
    }

    if (config_.strict_gscore) {
        // Bit-equivalence guard for the to-query-end score: no outside
        // path may reach the query end with a score >= gscore_nb, or the
        // full-band kernel would report a different gscore/gtle.
        // Outside paths are bounded by S2 overall (deletion side; the
        // insertion side is bounded by the smaller S1), so a gscore
        // clearing S2 needs no further work -- the common case for clean
        // extensions, which keeps the edit machine on the paper's ~1/3
        // duty cycle.
        const int gscore = out.narrow.gscore;
        if (gscore <= out.thresholds.s2) {
            const int e_bound =
                out.score_max_e ? out.score_max_e : computeEBound();
            out.score_max_e = e_bound;
            if (!out.ran_edit_machine) {
                out.edit = computeEdit();
                out.ran_edit_machine = true;
            }
            const int outside_gscore_bound = std::max(
                {out.thresholds.s1, e_bound,
                 std::max(out.edit.exit_bound, out.edit.gscore_bound)});
            // Strict '<=': a tie on gscore from outside would still flip
            // gtle, so it must rerun as well.
            if (outside_gscore_bound > 0 &&
                gscore <= outside_gscore_bound) {
                out.verdict = Verdict::FailGscoreGuard;
                return out;
            }
        }
    }

    out.verdict = verdict;
    return out;
}

ExtendResult
SeedExFilter::runWithRerun(const Sequence &query, const Sequence &target,
                           int h0, FilterStats *stats,
                           FilterOutcome *outcome) const
{
    const int est = estimateFullBand(static_cast<int>(query.size()),
                                     config_.scoring, config_.end_bonus);
    const FilterOutcome o =
        runAt(query, target, h0, std::min(config_.band, est));
    if (stats)
        stats->add(o);
    if (outcome)
        *outcome = o;
    if (o.isAccepted())
        return o.narrow;

    // Host rerun with BWA-MEM's conservatively estimated full band.
    ExtendConfig cfg;
    cfg.scoring = config_.scoring;
    cfg.band = est;
    cfg.zdrop = config_.zdrop;
    return kswExtend(query, target, h0, cfg);
}

} // namespace seedex
