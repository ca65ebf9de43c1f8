#include "hw/accelerator.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace seedex {

namespace {

/** Device-model instruments: per-batch occupancy and the rerun tail
 *  (§V-B). Cycle counters are monotonic sums; the histogram tracks the
 *  modeled wall time of each batch at the configured device clock. */
struct DeviceMetrics
{
    obs::Counter &batches =
        obs::MetricsRegistry::global().counter("device.batches");
    obs::Counter &jobs =
        obs::MetricsRegistry::global().counter("device.jobs");
    obs::Counter &rerun_checks =
        obs::MetricsRegistry::global().counter("device.rerun.checks");
    obs::Counter &rerun_exception =
        obs::MetricsRegistry::global().counter("device.rerun.exception");
    obs::Counter &device_cycles =
        obs::MetricsRegistry::global().counter("device.cycles.critical");
    obs::Counter &busy_cycles =
        obs::MetricsRegistry::global().counter("device.cycles.busy");
    obs::Counter &edit_cycles =
        obs::MetricsRegistry::global().counter("device.cycles.edit");
    obs::LatencyHistogram &batch_seconds =
        obs::MetricsRegistry::global().histogram("device.batch.seconds");
    obs::LatencyHistogram &occupancy =
        obs::MetricsRegistry::global().histogram("device.batch.occupancy");
};

DeviceMetrics &
deviceMetrics()
{
    static DeviceMetrics metrics;
    return metrics;
}

} // namespace

BatchResult
SeedExAccelerator::processBatch(const std::vector<ExtensionJob> &jobs) const
{
    obs::TraceSpan span("device.batch", "device");
    BatchResult batch;
    batch.results.reserve(jobs.size());

    const int n_bsw = org_.totalBswCores();
    std::vector<uint64_t> core_busy(static_cast<size_t>(n_bsw), 0);
    const SeedExConfig &cfg = filter_.config();
    SystolicBswCore bsw(cfg.band, cfg.scoring);

    for (const ExtensionJob &job : jobs) {
        // Functional path: the SeedEx engine's one speculation step
        // (checks at the filter's band capped at BWA's per-flank
        // estimate, full-band host rerun on rejection).
        FilterOutcome outcome;
        const ExtendResult result = filter_.runWithRerun(
            job.query, job.target, job.h0, &batch.stats, &outcome);

        // Timing + exception path: the systolic model of the same core.
        BswCoreStats stats;
        bsw.run(job.query, job.target, job.h0, &stats);
        // Arbiter: jobs stream to the least-loaded core (the state
        // manager keeps every BSW core fed from the input RAM).
        auto target_core = std::min_element(core_busy.begin(),
                                            core_busy.end());
        *target_core += stats.cycles;
        batch.busy_cycles += stats.cycles;

        if (outcome.ran_edit_machine) {
            EditMachineStats estats;
            edit_machine_.run(job.query, job.target, job.h0, cfg.scoring,
                              &estats);
            batch.edit_cycles += estats.cycles;
        }

        if (stats.early_term_exception)
            ++batch.reruns_exception;
        else if (!outcome.isAccepted())
            ++batch.reruns_checks;
        if (stats.early_term_exception && outcome.isAccepted()) {
            // Speculative early-termination exception on an accepted
            // extension: the device result cannot be trusted, so the
            // host recomputes at the conservatively estimated full band.
            ExtendConfig full;
            full.scoring = cfg.scoring;
            full.band = estimateFullBand(
                static_cast<int>(job.query.size()), cfg.scoring,
                cfg.end_bonus);
            full.zdrop = cfg.zdrop;
            batch.results.push_back(
                kswExtend(job.query, job.target, job.h0, full));
        } else {
            // Accepted narrow result, or the host rerun (already
            // guaranteed-optimal).
            batch.results.push_back(result);
        }
    }
    batch.device_cycles = core_busy.empty()
        ? 0
        : *std::max_element(core_busy.begin(), core_busy.end());

    DeviceMetrics &m = deviceMetrics();
    m.batches.inc();
    m.jobs.inc(jobs.size());
    m.rerun_checks.inc(batch.reruns_checks);
    m.rerun_exception.inc(batch.reruns_exception);
    m.device_cycles.inc(batch.device_cycles);
    m.busy_cycles.inc(batch.busy_cycles);
    m.edit_cycles.inc(batch.edit_cycles);
    m.batch_seconds.observe(batch.deviceSeconds(org_.clock_hz));
    if (batch.device_cycles > 0) {
        // Fraction of BSW-core cycle slots doing work while the batch
        // occupies the device (Table II's utilization numerator).
        m.occupancy.observe(
            static_cast<double>(batch.busy_cycles) /
            (static_cast<double>(batch.device_cycles) * n_bsw));
    }
    SEEDEX_LOG(Debug, "device",
               "batch: %zu jobs, %llu reruns (%llu checks, %llu "
               "exception), %llu critical cycles",
               jobs.size(),
               static_cast<unsigned long long>(batch.reruns_checks +
                                               batch.reruns_exception),
               static_cast<unsigned long long>(batch.reruns_checks),
               static_cast<unsigned long long>(batch.reruns_exception),
               static_cast<unsigned long long>(batch.device_cycles));
    return batch;
}

} // namespace seedex
