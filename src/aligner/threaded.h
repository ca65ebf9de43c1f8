#ifndef SEEDEX_ALIGNER_THREADED_H
#define SEEDEX_ALIGNER_THREADED_H

#include <cstdint>
#include <functional>
#include <vector>

#include "aligner/paired.h"
#include "aligner/pipeline.h"

namespace seedex {

/** Upper bound on the worker count. Larger counts are rejected
 *  (setTotalThreads, and the pipeline itself) instead of starting one
 *  OS thread per requested worker. */
constexpr long kMaxWorkerThreads = 1024;

/**
 * The threaded pipeline: N identical workers. Each worker pulls a batch
 * of reads, reserves its slot in the reorder window, seeds the batch in
 * lockstep chunks, chains it, runs every read through the Aligner's own
 * per-read body (alignChains: extendChain on each chain through the
 * worker's engine, best/runner-up pick, SAM record), finalizes pairs in
 * paired mode, and hands the finished records to a sequence-stamped
 * reorder buffer that streams them out in input order (see
 * reorder_buffer.h). Nothing crosses a thread boundary except finished
 * records. The paper's Fig. 12 splits threads into seeding producers
 * and FPGA consumers because the consumers share one physical device;
 * no device model runs here (the hw/ behavioural models replay captured
 * jobs bench-side), so every worker does both.
 */
struct ThreadedConfig
{
    /** Worker threads: the pipeline runs seeding_threads + fpga_threads
     *  identical workers (at least one). The two names are the paper's
     *  seeding/FPGA roles, kept so existing callers that set them keep
     *  compiling; only their sum matters. */
    int seeding_threads = 4;
    int fpga_threads = 0;
    /** Reads per batch (the unit a worker pulls and retires). Not a
     *  user knob: tests set it small to push many batches through the
     *  reorder window. */
    size_t batch_size = 64;
    PipelineConfig pipeline;

    /**
     * Paired-end mode: the read stream supplies whole pairs as two
     * consecutive reads (R1 at even index, R2 at odd; both carrying the
     * canonical pair QNAME), the batch size is rounded up to even so
     * both mates always land in the same batch, and the worker
     * finalizes each pair (rescue, proper verdict, FLAG/RNEXT/PNEXT/
     * TLEN) through the shared finalizePair() path before the records
     * enter the reorder window — which therefore emits the two SAM
     * records adjacently in input order. The total read count must be
     * even (whole pairs only).
     */
    bool paired = false;
    /** Frozen insert-size model pair finalization tests against (the
     *  CLI freezes it from the bootstrap chunk before starting the
     *  pipeline, so every worker sees one identical model). */
    InsertModel insert;
    /** Attempt SeedEx-checked mate rescue for half-mapped pairs. */
    bool mate_rescue = true;

    /** The worker count, seeding_threads + fpga_threads (at least 1). */
    long workers() const;

    /** Run `total` workers (values below 1 mean 1). Throws
     *  std::invalid_argument above kMaxWorkerThreads. */
    void setTotalThreads(long total);

    /**
     * Fold SEEDEX_THREADS (the worker count, applied by
     * setTotalThreads) into this config. An unset, unparsable or
     * non-positive value leaves the config untouched; a value above
     * kMaxWorkerThreads throws std::invalid_argument.
     */
    void applyEnv();
};

/** Telemetry of one threaded run. */
struct ThreadedReport
{
    double wall_seconds = 0;
    uint64_t reads = 0;
    uint64_t batches = 0;
    /** Chain extensions (mate-rescue extensions are in `paired`). */
    uint64_t extensions = 0;
    /** Chain extensions the SeedEx filter rejected (full-band reruns). */
    uint64_t reruns = 0;

    // Run shape (so a report is self-describing in sweep JSON). Both
    // thread counts equal the worker count: every worker seeds and
    // extends.
    int seeding_threads = 0;
    int fpga_threads = 0;
    uint64_t batch_size = 0;

    // Per-stage CPU accounting (thread CPU clock, so the numbers stay
    // meaningful on an oversubscribed host — see threadCpuSeconds()).
    /** All workers' seeding and chaining CPU. */
    double producer_cpu_seconds = 0;
    /** All workers' extension and pair-finalization CPU. */
    double consumer_cpu_seconds = 0;
    /** The busiest worker's seeding + extension CPU: the critical path
     *  of a perfectly parallel schedule of the same work. */
    double max_worker_cpu_seconds = 0;
    /** CPU spent emulating the device model. Always 0: the pipeline
     *  runs no device model (the hw/ models are bench-side observers);
     *  the field stays so existing report readers keep working. */
    double device_emulation_cpu_seconds = 0;

    /** Hand-off queue telemetry. Always 0: workers hand nothing to
     *  each other but finished records, so there is no queue; the
     *  fields stay so existing report readers keep working. */
    struct Queue
    {
        uint64_t wakeups = 0;
        double avg_depth = 0;
    } queue;

    /** Slab-pool telemetry. Always 0, like `queue`: worker-local
     *  storage is recycled by its own worker, so there is no pool. */
    struct Pool
    {
        double hitRate() const { return 0.0; }
    } pool;

    /** Reorder-buffer telemetry (threaded.reorder.* instruments). */
    struct Reorder
    {
        uint64_t retired = 0;
        int64_t max_pending = 0;
        /** Reorder window in batches: max_pending never exceeds it. */
        uint64_t window = 0;
    } reorder;

    /** Pair accounting (paired mode only; zeros otherwise). */
    struct Paired
    {
        uint64_t pairs = 0;
        uint64_t proper = 0;
        uint64_t rescues = 0;
        uint64_t rescue_extensions = 0;
        uint64_t rescue_passes = 0;
    } paired;
};

/** Receives finished records in strictly increasing read_idx order. */
using SamSink = std::function<void(size_t read_idx, SamRecord &&rec)>;

/**
 * Pull-style read supplier for alignThreadedSource. `out` has at least
 * `max` elements on entry; the supplier overwrites out[0..n) (assigning
 * into the recycled strings/sequences, so their capacity is reused) and
 * returns n. Returning 0 ends the stream. Called under an internal
 * pipeline mutex, so implementations need no locking of their own, and
 * successive calls see strictly increasing file positions.
 */
using ReadSource = std::function<size_t(
    std::vector<std::pair<std::string, Sequence>> &out, size_t max)>;

/**
 * Align the reads `source` supplies with the worker pipeline, streaming
 * each record to `sink` in input order as soon as its batch retires
 * from the reorder window (memory stays bounded by the in-flight
 * window, not the read count). Records are bit-identical to the
 * single-threaded Aligner with the same PipelineConfig. The sink runs
 * on worker threads but is never called concurrently; read indices
 * passed to it count from 0 in pull order. `index` lets the caller
 * supply a prebuilt FM-index of `reference` (e.g. loaded from a `.sdx`
 * container); when null the pipeline builds its own. An exception from
 * the source, the sink or a worker ends the run: the sink has then seen
 * an input-order prefix of the records, and the first exception is
 * rethrown here after every worker has joined.
 */
void
alignThreadedSource(const Sequence &reference, const ReadSource &source,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report = nullptr,
                    const FmdIndex *index = nullptr);

/**
 * alignThreadedSource over an in-memory read set (a ReadSource that
 * copies consecutive slices of `reads`).
 */
void
alignThreadedStream(const Sequence &reference,
                    const std::vector<std::pair<std::string, Sequence>> &reads,
                    const ThreadedConfig &config, const SamSink &sink,
                    ThreadedReport *report = nullptr,
                    const FmdIndex *index = nullptr);

/**
 * Convenience wrapper over alignThreadedStream that collects the full
 * record vector (input order).
 */
std::vector<SamRecord>
alignThreaded(const Sequence &reference,
              const std::vector<std::pair<std::string, Sequence>> &reads,
              const ThreadedConfig &config,
              ThreadedReport *report = nullptr);

} // namespace seedex

#endif // SEEDEX_ALIGNER_THREADED_H
