#include "aligner/reorder_buffer.h"

#include <algorithm>

#include "obs/metrics.h"

namespace seedex {

namespace {

/** In-order emission instruments. */
struct ReorderMetrics
{
    obs::Gauge &pending =
        obs::MetricsRegistry::global().gauge("threaded.reorder.pending");
    obs::Counter &retired =
        obs::MetricsRegistry::global().counter("threaded.reorder.retired");
};

ReorderMetrics &
reorderMetrics()
{
    static ReorderMetrics metrics;
    return metrics;
}

} // namespace

ReorderBuffer::ReorderBuffer(size_t window, BatchSink sink)
    : slots_(std::max<size_t>(1, window)), sink_(std::move(sink))
{}

void
ReorderBuffer::reserve(uint64_t seq)
{
    std::unique_lock<std::mutex> lock(mutex_);
    space_.wait(lock, [&] { return seq < next_ + slots_.size(); });
}

void
ReorderBuffer::complete(uint64_t seq, size_t base,
                        std::vector<SamRecord> &&recs)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // reserve() already admitted seq; this wait is a pure safety net
    // against misuse (it cannot fire when workers reserve first).
    space_.wait(lock, [&] { return seq < next_ + slots_.size(); });
    Slot &slot = slots_[seq % slots_.size()];
    slot.full = true;
    slot.base = base;
    slot.recs = std::move(recs);
    ++pending_;
    max_pending_ = std::max(max_pending_, static_cast<int64_t>(pending_));
    bool advanced = false;
    while (slots_[next_ % slots_.size()].full) {
        Slot &head = slots_[next_ % slots_.size()];
        head.full = false;
        --pending_;
        ++retired_;
        reorderMetrics().retired.inc();
        // Under the lock: this is what makes the sink strictly ordered.
        sink_(head.base, std::move(head.recs));
        ++next_;
        advanced = true;
    }
    reorderMetrics().pending.set(static_cast<int64_t>(pending_));
    if (advanced)
        space_.notify_all();
}

uint64_t
ReorderBuffer::retired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retired_;
}

int64_t
ReorderBuffer::maxPending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return max_pending_;
}

} // namespace seedex
