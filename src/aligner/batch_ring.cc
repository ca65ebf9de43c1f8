#include "aligner/batch_ring.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace seedex {

namespace {

/** Hand-off instruments (Fig. 12 queue pressure, now at batch
 *  granularity plus recycling effectiveness). */
struct RingMetrics
{
    obs::Counter &publishes =
        obs::MetricsRegistry::global().counter("threaded.queue.publishes");
    obs::Counter &claims =
        obs::MetricsRegistry::global().counter("threaded.queue.claims");
    obs::Counter &wakeups =
        obs::MetricsRegistry::global().counter("threaded.queue.wakeups");
    obs::Gauge &depth =
        obs::MetricsRegistry::global().gauge("threaded.queue.depth");
    obs::Counter &pool_hits =
        obs::MetricsRegistry::global().counter("threaded.pool.hits");
    obs::Counter &pool_misses =
        obs::MetricsRegistry::global().counter("threaded.pool.misses");
    obs::Gauge &reorder_pending =
        obs::MetricsRegistry::global().gauge("threaded.reorder.pending");
    obs::Counter &reorder_retired =
        obs::MetricsRegistry::global().counter("threaded.reorder.retired");
};

RingMetrics &
ringMetrics()
{
    static RingMetrics metrics;
    return metrics;
}

} // namespace

// ------------------------------------------------------------- BatchPool

BatchPool::BatchPool(size_t expected_batches, size_t batch_capacity)
    : batch_capacity_(batch_capacity)
{
    all_.reserve(expected_batches);
    free_.reserve(expected_batches);
}

SeededBatch *
BatchPool::acquire()
{
    SeededBatch *batch = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!free_.empty()) {
            batch = free_.back();
            free_.pop_back();
        }
    }
    if (batch != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().pool_hits.inc();
    } else {
        auto fresh = std::make_unique<SeededBatch>();
        batch = fresh.get();
        std::lock_guard<std::mutex> lock(mutex_);
        all_.push_back(std::move(fresh));
        misses_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().pool_misses.inc();
    }
    batch->prepare(batch_capacity_);
    return batch;
}

void
BatchPool::release(SeededBatch *batch)
{
    batch->n_items = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(batch);
}

// ------------------------------------------------------------- BatchRing

BatchRing::BatchRing(size_t capacity)
    : ring_(std::max<size_t>(1, capacity), nullptr)
{}

void
BatchRing::recordDepth(bool published)
{
    const auto depth = static_cast<int64_t>(count_);
    ringMetrics().depth.set(depth);
    obs::TraceSession::global().counter("threaded.queue.depth",
                                        static_cast<double>(depth));
    if (published) {
        depth_sum_.fetch_add(static_cast<uint64_t>(depth),
                             std::memory_order_relaxed);
        if (depth > depth_max_.load(std::memory_order_relaxed))
            depth_max_.store(depth, std::memory_order_relaxed);
    }
}

void
BatchRing::push(SeededBatch *batch)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ >= ring_.size()) {
        ++waiting_producers_;
        not_full_.wait(lock, [&] { return count_ < ring_.size(); });
        --waiting_producers_;
    }
    ring_[(head_ + count_) % ring_.size()] = batch;
    ++count_;
    publishes_.fetch_add(1, std::memory_order_relaxed);
    ringMetrics().publishes.inc();
    recordDepth(/*published=*/true);
    // At most one notify per publish, and only when someone is parked
    // (the wakeup audit this ring exists for).
    const bool wake = waiting_consumers_ > 0;
    if (wake) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().wakeups.inc();
    }
    lock.unlock();
    if (wake)
        not_empty_.notify_one();
}

SeededBatch *
BatchRing::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0 && !closed_) {
        ++waiting_consumers_;
        not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
        --waiting_consumers_;
    }
    if (count_ == 0)
        return nullptr; // closed and drained
    SeededBatch *batch = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    claims_.fetch_add(1, std::memory_order_relaxed);
    ringMetrics().claims.inc();
    recordDepth(/*published=*/false);
    const bool wake = waiting_producers_ > 0;
    if (wake) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        ringMetrics().wakeups.inc();
    }
    lock.unlock();
    if (wake)
        not_full_.notify_one();
    return batch;
}

void
BatchRing::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    // Shutdown broadcast: deliberately not counted as wakeups (the
    // audited invariant covers steady-state publishes/claims).
    not_empty_.notify_all();
    not_full_.notify_all();
}

int64_t
BatchRing::maxDepth() const
{
    return depth_max_.load(std::memory_order_relaxed);
}

double
BatchRing::avgDepth() const
{
    const uint64_t n = publishes_.load(std::memory_order_relaxed);
    if (n == 0)
        return 0.0;
    return static_cast<double>(
               depth_sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(n);
}

// --------------------------------------------------------- ReorderBuffer

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
    // against misuse (it cannot fire when producers reserve first).
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
        ringMetrics().reorder_retired.inc();
        // Under the lock: this is what makes the sink strictly ordered.
        sink_(head.base, std::move(head.recs));
        ++next_;
        advanced = true;
    }
    ringMetrics().reorder_pending.set(static_cast<int64_t>(pending_));
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
