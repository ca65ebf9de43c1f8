#ifndef SEEDEX_ALIGNER_REORDER_BUFFER_H
#define SEEDEX_ALIGNER_REORDER_BUFFER_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "aligner/sam.h"

namespace seedex {

/**
 * Sequence-stamped reorder window: workers complete batches in any
 * order; the sink fires in strictly increasing sequence order, as soon
 * as the head of the window fills. The sink runs under the buffer lock
 * (that is what serializes it), so it should only move records out.
 *
 * Back-pressure: a worker must reserve(seq) before aligning batch seq,
 * which blocks while seq is outside the window. The worker holding the
 * window head never blocks there (seq == head < head + window), so the
 * head always completes and retires and the run cannot deadlock; the
 * window bounds finished-but-unretired records to `window` batches.
 */
class ReorderBuffer
{
  public:
    /** Receives each retired batch: the batch's first read index and
     *  its records (recs[i] belongs to read base + i). */
    using BatchSink =
        std::function<void(size_t base, std::vector<SamRecord> &&recs)>;

    ReorderBuffer(size_t window, BatchSink sink);

    /** Admission control: block until batch `seq` fits in the window.
     *  Call before aligning the batch. */
    void reserve(uint64_t seq);

    /** Hand over batch `seq`'s finished records. `seq` must have been
     *  reserved, so this never blocks. */
    void complete(uint64_t seq, size_t base,
                  std::vector<SamRecord> &&recs);

    uint64_t retired() const;
    int64_t maxPending() const;

  private:
    struct Slot
    {
        bool full = false;
        size_t base = 0;
        std::vector<SamRecord> recs;
    };

    mutable std::mutex mutex_;
    std::condition_variable space_;
    std::vector<Slot> slots_;
    uint64_t next_ = 0;
    size_t pending_ = 0;
    int64_t max_pending_ = 0;
    uint64_t retired_ = 0;
    BatchSink sink_;
};

} // namespace seedex

#endif // SEEDEX_ALIGNER_REORDER_BUFFER_H
