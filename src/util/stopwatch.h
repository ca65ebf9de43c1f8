#ifndef SEEDEX_UTIL_STOPWATCH_H
#define SEEDEX_UTIL_STOPWATCH_H

#include <chrono>
#include <ctime>

namespace seedex {

/**
 * CPU seconds consumed by the calling thread so far (thread CPU clock).
 *
 * This is the measurement the thread-scaling model is built on: on an
 * oversubscribed host (more worker threads than cores) wall-clock time
 * says nothing about per-stage cost because every stopwatch interval
 * includes time the thread spent preempted. The thread CPU clock charges
 * a thread only for cycles it actually ran, so seeding/extension cost
 * stays comparable across thread counts. Returns 0 where the POSIX
 * per-thread clock is unavailable (callers must treat 0 as "no data").
 */
inline double
threadCpuSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
    return 0.0;
}

/**
 * Monotonic wall-clock stopwatch used by the pipeline timing model and the
 * benchmark harness. Accumulates across start/stop pairs so a stage's time
 * can be summed over many batches.
 */
class Stopwatch
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * Begin (or resume) timing. Resume semantics: calling start() on a
     * watch that is already running is a no-op — the live interval keeps
     * accumulating rather than being silently dropped by rebasing the
     * start point (the historical bug this guard removes).
     */
    void
    start()
    {
        if (running_)
            return;
        begin_ = Clock::now();
        running_ = true;
    }

    /**
     * Fold the interval since the last start()/lap() into the total and
     * restart the interval, returning the folded seconds. Starts the
     * watch (returning 0) if it was not running — so a span layer can
     * call lap() at every boundary without tracking state.
     */
    double
    lap()
    {
        const auto now = Clock::now();
        if (!running_) {
            begin_ = now;
            running_ = true;
            return 0.0;
        }
        const Clock::duration interval = now - begin_;
        total_ += interval;
        begin_ = now;
        return std::chrono::duration<double>(interval).count();
    }

    /** Stop timing and fold the elapsed interval into the total. */
    void
    stop()
    {
        if (running_) {
            total_ += Clock::now() - begin_;
            running_ = false;
        }
    }

    /** Reset the accumulated total. */
    void reset() { total_ = {}; running_ = false; }

    /** Accumulated seconds (includes the live interval if running). */
    double
    seconds() const
    {
        auto t = total_;
        if (running_)
            t += Clock::now() - begin_;
        return std::chrono::duration<double>(t).count();
    }

  private:
    Clock::time_point begin_{};
    Clock::duration total_{};
    bool running_ = false;
};

/** RAII guard that accumulates its scope's duration into a stopwatch. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Stopwatch &watch) : watch_(watch) { watch_.start(); }
    ~ScopedTimer() { watch_.stop(); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Stopwatch &watch_;
};

} // namespace seedex

#endif // SEEDEX_UTIL_STOPWATCH_H
