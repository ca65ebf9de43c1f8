#ifndef SEEDEX_ALIGNER_CHAINING_H
#define SEEDEX_ALIGNER_CHAINING_H

#include <cstdint>
#include <vector>

#include "aligner/seeding.h"

namespace seedex {

/** A chain of co-linear seeds (one candidate alignment locus). */
struct Chain
{
    bool reverse = false;
    std::vector<Seed> seeds;
    /** Approximate query bases covered by the chain (BWA's weight). */
    int weight = 0;

    int qbeg() const { return seeds.front().qbeg; }
    int qend() const { return seeds.back().qend(); }
    uint64_t rbeg() const { return seeds.front().rbeg; }
    uint64_t rend() const { return seeds.back().rend(); }
    /** The longest seed: the extension anchor. */
    const Seed &anchor() const;
};

/** Chaining configuration (BWA-MEM-flavored defaults). */
struct ChainingParams
{
    /** Max reference/query gap between consecutive chained seeds. */
    int max_gap = 100;
    /** Max diagonal drift within a chain (indel budget). */
    int max_diag_diff = 50;
    /** Drop chains lighter than this fraction of the best. */
    double drop_ratio = 0.5;
    /** Keep at most this many chains per read. */
    size_t max_chains = 4;
    /** Drop a chain whose query span is mostly inside a better chain. */
    double mask_level = 0.5;
};

/**
 * Reusable chaining scratch: the active-chain window of the greedy
 * grouping pass. One per thread; grows to the workload high-water
 * mark, so steady-state chaining performs zero heap
 * allocations (same arena discipline as DpWorkspace / SeedWorkspace).
 */
struct ChainWorkspace
{
    /** Indices (into the chain storage) of chains that can still accept
     *  a reference-sorted seed; retired entries are tombstoned and
     *  compacted lazily. */
    std::vector<uint32_t> active;

    /** This thread's workspace (created on first use). */
    static ChainWorkspace &tls();
};

/**
 * Chaining stage: greedy co-linear grouping of seeds (seeds sorted by
 * strand/position merge into a chain when the reference gap, query gap
 * and diagonal drift stay within budget), then BWA-style filtering by
 * weight and query-overlap masking. Chains come back heaviest-first.
 */
std::vector<Chain> chainSeeds(const std::vector<Seed> &seeds,
                              const ChainingParams &params);

/**
 * chainSeeds into caller-owned, recycled storage (the zero-allocation
 * form). The first `return`ed entries of `chains` are the kept chains,
 * heaviest-first and bit-identical to chainSeeds' output; entries beyond
 * that are spare capacity retained for the next read. The greedy scan is
 * O(active window) per seed: because seeds arrive sorted by
 * (strand, rbeg), a chain whose last seed ends more than max_gap before
 * the current seed's rbeg can never accept another seed and is retired
 * from the scan permanently (the reverse full-scan this replaces was
 * worst-case quadratic on repeat-dense reads).
 */
size_t chainSeedsInto(const std::vector<Seed> &seeds,
                      const ChainingParams &params, ChainWorkspace &ws,
                      std::vector<Chain> &chains);

} // namespace seedex

#endif // SEEDEX_ALIGNER_CHAINING_H
