#ifndef SEEDEX_FMINDEX_KMER_TABLE_H
#define SEEDEX_FMINDEX_KMER_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace seedex {

class FmdIndex;
struct FmdInterval;

/**
 * Precomputed k-mer -> bi-interval table.
 *
 * For every pattern of length 1..k over ACGT, stores the FMD interval
 * that forward extension from the pattern's first base would reach —
 * exactly the chain of intervals the SMEM forward sweep computes one
 * occ-pair at a time. Because every prefix of a k-mer is itself a
 * shorter k-mer, one table per prefix length shares all chains: an SMEM
 * search replaces its first k forward-extension steps (two occAll
 * queries each) with k single-cache-line lookups, and still observes
 * every interval-size drop in between (the drops are what seed the
 * backward shrink pass, so they cannot be skipped over).
 *
 * Storage is sum over l=1..k of 4^l entries of 24 bytes. The default k
 * is ~log4 of the genome, clamped to [4, 8] (examples: ~3 kbp test
 * genome -> k=6, 128 KiB; 1 Mbp and up -> k=8, 2 MiB). The table is
 * derived data, rebuilt by every FmdIndex::load, so the cap keeps that
 * rebuild to hundredths of a second; k=10 (33 MiB) cost a quarter
 * second of start-up and saved less in seeding. Production always
 * builds the default-k table; only an explicit FmdIndexOptions::kmer_k
 * (tests, bench_seed) picks another.
 */
class KmerTable
{
  public:
    /** Entries are bi-intervals without the info field (24 B each). */
    struct Entry
    {
        uint64_t k = 0;
        uint64_t l = 0;
        uint64_t s = 0;
    };

    /** Build by pruned DFS over the index (forward extensions). */
    KmerTable(const FmdIndex &index, int k);

    int k() const { return k_; }

    /**
     * Interval of the length-`len` pattern whose base at offset j sits
     * at code bits (2j, 2j+1). `len` must be in [1, k]. Absent patterns
     * have s == 0 (k/l are unspecified, as after a dead extend).
     */
    const Entry &
    lookup(uint32_t code, int len) const
    {
        return levels_[len][code];
    }

    /** Largest usable prefix length for a query span of `avail` bases. */
    int
    usableLength(int avail) const
    {
        return avail < k_ ? avail : k_;
    }

    size_t storageBytes() const;

    /** Default k for a reference of length `ref_len`: ~log4(ref_len),
     *  clamped to [4, 8]. */
    static int defaultK(uint64_t ref_len);

  private:
    int k_ = 0;
    /** levels_[l] has 4^l entries; levels_[0] is an unused placeholder. */
    std::vector<std::vector<Entry>> levels_;
};

} // namespace seedex

#endif // SEEDEX_FMINDEX_KMER_TABLE_H
