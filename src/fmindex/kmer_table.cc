#include "fmindex/kmer_table.h"

#include <algorithm>

#include "fmindex/fmd_index.h"

namespace seedex {

KmerTable::KmerTable(const FmdIndex &index, int k) : k_(k)
{
    levels_.resize(static_cast<size_t>(k_) + 1);
    for (int l = 1; l <= k_; ++l)
        levels_[l].assign(size_t{1} << (2 * l), Entry{});

    // Pruned DFS: a dead interval kills its whole subtree, so small
    // genomes fill only the populated fringe of the 4^k space.
    struct Frame
    {
        FmdInterval iv;
        uint32_t code;
        int len;
    };
    std::vector<Frame> stack;
    for (Base c = 0; c < kNumBases; ++c) {
        const FmdInterval iv = index.init(c);
        stack.push_back({iv, static_cast<uint32_t>(c), 1});
        while (!stack.empty()) {
            const Frame f = stack.back();
            stack.pop_back();
            levels_[f.len][f.code] = {f.iv.k, f.iv.l, f.iv.s};
            if (f.len == k_ || f.iv.empty())
                continue;
            for (Base n = 0; n < kNumBases; ++n) {
                const FmdInterval child = index.extend(f.iv, n, false);
                if (child.s == 0)
                    continue; // absent: level entry stays {0,0,0}
                const uint32_t code =
                    f.code | (static_cast<uint32_t>(n) << (2 * f.len));
                stack.push_back({child, code, f.len + 1});
            }
        }
    }
}

size_t
KmerTable::storageBytes() const
{
    size_t bytes = 0;
    for (const auto &level : levels_)
        bytes += level.size() * sizeof(Entry);
    return bytes;
}

int
KmerTable::defaultK(uint64_t ref_len)
{
    // Aim k ~ log4(reference) so expected interval sizes at depth k are
    // O(1), capped at 8: the table is rebuilt on every load, and past
    // k=8 the rebuild costs more start-up than the skipped forward
    // steps save in seeding (DESIGN.md §9).
    int k = 0;
    uint64_t span = 1;
    while (span < ref_len && k < 8) {
        span *= 4;
        ++k;
    }
    return std::clamp(k, 4, 8);
}

} // namespace seedex
