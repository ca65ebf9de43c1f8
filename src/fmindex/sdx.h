#ifndef SEEDEX_FMINDEX_SDX_H
#define SEEDEX_FMINDEX_SDX_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmindex/fmd_index.h"
#include "genome/sequence.h"

namespace seedex {

/**
 * The `.sdx` on-disk index container (`seedex index` output):
 *
 *     [0..7]   magic "SEEDXSDX"
 *     payload  u32 format version
 *              u32 contig count
 *              per contig: u32 name length, name bytes, u64 length
 *              u64 reference length
 *              nibble-packed reference codes (2 bases/byte, N preserved)
 *              FmdIndex::save() stream
 *     [n-4..]  u32 CRC-32 of every preceding byte (magic included)
 *
 * The CRC footer is what makes the cache trustworthy: FmdIndex::load's
 * structural checks accept any bit-flip that keeps the size fields
 * consistent, so a silently corrupted index could misalign every read.
 * Here a single flipped payload byte fails the checksum and loadSdx
 * throws a clean "rebuild with `seedex index`" diagnostic instead.
 *
 * The reference sequence is stored alongside the index (the aligner
 * needs the text for extension and traceback, and the FM-index cannot
 * reproduce it exactly: construction collapses N to A). Nibble packing
 * keeps codes 0..4 intact at half a byte per base.
 */

/** One contig recorded in a `.sdx` container, in reference order. */
struct SdxContig
{
    std::string name;
    uint64_t length = 0;
};

/** Where loadSdx spent its time (wall seconds per phase; the phases
 *  run back to back, so they sum to the load's wall time). */
struct SdxLoadStats
{
    /** Open, size query and the one read of the whole file. */
    double read_s = 0;
    /** CRC-32 of the file body against the footer. */
    double checksum_s = 0;
    /** Header fields and the nibble-packed reference. */
    double decode_s = 0;
    /** FmdIndex::load, derived data (occ ranks, k-mer table) included. */
    double index_s = 0;
    /** k of the rebuilt k-mer table (0 = none) and its footprint. */
    int kmer_k = 0;
    uint64_t kmer_table_bytes = 0;
};

/** A loaded `.sdx` container. */
struct SdxData
{
    uint32_t version = 0;
    std::vector<SdxContig> contigs;
    /** Concatenated reference (contigs in order, N preserved). */
    Sequence reference;
    std::unique_ptr<FmdIndex> index;
    SdxLoadStats load;
};

/** Raised on any `.sdx` read/write failure, with a diagnostic that names
 *  the file and, for corruption, says to rebuild with `seedex index`. */
class SdxError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Current container format version. */
inline constexpr uint32_t kSdxVersion = 1;

/** Write a container; throws SdxError on I/O failure. */
void saveSdx(const std::string &path, const std::vector<SdxContig> &contigs,
             const Sequence &reference, const FmdIndex &index);

/**
 * Read and verify a container. The file is read into one buffer sized
 * from the file size, and the whole of it is checksummed (slice-by-8
 * CRC-32) before any field is trusted. The reference is unpacked two
 * bases per byte through a lookup table that also flags invalid codes.
 * The k-mer table is rebuilt at load from the genome size (k <= 8, see
 * KmerTable::defaultK), not stored. Records its phase times in
 * SdxData::load. Throws SdxError on any failure.
 */
SdxData loadSdx(const std::string &path);

/** Cheap sniff: does `path` start with the `.sdx` magic? (Lets the CLI
 *  accept either a prebuilt index or a plain FASTA reference.) */
bool isSdxFile(const std::string &path);

} // namespace seedex

#endif // SEEDEX_FMINDEX_SDX_H
