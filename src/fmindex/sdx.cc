#include "fmindex/sdx.h"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>

#include "util/crc32.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace seedex {

namespace {

constexpr char kSdxMagic[8] = {'S', 'E', 'E', 'D', 'X', 'S', 'D', 'X'};
/** magic + version + contig count + ref length + CRC footer. */
constexpr size_t kSdxMinBytes = 8 + 4 + 4 + 8 + 4;

[[noreturn]] void
failCorrupt(const std::string &path, const std::string &what)
{
    throw SdxError(path + ": " + what +
                   "; rebuild with `seedex index`");
}

void
appendPod(std::string &out, const void *data, size_t len)
{
    out.append(static_cast<const char *>(data), len);
}

template <typename T>
void
appendPod(std::string &out, const T &v)
{
    appendPod(out, &v, sizeof(T));
}

/** Bounds-checked cursor over the in-memory payload. */
struct Cursor
{
    const char *p;
    size_t left;
    const std::string &path;

    void
    read(void *out, size_t n)
    {
        if (n > left)
            failCorrupt(path, "corrupt index (payload truncated)");
        std::memcpy(out, p, n);
        p += n;
        left -= n;
    }

    template <typename T>
    T
    pod()
    {
        T v;
        read(&v, sizeof(T));
        return v;
    }
};

/** One packed reference byte unpacked: its low-nibble and high-nibble
 *  base codes, and whether both are valid codes (0..kBaseN). */
struct UnpackedPair
{
    Base lo = 0;
    Base hi = 0;
    bool valid = false;
};

constexpr std::array<UnpackedPair, 256> kUnpackTable = [] {
    std::array<UnpackedPair, 256> t{};
    for (unsigned b = 0; b < 256; ++b)
        t[b] = {static_cast<Base>(b & 0xF), static_cast<Base>(b >> 4),
                (b & 0xF) <= kBaseN && (b >> 4) <= kBaseN};
    return t;
}();

/** Unpack `len` nibble-packed codes (low nibble first) into `out`.
 *  Returns false if any code is above kBaseN. */
bool
unpackReference(const uint8_t *packed, uint64_t len, Base *out)
{
    bool valid = true;
    for (uint64_t i = 0; i < len / 2; ++i) {
        const UnpackedPair &e = kUnpackTable[packed[i]];
        out[2 * i] = e.lo;
        out[2 * i + 1] = e.hi;
        valid &= e.valid;
    }
    if (len & 1) {
        // The trailing byte's high nibble is padding.
        const UnpackedPair &e = kUnpackTable[packed[len / 2] & 0xF];
        out[len - 1] = e.lo;
        valid &= e.valid;
    }
    return valid;
}

/** Read-only streambuf over a memory range (for FmdIndex::load). */
class MemBuf : public std::streambuf
{
  public:
    MemBuf(const char *data, size_t len)
    {
        char *p = const_cast<char *>(data);
        setg(p, p, p + len);
    }
};

} // namespace

void
saveSdx(const std::string &path, const std::vector<SdxContig> &contigs,
        const Sequence &reference, const FmdIndex &index)
{
    std::string blob;
    blob.reserve(reference.size() / 2 + index.storageBytes() + 1024);
    appendPod(blob, kSdxMagic, sizeof(kSdxMagic));
    appendPod(blob, kSdxVersion);
    appendPod(blob, static_cast<uint32_t>(contigs.size()));
    for (const SdxContig &c : contigs) {
        appendPod(blob, static_cast<uint32_t>(c.name.size()));
        appendPod(blob, c.name.data(), c.name.size());
        appendPod(blob, c.length);
    }
    const uint64_t ref_len = reference.size();
    appendPod(blob, ref_len);
    // Nibble-pack the reference: two codes per byte, low nibble first.
    std::string packed((ref_len + 1) / 2, '\0');
    for (uint64_t i = 0; i < ref_len; ++i)
        packed[i / 2] = static_cast<char>(
            packed[i / 2] |
            static_cast<char>((reference[i] & 0xF) << ((i & 1) * 4)));
    blob += packed;
    std::ostringstream idx_stream;
    if (!index.save(idx_stream))
        throw SdxError(path + ": serializing the FM-index failed");
    blob += idx_stream.str();

    const uint32_t crc = crc32(blob.data(), blob.size());
    appendPod(blob, crc);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw SdxError(path + ": cannot open for writing");
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.flush())
        throw SdxError(path + ": write failed (disk full?)");
}

SdxData
loadSdx(const std::string &path)
{
    SdxData data;
    Stopwatch phase;
    phase.start();

    // One sized read: the buffer is allocated once from the file size
    // and filled without zeroing or regrowth.
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SdxError(path + ": cannot open index file");
    std::error_code ec;
    const uintmax_t file_size = std::filesystem::file_size(path, ec);
    if (ec)
        throw SdxError(path + ": read failed");
    const size_t size = static_cast<size_t>(file_size);
    if (size < kSdxMinBytes)
        failCorrupt(path, "truncated index file");
    const std::unique_ptr<char[]> buf =
        std::make_unique_for_overwrite<char[]>(size);
    in.read(buf.get(), static_cast<std::streamsize>(size));
    if (in.bad())
        throw SdxError(path + ": read failed");
    if (static_cast<size_t>(in.gcount()) != size)
        failCorrupt(path, "truncated index file");
    const char *blob = buf.get();
    data.load.read_s = phase.lap();

    if (std::memcmp(blob, kSdxMagic, sizeof(kSdxMagic)) != 0)
        throw SdxError(path +
                       ": not a seedex index (bad magic); build one "
                       "with `seedex index`");

    // Verify the footer before trusting any field past the magic.
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, blob + size - 4, 4);
    const uint32_t computed = crc32(blob, size - 4);
    if (stored_crc != computed)
        failCorrupt(path,
                    strprintf("corrupt index (checksum mismatch: stored "
                              "%08x, computed %08x)",
                              stored_crc, computed));
    data.load.checksum_s = phase.lap();

    Cursor cur{blob + sizeof(kSdxMagic), size - sizeof(kSdxMagic) - 4,
               path};
    data.version = cur.pod<uint32_t>();
    if (data.version != kSdxVersion)
        throw SdxError(strprintf(
            "%s: unsupported index version %u (this build reads %u); "
            "rebuild with `seedex index`",
            path.c_str(), data.version, kSdxVersion));

    const uint32_t n_contigs = cur.pod<uint32_t>();
    uint64_t contig_total = 0;
    for (uint32_t i = 0; i < n_contigs; ++i) {
        SdxContig c;
        const uint32_t name_len = cur.pod<uint32_t>();
        if (name_len > cur.left)
            failCorrupt(path, "corrupt index (contig name overruns)");
        c.name.assign(cur.p, name_len);
        cur.p += name_len;
        cur.left -= name_len;
        c.length = cur.pod<uint64_t>();
        contig_total += c.length;
        data.contigs.push_back(std::move(c));
    }

    const uint64_t ref_len = cur.pod<uint64_t>();
    if (!data.contigs.empty() && contig_total != ref_len)
        failCorrupt(path, "corrupt index (contig lengths do not sum to "
                          "the reference length)");
    const uint64_t packed_bytes = (ref_len + 1) / 2;
    if (packed_bytes > cur.left)
        failCorrupt(path, "corrupt index (reference overruns payload)");
    std::vector<Base> bases(ref_len);
    if (!unpackReference(reinterpret_cast<const uint8_t *>(cur.p),
                         ref_len, bases.data()))
        failCorrupt(path, "corrupt index (invalid base code)");
    cur.p += packed_bytes;
    cur.left -= packed_bytes;
    data.reference = Sequence(std::move(bases));
    data.load.decode_s = phase.lap();

    MemBuf idx_buf(cur.p, cur.left);
    std::istream idx_stream(&idx_buf);
    data.index = FmdIndex::load(idx_stream);
    if (!data.index)
        failCorrupt(path, "corrupt index (malformed FM-index payload)");
    if (data.index->referenceLength() != ref_len)
        failCorrupt(path, "corrupt index (FM-index length does not match "
                          "the stored reference)");
    data.load.index_s = phase.lap();
    if (const KmerTable *table = data.index->kmerTable()) {
        data.load.kmer_k = table->k();
        data.load.kmer_table_bytes = table->storageBytes();
    }
    return data;
}

bool
isSdxFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    char head[sizeof(kSdxMagic)] = {};
    in.read(head, sizeof(head));
    return in.gcount() == sizeof(head) &&
        std::memcmp(head, kSdxMagic, sizeof(head)) == 0;
}

} // namespace seedex
