#include "util/crc32.h"

#include <array>

namespace seedex {

namespace {

/**
 * Slice-by-8 tables, built once. tables[0] is the standard reflected
 * byte table; tables[j][i] is the CRC of byte i followed by j zero
 * bytes, so eight lookups fold a whole 64-bit word at once.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i)
            for (size_t j = 1; j < t.size(); ++j)
                t[j][i] = t[0][t[j - 1][i] & 0xFF] ^ (t[j - 1][i] >> 8);
        return t;
    }();
    return tables;
}

/** Little-endian 32-bit word at `p`, assembled bytewise (no alignment
 *  or byte-order assumption; compilers fold it into one load). */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
        uint32_t{p[3]} << 24;
}

} // namespace

void
Crc32::update(const void *data, size_t len)
{
    const CrcTables &t = crcTables();
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = state_;
    for (; len >= 8; p += 8, len -= 8) {
        const uint32_t lo = c ^ loadLe32(p);
        const uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    state_ = c;
}

uint32_t
crc32(const void *data, size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace seedex
