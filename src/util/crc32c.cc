#include "src/util/crc32c.hh"

#include <cstdlib>
#include <cstring>

#include "src/util/cpu.hh"
#include "src/util/logging.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#define MATCH_CRC32C_X86 1
#endif

namespace match::util
{

namespace
{

// Reflected Castagnoli polynomial (CRC32C processes bits LSB-first).
constexpr std::uint32_t kPoly = 0x82F63B78u;

/** Slice-by-8 tables: table[0] is the classic byte-at-a-time table,
 *  table[k] advances a byte by k more zero bytes, so eight table
 *  lookups retire eight input bytes per iteration. ~8 KiB, built
 *  lazily on first use (thread-safe static). */
struct Crc32cTables
{
    std::uint32_t t[8][256];

    Crc32cTables()
    {
        for (unsigned n = 0; n < 256; ++n) {
            std::uint32_t crc = n;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1u)));
            t[0][n] = crc;
        }
        for (unsigned n = 0; n < 256; ++n) {
            std::uint32_t crc = t[0][n];
            for (int k = 1; k < 8; ++k) {
                crc = (crc >> 8) ^ t[0][crc & 0xff];
                t[k][n] = crc;
            }
        }
    }
};

const Crc32cTables &
tables()
{
    static const Crc32cTables tables;
    return tables;
}

std::uint32_t
slice8Crc(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    const Crc32cTables &tab = tables();
    while (len >= 8) {
        // Fold the current crc into the first four bytes, then slice
        // all eight through the stride tables.
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = tab.t[7][lo & 0xff] ^ tab.t[6][(lo >> 8) & 0xff] ^
              tab.t[5][(lo >> 16) & 0xff] ^ tab.t[4][lo >> 24] ^
              tab.t[3][hi & 0xff] ^ tab.t[2][(hi >> 8) & 0xff] ^
              tab.t[1][(hi >> 16) & 0xff] ^ tab.t[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    while (len-- > 0)
        crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xff];
    return crc;
}

#if defined(MATCH_CRC32C_X86)

/** Per-stream lengths of the interleaved blocks: long blocks carry
 *  the bulk of a big buffer, short ones most of what is left. */
constexpr std::size_t kLongStream = 8192;
constexpr std::size_t kShortStream = 256;

/** Multiply a raw CRC register by x^(8n): the register after `n` zero
 *  bytes, as four byte-lane tables. The zero-byte step is linear over
 *  GF(2), so each lane entry is the XOR of the images of its set
 *  bits. */
struct ShiftTable
{
    std::uint32_t t[4][256];

    explicit ShiftTable(std::size_t zeros)
    {
        const Crc32cTables &tab = tables();
        std::uint32_t basis[32];
        for (int bit = 0; bit < 32; ++bit) {
            std::uint32_t crc = 1u << bit;
            for (std::size_t i = 0; i < zeros; ++i)
                crc = (crc >> 8) ^ tab.t[0][crc & 0xff];
            basis[bit] = crc;
        }
        for (int lane = 0; lane < 4; ++lane) {
            for (unsigned v = 0; v < 256; ++v) {
                std::uint32_t img = 0;
                for (int bit = 0; bit < 8; ++bit)
                    img ^= (v >> bit & 1u) ? basis[8 * lane + bit] : 0u;
                t[lane][v] = img;
            }
        }
    }

    std::uint32_t
    apply(std::uint32_t crc) const
    {
        return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
               t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
    }
};

struct ShiftTables
{
    ShiftTable longStream{kLongStream};
    ShiftTable shortStream{kShortStream};
};

const ShiftTables &
shiftTables()
{
    static const ShiftTables tables;
    return tables;
}

/** CRC over whole blocks of three `stride`-byte streams. The crc32
 *  instruction has a 3-cycle latency and a 1-cycle throughput, so one
 *  dependency chain leaves two thirds of the unit idle; three
 *  independent chains keep it busy. CRC is linear, so a block's CRC is
 *  crc0 shifted past streams 1 and 2, XOR crc1 shifted past stream 2,
 *  XOR crc2 (streams 1 and 2 start from a zero register). */
__attribute__((target("sse4.2"))) inline void
crcStreams3(std::uint64_t &crc0, const std::uint8_t *&p, std::size_t &len,
            std::size_t stride, const ShiftTable &shift)
{
    while (len >= 3 * stride) {
        std::uint64_t crc1 = 0;
        std::uint64_t crc2 = 0;
        const std::uint8_t *const end = p + stride;
        do {
            std::uint64_t w0, w1, w2;
            std::memcpy(&w0, p, 8);
            std::memcpy(&w1, p + stride, 8);
            std::memcpy(&w2, p + 2 * stride, 8);
            crc0 = _mm_crc32_u64(crc0, w0);
            crc1 = _mm_crc32_u64(crc1, w1);
            crc2 = _mm_crc32_u64(crc2, w2);
            p += 8;
        } while (p < end);
        crc0 = shift.apply(static_cast<std::uint32_t>(crc0)) ^ crc1;
        crc0 = shift.apply(static_cast<std::uint32_t>(crc0)) ^ crc2;
        p += 2 * stride;
        len -= 3 * stride;
    }
}

__attribute__((target("sse4.2"))) std::uint32_t
sse42Crc(std::uint32_t crc, const std::uint8_t *p, std::size_t len)
{
    std::uint64_t crc64 = crc;
    if (len >= 3 * kShortStream) {
        const ShiftTables &shifts = shiftTables();
        crcStreams3(crc64, p, len, kLongStream, shifts.longStream);
        crcStreams3(crc64, p, len, kShortStream, shifts.shortStream);
    }
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        crc64 = _mm_crc32_u64(crc64, word);
        p += 8;
        len -= 8;
    }
    crc = static_cast<std::uint32_t>(crc64);
    while (len-- > 0)
        crc = _mm_crc32_u8(crc, *p++);
    return crc;
}

#endif // MATCH_CRC32C_X86

using Kernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t *,
                                 std::size_t);

struct Dispatch
{
    Kernel kernel;
    const char *name;
};

/** Resolve once per process: the hardware instruction when the CPU has
 *  it and MATCH_CRC_KERNEL does not force the portable table kernel
 *  (same policy shape as MATCH_GF_KERNEL; a typo warns and means
 *  auto — it must never silently change which kernel verifies SDC). */
Dispatch
resolve()
{
    const char *value = std::getenv("MATCH_CRC_KERNEL");
    bool scalar = false;
    if (value != nullptr && value[0] != '\0' &&
        std::strcmp(value, "auto") != 0) {
        if (std::strcmp(value, "scalar") == 0)
            scalar = true;
        else
            warn("MATCH_CRC_KERNEL=%s not recognized (want "
                 "scalar|auto); using auto",
                 value);
    }
#if defined(MATCH_CRC32C_X86)
    if (!scalar && cpu::features().sse42)
        return {&sse42Crc, "sse4.2"};
#endif
    (void)scalar;
    return {&slice8Crc, "slice8"};
}

const Dispatch &
dispatch()
{
    static const Dispatch d = resolve();
    return d;
}

} // anonymous namespace

std::uint32_t
crc32c(std::uint32_t seed, const void *data, std::size_t len)
{
    return ~dispatch().kernel(
        ~seed, static_cast<const std::uint8_t *>(data), len);
}

const char *
crc32cKernelName()
{
    return dispatch().name;
}

} // namespace match::util
