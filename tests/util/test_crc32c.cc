/**
 * @file
 * CRC32C contract tests: the RFC 3720 check value, incremental ==
 * whole-buffer equivalence at every split point, agreement with an
 * independent bitwise reference over random buffers at every alignment,
 * and the dispatcher's kernel name. MATCH_CRC_KERNEL=scalar in the CI
 * matrix pins the slice-by-8 path so both kernels pass this file.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/util/crc32c.hh"
#include "src/util/rng.hh"

using match::util::crc32c;

namespace
{

/** Independent bit-at-a-time reference (reflected 0x1EDC6F41). */
std::uint32_t
referenceCrc32c(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
    return crc ^ 0xFFFFFFFFu;
}

} // namespace

TEST(Crc32c, Rfc3720CheckValue)
{
    // The standard CRC32C check value: crc("123456789") = 0xE3069283.
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(referenceCrc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, EmptyAndSingleByte)
{
    EXPECT_EQ(crc32c("", 0), 0u);
    const char byte = 'a';
    EXPECT_EQ(crc32c(&byte, 1), referenceCrc32c(&byte, 1));
}

TEST(Crc32c, IncrementalEqualsWholeAtEverySplit)
{
    const std::string text =
        "the quick brown fox jumps over the lazy dog 0123456789";
    const std::uint32_t whole = crc32c(text.data(), text.size());
    for (std::size_t split = 0; split <= text.size(); ++split) {
        const std::uint32_t head = crc32c(0u, text.data(), split);
        const std::uint32_t both =
            crc32c(head, text.data() + split, text.size() - split);
        EXPECT_EQ(both, whole) << "split at " << split;
    }
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryAlignmentAndLength)
{
    // Random payloads exercised at every start alignment within a
    // 64-bit word and lengths straddling the kernels' 8-byte blocking,
    // the interleaved kernel's short blocks (3 x 256 B) and long
    // blocks (3 x 8 KiB), up to 64 KiB.
    match::util::Rng rng(20260807);
    std::vector<std::uint8_t> buf(65536 + 16);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.below(256));
    const std::size_t short_block = 3 * 256;
    const std::size_t long_block = 3 * 8192;
    std::vector<std::size_t> lengths = {0, 1, 7, 8, 9, 63, 64, 65, 1000,
                                        4096, 65535, 65536};
    for (std::size_t edge : {short_block, 2 * short_block, long_block,
                             long_block + short_block, 2 * long_block}) {
        for (std::size_t len : {edge - 9, edge - 1, edge, edge + 1,
                                edge + 8, edge + 15})
            lengths.push_back(len);
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len : lengths) {
            EXPECT_EQ(crc32c(buf.data() + offset, len),
                      referenceCrc32c(buf.data() + offset, len))
                << "offset " << offset << " len " << len;
        }
    }
    // A seeded continuation crosses the block seams at other offsets.
    const std::uint32_t head = crc32c(0u, buf.data(), 333);
    EXPECT_EQ(crc32c(head, buf.data() + 333, 65536 - 333),
              referenceCrc32c(buf.data(), 65536));
}

TEST(Crc32c, DetectsSingleBitFlips)
{
    std::vector<std::uint8_t> buf(512, 0x5a);
    const std::uint32_t clean = crc32c(buf.data(), buf.size());
    for (std::size_t byte : {std::size_t{0}, buf.size() / 2,
                             buf.size() - 1}) {
        for (int bit = 0; bit < 8; ++bit) {
            buf[byte] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_NE(crc32c(buf.data(), buf.size()), clean)
                << "flip at byte " << byte << " bit " << bit;
            buf[byte] ^= static_cast<std::uint8_t>(1u << bit);
        }
    }
    EXPECT_EQ(crc32c(buf.data(), buf.size()), clean);
}

TEST(Crc32c, KernelNameIsResolved)
{
    const std::string name = match::util::crc32cKernelName();
    EXPECT_TRUE(name == "sse4.2" || name == "slice8") << name;
}
