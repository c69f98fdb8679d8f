/**
 * @file
 * The checkpoint metadata record: it round-trips through commit and
 * recover, its size depends only on the rank count (not on the
 * checksum values it carries), and a malformed record reads as missing
 * so recovery falls back to the older committed checkpoint instead of
 * aborting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;

namespace
{

constexpr int kProcs = 4;
// Header {magic, ckptId, level, nprocs} plus one {bytes, crc} per rank.
constexpr std::uintmax_t kRecordBytes = 16 + 16 * kProcs;

FtiConfig
cfg(const std::string &exec_id, bool sdc_checks = false)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-meta").string();
    config.execId = exec_id;
    config.defaultLevel = 1;
    config.keepOnlyLatest = false;
    config.sdcChecks = sdc_checks;
    return config;
}

JobOptions
options()
{
    JobOptions opts;
    opts.nprocs = kProcs;
    return opts;
}

/** Commit checkpoints 1..count; checkpoint id k protects k*(rank+1). */
void
commitCheckpoints(const FtiConfig &config, int count)
{
    Fti::purge(config);
    Runtime rt;
    rt.run(options(), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        for (int id = 1; id <= count; ++id) {
            std::fill(data.begin(), data.end(),
                      static_cast<double>(id * (proc.rank() + 1)));
            fti.checkpoint(id);
        }
        fti.finalize();
    });
}

/** Recover in a fresh job; returns the checkpoint id each rank
 *  restored and expects the restored payload to match that id. */
std::vector<int>
recoverAll(const FtiConfig &config)
{
    std::vector<int> restored(kProcs, -1);
    Runtime rt;
    rt.run(options(), [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(64, 0.0);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        fti.recover();
        const int id = fti.lastCheckpointId();
        restored[proc.rank()] = id;
        const double want = static_cast<double>(id * (proc.rank() + 1));
        for (double v : data)
            EXPECT_EQ(v, want) << "rank " << proc.rank();
        fti.finalize();
    });
    return restored;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(FtiMeta, RoundTripsThroughCommitAndRecover)
{
    const auto config = cfg("roundtrip");
    commitCheckpoints(config, 1);
    EXPECT_EQ(fs::file_size(Fti::metaFile(config, 1)), kRecordBytes);
    EXPECT_EQ(recoverAll(config), std::vector<int>(kProcs, 1));
}

TEST(FtiMeta, RecordSizeIsIndependentOfChecksums)
{
    // Three checkpoints of different payloads carry different CRCs. The
    // decimal-text metadata's length followed them; the record's must
    // not.
    const auto config = cfg("fixed-size");
    commitCheckpoints(config, 3);
    const auto entries = [&](int id) {
        const std::vector<char> record = slurp(Fti::metaFile(config, id));
        EXPECT_EQ(record.size(), kRecordBytes) << id;
        const auto header = std::min<std::size_t>(16, record.size());
        return std::vector<char>(record.begin() + header, record.end());
    };
    const std::vector<char> first = entries(1);
    EXPECT_NE(entries(2), first);
    EXPECT_NE(entries(3), first);
}

enum class Damage
{
    Truncated,
    TrailingBytes,
    WrongMagic,
    MismatchedId,
};

class FtiMetaDamage
    : public ::testing::TestWithParam<std::tuple<Damage, bool>>
{
};

std::string
damageName(const ::testing::TestParamInfo<FtiMetaDamage::ParamType> &info)
{
    static const char *const names[] = {"Truncated", "TrailingBytes",
                                        "WrongMagic", "MismatchedId"};
    return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
           (std::get<1>(info.param) ? "_SdcChecks" : "_Plain");
}

TEST_P(FtiMetaDamage, DamagedNewestRecordFallsBackToOlderCheckpoint)
{
    const auto [damage, sdc_checks] = GetParam();
    const auto config =
        cfg("damage-" + std::to_string(static_cast<int>(damage)) +
                (sdc_checks ? "-sdc" : ""),
            sdc_checks);
    commitCheckpoints(config, 2);

    const std::string newest = Fti::metaFile(config, 2);
    std::vector<char> record = slurp(newest);
    ASSERT_EQ(record.size(), kRecordBytes);
    switch (damage) {
      case Damage::Truncated:
        record.pop_back();
        break;
      case Damage::TrailingBytes:
        record.push_back('\0');
        break;
      case Damage::WrongMagic:
        record[0] ^= 0x01;
        break;
      case Damage::MismatchedId:
        // A well-formed record for checkpoint 1 under checkpoint 2's
        // name.
        record = slurp(Fti::metaFile(config, 1));
        break;
    }
    spit(newest, record);

    EXPECT_EQ(recoverAll(config), std::vector<int>(kProcs, 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllDamages, FtiMetaDamage,
    ::testing::Combine(::testing::Values(Damage::Truncated,
                                         Damage::TrailingBytes,
                                         Damage::WrongMagic,
                                         Damage::MismatchedId),
                       ::testing::Bool()),
    damageName);
