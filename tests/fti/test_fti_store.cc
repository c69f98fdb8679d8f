/**
 * @file
 * FTI checkpoint store lifetime: with keepOnlyLatest, the objects left
 * under an execution's sandbox do not grow with the number of
 * checkpoints written. Every level and transform keeps the newest
 * checkpoint's objects (plus, with the delta transform, the chain back
 * to its last full envelope, at most deltaRebase links); a superseded
 * object that no recovery can reach must not stay behind.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/backend.hh"
#include "src/storage/transform.hh"

using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;
using match::storage::TransformKind;

namespace
{

constexpr int kProcs = 8;
constexpr int kRebase = 4;

/** Object count and payload bytes under one sandbox. */
struct StoreUse
{
    std::size_t objects = 0;
    std::size_t bytes = 0;
};

void
walk(const storage::Backend &store, const std::string &dir, StoreUse &use)
{
    for (const std::string &name : store.listDir(dir)) {
        const std::string path = dir + "/" + name;
        std::size_t bytes = 0;
        if (store.size(path, bytes)) {
            ++use.objects;
            use.bytes += bytes;
        } else {
            walk(store, path, use);
        }
    }
}

/** Write `epochs` checkpoints into a fresh sandbox and measure what
 *  the store still holds afterwards. Each epoch changes one value, so
 *  every differential object has the same size. */
StoreUse
storeAfter(int level, TransformKind transform, int epochs)
{
    // A fresh in-memory backend per call: the walk sees exactly this
    // run's objects.
    FtiConfig config;
    config.ckptDir = "/match-fti-store";
    config.execId = "store";
    config.defaultLevel = level;
    config.groupSize = 4;
    config.parityShards = 2;
    config.diffBlockSize = 1024;
    config.deltaBlockSize = 1024;
    config.deltaRebase = kRebase;
    config.transform = transform;
    config.backend = storage::makeBackend(storage::Kind::Mem);

    JobOptions opts;
    opts.nprocs = kProcs;
    Runtime rt;
    rt.run(opts, [&](Proc &proc) {
        Fti fti(proc, config);
        std::vector<double> data(4096, proc.rank() + 0.5);
        fti.protect(0, data.data(), data.size() * sizeof(double));
        for (int epoch = 1; epoch <= epochs; ++epoch) {
            data[0] = epoch;
            fti.checkpoint(epoch);
        }
        fti.finalize();
    });
    StoreUse use;
    walk(*config.backend, Fti::execDir(config), use);
    return use;
}

} // namespace

class FtiStoreBound
    : public ::testing::TestWithParam<std::tuple<int, TransformKind>>
{
};

TEST_P(FtiStoreBound, LiveObjectsDoNotGrowWithCheckpointCount)
{
    const auto [level, transform] = GetParam();
    const StoreUse one = storeAfter(level, transform, 1);
    const StoreUse early = storeAfter(level, transform, 4);
    const StoreUse late = storeAfter(level, transform, 12);
    ASSERT_GT(one.objects, 0u);
    // kRebase = 4 puts 4 and 12 checkpoints at the same point of
    // the chain, and every epoch dirties the same bytes, so the store
    // holds the same objects either way. The slack only admits a
    // different chain shape: up to deltaRebase checkpoints' worth.
    const bool chained = storage::transformHasDelta(transform);
    const std::size_t slack_objects = chained ? kRebase * one.objects : 0;
    const std::size_t slack_bytes = chained ? kRebase * one.bytes : 0;
    EXPECT_LE(late.objects, early.objects + slack_objects)
        << "superseded checkpoint objects were left in the store";
    EXPECT_LE(early.objects, late.objects + slack_objects);
    EXPECT_LE(late.bytes, early.bytes + slack_bytes);
    EXPECT_LE(early.bytes, late.bytes + slack_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndTransforms, FtiStoreBound,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(TransformKind::None,
                                         TransformKind::DeltaCompress)),
    [](const auto &info) {
        return "L" + std::to_string(std::get<0>(info.param)) + "_" +
               (std::get<1>(info.param) == TransformKind::None
                    ? std::string("none")
                    : std::string("deltaCompress"));
    });
