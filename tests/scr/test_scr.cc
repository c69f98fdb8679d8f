/**
 * @file
 * SCR library tests: the route-file programming model, redundancy
 * schemes (SINGLE/PARTNER/XOR) and their loss guarantees, flush-to-
 * prefix, interval policy, and the end-to-end SCR + Reinit design.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "src/ft/design.hh"
#include "src/scr/scr.hh"
#include "src/simmpi/runtime.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::scr;
using match::simmpi::JobOptions;
using match::simmpi::Proc;
using match::simmpi::Runtime;

namespace
{

ScrConfig
testConfig(const std::string &job, Redundancy scheme)
{
    ScrConfig cfg;
    cfg.cacheDir =
        (fs::temp_directory_path() / "match-scr-tests/cache").string();
    cfg.prefixDir =
        (fs::temp_directory_path() / "match-scr-tests/prefix").string();
    cfg.jobId = job;
    cfg.scheme = scheme;
    cfg.groupSize = 4;
    return cfg;
}

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

void
writeState(const std::string &path, const std::vector<double> &state)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(state.data()),
              static_cast<std::streamsize>(state.size() *
                                           sizeof(double)));
}

bool
readState(const std::string &path, std::vector<double> &state)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.read(reinterpret_cast<char *>(state.data()),
            static_cast<std::streamsize>(state.size() * sizeof(double)));
    return static_cast<bool>(in);
}

} // namespace

class ScrSchemes : public ::testing::TestWithParam<Redundancy>
{
};

TEST_P(ScrSchemes, CheckpointRestartRoundTrip)
{
    const auto cfg = testConfig(
        "rt-" + std::string(redundancyName(GetParam())), GetParam());
    Scr::purge(cfg);
    const int procs = 8;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        EXPECT_FALSE(scr.haveRestart());
        std::vector<double> state(64, proc.rank() + 0.5);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(64, 0.0);
        ASSERT_TRUE(
            readState(scr.routeRestartFile("state.bin"), state));
        scr.completeRestart(true);
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 0.5);
    });
    Scr::purge(cfg);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ScrSchemes,
                         ::testing::Values(Redundancy::Single,
                                           Redundancy::Partner,
                                           Redundancy::Xor));

TEST(Scr, PartnerSurvivesOneNodeLoss)
{
    const auto cfg = testConfig("partner-loss", Redundancy::Partner);
    Scr::purge(cfg);
    const int procs = 6;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(32, proc.rank() * 3.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
    });
    // Lose rank 2's cache copy.
    fs::remove_all(Scr::datasetDir(cfg, 1, 2));

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(32, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        EXPECT_DOUBLE_EQ(state[0], proc.rank() * 3.0);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, XorSurvivesOneLossPerGroup)
{
    const auto cfg = testConfig("xor-loss", Redundancy::Xor);
    Scr::purge(cfg);
    const int procs = 8; // two XOR groups of 4
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(48, proc.rank() + 1.25);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
    });
    // Lose one member per group: ranks 1 and 6.
    fs::remove_all(Scr::datasetDir(cfg, 1, 1));
    fs::remove_all(Scr::datasetDir(cfg, 1, 6));

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(48, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 1.25);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(ScrDeath, SingleCannotRebuildLostFile)
{
    const auto cfg = testConfig("single-loss", Redundancy::Single);
    Scr::purge(cfg);
    {
        Runtime rt;
        rt.run(options(2), [&](Proc &proc) {
            Scr scr(proc, cfg);
            std::vector<double> state(8, 1.0);
            scr.startCheckpoint();
            writeState(scr.routeFile("s.bin"), state);
            scr.completeCheckpoint(true);
        });
    }
    fs::remove_all(Scr::datasetDir(cfg, 1, 0));
    EXPECT_EXIT(
        {
            Runtime rt;
            rt.run(options(2), [&](Proc &proc) {
                Scr scr(proc, cfg);
                scr.startRestart();
                scr.routeRestartFile("s.bin");
            });
        },
        ::testing::ExitedWithCode(1), "SINGLE cannot rebuild");
    Scr::purge(cfg);
}

TEST(Scr, NeedCheckpointFollowsInterval)
{
    auto cfg = testConfig("interval", Redundancy::Single);
    cfg.checkpointInterval = 7;
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(1), [&](Proc &proc) {
        Scr scr(proc, cfg);
        EXPECT_FALSE(scr.needCheckpoint(0));
        EXPECT_FALSE(scr.needCheckpoint(6));
        EXPECT_TRUE(scr.needCheckpoint(7));
        EXPECT_FALSE(scr.needCheckpoint(8));
        EXPECT_TRUE(scr.needCheckpoint(14));
    });
    Scr::purge(cfg);
}

TEST(Scr, InvalidCheckpointIsNotCommitted)
{
    const auto cfg = testConfig("invalid", Redundancy::Single);
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 2.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        // Rank 1 reports failure: nobody commits.
        scr.completeCheckpoint(proc.rank() != 1);
    });
    Runtime rt2;
    rt2.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        EXPECT_FALSE(scr.haveRestart());
    });
    Scr::purge(cfg);
}

TEST(Scr, FlushCopiesDatasetToPrefix)
{
    auto cfg = testConfig("flush", Redundancy::Single);
    cfg.flushEvery = 1;
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 4.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
    });
    EXPECT_TRUE(fs::exists(cfg.prefixDir + "/" + cfg.jobId +
                           "/dataset1/rank0/s.bin"));
    Scr::purge(cfg);
}

TEST(Scr, FlushRestartFetchesFromPrefixAfterCacheLoss)
{
    // The flushEvery path must make the dataset restartable from the
    // PFS alone: lose the whole node-local cache (every rank, markers
    // included) and the restart falls back to the flushed prefix copy.
    auto cfg = testConfig("flush-fetch", Redundancy::Single);
    cfg.flushEvery = 1;
    Scr::purge(cfg);
    const int procs = 2;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(16, proc.rank() + 0.25);
        scr.startCheckpoint();
        writeState(scr.routeFile("s.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize(); // drains the flush
    });
    fs::remove_all(cfg.cacheDir + "/" + cfg.jobId); // node cache dies

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart())
            << "flushed dataset must be discoverable from the prefix";
        scr.startRestart();
        std::vector<double> state(16, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 0.25);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, RestartFallsBackToNewestFullyFlushedDataset)
{
    // A dataset is fetchable from the prefix only when every rank's
    // flushed marker exists. Dataset 2 loses rank 1's marker (its part
    // of the flush never landed) and the node caches die: the restart
    // must fall back to dataset 1, the newest fully flushed copy.
    auto cfg = testConfig("flush-partial", Redundancy::Single);
    cfg.flushEvery = 1;
    Scr::purge(cfg);
    const int procs = 2;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        for (const double value : {1.0, 2.0}) {
            std::vector<double> state(16, value);
            scr.startCheckpoint();
            writeState(scr.routeFile("s.bin"), state);
            scr.completeCheckpoint(true);
        }
        scr.finalize();
    });
    ASSERT_TRUE(fs::remove(Scr::flushedMarkerFile(cfg, 2, 1)));
    fs::remove_all(cfg.cacheDir + "/" + cfg.jobId); // node caches die

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(16, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        EXPECT_DOUBLE_EQ(state[0], 1.0)
            << "restart must fall back to fully flushed dataset 1";
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, OldDatasetsArePruned)
{
    const auto cfg = testConfig("prune", Redundancy::Single);
    Scr::purge(cfg);
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(8, 0.0);
        for (int d = 1; d <= 3; ++d) {
            state.assign(8, static_cast<double>(d));
            scr.startCheckpoint();
            writeState(scr.routeFile("s.bin"), state);
            scr.completeCheckpoint(true);
        }
    });
    EXPECT_FALSE(fs::exists(Scr::datasetDir(cfg, 2, 0)));
    EXPECT_TRUE(fs::exists(Scr::datasetDir(cfg, 3, 0)));
    Scr::purge(cfg);
}

namespace
{

/** Regular files left under dataset `d`'s cache directory. */
std::size_t
filesUnderDataset(const ScrConfig &cfg, int d)
{
    const fs::path dir = fs::path(Scr::datasetDir(cfg, d, 0)).parent_path();
    std::size_t files = 0;
    if (fs::exists(dir)) {
        for (const auto &entry : fs::recursive_directory_iterator(dir))
            files += entry.is_regular_file() ? 1 : 0;
    }
    return files;
}

} // namespace

TEST(Scr, XorPruneRetiresSupersededParity)
{
    const auto cfg = testConfig("xor-prune", Redundancy::Xor);
    Scr::purge(cfg);
    const int procs = 8; // two XOR groups of 4
    const int last = 4;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(48);
        for (int d = 1; d <= last; ++d) {
            state.assign(48, proc.rank() + 0.25 * d);
            scr.startCheckpoint();
            writeState(scr.routeFile("s.bin"), state);
            scr.completeCheckpoint(true);
        }
    });
    // Exactly one dataset's parity survives: a dataset without its
    // committed marker is never a restart candidate.
    for (int d = 1; d <= last; ++d) {
        for (int g = 0; g < 2; ++g)
            EXPECT_EQ(fs::exists(Scr::parityFile(cfg, d, g)), d == last)
                << "dataset " << d << " group " << g;
        if (d < last) {
            EXPECT_EQ(filesUnderDataset(cfg, d), 0u) << "dataset " << d;
        }
    }

    // The surviving parity still rebuilds one lost member per group.
    fs::remove_all(Scr::datasetDir(cfg, last, 1));
    fs::remove_all(Scr::datasetDir(cfg, last, 6));
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(48, 0.0);
        ASSERT_TRUE(readState(scr.routeRestartFile("s.bin"), state));
        for (double v : state)
            EXPECT_DOUBLE_EQ(v, proc.rank() + 0.25 * last);
        scr.completeRestart(true);
    });
    Scr::purge(cfg);
}

TEST(Scr, PartnerPruneRetiresSupersededCopies)
{
    const auto cfg = testConfig("partner-prune", Redundancy::Partner);
    Scr::purge(cfg);
    const int procs = 4;
    Runtime rt;
    rt.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(16);
        for (int d = 1; d <= 3; ++d) {
            state.assign(16, proc.rank() + 0.5 * d);
            scr.startCheckpoint();
            writeState(scr.routeFile("s.bin"), state);
            scr.completeCheckpoint(true);
        }
    });
    EXPECT_EQ(filesUnderDataset(cfg, 1), 0u);
    EXPECT_EQ(filesUnderDataset(cfg, 2), 0u);
    EXPECT_TRUE(fs::exists(Scr::partnerDir(cfg, 3, 1, 0)));
    Scr::purge(cfg);
}

TEST(Scr, EndToEndUnderReinitDesign)
{
    // The paper's Section V-E extension: replace FTI with SCR under the
    // same MPI recovery; a failure must not change the computed answer.
    const auto cfg = testConfig("reinit-e2e", Redundancy::Xor);
    auto run = [&](bool inject) {
        Scr::purge(cfg);
        ft::DesignRunConfig drc;
        drc.design = ft::Design::ReinitFti;
        drc.nprocs = 8;
        drc.injectFailure = inject;
        drc.failIteration = 13;
        drc.failRank = 5;
        std::vector<double> finals(8, 0.0);
        ft::runDesignRaw(drc, [&](Proc &proc) {
            Scr scr(proc, cfg);
            int iter = 0;
            double acc = 0.0;
            if (scr.haveRestart()) {
                scr.startRestart();
                std::vector<double> state(2);
                readState(scr.routeRestartFile("state.bin"), state);
                scr.completeRestart(true);
                iter = static_cast<int>(state[0]);
                acc = state[1];
            }
            for (; iter < 20; ++iter) {
                proc.iterationPoint(iter);
                if (scr.needCheckpoint(iter)) {
                    scr.startCheckpoint();
                    std::vector<double> state{
                        static_cast<double>(iter), acc};
                    writeState(scr.routeFile("state.bin"), state);
                    scr.completeCheckpoint(true);
                }
                acc += proc.allreduce(1.0);
            }
            scr.finalize();
            finals[proc.globalIndex()] = acc;
        });
        return finals;
    };
    const auto clean = run(false);
    const auto failed = run(true);
    for (int r = 0; r < 8; ++r) {
        EXPECT_DOUBLE_EQ(clean[r], 20 * 8.0);
        EXPECT_DOUBLE_EQ(clean[r], failed[r]) << r;
    }
    Scr::purge(cfg);
}

namespace
{

/** Flip one payload byte in every non-sidecar, non-marker file under
 *  `dir` (the datasets live in the shared DiskBackend, so the driver
 *  can rot them directly on disk). */
void
corruptDatasetTree(const fs::path &dir)
{
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name == "committed")
            continue;
        const std::string sidecar = ".crc32c";
        if (name.size() >= sidecar.size() &&
            name.compare(name.size() - sidecar.size(), sidecar.size(),
                         sidecar) == 0) {
            continue;
        }
        std::vector<char> bytes(fs::file_size(entry.path()));
        {
            std::ifstream in(entry.path(), std::ios::binary);
            in.read(bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
            ASSERT_TRUE(in) << entry.path();
        }
        bytes[bytes.size() / 2] ^= 0x5a;
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
}

} // namespace

TEST(ScrSdc, CorruptCacheCopyRebuiltFromPartner)
{
    auto cfg = testConfig("sdc-partner", Redundancy::Partner);
    cfg.sdcChecks = true;
    Scr::purge(cfg);
    const int procs = 8;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(64, proc.rank() + 0.25);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });
    // Rot rank 3's cache copy only: the sidecar mismatch must be
    // detected and the intact partner copy restored instead.
    {
        const fs::path path =
            fs::path(Scr::datasetDir(cfg, 1, 3)) / "state.bin";
        std::vector<char> bytes(fs::file_size(path));
        std::ifstream in(path, std::ios::binary);
        in.read(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(in);
        in.close();
        bytes[8] ^= 0x5a;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(64, 0.0);
        ASSERT_TRUE(
            readState(scr.routeRestartFile("state.bin"), state));
        scr.completeRestart(true);
        for (const double v : state)
            ASSERT_EQ(v, proc.rank() + 0.25);
    });
    Scr::purge(cfg);
}

TEST(ScrSdc, CorruptNewestDatasetFallsBackToOlder)
{
    auto cfg = testConfig("sdc-fallback", Redundancy::Partner);
    cfg.sdcChecks = true;
    Scr::purge(cfg);
    const int procs = 8;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(64, proc.rank() + 1.5);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });
    // Manufacture a newer committed dataset whose every copy — cache
    // AND partner — is rot (SCR prunes older datasets on commit, so
    // the driver clones dataset 1 instead of committing twice).
    const fs::path job = fs::path(cfg.cacheDir) / cfg.jobId;
    fs::copy(job / "dataset1", job / "dataset2",
             fs::copy_options::recursive);
    corruptDatasetTree(job / "dataset2");
    // Every rank's restart must reject dataset 2 at every tier and
    // restore dataset 1 — never rot, never fatal.
    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        ASSERT_TRUE(scr.haveRestart());
        scr.startRestart();
        std::vector<double> state(64, 0.0);
        ASSERT_TRUE(
            readState(scr.routeRestartFile("state.bin"), state));
        scr.completeRestart(true);
        for (const double v : state)
            ASSERT_EQ(v, proc.rank() + 1.5);
    });
    Scr::purge(cfg);
}

TEST(ScrSdcDeath, NoVerifiableDatasetIsFatalNotSilent)
{
    auto cfg = testConfig("sdc-exhausted", Redundancy::Single);
    cfg.sdcChecks = true;
    Scr::purge(cfg);
    const int procs = 4;
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Scr scr(proc, cfg);
        std::vector<double> state(16, 1.0);
        scr.startCheckpoint();
        writeState(scr.routeFile("state.bin"), state);
        scr.completeCheckpoint(true);
        scr.finalize();
    });
    corruptDatasetTree(fs::path(cfg.cacheDir) / cfg.jobId / "dataset1");
    // SINGLE has no redundancy tier, there is no flushed prefix copy
    // and no older dataset: the only correct outcome is an abort.
    EXPECT_EXIT(
        {
            Runtime rt2;
            rt2.run(options(procs), [&](Proc &proc) {
                Scr scr(proc, cfg);
                scr.startRestart();
                scr.routeRestartFile("state.bin");
            });
        },
        ::testing::ExitedWithCode(1),
        "no dataset passes SDC verification");
    Scr::purge(cfg);
}
