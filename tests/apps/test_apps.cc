/**
 * @file
 * Proxy-application tests: Table-I argument parsing, numerical sanity of
 * the real kernels, and the end-to-end failure-equivalence property
 * (a failure + recovery must not change the computed answer) for every
 * app under every fault-tolerance design.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "src/apps/amg.hh"
#include "src/apps/app.hh"
#include "src/apps/comd.hh"
#include "src/apps/hpccg.hh"
#include "src/apps/lulesh.hh"
#include "src/apps/minife.hh"
#include "src/apps/minivite.hh"
#include "src/core/experiment.hh"
#include "src/ft/design.hh"
#include "src/storage/backend.hh"
#include "src/storage/transform.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::apps;
using match::ft::Design;

namespace
{

ft::DesignRunConfig
appRunConfig(const std::string &app, Design design, bool inject,
             int fail_iter, int procs = 8)
{
    ft::DesignRunConfig cfg;
    cfg.design = design;
    cfg.nprocs = procs;
    cfg.ftiConfig.ckptDir =
        (fs::temp_directory_path() / "match-app-tests").string();
    cfg.ftiConfig.execId = app + "-" + ft::designName(design) +
                           (inject ? "-f" : "-nf") +
                           std::to_string(procs);
    cfg.injectFailure = inject;
    cfg.failIteration = fail_iter;
    cfg.failRank = procs / 2;
    return cfg;
}

std::vector<double>
runApp(const std::string &app, Design design, bool inject, int procs = 8)
{
    const AppSpec &spec = findApp(app);
    AppParams params;
    params.input = InputSize::Small;
    params.nprocs = procs;
    std::vector<double> finals(procs, 0.0);
    params.finals = &finals;
    // Fail roughly mid-loop (after at least one checkpoint at stride 10).
    const int fail_iter =
        std::max(2, spec.loopIterations(params) * 3 / 5);
    const auto cfg = appRunConfig(app, design, inject, fail_iter, procs);
    ft::runDesign(cfg, [&](simmpi::Proc &proc,
                           const fti::FtiConfig &fcfg) {
        spec.main(proc, fcfg, params);
    });
    return finals;
}

} // namespace

// ---------------------------------------------------------------------------
// Table-I argument parsing
// ---------------------------------------------------------------------------

TEST(AppArgs, HpccgParsesTableI)
{
    const auto cfg = HpccgConfig::fromArgs(splitArgs("128 128 128"));
    EXPECT_EQ(cfg.nx, 128);
    EXPECT_EQ(cfg.ny, 128);
    EXPECT_EQ(cfg.nz, 128);
}

TEST(AppArgs, MinifeParsesTableI)
{
    const auto cfg =
        MinifeConfig::fromArgs(splitArgs("-nx 40 -ny 41 -nz 42"));
    EXPECT_EQ(cfg.nx, 40);
    EXPECT_EQ(cfg.ny, 41);
    EXPECT_EQ(cfg.nz, 42);
}

TEST(AppArgs, AmgParsesTableI)
{
    const auto cfg =
        AmgConfig::fromArgs(splitArgs("-problem 2 -n 60 60 60"));
    EXPECT_EQ(cfg.problem, 2);
    EXPECT_EQ(cfg.nx, 60);
    EXPECT_EQ(cfg.ny, 60);
    EXPECT_EQ(cfg.nz, 60);
}

TEST(AppArgs, ComdParsesTableI)
{
    const auto cfg =
        ComdConfig::fromArgs(splitArgs("-nx 256 -ny 256 -nz 256"));
    EXPECT_EQ(cfg.nx, 256);
    EXPECT_DOUBLE_EQ(cfg.globalAtoms(), 4.0 * 256 * 256 * 256);
}

TEST(AppArgs, LuleshParsesTableI)
{
    const auto cfg = LuleshConfig::fromArgs(splitArgs("-s 40 -p"));
    EXPECT_EQ(cfg.s, 40);
    EXPECT_TRUE(cfg.progress);
    EXPECT_EQ(cfg.physicalIterations(), 932 * 40 / 30);
}

TEST(AppArgs, MiniviteParsesTableI)
{
    const auto cfg =
        MiniviteConfig::fromArgs(splitArgs("-p 3 -l -n 256000"));
    EXPECT_EQ(cfg.vertices, 256000);
    EXPECT_EQ(cfg.degreeKnob, 3);
    EXPECT_TRUE(cfg.synthetic);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(AppRegistry, HasTheSixPaperApps)
{
    const auto &apps = registry();
    ASSERT_EQ(apps.size(), 6u);
    for (const char *name :
         {"AMG", "CoMD", "HPCCG", "LULESH", "miniFE", "miniVite"})
        EXPECT_NO_FATAL_FAILURE(findApp(name));
}

TEST(AppRegistry, LuleshRunsOnCubeCountsOnly)
{
    EXPECT_EQ(findApp("LULESH").scalingSizes, (std::vector<int>{64, 512}));
    EXPECT_EQ(findApp("AMG").scalingSizes,
              (std::vector<int>{64, 128, 256, 512}));
}

TEST(AppRegistry, TableIArgsMatchPaper)
{
    EXPECT_EQ(findApp("AMG").args(InputSize::Small),
              "-problem 2 -n 20 20 20");
    EXPECT_EQ(findApp("CoMD").args(InputSize::Large),
              "-nx 512 -ny 512 -nz 512");
    EXPECT_EQ(findApp("HPCCG").args(InputSize::Medium), "128 128 128");
    EXPECT_EQ(findApp("LULESH").args(InputSize::Small), "-s 30 -p");
    EXPECT_EQ(findApp("miniFE").args(InputSize::Large),
              "-nx 60 -ny 60 -nz 60");
    EXPECT_EQ(findApp("miniVite").args(InputSize::Small),
              "-p 3 -l -n 128000");
}

// ---------------------------------------------------------------------------
// Numerical sanity of the real kernels
// ---------------------------------------------------------------------------

TEST(AppNumerics, HpccgResidualDecreases)
{
    // The CG solve must make progress: the final residual norm is far
    // below the initial one (||b|| of the all-ones RHS).
    const auto finals = runApp("HPCCG", Design::ReinitFti, false);
    for (double r : finals) {
        EXPECT_GT(r, 0.0);
        EXPECT_LT(r, 1.0); // initial norm is sqrt(rows*P) >> 1
        EXPECT_FALSE(std::isnan(r));
    }
}

TEST(AppNumerics, MinifeResidualDecreases)
{
    const auto finals = runApp("miniFE", Design::ReinitFti, false);
    for (double r : finals) {
        EXPECT_LT(r, 1.0);
        EXPECT_FALSE(std::isnan(r));
    }
}

TEST(AppNumerics, AmgResidualIsFiniteAndSmall)
{
    const auto finals = runApp("AMG", Design::ReinitFti, false);
    for (double r : finals) {
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 10.0); // 30 V-cycles on a smooth problem
        EXPECT_FALSE(std::isnan(r));
    }
}

TEST(AppNumerics, ComdEnergyIsFinite)
{
    const auto finals = runApp("CoMD", Design::ReinitFti, false);
    for (double e : finals) {
        EXPECT_FALSE(std::isnan(e));
        EXPECT_NE(e, 0.0);
    }
}

TEST(AppNumerics, LuleshEnergyConservedOnNonOriginRanks)
{
    const auto finals = runApp("LULESH", Design::ReinitFti, false);
    for (double e : finals) {
        EXPECT_GE(e, 0.0);
        EXPECT_FALSE(std::isnan(e));
    }
    // The Sedov energy deposit starts on rank 0.
    EXPECT_GT(finals[0], 0.0);
}

TEST(AppNumerics, MiniviteModularityImproves)
{
    // Louvain on a planted-block graph must find substantial community
    // structure: most edges end up intra-community.
    const auto finals = runApp("miniVite", Design::ReinitFti, false);
    for (double m : finals) {
        EXPECT_GT(m, 0.5);
        EXPECT_LE(m, 1.0);
    }
}

TEST(AppCheckpoint, MiniviteDeltaCellRepeatsWithinOneProcess)
{
    // A differential checkpoint stores only the blocks that changed, so
    // its size, and the cell's priced write time, follow the protected
    // bytes exactly. miniVite must keep its protected community array
    // at one address across passes: a checkpoint that reads a freed
    // buffer picks up allocator state, which another cell run in the
    // same process perturbs.
    core::ExperimentConfig config;
    config.app = "miniVite";
    config.input = InputSize::Small;
    config.nprocs = 8;
    config.design = Design::ReinitFti;
    config.ckptLevel = 1;
    config.ckptStride = 1;
    config.transform = storage::TransformKind::DeltaCompress;
    config.runs = 2;
    config.sandboxDir =
        (fs::temp_directory_path() / "match-app-tests").string();
    const auto first = core::runExperiment(config);
    auto other = config;
    other.app = "HPCCG";
    other.ckptLevel = 4;
    core::runExperiment(other);
    const auto second = core::runExperiment(config);
    ASSERT_EQ(first.perRun.size(), second.perRun.size());
    for (std::size_t i = 0; i < first.perRun.size(); ++i) {
        EXPECT_EQ(first.perRun[i].ckptWrite, second.perRun[i].ckptWrite)
            << "run " << i;
        EXPECT_EQ(first.perRun[i].total(), second.perRun[i].total())
            << "run " << i;
    }
}

// ---------------------------------------------------------------------------
// Kernel state pinned bit for bit
// ---------------------------------------------------------------------------

namespace
{

struct PinnedRun
{
    ft::Breakdown breakdown;
    std::vector<double> finals;
};

PinnedRun
runPinned(const std::string &app, bool inject)
{
    const AppSpec &spec = findApp(app);
    AppParams params;
    params.input = InputSize::Small;
    params.nprocs = 8;
    params.ckptStride = 3;
    PinnedRun out;
    out.finals.assign(params.nprocs, 0.0);
    params.finals = &out.finals;
    auto cfg = appRunConfig(app, Design::ReinitFti, inject,
                            std::max(2, spec.loopIterations(params) * 3 / 5),
                            params.nprocs);
    cfg.ftiConfig.execId += "-pin";
    cfg.ftiConfig.backend = storage::makeBackend(storage::Kind::Mem);
    cfg.ftiConfig.transform = storage::TransformKind::DeltaCompress;
    out.breakdown = ft::runDesign(cfg, [&](simmpi::Proc &proc,
                                           const fti::FtiConfig &fcfg) {
        spec.main(proc, fcfg, params);
    });
    return out;
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

} // namespace

TEST(AppKernels, StatePinnedAcrossOptimizations)
{
    // Bit-exact fixture recorded before the kernels got their fast paths
    // (neighbour selects instead of branches, fused dot products, a
    // community tally, a Verlet pair list). Those rewrites keep every
    // element's floating-point operations in their original order, so
    // the protected bytes, the finals and every priced call must not
    // move. The delta transform sizes each checkpoint by the bytes that
    // changed since the last one, so ckptWrite pins the protected state
    // between checkpoints, and the finals pin it at the end. Under
    // injection, the finals also equal the failure-free run's.
    struct Pin
    {
        const char *app;
        double application[2]; ///< {failure-free, injected}
        double ckptWrite[2];
        double finals[8];
    };
    const Pin pins[] = {
        {"AMG",
         {0x1.0023ac8f61ff9p+4, 0x1.19c0d2905ce44p+4},
         {0x1.14db86612a2c4p-1, 0x1.339b3d47221a1p-1},
         {0x1.391a26c0ed51cp-10, 0x1.391a26c0ed51cp-10,
          0x1.391a26c0ed51cp-10, 0x1.391a26c0ed51cp-10,
          0x1.391a26c0ed51cp-10, 0x1.391a26c0ed51cp-10,
          0x1.391a26c0ed51cp-10, 0x1.391a26c0ed51cp-10}},
        {"CoMD",
         {0x1.7b84c3f68f697p+8, 0x1.86e7779e66f15p+8},
         {0x1.843c5713fb287p+1, 0x1.8da358ec1cb21p+1},
         {-0x1.21423a6d693fap+6, -0x1.21423a6d693fap+6,
          -0x1.21423a6d693fap+6, -0x1.21423a6d693fap+6,
          -0x1.21423a6d693fap+6, -0x1.21423a6d693fap+6,
          -0x1.21423a6d693fap+6, -0x1.21423a6d693fap+6}},
        {"HPCCG",
         {0x1.98a6dd9b9b04cp+2, 0x1.9e237e35e0c0fp+2},
         {0x1.936bba4f751aap+1, 0x1.9b33370a138fep+1},
         {0x1.17c45a82326acp-163, 0x1.17c45a82326acp-163,
          0x1.17c45a82326acp-163, 0x1.17c45a82326acp-163,
          0x1.17c45a82326acp-163, 0x1.17c45a82326acp-163,
          0x1.17c45a82326acp-163, 0x1.17c45a82326acp-163}},
        {"LULESH",
         {0x1.45ffc225b504p+9, 0x1.4e26228aa79ecp+9},
         {0x1.31cfa2fd976cp+1, 0x1.39a1ff3250efep+1},
         {0x1.2d43e5c9fdc6cp+25, 0x1.12d67ce3cee4cp-120,
          0x1.5156748281204p-275, 0x1.8d25dcf2648eap-434,
          0x1.346750507d11dp-595, 0x1.01d9931996973p-758,
          0x1.362b37979d2fdp-923, 0x0p+0}},
        {"miniFE",
         {0x1.6c5a217d1df4p+0, 0x1.8447693dcca42p+0},
         {0x1.fb4cdab561ad2p+1, 0x1.017e205463762p+2},
         {0x1.3a92212c03c68p-379, 0x1.3a92212c03c68p-379,
          0x1.3a92212c03c68p-379, 0x1.3a92212c03c68p-379,
          0x1.3a92212c03c68p-379, 0x1.3a92212c03c68p-379,
          0x1.3a92212c03c68p-379, 0x1.3a92212c03c68p-379}},
        {"miniVite",
         {0x1.126e3e3e5792ep-2, 0x1.2c93e4c47d575p-2},
         {0x1.362366d9cb2f8p-2, 0x1.73c68bd81f6cfp-2},
         {0x1.c6af1681b8d7fp-1, 0x1.c6af1681b8d7fp-1,
          0x1.c6af1681b8d7fp-1, 0x1.c6af1681b8d7fp-1,
          0x1.c6af1681b8d7fp-1, 0x1.c6af1681b8d7fp-1,
          0x1.c6af1681b8d7fp-1, 0x1.c6af1681b8d7fp-1}},
    };
    for (const Pin &pin : pins) {
        for (const bool inject : {false, true}) {
            const PinnedRun run = runPinned(pin.app, inject);
            const std::string label =
                std::string(pin.app) + (inject ? " injected" : " clean");
            EXPECT_EQ(run.breakdown.application, pin.application[inject])
                << label << " application "
                << hexDouble(run.breakdown.application);
            EXPECT_EQ(run.breakdown.ckptWrite, pin.ckptWrite[inject])
                << label << " ckptWrite "
                << hexDouble(run.breakdown.ckptWrite);
            EXPECT_EQ(run.breakdown.failureFired, inject) << label;
            for (std::size_t r = 0; r < run.finals.size(); ++r)
                EXPECT_EQ(run.finals[r], pin.finals[r])
                    << label << " rank " << r << " final "
                    << hexDouble(run.finals[r]);
        }
    }
}

// ---------------------------------------------------------------------------
// Failure equivalence: every app under every design
// ---------------------------------------------------------------------------

class AppDesignMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, Design>>
{
};

TEST_P(AppDesignMatrix, FailureDoesNotChangeTheAnswer)
{
    const auto [app, design] = GetParam();
    const auto clean = runApp(app, design, false);
    const auto failed = runApp(app, design, true);
    ASSERT_EQ(clean.size(), failed.size());
    for (std::size_t r = 0; r < clean.size(); ++r)
        EXPECT_DOUBLE_EQ(clean[r], failed[r])
            << app << " under " << ft::designName(design) << " rank "
            << r;
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllDesigns, AppDesignMatrix,
    ::testing::Combine(::testing::Values("AMG", "CoMD", "HPCCG", "LULESH",
                                         "miniFE", "miniVite"),
                       ::testing::Values(Design::RestartFti,
                                         Design::ReinitFti,
                                         Design::UlfmFti)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::string(ft::designName(std::get<1>(info.param)))
                   .substr(0, std::string(ft::designName(
                                              std::get<1>(info.param)))
                                  .find('-'));
    });
