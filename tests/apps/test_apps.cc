/**
 * @file
 * Proxy-application tests: Table-I argument parsing, numerical sanity of
 * the real kernels, and the end-to-end failure-equivalence property
 * (a failure + recovery must not change the computed answer) for every
 * app under every fault-tolerance design.
 */

#include <gtest/gtest.h>

#include <cmath>
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
