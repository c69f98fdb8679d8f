/**
 * @file
 * Collective semantics: correctness of the combined data, timing
 * synchronization, and BSP pipelining across communicator instances.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"

using namespace match::simmpi;

namespace
{

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

} // namespace

class CollectivesSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CollectivesSweep, AllreduceSumOfRanks)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<double> sums(procs, -1.0);
    rt.run(options(procs), [&](Proc &proc) {
        sums[proc.rank()] = proc.allreduce(
            static_cast<double>(proc.rank()), ReduceOp::Sum);
    });
    const double expect = procs * (procs - 1) / 2.0;
    for (double sum : sums)
        EXPECT_DOUBLE_EQ(sum, expect);
}

TEST_P(CollectivesSweep, AllreduceMinMax)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<double> mins(procs), maxs(procs);
    rt.run(options(procs), [&](Proc &proc) {
        const double mine = 10.0 + proc.rank();
        mins[proc.rank()] = proc.allreduce(mine, ReduceOp::Min);
        maxs[proc.rank()] = proc.allreduce(mine, ReduceOp::Max);
    });
    for (int r = 0; r < procs; ++r) {
        EXPECT_DOUBLE_EQ(mins[r], 10.0);
        EXPECT_DOUBLE_EQ(maxs[r], 10.0 + procs - 1);
    }
}

TEST_P(CollectivesSweep, VectorAllreduce)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<std::vector<double>> results(procs);
    rt.run(options(procs), [&](Proc &proc) {
        std::vector<double> mine{1.0, static_cast<double>(proc.rank()),
                                 2.0};
        std::vector<double> out(3);
        proc.allreduce(mine.data(), out.data(), 3, ReduceOp::Sum);
        results[proc.rank()] = out;
    });
    for (int r = 0; r < procs; ++r) {
        EXPECT_DOUBLE_EQ(results[r][0], procs);
        EXPECT_DOUBLE_EQ(results[r][1], procs * (procs - 1) / 2.0);
        EXPECT_DOUBLE_EQ(results[r][2], 2.0 * procs);
    }
}

TEST_P(CollectivesSweep, BcastDistributesRootBuffer)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<std::vector<int>> received(procs);
    rt.run(options(procs), [&](Proc &proc) {
        std::vector<int> buf(4, 0);
        if (proc.rank() == 0)
            buf = {3, 1, 4, 1};
        proc.bcast(0, buf.data(), buf.size() * sizeof(int));
        received[proc.rank()] = buf;
    });
    for (int r = 0; r < procs; ++r)
        EXPECT_EQ(received[r], (std::vector<int>{3, 1, 4, 1}));
}

TEST_P(CollectivesSweep, GatherCollectsInRankOrder)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<int> gathered;
    int nonRootViews = 0;
    rt.run(options(procs), [&](Proc &proc) {
        const int mine = proc.rank() * 11;
        const auto *view =
            static_cast<const int *>(proc.gather(0, &mine, sizeof(mine)));
        if (proc.rank() == 0)
            gathered.assign(view, view + procs);
        else if (view != nullptr)
            ++nonRootViews;
    });
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(procs));
    for (int r = 0; r < procs; ++r)
        EXPECT_EQ(gathered[r], r * 11);
    EXPECT_EQ(nonRootViews, 0) << "only the root gets a gather view";
}

TEST_P(CollectivesSweep, AllgatherGivesEveryoneOneSharedView)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<const void *> views(procs, nullptr);
    std::vector<std::vector<int>> results(procs);
    rt.run(options(procs), [&](Proc &proc) {
        const int mine = proc.rank() + 5;
        const void *view = proc.allgather(&mine, sizeof(mine));
        views[proc.rank()] = view;
        const auto *vals = static_cast<const int *>(view);
        results[proc.rank()].assign(vals, vals + procs);
    });
    for (int r = 0; r < procs; ++r) {
        // One result buffer per collective, not one copy per rank.
        EXPECT_EQ(views[r], views[0]) << "rank " << r;
        for (int s = 0; s < procs; ++s)
            EXPECT_EQ(results[r][s], s + 5);
    }
}

TEST_P(CollectivesSweep, ExscanIsExclusivePrefixSum)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<std::int64_t> prefixes(procs, -1);
    rt.run(options(procs), [&](Proc &proc) {
        prefixes[proc.rank()] = proc.exscan(proc.rank() + 1);
    });
    std::int64_t running = 0;
    for (int r = 0; r < procs; ++r) {
        EXPECT_EQ(prefixes[r], running);
        running += r + 1;
    }
}

TEST_P(CollectivesSweep, AllreduceIntLogicalAnd)
{
    const int procs = GetParam();
    Runtime rt;
    std::vector<std::int64_t> all_true(procs), not_all(procs);
    rt.run(options(procs), [&](Proc &proc) {
        all_true[proc.rank()] =
            proc.allreduceInt(1, ReduceOp::LogicalAnd);
        not_all[proc.rank()] = proc.allreduceInt(
            proc.rank() == 0 ? 0 : 1, ReduceOp::LogicalAnd);
    });
    for (int r = 0; r < procs; ++r) {
        EXPECT_EQ(all_true[r], 1);
        EXPECT_EQ(not_all[r], 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, CollectivesSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(Collectives, BarrierSynchronizesClocks)
{
    Runtime rt;
    std::vector<SimTime> after(4);
    rt.run(options(4), [&](Proc &proc) {
        // Ranks do different amounts of work before the barrier.
        proc.compute(1.0e9 * (proc.rank() + 1));
        proc.barrier();
        after[proc.rank()] = proc.now();
    });
    for (int r = 1; r < 4; ++r)
        EXPECT_DOUBLE_EQ(after[r], after[0]);
    // The slowest rank did ~1 s of work (4e9 flops at 4 GFLOP/s).
    EXPECT_GE(after[0], 1.0);
}

TEST(Collectives, LaggardDominatesCompletionTime)
{
    Runtime rt;
    SimTime done = 0.0;
    rt.run(options(8), [&](Proc &proc) {
        if (proc.rank() == 3)
            proc.compute(8.0e9); // 2 s laggard
        proc.barrier();
        if (proc.rank() == 0)
            done = proc.now();
    });
    EXPECT_GE(done, 2.0);
    EXPECT_LT(done, 2.1);
}

TEST(Collectives, FastRankCanRunAheadThroughBackToBackCollectives)
{
    // Regression test for the collective-instance overlap bug: the last
    // arriver of allreduce #1 proceeds to allreduce #2 on the same comm
    // before the blocked ranks of #1 are resumed.
    Runtime rt;
    std::vector<double> first(4), second(4);
    rt.run(options(4), [&](Proc &proc) {
        first[proc.rank()] = proc.allreduce(1.0);
        second[proc.rank()] = proc.allreduce(10.0 + proc.rank());
    });
    for (int r = 0; r < 4; ++r) {
        EXPECT_DOUBLE_EQ(first[r], 4.0);
        EXPECT_DOUBLE_EQ(second[r], 46.0);
    }
}

TEST(Collectives, ManyIterationsOfMixedCollectives)
{
    Runtime rt;
    double final_sum = 0.0;
    rt.run(options(8), [&](Proc &proc) {
        double acc = proc.rank();
        for (int i = 0; i < 50; ++i) {
            acc = proc.allreduce(acc) / 8.0;
            proc.barrier();
            std::int64_t n = proc.allreduceInt(1);
            acc += static_cast<double>(n) * 0.001;
        }
        if (proc.rank() == 0)
            final_sum = acc;
    });
    EXPECT_GT(final_sum, 0.0);
}

TEST(Collectives, AllgatherViewOutlivesTheSlotRelease)
{
    // The last rank to leave a collective releases its slot before it
    // reads its view, and the next collectives reuse that slot. Every
    // rank checks its whole view right after each call, over rounds
    // whose values and slice sizes change, interleaved with allreduce.
    constexpr int kProcs = 64, kRounds = 64;
    Runtime rt;
    std::vector<int> bad(kProcs, 0);
    rt.run(options(kProcs), [&](Proc &proc) {
        const int me = proc.rank();
        std::int64_t mine[3];
        for (int round = 0; round < kRounds; ++round) {
            const int n = 1 + round % 3;
            for (int k = 0; k < n; ++k)
                mine[k] = (round + 1) * 100000 + me * 10 + k;
            const auto *view = static_cast<const std::int64_t *>(
                proc.allgather(mine, n * sizeof(std::int64_t)));
            for (int r = 0; r < kProcs; ++r)
                for (int k = 0; k < n; ++k)
                    bad[me] += view[r * n + k] !=
                               (round + 1) * 100000 + r * 10 + k;
            bad[me] += proc.allreduce(static_cast<double>(round)) !=
                       static_cast<double>(kProcs) * round;
        }
    });
    for (int r = 0; r < kProcs; ++r)
        EXPECT_EQ(bad[r], 0) << "rank " << r << " read a stale view";
}

TEST(Collectives, SingleRankCollectivesAreTrivial)
{
    Runtime rt;
    double value = 0.0;
    rt.run(options(1), [&](Proc &proc) {
        value = proc.allreduce(5.0);
        proc.barrier();
        int buf = 3;
        proc.bcast(0, &buf, sizeof(buf));
        EXPECT_EQ(buf, 3);
    });
    EXPECT_DOUBLE_EQ(value, 5.0);
}

TEST(Collectives, TimeAdvancesMonotonically)
{
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        SimTime last = proc.now();
        for (int i = 0; i < 10; ++i) {
            proc.allreduce(1.0);
            EXPECT_GE(proc.now(), last);
            last = proc.now();
            proc.compute(1e6);
            EXPECT_GT(proc.now(), last);
            last = proc.now();
        }
    });
}
