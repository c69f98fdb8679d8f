/**
 * @file
 * Drain-channel contract tests: flushes run inline in enqueue order
 * and see every earlier flush's writes (over both storage backend
 * kinds), the resolve() fold prices them FIFO from deterministic
 * inputs, and reserve() prices burst-buffer capacity pressure. A
 * concurrency stress test hammers one shared backend with per-rank
 * flush + checkpoint traffic from several threads; the CI TSAN lane
 * runs it under -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/storage/backend.hh"
#include "src/storage/drain.hh"

namespace fs = std::filesystem;
using namespace match;
using match::storage::Backend;
using match::storage::DrainChannel;
using match::storage::Kind;

namespace
{

std::string
text(Backend &backend, const std::string &path)
{
    std::vector<std::uint8_t> blob;
    if (!backend.read(path, blob))
        return "<missing>";
    return std::string(blob.begin(), blob.end());
}

} // namespace

class DrainContract : public ::testing::TestWithParam<Kind>
{
  protected:
    void
    SetUp() override
    {
        backend_ = storage::makeBackend(GetParam());
        root_ = (fs::temp_directory_path() / "match-drain-tests" /
                 storage::kindName(GetParam()))
                    .string();
        backend_->removeTree(root_);
        backend_->createDirectories(root_ + "/pfs");
    }

    void
    TearDown() override
    {
        backend_->removeTree(root_);
    }

    std::shared_ptr<Backend> backend_;
    std::string root_;
};

TEST_P(DrainContract, FlushesRunInEnqueueOrderAndSeePriorWrites)
{
    // FIFO is the determinism backbone: a flush must see the base image
    // its predecessor wrote. Each flush checks the previous value, then
    // overwrites the object; the object is visible as soon as flush()
    // returns.
    DrainChannel channel;
    const std::string path = root_ + "/pfs/latest";
    constexpr int kJobs = 12;
    for (int i = 0; i < kJobs; ++i) {
        const std::string payload = "v" + std::to_string(i);
        channel.flush(
            [&]() -> std::uint64_t {
                EXPECT_EQ(text(*backend_, path),
                          i == 0 ? "<missing>"
                                 : "v" + std::to_string(i - 1));
                backend_->write(path, payload.data(), payload.size());
                return payload.size();
            },
            8);
        channel.stamp(static_cast<double>(i));
        EXPECT_EQ(text(*backend_, path), payload);
    }
}

TEST_P(DrainContract, ShippedBytesReachPricingAndTheGlobalCounter)
{
    DrainChannel channel;
    const std::uint64_t before = storage::drainGlobalShippedBytes();
    for (const std::string payload : {"four", "sixbyte"}) {
        channel.flush(
            [&]() -> std::uint64_t {
                const std::string path = root_ + "/pfs/" + payload;
                backend_->write(path, payload.data(), payload.size());
                return payload.size();
            },
            8);
        channel.stamp(0.0);
    }
    EXPECT_EQ(storage::drainGlobalShippedBytes() - before, 11u);
    std::vector<std::uint64_t> priced;
    channel.resolve(0.0, [&](std::uint64_t shipped, std::uint64_t, int,
                             double) {
        priced.push_back(shipped);
        return 0.0;
    });
    EXPECT_EQ(priced, (std::vector<std::uint64_t>{4, 7}));
}

INSTANTIATE_TEST_SUITE_P(Kinds, DrainContract,
                         ::testing::Values(Kind::Mem, Kind::Disk),
                         [](const auto &info) {
                             return std::string(
                                 storage::kindName(info.param));
                         });

TEST(DrainChannel, ResolveFoldsFlushesInEnqueueOrder)
{
    // Flush j streams from max(its enqueue instant, finish of flush
    // j-1) for its price. Enqueued at t = 0, 1, 20 with costs 5, 5, 2:
    // the second queues behind the first (finish 10), the third starts
    // on arrival (finish 22). The price sees every flush's own
    // (shipped, inBytes, procs, factor), once, in enqueue order.
    DrainChannel channel;
    const double enqueued[] = {0.0, 1.0, 20.0};
    for (int i = 0; i < 3; ++i) {
        channel.flush([i]() -> std::uint64_t { return 100u + i; }, 8 + i,
                      1.0 + i, 0, 1000u + i);
        channel.stamp(enqueued[i]);
    }
    std::vector<std::tuple<std::uint64_t, std::uint64_t, int, double>>
        seen;
    const auto price = [&](std::uint64_t shipped, std::uint64_t in_bytes,
                           int procs, double factor) {
        seen.emplace_back(shipped, in_bytes, procs, factor);
        return shipped == 102u ? 2.0 : 5.0;
    };
    EXPECT_DOUBLE_EQ(channel.resolve(15.0, price), 7.0);
    ASSERT_EQ(seen.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(seen[i], std::make_tuple(100u + i, 1000u + i, 8 + i,
                                           1.0 + i));
    }
    // Priced flushes are folded once: a later quiesce point owes
    // nothing more once the channel has caught up.
    EXPECT_DOUBLE_EQ(channel.resolve(22.0, price), 0.0);
    EXPECT_EQ(seen.size(), 3u);
    // A new flush resumes from the channel's finish, not from zero.
    channel.flush([]() -> std::uint64_t { return 100; }, 8);
    channel.stamp(21.0);
    EXPECT_DOUBLE_EQ(channel.resolve(21.0, price), 6.0);
}

TEST(DrainChannel, ReservePricesCapacityEvictionDeterministically)
{
    // Virtual-side capacity pressure: three 40-byte flushes priced at
    // 10 virtual seconds each (finishing at t=10, 20, 30) against a
    // 100-byte buffer. A fourth 40-byte reservation at t=0 must evict
    // the two oldest occupants (120 staged + 40 > 100 until only one
    // remains), so the stall runs to the second occupant's finish.
    DrainChannel channel;
    const auto price = [](std::uint64_t, std::uint64_t, int, double) {
        return 10.0;
    };
    for (int i = 0; i < 3; ++i) {
        channel.flush([]() -> std::uint64_t { return 40; }, 8, 1.0, 40);
        channel.stamp(static_cast<double>(i) * 10.0);
    }
    EXPECT_DOUBLE_EQ(channel.reserve(0.0, 40, 100, price), 20.0);
    // The evicted occupant is gone and a later reservation at t=25 sees
    // only the t=30 occupant: 40 + 40 fits, no stall.
    EXPECT_DOUBLE_EQ(channel.reserve(25.0, 40, 100, price), 0.0);
    // Unbounded capacity never stalls.
    EXPECT_DOUBLE_EQ(channel.reserve(0.0, 1 << 20, 0, price), 0.0);
    // A flush larger than the whole buffer admits once it is empty
    // (after the t=30 occupant drains) instead of stalling forever.
    EXPECT_DOUBLE_EQ(channel.reserve(25.0, 1000, 100, price), 5.0);
}

TEST(DrainStress, ConcurrentFlushAndCheckpointTrafficStaysConsistent)
{
    // The TSAN-lane centerpiece, modeled on the MemBackend hammer test:
    // several "ranks" on their own threads pound one shared backend
    // with checkpoint writes, reads and prefix scans while each flushes
    // through its own channel and prunes its previous PFS object.
    // Every invariant is checked under load; TSAN checks the locking.
    const auto backend = storage::makeBackend(Kind::Mem);
    constexpr int kThreads = 6, kCkpts = 24;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            DrainChannel channel;
            const std::string cache =
                "/hammer/job" + std::to_string(t) + "/cache";
            const std::string pfs =
                "/hammer/job" + std::to_string(t) + "/pfs";
            for (int i = 0; i < kCkpts; ++i) {
                const std::string name = "/ckpt" + std::to_string(i);
                const std::string payload =
                    "job" + std::to_string(t) + "#" + std::to_string(i);
                // "L1": the rank writes its cache copy itself.
                backend->writeAtomic(cache + name, payload.data(),
                                     payload.size());
                // "L4": the flush streams it to the PFS tree, then the
                // previous PFS object is pruned.
                channel.flush(
                    [&]() -> std::uint64_t {
                        std::vector<std::uint8_t> blob;
                        EXPECT_TRUE(backend->read(cache + name, blob));
                        backend->write(pfs + name, blob.data(),
                                       blob.size());
                        return blob.size();
                    },
                    kThreads);
                channel.stamp(static_cast<double>(i));
                if (i > 0)
                    backend->remove(pfs + "/ckpt" + std::to_string(i - 1));
                // Concurrent prefix traffic against everyone's trees.
                for (const auto &n : backend->listDir(cache)) {
                    std::vector<std::uint8_t> blob;
                    ASSERT_TRUE(backend->read(cache + "/" + n, blob));
                }
            }
            // Restart read: only the newest PFS object survives.
            std::vector<std::uint8_t> blob;
            ASSERT_TRUE(backend->read(
                pfs + "/ckpt" + std::to_string(kCkpts - 1), blob));
            EXPECT_EQ(std::string(blob.begin(), blob.end()),
                      "job" + std::to_string(t) + "#" +
                          std::to_string(kCkpts - 1));
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        const std::string pfs = "/hammer/job" + std::to_string(t) +
                                "/pfs";
        EXPECT_EQ(backend->listDir(pfs).size(), 1u)
            << "prunes must have dropped all but the newest";
    }
}
