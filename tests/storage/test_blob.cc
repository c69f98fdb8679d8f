/**
 * @file
 * Blob/BlobPool semantics: refcounted immutability (a view survives
 * remove and overwrite of its path), pool recycling that never aliases
 * live blobs, exact-once copy accounting in fetch(), and a concurrency
 * stress of pool recycle racing cross-thread blob releases (the TSAN CI
 * lane runs this under -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/storage/backend.hh"
#include "src/storage/blob.hh"

using namespace match;
using match::storage::Backend;
using match::storage::Blob;
using match::storage::BlobPool;
using match::storage::Kind;
using match::storage::MutableBlob;

namespace
{

Blob
sealText(BlobPool &pool, const std::string &text)
{
    MutableBlob blob = pool.acquire(text.size());
    std::memcpy(blob.data(), text.data(), text.size());
    return std::move(blob).seal();
}

std::string
asText(const Blob &blob)
{
    return std::string(reinterpret_cast<const char *>(blob.data()),
                       blob.size());
}

} // namespace

TEST(Blob, HandlesShareOneBufferByRefcount)
{
    BlobPool pool;
    Blob a = sealText(pool, "shared");
    Blob b = a;
    EXPECT_EQ(a.data(), b.data());
    EXPECT_EQ(a.refCount(), 2);
    b = Blob();
    EXPECT_EQ(a.refCount(), 1);
    EXPECT_EQ(asText(a), "shared");
}

TEST(Blob, InvalidHandleIsDistinctFromZeroByteBlob)
{
    // "No object" (default handle) and "zero-byte object" must stay
    // distinguishable: fetch() reports absence with the former.
    BlobPool pool;
    EXPECT_FALSE(Blob());
    const Blob zero = sealText(pool, "");
    EXPECT_TRUE(zero);
    EXPECT_EQ(zero.size(), 0u);
}

TEST(Blob, FromVectorWrapsWithoutCopy)
{
    std::vector<std::uint8_t> bytes{1, 2, 3, 4};
    const std::uint8_t *raw = bytes.data();
    const Blob blob = Blob::fromVector(std::move(bytes));
    EXPECT_EQ(blob.data(), raw);
    EXPECT_EQ(blob.size(), 4u);
}

TEST(BlobPool, RecyclesReleasedBuffersAndCountsHits)
{
    BlobPool pool;
    {
        Blob blob = sealText(pool, "first use of the buffer");
        EXPECT_EQ(pool.stats().allocs, 1u);
        EXPECT_EQ(pool.stats().poolHits, 0u);
    } // last handle dropped: buffer returns to the pool
    Blob again = sealText(pool, "second use, same slab class");
    EXPECT_EQ(pool.stats().allocs, 1u);
    EXPECT_EQ(pool.stats().poolHits, 1u);
}

TEST(BlobPool, ReuseNeverAliasesLiveBlobs)
{
    BlobPool pool;
    Blob live = sealText(pool, "still referenced");
    Blob other = sealText(pool, "must get its own buffer");
    EXPECT_NE(live.data(), other.data());
    // The live blob's bytes are untouched by the second acquisition.
    EXPECT_EQ(asText(live), "still referenced");
    EXPECT_EQ(pool.stats().poolHits, 0u); // nothing was free to reuse
}

TEST(BlobPool, BlobsOutliveTheirPool)
{
    Blob survivor;
    {
        BlobPool pool;
        survivor = sealText(pool, "outlives the pool");
    } // pool destroyed first; release must free, not recycle
    EXPECT_EQ(asText(survivor), "outlives the pool");
}

TEST(BlobPool, CopyOfCountsTheMemcpy)
{
    BlobPool pool;
    const std::string text = "counted copy";
    const Blob blob = pool.copyOf(text.data(), text.size());
    EXPECT_EQ(asText(blob), text);
    EXPECT_EQ(pool.stats().bytesCopied, text.size());
}

TEST(MemBackendBlob, ViewSurvivesRemoveOfThePath)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    const std::string text = "kept alive by the view";
    backend->write("/job/blob", text.data(), text.size());
    const Blob view = backend->view("/job/blob");
    backend->remove("/job/blob");
    EXPECT_FALSE(backend->exists("/job/blob"));
    EXPECT_EQ(asText(view), text);
}

TEST(MemBackendBlob, ViewSurvivesOverwriteOfThePath)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    backend->write("/job/blob", "old contents", 12);
    const Blob old_view = backend->view("/job/blob");
    backend->write("/job/blob", "new", 3);
    EXPECT_EQ(asText(old_view), "old contents");
    EXPECT_EQ(asText(backend->view("/job/blob")), "new");
}

TEST(MemBackendBlob, CopyIsARefcountBumpNotAByteCopy)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    backend->write("/job/src", "immutable", 9);
    const auto before = BlobPool::globalStats().bytesCopied;
    ASSERT_TRUE(backend->copy("/job/src", "/job/dst"));
    EXPECT_EQ(BlobPool::globalStats().bytesCopied, before);
    EXPECT_EQ(backend->view("/job/src").data(),
              backend->view("/job/dst").data());
}

TEST(Fetch, PrefersTheViewOnMemBackend)
{
    const auto backend = storage::makeBackend(Kind::Mem);
    backend->write("/job/blob", "zero copy", 9);
    const auto before = BlobPool::globalStats().bytesCopied;
    const Blob a = storage::fetch(*backend, "/job/blob");
    const Blob b = storage::fetch(*backend, "/job/blob");
    ASSERT_TRUE(a);
    EXPECT_EQ(a.data(), b.data()); // same stored buffer, no copies
    EXPECT_EQ(BlobPool::globalStats().bytesCopied, before);
    EXPECT_FALSE(storage::fetch(*backend, "/job/absent"));
}

TEST(Fetch, CopiesExactlyOnceOnDiskBackend)
{
    const auto backend = storage::makeBackend(Kind::Disk);
    const std::string root =
        (std::filesystem::temp_directory_path() / "match-blob-tests")
            .string();
    backend->removeTree(root);
    backend->createDirectories(root);
    const std::string text = "one copy off the disk";
    backend->write(root + "/blob", text.data(), text.size());
    const auto before = BlobPool::globalStats().bytesCopied;
    const Blob blob = storage::fetch(*backend, root + "/blob");
    ASSERT_TRUE(blob);
    EXPECT_EQ(asText(blob), text);
    EXPECT_EQ(BlobPool::globalStats().bytesCopied,
              before + text.size());
    EXPECT_FALSE(storage::fetch(*backend, root + "/absent"));
    backend->removeTree(root);
}

TEST(BlobStress, ConcurrentPoolRecycleAndCrossThreadRelease)
{
    // One shared backend, hammered from several threads at once:
    // writers stage blobs from their own pools and transfer them to the
    // store, hand a view to a consumer thread, and overwrite/remove the
    // same paths. The consumer drops the last ref of many views, so
    // buffers return to a pool from a thread that did not acquire them.
    // Every held view must keep serving the exact bytes it was taken
    // over — recycled buffers may only be handed out once their last
    // ref dropped.
    const auto backend = storage::makeBackend(Kind::Mem);
    constexpr int kThreads = 4, kRounds = 64;
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::pair<Blob, std::string>> handoff;
    int writersLeft = kThreads;
    int consumed = 0;
    std::thread consumer([&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            ready.wait(lock,
                       [&] { return !handoff.empty() || writersLeft == 0; });
            if (handoff.empty())
                return;
            auto [view, text] = std::move(handoff.front());
            handoff.pop_front();
            lock.unlock();
            EXPECT_EQ(asText(view), text);
            view = Blob(); // release here, off the acquiring thread
            lock.lock();
            ++consumed;
        }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            BlobPool &pool = BlobPool::local();
            const std::string path =
                "/stress/worker" + std::to_string(t);
            for (int round = 0; round < kRounds; ++round) {
                const std::string text =
                    path + "#" + std::to_string(round);
                backend->write(path, sealText(pool, text));
                const Blob view = backend->view(path);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    handoff.emplace_back(view, text);
                }
                ready.notify_one();
                backend->copy(path, path + ".mirror");
                if (round % 8 == 7)
                    backend->remove(path);
                EXPECT_EQ(asText(view), text);
            }
            std::lock_guard<std::mutex> lock(mutex);
            --writersLeft;
            ready.notify_one();
        });
    }
    for (auto &thread : threads)
        thread.join();
    consumer.join();
    EXPECT_EQ(consumed, kThreads * kRounds);
}
