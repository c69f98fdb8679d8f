/**
 * @file
 * Micro-benchmarks of the simulator substrate itself (wall-clock cost,
 * not virtual time): fiber switches, point-to-point messaging,
 * collectives across rank counts. These bound how fast the figure
 * benches can run.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/simmpi/fiber.hh"
#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"

using namespace match::simmpi;

namespace
{
/** Heap allocations observed process-wide; the messaging and collective
 *  rows report an allocsPerEvent counter over their steady-state window
 *  (expected 0 — the perf guard fails the build otherwise). */
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}
} // namespace

// GCC's -Wmismatched-new-delete flags the free() inside the replaced
// operator delete; malloc/free is the standard implementation for
// replacement allocation functions, so the warning is a false
// positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align),
                       size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace
{

void
BM_FiberSwitch(benchmark::State &state)
{
    bool stop = false;
    Fiber fiber([&stop] {
        while (!stop)
            Fiber::current()->yield();
    });
    for (auto _ : state) {
        fiber.setState(Fiber::State::Runnable);
        fiber.resume();
    }
    stop = true;
    fiber.setState(Fiber::State::Runnable);
    fiber.resume(); // run to completion so the fiber unwinds cleanly
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberSwitch);

void
BM_PingPong(benchmark::State &state)
{
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    // Steady-state allocation audit: the first iterations of each job
    // warm the pools (fiber stacks, payloads, message rings); the rest
    // must not touch the heap at all.
    constexpr int kIters = 100, kWarmup = 10;
    std::uint64_t steady_allocs = 0, steady_msgs = 0;
    for (auto _ : state) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = 2;
        runtime.run(opts, [&](Proc &proc) {
            std::vector<std::uint8_t> buf(bytes, 1);
            std::uint64_t before = 0;
            for (int i = 0; i < kIters; ++i) {
                if (i == kWarmup && proc.rank() == 0)
                    before = allocCount();
                if (proc.rank() == 0) {
                    proc.send(1, 0, buf.data(), buf.size());
                    proc.recv(1, 1, buf.data(), buf.size());
                } else {
                    proc.recv(0, 0, buf.data(), buf.size());
                    proc.send(0, 1, buf.data(), buf.size());
                }
            }
            // By rank 0's last recv both ranks have sent everything:
            // the delta covers the whole steady window of both fibers.
            if (proc.rank() == 0) {
                steady_allocs += allocCount() - before;
                steady_msgs += 2 * (kIters - kWarmup);
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * 2 * kIters);
    state.counters["allocsPerEvent"] = benchmark::Counter(
        steady_msgs ? static_cast<double>(steady_allocs) /
                          static_cast<double>(steady_msgs)
                    : 0.0);
}
BENCHMARK(BM_PingPong)->Arg(8)->Arg(1 << 10)->Arg(64 << 10);

void
BM_Allreduce(benchmark::State &state)
{
    const int procs = static_cast<int>(state.range(0));
    constexpr int kIters = 20, kWarmup = 4;
    std::uint64_t steady_allocs = 0, steady_colls = 0;
    for (auto _ : state) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = procs;
        runtime.run(opts, [&](Proc &proc) {
            double acc = proc.rank();
            std::uint64_t before = 0;
            for (int i = 0; i < kIters; ++i) {
                // Rank 0 enters the allreduce first and leaves it last
                // in the cooperative schedule, so its window brackets
                // every rank's steady-state collectives.
                if (i == kWarmup && proc.rank() == 0)
                    before = allocCount();
                acc = proc.allreduce(acc) / procs;
            }
            benchmark::DoNotOptimize(acc);
            if (proc.rank() == 0) {
                steady_allocs += allocCount() - before;
                steady_colls += kIters - kWarmup;
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * kIters * procs);
    state.counters["allocsPerEvent"] = benchmark::Counter(
        steady_colls ? static_cast<double>(steady_allocs) /
                           static_cast<double>(steady_colls)
                     : 0.0);
}
BENCHMARK(BM_Allreduce)->Arg(8)->Arg(64)->Arg(512);

void
BM_Allgather(benchmark::State &state)
{
    // miniVite's digest exchange: 256 B per rank, read through the
    // shared view every rank gets.
    const int procs = static_cast<int>(state.range(0));
    constexpr int kIters = 20, kWarmup = 4;
    std::uint64_t steady_allocs = 0, steady_colls = 0;
    for (auto _ : state) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = procs;
        runtime.run(opts, [&](Proc &proc) {
            std::int32_t digest[64] = {};
            std::uint64_t before = 0;
            for (int i = 0; i < kIters; ++i) {
                if (i == kWarmup && proc.rank() == 0)
                    before = allocCount();
                const auto *all = static_cast<const std::int32_t *>(
                    proc.allgather(digest, sizeof(digest)));
                digest[0] = all[64 * (i % procs)] + 1;
            }
            benchmark::DoNotOptimize(digest[0]);
            if (proc.rank() == 0) {
                steady_allocs += allocCount() - before;
                steady_colls += kIters - kWarmup;
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * kIters * procs);
    state.counters["allocsPerEvent"] = benchmark::Counter(
        steady_colls ? static_cast<double>(steady_allocs) /
                           static_cast<double>(steady_colls)
                     : 0.0);
}
BENCHMARK(BM_Allgather)->Arg(64)->Arg(512);

void
BM_JobSpinUp(benchmark::State &state)
{
    const int procs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = procs;
        runtime.run(opts, [&](Proc &proc) { proc.barrier(); });
    }
    state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_JobSpinUp)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();
