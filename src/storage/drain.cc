#include "src/storage/drain.hh"

#include <atomic>

#include "src/util/phase.hh"

namespace match::storage
{

namespace
{
std::atomic<std::uint64_t> g_shippedBytes{0};
}

std::uint64_t
drainGlobalShippedBytes()
{
    return g_shippedBytes.load(std::memory_order_relaxed);
}

void
DrainChannel::flush(const Job &job, int procs, double factor,
                    std::uint64_t bytes, std::uint64_t inBytes)
{
    std::uint64_t shipped;
    {
        util::PhaseScope phase(util::Phase::Drain);
        shipped = job();
    }
    g_shippedBytes.fetch_add(shipped, std::memory_order_relaxed);
    pending_.push_back(Pending{0.0, procs, factor, shipped, bytes, inBytes});
}

} // namespace match::storage
