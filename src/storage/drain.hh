/**
 * @file
 * PFS drain: virtual-time accounting of staged L4 flushes.
 *
 * Multi-level checkpointing libraries stage L4 checkpoints (and SCR
 * flush-to-prefix datasets) into a burst buffer and let a background
 * agent drain them to the parallel file system while the application
 * computes. The simulator models that overlap in virtual time only: a
 * client (fti::Fti, scr::Scr) runs each flush's backend I/O inline, in
 * enqueue order, through its DrainChannel, and the channel prices the
 * streaming lazily — flush j starts at max(its enqueue instant, the
 * finish of flush j-1) — when a quiesce point (recovery, finalize, an
 * SCR prefix fetch) or burst-buffer capacity pressure needs the answer.
 *
 * Determinism contract: every priced quantity (enqueue instant, bytes
 * shipped, staged bytes) is a pure function of the client's data, and
 * each flush sees every earlier flush's writes, so simulated results
 * never depend on the host.
 */

#ifndef MATCH_STORAGE_DRAIN_HH
#define MATCH_STORAGE_DRAIN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace match::storage
{

/** Process-wide sum of every flush's return value (bytes shipped),
 *  across all channels and threads. Benches snapshot-and-diff this
 *  around a measured region to prove a transform's byte reduction. */
std::uint64_t drainGlobalShippedBytes();

/**
 * Virtual-time accounting for one rank's drain traffic: the flushes
 * run but not yet priced, plus the channel's virtual completion time
 * so far. Shared by the clients (fti::Fti, scr::Scr) so the
 * determinism-critical pricing fold exists exactly once.
 *
 * The channel is per-incarnation state: a restarted library instance
 * starts a fresh channel (deterministically).
 */
class DrainChannel
{
  public:
    /**
     * One flush: performs its backend I/O and returns the bytes it
     * actually shipped, which the client prices in virtual time.
     */
    using Job = std::function<std::uint64_t()>;

    /**
     * Run one flush now, attributed to the Drain phase, and admit it
     * to the channel unpriced; stamp() records its virtual enqueue
     * instant once the client has charged the staging cost. `bytes` is
     * the flush's virtual burst-buffer footprint (0: occupies nothing,
     * for clients without a capacity bound); `inBytes` is the virtual
     * size of the staged object *before* any drain-stage transform, so
     * the price callback can charge transform CPU on the input while
     * charging the flush on the (smaller) shipped output.
     */
    void flush(const Job &job, int procs, double factor = 1.0,
               std::uint64_t bytes = 0, std::uint64_t inBytes = 0);

    /** Stamp the newest flush's virtual enqueue instant. */
    void stamp(double now) { pending_.back().enqueuedAt = now; }

    /**
     * Quiesce point: fold the pending flushes into the channel in
     * enqueue order — flush j starts at max(enqueue instant, finish of
     * flush j-1) and runs for price(shipped, inBytes, procs, factor) —
     * and return the virtual wait the rank still owes (0 when the
     * drain fully overlapped).
     */
    template <typename PriceFn>
    double
    resolve(double now, PriceFn &&price)
    {
        priceAll(price);
        return finish_ > now ? finish_ - now : 0.0;
    }

    /**
     * Virtual burst-buffer capacity pressure: the stall (in virtual
     * time, from `now`) the rank must absorb before `bytes` more can
     * be staged without the sum of in-flight occupants exceeding
     * `capacity`. Prices every pending flush first (each occupies the
     * buffer from its enqueue until its drain finishes), drops the
     * occupants already drained by `now`, then evicts the oldest
     * remaining occupants — in drain-completion order — until the new
     * flush fits; the stall runs to the last eviction's finish
     * instant. A flush larger than the whole capacity admits once the
     * buffer is empty rather than deadlocking. capacity == 0 means
     * unbounded (no stall, no pricing).
     */
    template <typename PriceFn>
    double
    reserve(double now, std::uint64_t bytes, std::uint64_t capacity,
            PriceFn &&price)
    {
        if (capacity == 0)
            return 0.0;
        priceAll(price);
        std::uint64_t used = 0;
        std::size_t firstLive = occupants_.size();
        for (std::size_t i = 0; i < occupants_.size(); ++i) {
            if (occupants_[i].finish > now) {
                firstLive = i;
                break;
            }
        }
        occupants_.erase(occupants_.begin(),
                         occupants_.begin() +
                             static_cast<std::ptrdiff_t>(firstLive));
        for (const Occupant &occupant : occupants_)
            used += occupant.bytes;
        double admitAt = now;
        while (used + bytes > capacity && !occupants_.empty()) {
            admitAt = occupants_.front().finish;
            used -= occupants_.front().bytes;
            occupants_.erase(occupants_.begin());
        }
        return admitAt > now ? admitAt - now : 0.0;
    }

  private:
    /** One flush run but not yet priced. */
    struct Pending
    {
        double enqueuedAt = 0.0; ///< virtual time of the enqueue
        int procs = 0;
        double factor = 1.0; ///< client cost multiplier at enqueue
        std::uint64_t shipped = 0; ///< the flush's return value
        std::uint64_t bytes = 0; ///< virtual burst-buffer footprint
        std::uint64_t inBytes = 0; ///< virtual bytes entering the stage
    };

    /** One priced flush still occupying the virtual burst buffer. */
    struct Occupant
    {
        double finish = 0.0; ///< virtual drain-completion instant
        std::uint64_t bytes = 0;
    };

    /** Fold every pending flush into the channel in enqueue order (the
     *  determinism-critical fold — exists exactly once; resolve() and
     *  reserve() both route through it). */
    template <typename PriceFn>
    void
    priceAll(PriceFn &&price)
    {
        for (const Pending &pending : pending_) {
            const double cost = price(pending.shipped, pending.inBytes,
                                      pending.procs, pending.factor);
            finish_ = (finish_ > pending.enqueuedAt
                           ? finish_
                           : pending.enqueuedAt) +
                      cost;
            if (pending.bytes > 0)
                occupants_.push_back(Occupant{finish_, pending.bytes});
        }
        pending_.clear();
    }

    std::vector<Pending> pending_;
    /** Flushes priced but possibly still draining, in finish order
     *  (finish_ is monotone over the fold, so appends stay sorted). */
    std::vector<Occupant> occupants_;
    double finish_ = 0.0; ///< virtual completion of flushes priced so far
};

} // namespace match::storage

#endif // MATCH_STORAGE_DRAIN_HH
