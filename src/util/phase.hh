/**
 * @file
 * Scoped wall-clock phase attribution for the experiment pipeline.
 *
 * The perf guard used to watch one flat number per cell (cells/sec), so
 * a regression in one component — say the RS encoder slowing 3x while
 * the storage layer sped up — could hide inside an unchanged total.
 * PhaseScope splits the wall clock into named, mutually exclusive
 * phases so BENCH_<name>.json can publish a "phases" breakdown and
 * perf_guard.py can gate each component independently.
 *
 * Attribution is *exclusive* (innermost scope wins): while a Drain
 * scope's job performs a backend write under a nested Storage scope,
 * the nested interval is charged to Storage only. Seconds therefore sum
 * without double counting, and "sim core" falls out at report time as
 * total minus the measured phases.
 *
 * Counters are process-wide relaxed atomics, not thread-locals: the
 * grid's worker threads run cells concurrently and must fold into the
 * same totals the grid run is diffed over. The per-thread scope stack
 * is thread_local, so nesting is tracked correctly per thread while
 * the accumulation stays global. Overhead per scope is two
 * steady_clock reads plus two relaxed fetch_adds — fine at
 * per-checkpoint frequency; do NOT wrap per-message work in a scope.
 *
 * Phase timing is diagnostics only: it never feeds simulated time, so
 * it cannot perturb results and is excluded from configKey().
 */

#ifndef MATCH_UTIL_PHASE_HH
#define MATCH_UTIL_PHASE_HH

#include <array>
#include <chrono>
#include <cstdint>

namespace match::util
{

/** The measured (non-sim-core) phases of a grid cell. */
enum class Phase
{
    CkptSerialize = 0, ///< staging protected regions into blob payloads
    RsEncode = 1,      ///< GF(256) RS / XOR parity encode + rebuild
    Drain = 2,         ///< PFS drain job bookkeeping (minus nested I/O)
    Storage = 3,       ///< backend read/write/view/remove operations
};

inline constexpr int phaseCount = 4;

/** Stable lowercase-camel identifier used in JSON ("ckptSerialize"…). */
const char *phaseName(Phase phase);

/** Snapshot of the process-wide accumulators; diff two snapshots to
 *  attribute an interval (e.g. one grid run). */
struct PhaseTotals
{
    std::array<double, phaseCount> seconds{};
    std::array<std::uint64_t, phaseCount> entries{};

    double
    secondsFor(Phase phase) const
    {
        return seconds[static_cast<int>(phase)];
    }

    /** Component-wise a - b, clamped at zero (for snapshot diffs). */
    static PhaseTotals diff(const PhaseTotals &after,
                            const PhaseTotals &before);
};

/** Current process-wide totals since process start. */
PhaseTotals phaseTotals();

/**
 * RAII phase marker. Entering a scope suspends the enclosing scope on
 * this thread (its elapsed time so far is charged to its phase) and
 * resumes it on exit — exclusive attribution, safe to nest.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase phase);
    ~PhaseScope();

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    Phase phase_;
    PhaseScope *parent_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace match::util

#endif // MATCH_UTIL_PHASE_HH
