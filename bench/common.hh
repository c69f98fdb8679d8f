/**
 * @file
 * Shared driver for the figure-reproduction benchmarks: option parsing,
 * declarative grid specification, thread-parallel grid execution, and
 * paper-style table rendering.
 *
 * Every bench binary prints, for each proxy application, the same
 * series the corresponding paper figure plots: one row per
 * (configuration, design) with the stacked-bar components. Cells run on
 * a GridRunner worker pool; output is bit-identical for any --jobs
 * value because cells are deterministic and rendered in enumeration
 * order after the parallel phase completes.
 */

#ifndef MATCH_BENCH_COMMON_HH
#define MATCH_BENCH_COMMON_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "src/core/grid.hh"

namespace match::bench
{

/**
 * Reject an enum-ish flag value with an error that lists every valid
 * choice — "unknown X" without the menu makes the user go read the
 * source. Shared by --storage, --pin and --failure-model.
 */
[[noreturn]] void badChoice(const char *flag, const std::string &got,
                            std::initializer_list<const char *> choices);

/** Command-line options shared by the figure benches. */
struct BenchOptions
{
    /** --runs N: runs averaged per configuration (paper: 5). */
    int runs = 5;
    /** --quick: 2 runs, endpoints-only scaling sweep (64 and 512). */
    bool quick = false;
    /** --csv DIR: also write one CSV per app into DIR. */
    std::string csvDir;
    /** --apps A,B,...: restrict to a subset of the six apps. */
    std::vector<std::string> apps;
    /** --seed S: base RNG seed for the failure sites and noise. */
    std::uint64_t seed = 42;
    /** --sandbox DIR: checkpoint sandbox root; each cell derives a
     *  unique subdirectory from its execution id. */
    std::string sandboxDir = "/dev/shm/match-fti-bench";
    /** --jobs N: grid worker threads (default 0 = hardware
     *  concurrency). Results and printed output are byte-identical
     *  for every value of N; only wall time changes. */
    int jobs = 0;
    /** --storage mem|disk: checkpoint sandbox backend. Results are
     *  identical for either; disk leaves an inspectable sandbox. */
    storage::Kind storage = storage::Kind::Mem;
    /** --pin none|auto|cores: grid worker placement. `auto` pins
     *  workers round-robin across NUMA nodes/cores when every worker
     *  can own one (each worker's blob pool then stays node-local);
     *  results are identical for every mode. */
    core::PinMode pin = core::PinMode::None;

    /// @name Crash-safe execution (wall-clock-only; see bench/RESUME.md).
    /// @{
    /** --cell-timeout SECS|auto: wall-clock watchdog per cell attempt.
     *  0 disables; `auto` derives the deadline from the grid's own
     *  completed-cell p99. Never part of configKey. */
    double cellTimeoutSeconds = 0.0;
    bool autoCellTimeout = false;
    /** --cell-retries N: attempts after the first before a throwing or
     *  timed-out cell is quarantined. */
    int cellRetries = 2;
    /** --resume/--no-resume: journal per-cell status next to the result
     *  cache and resume a killed grid (default on). --no-resume
     *  discards the journal history (the cache itself is untouched). */
    bool resume = true;
    /** --strict: exit nonzero when any cell was quarantined (default:
     *  finish the healthy cells and report). */
    bool strict = false;
    /// @}
    /** --perf: measure grid wall-clock under both backends and on an
     *  L4 drain row (cache bypassed) and write
     *  BENCH_<name>.json into perfDir. */
    bool perf = false;
    /** --perf-dir DIR: where BENCH_<name>.json lands (default "."). */
    std::string perfDir = ".";

    /// @name Failure-scenario engine (virtual-result axes).
    /// @{
    /** --failure-model single|independent|correlated|trace. */
    ft::FailureModelKind failureModel = ft::FailureModelKind::Single;
    /** --failure-trace FILE: replay a failure trace (implies
     *  --failure-model trace). */
    std::vector<ft::FailureEvent> traceEvents;
    /** --mean-failures M: expected failures per run for the
     *  independent/correlated models. */
    double meanFailures = 1.0;
    /** --cascade-prob P: correlated model's escalation probability. */
    double cascadeProb = 0.35;
    /** --corrupt-fraction F: fraction of generated failures that are
     *  silent corruptions instead of crashes. */
    double corruptFraction = 0.0;
    /** --sdc-checks: CRC32C-verify checkpoints at recovery. */
    bool sdcChecks = false;
    /** --scrub-stride N: verify the newest checkpoint every N
     *  iterations (0 = never; requires --sdc-checks). */
    int scrubStride = 0;
    /** --drain-capacity BYTES: burst-buffer capacity in staged bytes,
     *  0 = unbounded. Virtual-result knob (priced stalls). */
    std::size_t drainCapacityBytes = 0;
    /** --transform none|delta|compress|delta+compress: checkpoint
     *  data-reduction chain. Virtual-result axis (part of the cell
     *  cache key); none is bit-identical to the pre-transform code. */
    storage::TransformKind transform = storage::TransformKind::None;
    /// @}

    /// @name Storage-fault engine (virtual-result axes; bench/FAULTS.md).
    /// @{
    /** --storage-fault-windows N: per-run fault windows (0 = off). */
    int storageFaultWindows = 0;
    /** --storage-fault-pfs-bias P: probability a window hits the PFS. */
    double storageFaultPfsBias = 0.75;
    /** --storage-fault-mean-epochs N: mean window length in epochs. */
    int storageFaultMeanEpochs = 2;
    /** --storage-fault-strikes N: failing attempts per (window, path)
     *  before the tier heals; > --io-retry-limit is persistent. */
    int storageFaultStrikes = 2;
    /** --storage-fault-trace FILE: replay a fault trace verbatim
     *  (implies one engaged window; see storage::readFaultTraceFile). */
    std::vector<storage::FaultWindow> storageFaultTrace;
    /** --io-retry-limit N: checkpoint clients' bounded retry budget. */
    int ioRetryLimit = 3;
    /// @}

    static BenchOptions parse(int argc, char **argv);

    /** A GridSpec carrying these options' shared fields (apps, runs,
     *  seed, sandbox, cache). Benches set the axes on top of it. */
    core::GridSpec baseSpec() const;

    /** The grid fault-tolerance policy these options describe. */
    core::GridPolicy gridPolicy() const;

    /** A runner carrying jobs, pin mode and the grid policy — the one
     *  constructor every GridRunner bench should use, so the
     *  watchdog/retry/resume flags reach every grid uniformly. */
    core::GridRunner makeRunner() const;
};

/**
 * Print the structured quarantined-cell report (nothing on a healthy
 * grid) and return the number of quarantined cells. Benches accumulate
 * the count across their grids and feed it to gridExitCode.
 */
int reportCellFailures(const core::GridTiming &timing);

/** Process exit code honoring --strict: nonzero iff any cell was
 *  quarantined and strict mode is on. */
int gridExitCode(const BenchOptions &options, int quarantined);

/** Which axis the figure sweeps. */
enum class Sweep
{
    ScalingSizes, ///< Figures 5-7: P in {64,128,256,512}, small input
    InputSizes,   ///< Figures 8-10: input in {S,M,L}, 64 processes
};

/** What the figure reports. */
enum class Report
{
    Breakdown, ///< stacked application/ckpt-write/recovery components
    Recovery,  ///< recovery time only (Figures 7 and 10)
};

/** Declarative description of one figure bench. */
struct FigureDef
{
    const char *figure; ///< label printed in the header ("Figure 5")
    const char *slug;   ///< perf-record name ("fig5" -> BENCH_fig5.json)
    Sweep sweep;        ///< scaling-size or input-size sweep
    bool inject;        ///< whether a process failure is injected
    Report report;      ///< breakdown or recovery-only rows
};

/**
 * Run one figure's whole grid on a worker pool and print per-app
 * tables (and CSVs when requested). Returns the number of quarantined
 * cells (0 on a healthy grid).
 */
int runFigure(const BenchOptions &options, const FigureDef &def);

/** Parse options and run the figure: the figure benches' whole main. */
int figureMain(const FigureDef &def, int argc, char **argv);

} // namespace match::bench

#endif // MATCH_BENCH_COMMON_HH
