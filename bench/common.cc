#include "bench/common.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "src/ft/failure_model.hh"
#include "src/storage/drain.hh"
#include "src/util/logging.hh"
#include "src/util/table.hh"

namespace match::bench
{

using apps::InputSize;
using core::ExperimentConfig;
using core::GridRunner;
using core::GridSpec;
using ft::Design;

void
badChoice(const char *flag, const std::string &got,
          std::initializer_list<const char *> choices)
{
    std::string menu;
    for (const char *choice : choices) {
        if (!menu.empty())
            menu += ", ";
        menu += choice;
    }
    util::fatal("%s: unknown value '%s' (valid choices: %s)", flag,
                got.c_str(), menu.c_str());
}

namespace
{

/**
 * Strict numeric flag parsing. The silent-atoi alternative turns
 * `--jobs abc` into `--jobs 0` — a different, valid-looking
 * configuration — so every numeric flag rejects non-numeric,
 * trailing-garbage and out-of-range values with a diagnostic that
 * echoes the offending text, like badChoice does for enum flags.
 */
long
parseIntFlag(const char *flag, const char *value, long min)
{
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE)
        util::fatal("%s: invalid value '%s' (expected an integer)",
                    flag, value);
    if (parsed < min)
        util::fatal("%s: invalid value '%s' (expected an integer "
                    ">= %ld)",
                    flag, value, min);
    return parsed;
}

std::uint64_t
parseU64Flag(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    if (value[0] == '-')
        util::fatal("%s: invalid value '%s' (expected a non-negative "
                    "integer)",
                    flag, value);
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE)
        util::fatal("%s: invalid value '%s' (expected a non-negative "
                    "integer)",
                    flag, value);
    return parsed;
}

double
parseDoubleFlag(const char *flag, const char *value, double min)
{
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || parsed < min)
        util::fatal("%s: invalid value '%s' (expected a number "
                    ">= %g)",
                    flag, value, min);
    return parsed;
}

} // anonymous namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            options.runs = 2;
        } else if (arg == "--runs" && i + 1 < argc) {
            options.runs =
                static_cast<int>(parseIntFlag("--runs", argv[++i], 1));
        } else if (arg == "--seed" && i + 1 < argc) {
            options.seed = parseU64Flag("--seed", argv[++i]);
        } else if (arg == "--csv" && i + 1 < argc) {
            options.csvDir = argv[++i];
        } else if (arg == "--sandbox" && i + 1 < argc) {
            options.sandboxDir = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            options.jobs =
                static_cast<int>(parseIntFlag("--jobs", argv[++i], 0));
        } else if (arg == "--storage" && i + 1 < argc) {
            const std::string kind = argv[++i];
            if (kind == "mem")
                options.storage = storage::Kind::Mem;
            else if (kind == "disk")
                options.storage = storage::Kind::Disk;
            else
                badChoice("--storage", kind, {"mem", "disk"});
        } else if (arg == "--drain-capacity" && i + 1 < argc) {
            options.drainCapacityBytes = static_cast<std::size_t>(
                parseU64Flag("--drain-capacity", argv[++i]));
        } else if (arg == "--cell-timeout" && i + 1 < argc) {
            const std::string value = argv[++i];
            if (value == "auto") {
                options.autoCellTimeout = true;
                options.cellTimeoutSeconds = 0.0;
            } else {
                char *end = nullptr;
                const double seconds = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || *end != '\0' || seconds < 0.0)
                    badChoice("--cell-timeout", value,
                              {"auto", "SECONDS (0 disables)"});
                options.cellTimeoutSeconds = seconds;
                options.autoCellTimeout = false;
            }
        } else if (arg == "--cell-retries" && i + 1 < argc) {
            options.cellRetries = static_cast<int>(
                parseIntFlag("--cell-retries", argv[++i], 0));
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--no-resume") {
            options.resume = false;
        } else if (arg == "--strict") {
            options.strict = true;
        } else if (arg == "--pin" && i + 1 < argc) {
            const std::string mode = argv[++i];
            if (mode == "none")
                options.pin = core::PinMode::None;
            else if (mode == "auto")
                options.pin = core::PinMode::Auto;
            else if (mode == "cores")
                options.pin = core::PinMode::Cores;
            else
                badChoice("--pin", mode, {"none", "auto", "cores"});
        } else if (arg == "--failure-model" && i + 1 < argc) {
            const std::string name = argv[++i];
            if (!ft::parseFailureModel(name, options.failureModel)) {
                badChoice("--failure-model", name,
                          {"single", "independent", "correlated",
                           "trace"});
            }
        } else if (arg == "--failure-trace" && i + 1 < argc) {
            options.traceEvents = ft::readTraceFile(argv[++i]);
            options.failureModel = ft::FailureModelKind::Trace;
        } else if (arg == "--mean-failures" && i + 1 < argc) {
            options.meanFailures =
                parseDoubleFlag("--mean-failures", argv[++i], 0.0);
        } else if (arg == "--cascade-prob" && i + 1 < argc) {
            options.cascadeProb =
                parseDoubleFlag("--cascade-prob", argv[++i], 0.0);
        } else if (arg == "--corrupt-fraction" && i + 1 < argc) {
            options.corruptFraction =
                parseDoubleFlag("--corrupt-fraction", argv[++i], 0.0);
        } else if (arg == "--sdc-checks") {
            options.sdcChecks = true;
        } else if (arg == "--scrub-stride" && i + 1 < argc) {
            options.scrubStride = static_cast<int>(
                parseIntFlag("--scrub-stride", argv[++i], 0));
        } else if (arg == "--storage-fault-windows" && i + 1 < argc) {
            options.storageFaultWindows = static_cast<int>(
                parseIntFlag("--storage-fault-windows", argv[++i], 0));
        } else if (arg == "--storage-fault-pfs-bias" && i + 1 < argc) {
            options.storageFaultPfsBias = parseDoubleFlag(
                "--storage-fault-pfs-bias", argv[++i], 0.0);
        } else if (arg == "--storage-fault-mean-epochs" && i + 1 < argc) {
            options.storageFaultMeanEpochs = static_cast<int>(parseIntFlag(
                "--storage-fault-mean-epochs", argv[++i], 1));
        } else if (arg == "--storage-fault-strikes" && i + 1 < argc) {
            options.storageFaultStrikes = static_cast<int>(
                parseIntFlag("--storage-fault-strikes", argv[++i], 1));
        } else if (arg == "--storage-fault-trace" && i + 1 < argc) {
            options.storageFaultTrace =
                storage::readFaultTraceFile(argv[++i]);
            // A replayed trace engages the engine even without an
            // explicit window count (the draws are skipped anyway).
            if (options.storageFaultWindows == 0)
                options.storageFaultWindows = 1;
        } else if (arg == "--io-retry-limit" && i + 1 < argc) {
            options.ioRetryLimit = static_cast<int>(
                parseIntFlag("--io-retry-limit", argv[++i], 0));
        } else if (arg == "--transform" && i + 1 < argc) {
            const std::string name = argv[++i];
            if (!storage::parseTransformKind(name, options.transform)) {
                badChoice("--transform", name,
                          {"none", "delta", "compress",
                           "delta+compress"});
            }
        } else if (arg == "--perf") {
            options.perf = true;
        } else if (arg == "--perf-dir" && i + 1 < argc) {
            options.perfDir = argv[++i];
        } else if (arg == "--apps" && i + 1 < argc) {
            std::istringstream list(argv[++i]);
            std::string name;
            while (std::getline(list, name, ','))
                options.apps.push_back(name);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options: [--quick] [--runs N] [--seed S] [--csv DIR] "
                "[--apps A,B] [--sandbox DIR] [--jobs N] "
                "[--storage mem|disk] [--drain-capacity BYTES] "
                "[--pin none|auto|cores] "
                "[--cell-timeout SECS|auto] [--cell-retries N] "
                "[--resume|--no-resume] [--strict] "
                "[--failure-model single|independent|correlated|trace] "
                "[--failure-trace FILE] [--mean-failures M] "
                "[--cascade-prob P] [--corrupt-fraction F] "
                "[--sdc-checks] [--scrub-stride N] "
                "[--transform none|delta|compress|delta+compress] "
                "[--storage-fault-windows N] "
                "[--storage-fault-pfs-bias P] "
                "[--storage-fault-mean-epochs N] "
                "[--storage-fault-strikes N] "
                "[--storage-fault-trace FILE] [--io-retry-limit N] "
                "[--perf] [--perf-dir DIR]\n"
                "  --jobs N  grid worker threads (default: hardware "
                "concurrency; output is identical for any N)\n"
                "  --storage mem|disk  checkpoint sandbox backend "
                "(default mem: zero-syscall hot path)\n"
                "  --pin none|auto|cores  pin grid workers across "
                "NUMA nodes/cores (auto: only when every worker can "
                "own a core; workers' blob pools stay node-local; "
                "output identical for every mode)\n"
                "  --failure-model M  failure process for injected "
                "runs (default single: the paper's one uniform crash; "
                "independent/correlated draw multi-failure schedules; "
                "trace replays --failure-trace)\n"
                "  --failure-trace FILE  replay a failure trace "
                "(see bench/FAILURE_TRACES.md; implies "
                "--failure-model trace)\n"
                "  --mean-failures M  expected failures per run "
                "(independent/correlated models)\n"
                "  --cascade-prob P  node/rack cascade probability "
                "(correlated model)\n"
                "  --corrupt-fraction F  fraction of failures demoted "
                "to silent checkpoint corruption\n"
                "  --sdc-checks  CRC32C-verify checkpoints at "
                "recovery, fall back to older checkpoints on rot\n"
                "  --scrub-stride N  verify the newest checkpoint "
                "every N iterations (needs --sdc-checks)\n"
                "  --drain-capacity BYTES  burst-buffer capacity; "
                "flushes stall (priced) when staged bytes exceed it\n"
                "  --transform T  checkpoint data reduction (default "
                "none; delta = differential checkpoints vs the "
                "previous epoch, compress = RLE on L4 drain traffic; "
                "virtual-result axis, part of the cache key)\n"
                "  --storage-fault-windows N  deterministic storage-"
                "tier fault windows per run (default 0 = off; see "
                "bench/FAULTS.md; virtual-result axis, part of the "
                "cache key)\n"
                "  --storage-fault-pfs-bias P  probability a drawn "
                "window targets the PFS tier (default 0.75)\n"
                "  --storage-fault-mean-epochs N  mean fault-window "
                "length in checkpoint epochs (default 2)\n"
                "  --storage-fault-strikes N  failing attempts per "
                "(window, path) before the tier heals; more than "
                "--io-retry-limit models a persistent outage "
                "(default 2)\n"
                "  --storage-fault-trace FILE  replay a storage-fault "
                "trace verbatim (see bench/FAULTS.md; engages the "
                "engine)\n"
                "  --io-retry-limit N  checkpoint clients' bounded "
                "retry budget on storage errors (default 3; backoff "
                "priced in virtual time)\n"
                "  --cell-timeout SECS|auto  wall-clock watchdog per "
                "cell attempt (auto: 5x the grid's completed-cell p99; "
                "0 disables; wall-clock only, never in the cache key)\n"
                "  --cell-retries N  attempts after the first before a "
                "throwing/hung cell is quarantined (default 2)\n"
                "  --resume | --no-resume  journal cell status next to "
                "the result cache and resume a killed grid (default "
                "on; --no-resume discards the journal history)\n"
                "  --strict  exit nonzero when any cell was "
                "quarantined\n"
                "  --perf    time the grid under both backends and "
                "an L4 drain row, write BENCH_<name>.json\n"
                "  valid apps: %s\n",
                apps::registryNames().c_str());
            std::exit(0);
        } else {
            util::fatal("unknown option: %s", arg.c_str());
        }
    }
    if (options.apps.empty()) {
        for (const auto &spec : apps::registry())
            options.apps.push_back(spec.name);
    } else {
        for (const std::string &name : options.apps)
            apps::findApp(name); // fail fast with the valid-name list
    }
    return options;
}

core::GridSpec
BenchOptions::baseSpec() const
{
    GridSpec spec;
    spec.apps = apps;
    spec.runs = runs;
    spec.seed = seed;
    spec.sandboxDir = sandboxDir;
    spec.cacheDir = sandboxDir + "/cell-cache";
    spec.storage = storage;
    spec.failureModel = failureModel;
    spec.meanFailures = meanFailures;
    spec.cascadeProb = cascadeProb;
    spec.corruptFraction = corruptFraction;
    spec.traceEvents = traceEvents;
    spec.sdcChecks = sdcChecks;
    spec.scrubStride = scrubStride;
    spec.drainCapacityBytes = drainCapacityBytes;
    spec.transforms = {transform};
    spec.storageFaultWindows = storageFaultWindows;
    spec.storageFaultPfsBias = storageFaultPfsBias;
    spec.storageFaultMeanEpochs = storageFaultMeanEpochs;
    spec.storageFaultStrikes = storageFaultStrikes;
    spec.storageFaultTrace = storageFaultTrace;
    spec.ioRetryLimit = ioRetryLimit;
    return spec;
}

core::GridPolicy
BenchOptions::gridPolicy() const
{
    core::GridPolicy policy;
    policy.cellTimeoutSeconds = cellTimeoutSeconds;
    policy.autoTimeout = autoCellTimeout;
    policy.cellRetries = cellRetries;
    policy.resume = resume;
    return policy;
}

core::GridRunner
BenchOptions::makeRunner() const
{
    return core::GridRunner(jobs, pin, gridPolicy());
}

int
reportCellFailures(const core::GridTiming &timing)
{
    if (timing.failures.empty())
        return 0;
    std::printf("\n!!! %zu cell(s) quarantined (grid degraded; healthy "
                "cells completed):\n",
                timing.failures.size());
    for (const core::CellFailure &failure : timing.failures) {
        std::printf("  - %s [key %s]: %d attempt(s), %s: %s\n",
                    failure.summary.c_str(), failure.key.c_str(),
                    failure.attempts,
                    failure.timedOut ? "watchdog timeout" : "exception",
                    failure.lastError.c_str());
    }
    return static_cast<int>(timing.failures.size());
}

int
gridExitCode(const BenchOptions &options, int quarantined)
{
    if (quarantined > 0 && options.strict) {
        util::warn("--strict: %d quarantined cell(s) -> exit 1",
                   quarantined);
        return 1;
    }
    return 0;
}

namespace
{

std::string
sanitize(std::string name)
{
    std::replace(name.begin(), name.end(), ' ', '_');
    return name;
}

/** Sorted-copy percentile (nearest rank); q in [0, 1]. */
double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

/** Minimal JSON string escape for error texts in failure records. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** One backend's measurement in a perf record. */
struct PerfSample
{
    storage::Kind kind;
    core::GridTiming timing;
};

/** One transform kind's measurement (the same L4 drained grid) in a
 *  perf record: wall timing plus the shipped-byte and encoder
 *  counters that prove (or disprove) the byte reduction. */
struct TransformSample
{
    storage::TransformKind kind;
    core::GridTiming timing;
    /** PFS bytes actually shipped by flushes during the run. */
    std::uint64_t shippedBytes = 0;
    storage::TransformStats delta;
    storage::TransformStats compress;
};

void
writeJsonTiming(std::FILE *out, const char *key, const char *label,
                const core::GridTiming &t, bool last)
{
    const double cells = static_cast<double>(t.cellSeconds.size());
    // Phase attribution: ckptSerialize/rsEncode/storage/drain are
    // exclusive phases, so simCore (everything else the grid spent:
    // the event loop, app kernels, collectives) is derived by
    // subtraction. With more than one worker the phase sums span
    // threads and simCore is a lower bound.
    const double serialize =
        t.phases.secondsFor(util::Phase::CkptSerialize);
    const double rs = t.phases.secondsFor(util::Phase::RsEncode);
    const double io = t.phases.secondsFor(util::Phase::Storage);
    const double drain = t.phases.secondsFor(util::Phase::Drain);
    const double sim_core =
        std::max(0.0, t.totalSeconds - serialize - rs - io - drain);
    std::fprintf(
        out,
        "    {\"%s\": \"%s\", \"totalSeconds\": %.6f, "
        "\"cellP50Seconds\": %.6f, \"cellP99Seconds\": %.6f, "
        "\"cellsPerSecond\": %.3f, "
        "\"phases\": {\"simCoreSeconds\": %.6f, "
        "\"ckptSerializeSeconds\": %.6f, \"rsEncodeSeconds\": %.6f, "
        "\"storageSeconds\": %.6f, \"drainSeconds\": %.6f}}%s\n",
        key, label, t.totalSeconds, percentile(t.cellSeconds, 0.50),
        percentile(t.cellSeconds, 0.99),
        t.totalSeconds > 0.0 ? cells / t.totalSeconds : 0.0, sim_core,
        serialize, rs, io, drain, last ? "" : ",");
}

/**
 * Emit BENCH_<slug>.json: the per-bench perf record CI uploads as an
 * artifact, accumulating the repo's wall-clock trajectory PR by PR.
 */
void
writePerfRecord(const BenchOptions &options, const FigureDef &def,
                int jobs, std::size_t cells,
                const std::vector<PerfSample> &samples,
                const core::GridTiming &drain_timing,
                const std::vector<TransformSample> &transform_samples,
                const storage::BlobStats &mem_blob,
                const std::vector<core::CellFailure> &failures)
{
    std::filesystem::create_directories(options.perfDir);
    const std::string path =
        options.perfDir + "/BENCH_" + def.slug + ".json";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        util::warn("cannot write %s", path.c_str());
        return;
    }
    // GridRunner dedups identical cells: the per-cell stats cover the
    // computed (unique) cells, reported separately from the enumerated
    // grid size so the record stays internally consistent.
    const std::size_t computed =
        samples.empty() ? 0 : samples.front().timing.cellSeconds.size();
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"figure\": \"%s\",\n"
                 "  \"quick\": %s,\n"
                 "  \"runsPerCell\": %d,\n"
                 "  \"jobs\": %d,\n"
                 "  \"hardwareConcurrency\": %d,\n"
                 "  \"pin\": \"%s\",\n"
                 "  \"cells\": %zu,\n"
                 "  \"computedCells\": %zu,\n"
                 "  \"backends\": [\n",
                 def.slug, def.figure, options.quick ? "true" : "false",
                 options.runs, jobs, core::GridRunner::hardwareJobs(),
                 core::pinModeName(options.pin), cells, computed);
    for (std::size_t i = 0; i < samples.size(); ++i)
        writeJsonTiming(out, "storage",
                        storage::kindName(samples[i].kind),
                        samples[i].timing, i + 1 == samples.size());
    double disk_total = 0.0, mem_total = 0.0;
    for (const PerfSample &sample : samples) {
        (sample.kind == storage::Kind::Disk ? disk_total : mem_total) =
            sample.timing.totalSeconds;
    }
    std::fprintf(out, "  ],\n  \"memSpeedupOverDisk\": %.3f,\n",
                 mem_total > 0.0 ? disk_total / mem_total : 0.0);
    // Blob data-plane counters over the mem-backend run: the zero-copy
    // claim as numbers. bytesCopied counts payload memcpy'd between
    // staging buffers and the object store; bytesStored counts payload
    // admitted (copied or ownership-transferred), so copied/stored is
    // the fraction of checkpoint traffic that still moves bytes.
    std::fprintf(
        out,
        "  \"blob\": {\"allocs\": %llu, \"poolHits\": %llu, "
        "\"bytesCopied\": %llu, \"bytesStored\": %llu, "
        "\"copiedPerStored\": %.4f},\n",
        static_cast<unsigned long long>(mem_blob.allocs),
        static_cast<unsigned long long>(mem_blob.poolHits),
        static_cast<unsigned long long>(mem_blob.bytesCopied),
        static_cast<unsigned long long>(mem_blob.bytesStored),
        mem_blob.bytesStored > 0
            ? static_cast<double>(mem_blob.bytesCopied) /
                  static_cast<double>(mem_blob.bytesStored)
            : 0.0);
    // The drain row: the same grid forced to L4 checkpoints at a dense
    // stride, so every cell carries PFS flush traffic.
    std::fprintf(out, "  \"drainCkptLevel\": 4,\n"
                      "  \"drainCkptStride\": 2,\n"
                      "  \"drain\": [\n");
    writeJsonTiming(out, "mode", "sync", drain_timing, true);
    std::fprintf(out, "  ],\n");
    // Transform axis: the same L4 drained grid swept over the data-
    // reduction chain. shippedBytes is the flushes' actual PFS
    // traffic; the per-stage encoder counters (bytesOut < bytesIn)
    // prove where the reduction came from. Orderable rows: the none
    // row is the baseline the other rows' shippedBytes compare to.
    std::uint64_t none_shipped = 0;
    std::uint64_t delta_shipped = 0;
    std::fprintf(out, "  \"transforms\": [\n");
    for (std::size_t i = 0; i < transform_samples.size(); ++i) {
        const TransformSample &sample = transform_samples[i];
        if (sample.kind == storage::TransformKind::None)
            none_shipped = sample.shippedBytes;
        if (sample.kind == storage::TransformKind::Delta)
            delta_shipped = sample.shippedBytes;
        std::fprintf(
            out,
            "    {\"transform\": \"%s\", \"totalSeconds\": %.6f, "
            "\"shippedBytes\": %llu, "
            "\"delta\": {\"bytesIn\": %llu, \"bytesOut\": %llu, "
            "\"applies\": %llu, \"reverses\": %llu}, "
            "\"compress\": {\"bytesIn\": %llu, \"bytesOut\": %llu, "
            "\"applies\": %llu, \"reverses\": %llu}}%s\n",
            storage::transformKindName(sample.kind),
            sample.timing.totalSeconds,
            static_cast<unsigned long long>(sample.shippedBytes),
            static_cast<unsigned long long>(sample.delta.bytesIn),
            static_cast<unsigned long long>(sample.delta.bytesOut),
            static_cast<unsigned long long>(sample.delta.applies),
            static_cast<unsigned long long>(sample.delta.reverses),
            static_cast<unsigned long long>(sample.compress.bytesIn),
            static_cast<unsigned long long>(sample.compress.bytesOut),
            static_cast<unsigned long long>(sample.compress.applies),
            static_cast<unsigned long long>(sample.compress.reverses),
            i + 1 == transform_samples.size() ? "" : ",");
    }
    std::fprintf(out,
                 "  ],\n  \"deltaShippedBytesReduction\": %.4f,\n",
                 none_shipped > 0
                     ? 1.0 - static_cast<double>(delta_shipped) /
                                 static_cast<double>(none_shipped)
                     : 0.0);
    // Structured degraded-grid record: quarantined cells (config,
    // attempts, last error) instead of an aborted sweep. perf_guard
    // downgrades its perf failures to warnings when this is nonzero —
    // a degraded grid's throughput numbers are not a regression signal.
    std::fprintf(out, "  \"quarantinedCells\": %zu,\n  \"failures\": [\n",
                 failures.size());
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const core::CellFailure &f = failures[i];
        std::fprintf(out,
                     "    {\"cell\": \"%s\", \"key\": \"%s\", "
                     "\"attempts\": %d, \"timedOut\": %s, "
                     "\"lastError\": \"%s\"}%s\n",
                     jsonEscape(f.summary).c_str(),
                     jsonEscape(f.key).c_str(), f.attempts,
                     f.timedOut ? "true" : "false",
                     jsonEscape(f.lastError).c_str(),
                     i + 1 == failures.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("perf: wrote %s (mem %.2fs vs disk %.2fs, %.2fx; "
                "L4 drain %.2fs; delta ships %.1f%% fewer PFS bytes)\n",
                path.c_str(), mem_total, disk_total,
                mem_total > 0.0 ? disk_total / mem_total : 0.0,
                drain_timing.totalSeconds,
                100.0 * (none_shipped > 0
                             ? 1.0 - static_cast<double>(delta_shipped) /
                                         static_cast<double>(none_shipped)
                             : 0.0));
}

} // anonymous namespace

int
runFigure(const BenchOptions &options, const FigureDef &def)
{
    std::printf("=== %s: %s, %s ===\n", def.figure,
                def.sweep == Sweep::ScalingSizes
                    ? "scaling sizes (small input)"
                    : "input sizes (64 processes)",
                def.inject ? "one injected process failure"
                           : "no process failures");
    std::printf("(methodology: %d runs averaged per configuration)\n\n",
                options.runs);

    GridSpec spec = options.baseSpec();
    spec.injectFailure = def.inject;
    if (def.sweep == Sweep::ScalingSizes) {
        spec.inputs = {InputSize::Small};
        spec.endpointsOnly = options.quick;
    } else {
        spec.scales = {64};
        spec.inputs = {InputSize::Small, InputSize::Medium,
                       InputSize::Large};
    }

    // Parallel phase: all apps' cells at once, so the pool stays busy
    // across app boundaries. Rendering below follows enumeration order.
    const std::vector<ExperimentConfig> cells = spec.enumerate();
    const GridRunner runner = options.makeRunner();
    std::vector<core::ExperimentResult> results;
    // Timing of whichever grid produced the rendered results — its
    // failures are the ones the tables below render as zero rows.
    core::GridTiming timing;
    if (!options.perf) {
        results = runner.run(cells, &timing);
    } else {
        // Perf mode measures real simulation + storage work under both
        // backends: the result cache is bypassed (a replayed cell
        // measures nothing) and the disk baseline runs first so its
        // sandbox traffic cannot warm anything for the mem run.
        GridSpec timed = spec;
        timed.cacheDir.clear();
        std::vector<PerfSample> samples;
        storage::BlobStats mem_blob;
        for (const storage::Kind kind :
             {storage::Kind::Disk, storage::Kind::Mem}) {
            timed.storage = kind;
            PerfSample sample{kind, {}};
            const storage::BlobStats before =
                storage::BlobPool::globalStats();
            auto timed_results = runner.run(timed.enumerate(),
                                            &sample.timing);
            const storage::BlobStats after =
                storage::BlobPool::globalStats();
            samples.push_back(std::move(sample));
            // Results are backend-invariant; render from the mem run,
            // whose data-plane counters also land in the perf record.
            if (kind == storage::Kind::Mem) {
                results = std::move(timed_results);
                timing = samples.back().timing;
                mem_blob.allocs = after.allocs - before.allocs;
                mem_blob.poolHits = after.poolHits - before.poolHits;
                mem_blob.bytesCopied =
                    after.bytesCopied - before.bytesCopied;
                mem_blob.bytesStored =
                    after.bytesStored - before.bytesStored;
            }
        }
        // Drain row: force L4 at a dense stride so every cell carries
        // substantial PFS flush traffic.
        GridSpec drained = timed;
        drained.storage = storage::Kind::Mem;
        drained.ckptLevels = {4};
        drained.ckptStrides = {2};
        core::GridTiming drain_timing;
        runner.run(drained.enumerate(), &drain_timing);
        // Transform axis: the drained L4 grid again, swept over the
        // data-reduction chain. Byte counters are snapshot-diffed
        // around each run.
        std::vector<TransformSample> transform_samples;
        for (const storage::TransformKind kind :
             {storage::TransformKind::None, storage::TransformKind::Delta,
              storage::TransformKind::Compress,
              storage::TransformKind::DeltaCompress}) {
            drained.transforms = {kind};
            TransformSample sample;
            sample.kind = kind;
            const std::uint64_t shipped0 =
                storage::drainGlobalShippedBytes();
            const storage::TransformStats delta0 =
                storage::transformGlobalStats(
                    storage::TransformStage::Delta);
            const storage::TransformStats compress0 =
                storage::transformGlobalStats(
                    storage::TransformStage::Compress);
            runner.run(drained.enumerate(), &sample.timing);
            sample.shippedBytes =
                storage::drainGlobalShippedBytes() - shipped0;
            const storage::TransformStats delta1 =
                storage::transformGlobalStats(
                    storage::TransformStage::Delta);
            const storage::TransformStats compress1 =
                storage::transformGlobalStats(
                    storage::TransformStage::Compress);
            sample.delta = {delta1.bytesIn - delta0.bytesIn,
                            delta1.bytesOut - delta0.bytesOut,
                            delta1.applies - delta0.applies,
                            delta1.reverses - delta0.reverses};
            sample.compress = {
                compress1.bytesIn - compress0.bytesIn,
                compress1.bytesOut - compress0.bytesOut,
                compress1.applies - compress0.applies,
                compress1.reverses - compress0.reverses};
            transform_samples.push_back(std::move(sample));
        }
        writePerfRecord(options, def, runner.jobs(), cells.size(),
                        samples, drain_timing, transform_samples,
                        mem_blob, timing.failures);
    }

    std::size_t at = 0;
    for (const std::string &app : options.apps) {
        std::vector<std::string> headers;
        if (def.sweep == Sweep::ScalingSizes)
            headers = {"#Processes", "Design"};
        else
            headers = {"Input", "Design"};
        if (def.report == Report::Breakdown) {
            headers.insert(headers.end(),
                           {"Application(s)", "WriteCkpt(s)",
                            "Recovery(s)", "Total(s)"});
        } else {
            headers.insert(headers.end(), {"Recovery(s)"});
        }
        util::Table table(headers);

        for (; at < cells.size() && cells[at].app == app; ++at) {
            const ExperimentConfig &cell = cells[at];
            const ft::Breakdown &bd = results[at].mean;

            std::vector<std::string> row;
            row.push_back(def.sweep == Sweep::ScalingSizes
                              ? std::to_string(cell.nprocs)
                              : apps::inputSizeName(cell.input));
            row.push_back(ft::designName(cell.design));
            if (def.report == Report::Breakdown) {
                row.push_back(util::Table::cell(bd.application));
                row.push_back(util::Table::cell(bd.ckptWrite));
                row.push_back(util::Table::cell(bd.recovery));
                row.push_back(util::Table::cell(bd.total()));
            } else {
                row.push_back(util::Table::cell(bd.recovery));
            }
            table.addRow(std::move(row));
        }

        std::printf("--- %s ---\n%s\n", app.c_str(),
                    table.toString().c_str());
        if (!options.csvDir.empty()) {
            std::filesystem::create_directories(options.csvDir);
            const std::string path = options.csvDir + "/" +
                                     sanitize(def.figure) + "-" + app +
                                     ".csv";
            if (!table.writeCsv(path))
                util::warn("cannot write %s", path.c_str());
        }
    }

    return reportCellFailures(timing);
}

int
figureMain(const FigureDef &def, int argc, char **argv)
{
    const BenchOptions options = BenchOptions::parse(argc, argv);
    return gridExitCode(options, runFigure(options, def));
}

} // namespace match::bench
