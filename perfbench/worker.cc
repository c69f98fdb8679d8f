/**
 * @file
 * Benchmark worker: runs figure-grid cells through core::runExperiment,
 * one at a time, on request.
 *
 * run.py starts a few of these and feeds them cells back to back, the
 * way GridRunner workers pull cells, so thread-local fiber-stack and
 * blob pools stay warm across cells. Every wall-clock knob is left at
 * the library default (mem storage, async drain at depth 4, no
 * pinning) and the result cache is off.
 *
 * Protocol (one line each way):
 *   start:  perfbench_worker --seed S
 *           runs one warm-up cell, then prints
 *           {"workloads":{name:[{label,key,...}]}} when ready
 *   stdin:  "<workload> <index> <trace 0|1>"   -> one JSON result line
 *           "quit" or EOF                       -> exit 0
 *
 * A result line carries the cell's wall and process CPU (drain thread
 * included) measured around runExperiment, and its ExperimentResult in
 * a bit-exact text form (hex floats) that run.py digests and checks
 * against the reference. With trace 1 it also carries the diffs of the
 * library's process-wide counters across the call. A worker runs one
 * cell at a time and runExperiment joins its drain thread before it
 * returns, so each diff belongs to exactly that cell.
 *
 * A cell that aborts (e.g. a simmpi panic) kills this process; run.py
 * records the failure from the outside and starts a new worker.
 */

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app.hh"
#include "src/core/experiment.hh"
#include "src/core/grid.hh"
#include "src/storage/blob.hh"
#include "src/storage/drain.hh"
#include "src/storage/transform.hh"
#include "src/util/phase.hh"

namespace
{

using namespace match;

struct Workload
{
    std::string name;
    std::vector<core::ExperimentConfig> cells;
};

/** The benchmark's three workloads, enumerated exactly as the figure
 *  benches build their grids (see README.md for why each was chosen). */
std::vector<Workload>
makeWorkloads(std::uint64_t seed)
{
    core::GridSpec base;
    base.runs = 2; // the figure benches' --quick methodology
    base.seed = seed;
    // Mem storage never touches this path; it only names sandboxes.
    base.sandboxDir = ".bench_run/sandbox";

    // bench_fig5 --quick: scaling endpoints, small input, L1 / 10.
    core::GridSpec fig5 = base;
    fig5.endpointsOnly = true;

    // Checkpoint-write heavy: every level and the transform chain.
    core::GridSpec ckpt = base;
    ckpt.inputs = {apps::InputSize::Large};
    ckpt.scales = {64};
    ckpt.designs = {ft::Design::ReinitFti};
    ckpt.ckptStrides = {1};
    ckpt.ckptLevels = {1, 2, 3, 4};
    ckpt.transforms = {storage::TransformKind::None,
                       storage::TransformKind::DeltaCompress};

    // bench_fig7 --quick: fig5's grid with one injected failure per run.
    core::GridSpec fig7 = fig5;
    fig7.injectFailure = true;

    return {{"fig5-scaling", fig5.enumerate()},
            {"ckpt-levels", ckpt.enumerate()},
            {"fig7-recovery", fig7.enumerate()}};
}

std::string
cellLabel(const core::ExperimentConfig &c)
{
    std::ostringstream out;
    out << c.app << " p" << c.nprocs << ' ' << apps::inputSizeName(c.input)
        << ' ' << ft::designName(c.design) << " L" << c.ckptLevel << " s"
        << c.ckptStride << ' ' << storage::transformKindName(c.transform)
        << " seed" << c.seed;
    return out.str();
}

/** Runs runExperiment actually simulates: a failure-free cell
 *  simulates its first run and reuses it for the rest. */
int
simulatedRuns(const core::ExperimentConfig &c)
{
    return c.injectFailure || c.storageFaultWindows != 0 ? c.runs : 1;
}

/** Rank-iterations the cell simulates: nprocs x loop length per
 *  simulated run (re-executed iterations after a failure excluded). */
std::uint64_t
rankIters(const core::ExperimentConfig &c)
{
    apps::AppParams params;
    params.input = c.input;
    params.nprocs = c.nprocs;
    params.ckptStride = c.ckptStride;
    const int iters = apps::findApp(c.app).loopIterations(params);
    return static_cast<std::uint64_t>(c.nprocs) *
           static_cast<std::uint64_t>(iters) *
           static_cast<std::uint64_t>(simulatedRuns(c));
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
appendBreakdown(std::string &out, const ft::Breakdown &b)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%a,%a,%a,%a,%d,%d,%d", b.application,
                  b.ckptWrite, b.ckptRead, b.recovery, b.attempts,
                  b.recoveries, b.failureFired ? 1 : 0);
    out += buf;
}

/** Bit-exact text form of a result: every run, then the mean. */
std::string
resultText(const core::ExperimentResult &r)
{
    std::string out;
    for (const ft::Breakdown &b : r.perRun) {
        appendBreakdown(out, b);
        out += ';';
    }
    out += "mean:";
    appendBreakdown(out, r.mean);
    return out;
}

/** Snapshot of every process-wide counter the benchmark diffs. */
struct Counters
{
    util::PhaseTotals phases;
    storage::BlobStats blob;
    storage::TransformStats delta;
    storage::TransformStats compress;
    std::uint64_t shipped = 0;

    static Counters
    now()
    {
        Counters c;
        c.phases = util::phaseTotals();
        c.blob = storage::BlobPool::globalStats();
        c.delta = storage::transformGlobalStats(
            storage::TransformStage::Delta);
        c.compress = storage::transformGlobalStats(
            storage::TransformStage::Compress);
        c.shipped = storage::drainGlobalShippedBytes();
        return c;
    }
};

void
appendCount(std::ostringstream &out, const char *name, std::uint64_t after,
            std::uint64_t before)
{
    out << ",\"" << name << "\":" << (after - before);
}

std::string
counterJson(const Counters &a, const Counters &b)
{
    const util::PhaseTotals d = util::PhaseTotals::diff(a.phases, b.phases);
    std::ostringstream out;
    out.precision(17);
    out << '{';
    for (int i = 0; i < util::phaseCount; ++i) {
        const char *name = util::phaseName(static_cast<util::Phase>(i));
        out << (i ? "," : "") << '"' << name << "_s\":" << d.seconds[i]
            << ",\"" << name << "_ops\":" << d.entries[i];
    }
    appendCount(out, "blob_allocs", a.blob.allocs, b.blob.allocs);
    appendCount(out, "blob_pool_hits", a.blob.poolHits, b.blob.poolHits);
    appendCount(out, "blob_bytes_copied", a.blob.bytesCopied,
                b.blob.bytesCopied);
    appendCount(out, "blob_bytes_stored", a.blob.bytesStored,
                b.blob.bytesStored);
    appendCount(out, "delta_bytes_in", a.delta.bytesIn, b.delta.bytesIn);
    appendCount(out, "delta_bytes_out", a.delta.bytesOut, b.delta.bytesOut);
    appendCount(out, "compress_bytes_in", a.compress.bytesIn,
                b.compress.bytesIn);
    appendCount(out, "compress_bytes_out", a.compress.bytesOut,
                b.compress.bytesOut);
    appendCount(out, "drain_shipped_bytes", a.shipped, b.shipped);
    out << '}';
    return out.str();
}

/** JSON string literal (labels, keys and exception messages). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            ch = ' ';
        out += ch;
    }
    return out + '"';
}

std::string
readyLine(const std::vector<Workload> &workloads)
{
    std::ostringstream out;
    out << "{\"workloads\":{";
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        out << (w ? "," : "") << quoted(workloads[w].name) << ":[";
        const auto &cells = workloads[w].cells;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const core::ExperimentConfig &c = cells[i];
            out << (i ? "," : "") << "{\"label\":" << quoted(cellLabel(c))
                << ",\"key\":" << quoted(core::configKey(c))
                << ",\"design\":" << quoted(ft::designName(c.design))
                << ",\"inject\":" << (c.injectFailure ? "true" : "false")
                << ",\"runs\":" << c.runs
                << ",\"simulated_runs\":" << simulatedRuns(c)
                << ",\"rank_iters\":" << rankIters(c) << '}';
        }
        out << ']';
    }
    out << "}}";
    return out.str();
}

std::string
runCell(const core::ExperimentConfig &config, std::size_t index, bool trace)
{
    const Counters before = trace ? Counters::now() : Counters{};
    const double cpu0 = processCpuSeconds();
    const auto wall0 = std::chrono::steady_clock::now();
    std::string result;
    std::string error;
    try {
        result = resultText(core::runExperiment(config));
    } catch (const std::exception &e) {
        error = e.what();
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
    const double cpu = processCpuSeconds() - cpu0;

    std::ostringstream out;
    out.precision(17);
    out << "{\"cell\":" << index << ",\"wall_s\":" << wall
        << ",\"cpu_s\":" << cpu;
    if (!error.empty())
        out << ",\"error\":" << quoted(error);
    else
        out << ",\"result\":" << quoted(result);
    if (trace)
        out << ",\"counters\":" << counterJson(Counters::now(), before);
    out << '}';
    return out.str();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 42;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr, "usage: perfbench_worker [--seed S]\n");
            return 2;
        }
    }

    const std::vector<Workload> workloads = makeWorkloads(seed);
    // Warm-up: one failure-free cell fills the thread-local fiber-stack
    // and blob pools, so that timed cells start warm and the cost of a
    // cold start is part of set-up.
    core::runExperiment(workloads[0].cells[0]);
    std::cout << readyLine(workloads) << std::endl;

    std::string line;
    while (std::getline(std::cin, line) && line != "quit") {
        std::istringstream in(line);
        std::string name;
        std::size_t index = 0;
        int trace = 0;
        if (!(in >> name >> index >> trace)) {
            std::fprintf(stderr, "perfbench_worker: bad request '%s'\n",
                         line.c_str());
            return 2;
        }
        const Workload *workload = nullptr;
        for (const Workload &w : workloads)
            if (w.name == name)
                workload = &w;
        if (workload == nullptr || index >= workload->cells.size()) {
            std::fprintf(stderr, "perfbench_worker: no cell '%s'\n",
                         line.c_str());
            return 2;
        }
        std::cout << runCell(workload->cells[index], index, trace != 0)
                  << std::endl;
    }
    return 0;
}
