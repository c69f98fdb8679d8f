#!/usr/bin/env python3
"""CI perf guard: fail on >30% regression vs the committed baseline.

Compares freshly produced BENCH_*.json records against the snapshots
under bench/baseline/:

 - BENCH_fig5.json (figure-bench perf record): cells/sec per storage
   backend row and of the L4 drain row (throughput, higher is better),
   plus the per-phase wall-clock attribution of each backend row
   (seconds, lower is better).
   The checkpoint-transform sweep rows (shipped PFS bytes and the
   per-stage bytesIn/bytesOut encoder counters per transform kind,
   lower is better; deltaShippedBytesReduction, higher is better) are
   enforced too: the committed baseline carries a "transforms"
   section, and the counters are deterministic per configuration, so
   any shipped-byte growth is a real encoder regression.
 - BENCH_ablation_failure_scenarios.json: storage-fault scenario
   counters (priced retries, demoted checkpoints, failed flushes) and
   mean virtual totals — all pure functions of the configuration, so
   any drift vs baseline is a real robustness regression, not runner
   noise. Warn-only until a baseline carrying a "storageFaults"
   section is committed. Two hard contracts need no baseline: the
   drawn fault plan must replay bit-identically through the trace
   format, and the faults-off scenario must report zero fault-engine
   activity.
 - BENCH_micro_rs_*.json (google-benchmark format): bytes_per_second of
   every BM_RsEncode row (the encode MB/s trajectory).
 - BENCH_micro_runtime.json (google-benchmark format): items_per_second
   of the fiber/messaging/collective rows, plus a hard zero check on
   every allocsPerEvent counter — the runtime hot path's allocation-free
   contract is pass/fail, not a ratio.

A throughput metric passes when current >= min_ratio * baseline
(one-sided: being faster than the baseline is always fine); a seconds
metric passes when current <= baseline / min_ratio or sits under an
absolute noise floor (tiny phases jitter wildly in relative terms).
Metrics present only in the baseline or only in the current record are
reported but never fail the guard, so adding or renaming benches stays
painless. Refresh the baseline (copy a CI artifact over bench/baseline/)
whenever the runner hardware generation changes; a stale baseline from
slower hardware only loosens the guard, never breaks it.

Usage:
    perf_guard.py [--baseline DIR] [--current DIR] [--min-ratio R]

The ratio can also come from MATCH_PERF_GUARD_RATIO (flag wins).
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


#: Phases smaller than this many seconds are exempt from the ratio
#: check: a 5 ms phase doubling is scheduler noise, not a regression.
PHASE_FLOOR_SECONDS = 0.05


def figure_metrics(record):
    """(name, value) throughput metrics of a figure-bench perf record."""
    metrics = {}
    for row in record.get("backends", []):
        name = "cellsPerSecond[storage=%s]" % row.get("storage")
        metrics[name] = row.get("cellsPerSecond", 0.0)
    for row in record.get("drain", []):
        name = "cellsPerSecond[drain=%s]" % row.get("mode")
        metrics[name] = row.get("cellsPerSecond", 0.0)
    return metrics


def figure_phase_metrics(record):
    """(name, seconds) per-phase attribution of the backend rows."""
    metrics = {}
    for row in record.get("backends", []):
        for phase, seconds in (row.get("phases") or {}).items():
            metrics["%s[storage=%s]" % (phase, row.get("storage"))] = \
                seconds
    return metrics


def transform_reduction_metrics(record):
    """(name, ratio) reduction metrics of the transform sweep — higher
    is better (1 - shipped/none: how many PFS bytes the delta chain
    saved)."""
    metrics = {}
    reduction = record.get("deltaShippedBytesReduction")
    if reduction is not None:
        metrics["deltaShippedBytesReduction"] = reduction
    return metrics


def transform_byte_metrics(record):
    """(name, bytes) byte counters of the transform sweep — lower is
    better. Deterministic per configuration, so any growth is a real
    encoder regression, not noise."""
    metrics = {}
    for row in record.get("transforms", []):
        kind = row.get("transform")
        shipped = row.get("shippedBytes")
        if shipped is not None:
            metrics["shippedBytes[transform=%s]" % kind] = shipped
        for stage in ("delta", "compress"):
            stats = row.get(stage) or {}
            for counter in ("bytesIn", "bytesOut"):
                value = stats.get(counter)
                if value:
                    metrics["%s.%s[transform=%s]"
                            % (stage, counter, kind)] = value
    return metrics


def storage_fault_metrics(record):
    """(name, count) storage-fault engine counters of the failure
    ablation — lower is better. Every counter is a pure function of
    the configuration (virtual-result determinism), so any growth is a
    real robustness regression: more retries burned, more checkpoints
    demoted, more flushes lost under the identical fault schedule."""
    metrics = {}
    for row in record.get("storageFaults", []):
        scenario = row.get("scenario")
        if scenario == "faults-off":
            # All-zero by the bit-identity contract; covered by the
            # contract check below, not a ratio.
            continue
        metrics["meanTotalSum[faults=%s]" % scenario] = \
            row.get("meanTotalSum", 0.0)
        for counter in ("pricedRetries", "latencySpikes",
                        "degradedCkpts", "skippedEpochs",
                        "failedFlushes"):
            value = row.get(counter)
            if value:
                metrics["%s[faults=%s]" % (counter, scenario)] = value
    return metrics


def storage_fault_contract_failures(record):
    """Hard storage-fault contracts of the failure ablation, checked
    on the current record alone (no baseline needed): the drawn fault
    plan must round-trip through the trace format and replay
    bit-identically, and the faults-off scenario must report zero
    engine activity (the undecorated fast path)."""
    failures = []
    for flag in ("storageFaultTraceIdentical",
                 "storageFaultReplayBitIdentical"):
        value = record.get(flag)
        if value is None:
            continue
        if value:
            print("  + %-55s true" % flag)
        else:
            print("  ! %-55s FALSE" % flag)
            failures.append(
                "BENCH_ablation_failure_scenarios.json: %s is false "
                "(fault schedule not replayable)" % flag)
    for row in record.get("storageFaults", []):
        if row.get("scenario") != "faults-off":
            continue
        dirty = [k for k, v in row.items()
                 if isinstance(v, (int, float)) and v and
                 k.startswith(("injected", "torn", "enospc", "priced",
                               "latency", "degraded", "skipped",
                               "failed"))]
        if dirty:
            print("  ! faults-off scenario has nonzero counters: %s"
                  % ", ".join(sorted(dirty)))
            failures.append(
                "BENCH_ablation_failure_scenarios.json: faults-off "
                "scenario touched the fault engine (%s)"
                % ", ".join(sorted(dirty)))
    return failures


def micro_metrics(record):
    """(name, bytes_per_second) of every RS-encode micro-bench row."""
    metrics = {}
    for bench in record.get("benchmarks", []):
        name = bench.get("name", "")
        if "BM_RsEncode" not in name:
            continue
        if bench.get("run_type") == "aggregate":
            continue
        bps = bench.get("bytes_per_second")
        if bps:
            metrics["encodeBps[%s]" % name] = bps
    return metrics


def runtime_metrics(record):
    """(name, items_per_second) of every runtime micro-bench row."""
    metrics = {}
    for bench in record.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        ips = bench.get("items_per_second")
        if ips:
            metrics["itemsPerSecond[%s]" % bench.get("name", "")] = ips
    return metrics


def alloc_contract_failures(record):
    """The hot path's allocation-free contract: every allocsPerEvent
    counter in the runtime micro-bench must be exactly zero."""
    failures = []
    for bench in record.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        allocs = bench.get("allocsPerEvent")
        if allocs is None:
            continue
        name = bench.get("name", "")
        if allocs > 0:
            print("  ! allocsPerEvent[%-42s %g (must be 0)"
                  % (name + "]", allocs))
            failures.append("BENCH_micro_runtime.json: %s allocates "
                            "%g times per event (contract: 0)"
                            % (name, allocs))
        else:
            print("  + allocsPerEvent[%-42s 0" % (name + "]"))
    return failures


def compare(label, baseline, current, min_ratio, lower_is_better=False,
            floor=0.0):
    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        cur = current.get(name)
        if cur is None:
            print("  ~ %-55s only in baseline (skipped)" % name)
            continue
        if base <= 0:
            continue
        if lower_is_better:
            ok = cur <= base / min_ratio or cur <= floor
            ratio = base / cur if cur > 0 else float("inf")
        else:
            ratio = cur / base
            ok = ratio >= min_ratio
        status = "ok" if ok else "REGRESSION"
        print("  %s %-55s %.3fx (%.3g -> %.3g)"
              % ("+" if ok else "!", name, ratio, base, cur))
        if status != "ok":
            failures.append("%s: %s at %.2fx < %.2fx"
                            % (label, name, ratio, min_ratio))
    for name in sorted(set(current) - set(baseline)):
        print("  ~ %-55s new metric (no baseline)" % name)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baseline")
    parser.add_argument("--current", default=".")
    parser.add_argument("--min-ratio", type=float,
                        default=float(os.environ.get(
                            "MATCH_PERF_GUARD_RATIO", "0.7")))
    args = parser.parse_args()

    # name -> list of (extractor, lower_is_better, floor) passes.
    extractors = {
        "BENCH_fig5.json": [
            (figure_metrics, False, 0.0),
            (figure_phase_metrics, True, PHASE_FLOOR_SECONDS),
            (transform_reduction_metrics, False, 0.0),
            (transform_byte_metrics, True, 0.0),
        ],
        "BENCH_ablation_failure_scenarios.json": [
            (storage_fault_metrics, True, 0.0),
        ],
        "BENCH_micro_rs_auto.json": [(micro_metrics, False, 0.0)],
        "BENCH_micro_rs_scalar.json": [(micro_metrics, False, 0.0)],
        "BENCH_micro_runtime.json": [(runtime_metrics, False, 0.0)],
    }

    failures = []
    warnings = []
    compared = 0
    for name, passes in extractors.items():
        base_path = os.path.join(args.baseline, name)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(base_path):
            print("~ %s: no baseline snapshot (skipped)" % name)
            continue
        if not os.path.exists(cur_path):
            failures.append("%s: baseline exists but no current record "
                            "was produced" % name)
            continue
        print("%s (min ratio %.2f):" % (name, args.min_ratio))
        base_record, cur_record = load(base_path), load(cur_path)
        record_failures = []
        for extract, lower, floor in passes:
            record_failures += compare(name, extract(base_record),
                                       extract(cur_record),
                                       args.min_ratio,
                                       lower_is_better=lower,
                                       floor=floor)
        if name == "BENCH_micro_runtime.json":
            record_failures += alloc_contract_failures(cur_record)
        if name == "BENCH_ablation_failure_scenarios.json":
            record_failures += \
                storage_fault_contract_failures(cur_record)
        # A degraded grid (quarantined cells) produces throughput
        # numbers that measure the failure handling, not the code under
        # guard: warn — loudly — instead of failing, so one poisoned
        # runner cell cannot mask or fake a perf regression verdict.
        quarantined = cur_record.get("quarantinedCells", 0)
        if quarantined:
            print("  ~ %s: %d quarantined cell(s) — perf checks "
                  "demoted to warnings" % (name, quarantined))
            warnings.append("%s: grid degraded (%d quarantined "
                            "cell(s)); its perf metrics were not "
                            "enforced" % (name, quarantined))
            warnings += record_failures
        else:
            failures += record_failures
        compared += 1

    if compared == 0:
        print("perf guard: nothing to compare — commit baselines under "
              "%s" % args.baseline)
        return 1
    if warnings:
        print("\nperf guard warnings (not fatal):")
        for warning in warnings:
            print("  " + warning)
    if failures:
        print("\nperf guard FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("\nperf guard passed (%d record(s))" % compared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
