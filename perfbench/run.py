#!/usr/bin/env python3
"""Figure-grid benchmark: host cost and correctness of MATCH grid cells.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-scaling --seed 42 \
        --seconds 20 --trace 0

It builds perfbench_worker (perfbench/CMakeLists.txt) into .bench_build/,
starts nproc/2 worker processes and feeds them the workload's cells back
to back, in grid enumeration order, in whole passes until --seconds have
been measured, and at least two. A cell that aborts or hangs its worker is recorded as a
failed cell (config key, signal, last "panic:" line) and the worker is
replaced; the rest of the pass still runs. Every completed cell's result
is checked bit-exactly against perfbench/reference.json when the seed has
a reference, for identity across passes, and for seed-independent
invariants.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --record-reference 0-15,42

re-records the reference digests of the current build.
"""

import argparse
import collections
import hashlib
import json
import os
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKER = os.path.join(BUILD_DIR, "perfbench_worker")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("fig5-scaling", "ckpt-levels", "fig7-recovery")
# fig7-recovery's failure-free twins, for ft.recovery_cpu_s.
TWIN = {"fig7-recovery": "fig5-scaling"}
WORKERS = max(1, (os.cpu_count() or 2) // 2)
SETUP_REPEATS = 10
CELL_TIMEOUT_S = 60.0
DESIGN_KEYS = {"RESTART-FTI": "restart", "REINIT-FTI": "reinit",
               "ULFM-FTI": "ulfm"}

END_TO_END = (("cells_per_s", "1/s"), ("cpu_s_per_cell", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("cells_attempted", "count"))

# (metric, counter in the worker's diff) for the phase layers.
PHASES = (("fti.serialize", "ckptSerialize"), ("fti.rs", "rsEncode"),
          ("storage.backend", "storage"), ("storage.drain", "drain"))
BYTE_COUNTS = (
    ("storage.drain.shipped_bytes", "drain_shipped_bytes"),
    ("storage.transform.delta.bytes_in", "delta_bytes_in"),
    ("storage.transform.delta.bytes_out", "delta_bytes_out"),
    ("storage.transform.compress.bytes_in", "compress_bytes_in"),
    ("storage.transform.compress.bytes_out", "compress_bytes_out"),
    ("storage.blob.bytes_stored", "blob_bytes_stored"),
    ("storage.blob.bytes_copied", "blob_bytes_copied"),
    ("storage.blob.allocs", "blob_allocs"),
    ("storage.blob.pool_hits", "blob_pool_hits"),
)
COUNTS = (("simmpi.rank_iters",)
          + tuple(name + "_ops" for name, _ in PHASES)
          + tuple(name for name, _ in BYTE_COUNTS)
          + ("ft.recoveries", "ft.attempts"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configure (once) and build the worker; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 2)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


# --------------------------------------------------------------------------
# Workers
# --------------------------------------------------------------------------

class Worker:
    """One perfbench_worker process. After its ready line, its stdout
    lines go to `events`."""

    def __init__(self, seed, slot, events):
        self.slot = slot
        self.panic = ""
        self.cell = None      # (workload, index, dispatch time) when busy
        self.killed = False   # set when the hang watchdog kills it
        self.proc = subprocess.Popen(
            [WORKER, "--seed", str(seed)], cwd=ROOT, text=True, bufsize=1,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        # Daemon readers: an error in this script must not hang its exit.
        self._out = threading.Thread(target=self._read_out, args=(events,),
                                     daemon=True)
        self._err = threading.Thread(target=self._read_err, daemon=True)
        self._err.start()

    def wait_ready(self):
        """Read the ready line on this thread (a hand-off through a reader
        thread made setup_s bimodal); returns the cell descriptors."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited before ready "
                               f"(status {self.proc.wait()})")
        self._out.start()
        return json.loads(line)["workloads"]

    def _read_out(self, events):
        for line in self.proc.stdout:
            events.put((self, line))
        events.put((self, None))

    def _read_err(self):
        for line in self.proc.stderr:
            if "panic:" in line:
                self.panic = line.strip()

    def send(self, workload, index, trace):
        self.cell = (workload, index, time.perf_counter())
        try:
            self.proc.stdin.write(f"{workload} {index} {int(trace)}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the reader thread reports the death

    def kill(self):
        if self.proc.poll() is None:
            self.killed = True
            self.proc.kill()

    def reap(self):
        """Wait for exit and both readers; returns the exit status."""
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self._out.is_alive():
            self._out.join()
        self._err.join()
        return self.proc.returncode

    def stop(self):
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        self.reap()


class Pool:
    """WORKERS slots; a dead worker's slot gets a fresh process."""

    def __init__(self, seed):
        """Start every worker and return once all are ready."""
        self.seed = seed
        self.events = queue.Queue()
        self.workers = [Worker(seed, s, self.events) for s in range(WORKERS)]
        for w in self.workers:
            self.cells = w.wait_ready()

    def replace(self, worker):
        fresh = Worker(self.seed, worker.slot, self.events)
        fresh.wait_ready()
        self.workers[worker.slot] = fresh
        return fresh

    def close(self):
        for w in self.workers:
            w.stop()


def start_pool(setup_times):
    """Start a pool and append its set-up time: until every worker has
    run its warm-up cell and is ready."""
    t0 = time.perf_counter()
    pool = Pool(ARGS.seed)
    setup_times.append(time.perf_counter() - t0)
    return pool


# --------------------------------------------------------------------------
# One pass over a workload
# --------------------------------------------------------------------------

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(pool, workload, trace):
    """Run every cell of `workload` once on the pool. Returns the pass
    record: wall time, one span per cell in index order, and the workers'
    idle time at the end of the pass."""
    descs = pool.cells[workload]
    pending = collections.deque(range(len(descs)))
    cells = {}
    last_end = [None] * len(pool.workers)
    t0 = time.perf_counter()

    def dispatch(worker):
        if pending and worker.cell is None:
            worker.send(workload, pending.popleft(), trace)

    for w in pool.workers:
        dispatch(w)
    while any(w.cell is not None for w in pool.workers) or pending:
        # Checked on every event, so that a hung worker is killed on time
        # while the others keep finishing cells.
        for w in pool.workers:
            if w.cell and time.perf_counter() - w.cell[2] > CELL_TIMEOUT_S:
                w.kill()  # hung: its reader reports EOF next
        try:
            worker, line = pool.events.get(timeout=1.0)
        except queue.Empty:
            continue
        if worker is not pool.workers[worker.slot]:
            continue  # stale event from a replaced process
        _, index, start = worker.cell
        end = time.perf_counter()
        worker.cell = None
        last_end[worker.slot] = end
        span = {"index": index, "slot": worker.slot,
                "start": start - t0, "end": end - t0,
                "label": descs[index]["label"], "key": descs[index]["key"]}
        if line is None:
            status = worker.reap()
            span["status"] = "hung" if worker.killed else "aborted"
            span["signal"] = -status if status < 0 else 0
            span["exit"] = status
            span["panic"] = worker.panic
            worker = pool.replace(worker)
        else:
            rec = json.loads(line)
            span.update(wall_s=rec["wall_s"], cpu_s=rec["cpu_s"])
            if "error" in rec:
                span["status"] = "threw"
                span["panic"] = rec["error"]
            else:
                span["status"] = "ok"
                span["result"] = rec["result"]
                span["digest"] = digest(rec["result"])
                if "counters" in rec:
                    span["counters"] = rec["counters"]
        cells[index] = span
        dispatch(worker)
    wall = time.perf_counter() - t0
    return {"workload": workload, "trace": trace, "wall_s": wall,
            "cells": [cells[i] for i in sorted(cells)],
            "idle_s": sum(wall - (e - t0) for e in last_end if e is not None)}


# --------------------------------------------------------------------------
# Correctness
# --------------------------------------------------------------------------

def parse_result(text):
    """Per-run breakdowns of a result text (the mean is dropped)."""
    runs = []
    for part in text.split(";"):
        if part.startswith("mean:"):
            continue
        f = part.split(",")
        runs.append({"application": float.fromhex(f[0]),
                     "ckptWrite": float.fromhex(f[1]),
                     "ckptRead": float.fromhex(f[2]),
                     "recovery": float.fromhex(f[3]),
                     "attempts": int(f[4]), "recoveries": int(f[5]),
                     "failureFired": int(f[6])})
    return runs


def invariant_error(desc, runs):
    """Seed-independent checks every completed cell must pass."""
    if len(runs) != desc["runs"]:
        return f"{len(runs)} runs, expected {desc['runs']}"
    for r in runs:
        times = (r["application"], r["ckptWrite"], r["ckptRead"],
                 r["recovery"])
        if not all(t == t and 0.0 <= t < float("inf") for t in times):
            return f"time out of range: {times}"
        if r["application"] <= 0.0:
            return "no application time"
        if desc["inject"]:
            if r["failureFired"] != 1:
                return "injected failure did not fire"
            if r["attempts"] < 2 and r["recoveries"] < 1:
                return "failure fired but nothing recovered"
        elif (r["failureFired"], r["attempts"], r["recoveries"],
              r["recovery"]) != (0, 1, 0, 0.0):
            return "failure-free run recorded a failure"
    return None


def check_cells(passes, cells_of, seed):
    """Find every cell that aborted, hung, threw, broke an invariant, gave
    different results in different passes, or differs from its reference.
    Returns ({(workload, label): failed span with "why" and "wrong"},
    number of reference-checked cells). "wrong" marks a wrong output: a
    reference mismatch or a broken invariant. A result that differs
    between passes of a cell with no reference is a failed cell, not a
    wrong output: the reference holds no digest for a cell that was not
    reproducible when it was recorded."""
    try:
        with open(REFERENCE) as f:
            reference = json.load(f)["workloads"]
    except (OSError, ValueError, KeyError):
        reference = {}
    failures = {}
    referenced = set()
    seen = {}
    for p in passes:
        workload = p["workload"]
        ref = reference.get(workload, {}).get(str(seed), {})
        for c in p["cells"]:
            desc = cells_of[workload][c["index"]]
            key = (workload, c["label"])
            why, wrong = c["status"], False
            if c["status"] == "ok":
                why = invariant_error(desc, parse_result(c["result"]))
                wrong = why is not None
                if why is None and c["label"] in ref:
                    referenced.add(key)
                    if ref[c["label"]] != c["digest"]:
                        why, wrong = "result differs from reference", True
                if why is None and seen.setdefault(key, c["digest"]) \
                        != c["digest"]:
                    why = "result not reproducible: differs between passes"
            if why and (key not in failures or wrong):
                failures[key] = dict(c, why=why, wrong=wrong)
    return failures, len(referenced)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def completed(p):
    return [c for c in p["cells"] if c["status"] == "ok"]


def cells_per_s(p):
    return len(completed(p)) / p["wall_s"]


def cpu_per_cell(p):
    done = completed(p)
    return sum(c["cpu_s"] for c in done) / max(1, len(done))


def layer_values(p, descs, twin=None, twin_descs=None):
    """Per-layer metrics of one traced pass: seconds as per-completed-cell
    means (they sum to the cell CPU), counts as pass totals."""
    done = [(descs[c["index"]], c) for c in completed(p)]
    n = max(1, len(done))
    v = {}
    phase_s = 0.0
    for name, counter in PHASES:
        s = sum(c["counters"][counter + "_s"] for _, c in done)
        phase_s += s
        v[name + "_s"] = s / n
        v[name + "_ops"] = sum(c["counters"][counter + "_ops"]
                               for _, c in done)
    sim_s = sum(c["cpu_s"] for _, c in done) - phase_s
    v["simmpi.cpu_s"] = sim_s / n
    v["simmpi.rank_iters"] = sum(d["rank_iters"] for d, _ in done)
    v["simmpi.ns_per_rank_iter"] = 1e9 * sim_s / max(1, v["simmpi.rank_iters"])
    for name, counter in BYTE_COUNTS:
        v[name] = sum(c["counters"][counter] for _, c in done)
    v["storage.blob.copied_per_stored"] = (
        v["storage.blob.bytes_copied"]
        / max(1, v["storage.blob.bytes_stored"]))
    v["storage.blob.pool_hit_rate"] = (
        v["storage.blob.pool_hits"]
        / max(1, v["storage.blob.pool_hits"] + v["storage.blob.allocs"]))
    runs = [r for _, c in done for r in parse_result(c["result"])]
    v["ft.recoveries"] = sum(r["recoveries"] for r in runs)
    v["ft.attempts"] = sum(r["attempts"] for r in runs)
    for design in DESIGN_KEYS.values():
        v[f"ft.recovery_cpu_s.{design}"] = 0.0
    if twin is not None:
        # fig7-recovery's grid enumerates in fig5-scaling's order.
        twins = {c["index"]: c for c in completed(twin)}
        per_design = collections.defaultdict(list)
        for d, c in done:
            t = twins.get(c["index"])
            if t is not None:
                per_run = (c["cpu_s"] / d["simulated_runs"]
                           - t["cpu_s"] / twin_descs[t["index"]]
                           ["simulated_runs"])
                per_design[DESIGN_KEYS[d["design"]]].append(per_run)
        for design, xs in per_design.items():
            v[f"ft.recovery_cpu_s.{design}"] = statistics.mean(xs)
    walls = sorted(c["wall_s"] for _, c in done)
    v["core.cell_s.p50"] = statistics.median(walls) if walls else 0.0
    v["core.cell_s.max"] = walls[-1] if walls else 0.0
    v["core.worker_idle_s"] = p["idle_s"]
    return v


LAYER_UNITS = {
    "simmpi.cpu_s": "s/cell", "simmpi.rank_iters": "count",
    "simmpi.ns_per_rank_iter": "ns",
    "storage.blob.copied_per_stored": "ratio",
    "storage.blob.pool_hit_rate": "ratio",
    "ft.recoveries": "count", "ft.attempts": "count",
    "core.cell_s.p50": "s", "core.cell_s.max": "s",
    "core.worker_idle_s": "s",
}
for _name, _ in PHASES:
    LAYER_UNITS[_name + "_s"] = "s/cell"
    LAYER_UNITS[_name + "_ops"] = "count"
for _name, _ in BYTE_COUNTS:
    LAYER_UNITS[_name] = "bytes"
for _name in ("storage.blob.allocs", "storage.blob.pool_hits"):
    LAYER_UNITS[_name] = "count"
for _d in DESIGN_KEYS.values():
    LAYER_UNITS[f"ft.recovery_cpu_s.{_d}"] = "s/run"
for _name in COUNTS:
    LAYER_UNITS[_name + ".exact"] = "bool"
LAYER_UNITS["trace.overhead"] = "ratio"


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def measure():
    # Result lines reach this thread from the reader threads through the
    # GIL. With the default 5 ms switch interval that hand-off made the
    # timings of this script bimodal; a worker waits on it between cells.
    sys.setswitchinterval(0.0005)
    wl, trace = ARGS.workload, ARGS.trace
    # Set-up is timed SETUP_REPEATS times back to back, then once more
    # between passes with a pool that is closed at once, so that the
    # samples spread over the run and its changing host load. Passes run
    # on one pool, which stays warm.
    setup_times = []
    for _ in range(SETUP_REPEATS - 1):
        start_pool(setup_times).close()
    pool = start_pool(setup_times)
    cells_of = pool.cells
    passes = []          # timed passes (untraced)
    traced = []          # traced passes of `wl`
    twins = []           # traced passes of the twin workload
    start = time.perf_counter()
    try:
        # Timed mode: whole passes while the next one fits in --seconds,
        # and at least two, so that every cell is checked for repeats and
        # a fig7-recovery pass (longer than --seconds) is not the only
        # sample of a changing host load. Traced mode: two untraced
        # passes, the first warms the pools to the workload's own buffer
        # sizes and the second gives the overhead, then traced passes, at
        # least two so every count is checked for repeats.
        while True:
            p = run_pass(pool, wl, bool(trace) and len(passes) == 2)
            (traced if p["trace"] else passes).append(p)
            elapsed = time.perf_counter() - start
            need_more = len(traced if trace else passes) < 2
            if not need_more and elapsed + p["wall_s"] > ARGS.seconds:
                break
            start_pool(setup_times).close()
        if trace and wl in TWIN:
            twins.append(run_pass(pool, TWIN[wl], trace=True))
    finally:
        pool.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    all_passes = passes + traced + twins
    failures, referenced = check_cells(all_passes, cells_of, ARGS.seed)
    mine = {k: v for k, v in failures.items() if k[0] == wl}
    attempted = len(passes[0]["cells"])
    correct = not any(f["wrong"] for f in failures.values())

    print(f"workload {wl}  seed {ARGS.seed}  workers {WORKERS}  "
          f"passes {len(passes)} timed + {len(traced)} traced  "
          f"cells {attempted}  reference-checked {referenced}")
    for (w, label), f in sorted(failures.items()):
        print(f"FAILED {w} cell '{label}' key={f['key']} why={f['why']} "
              f"signal={f.get('signal', 0)} {f.get('panic', '')}".rstrip())
    print(f"cells_failed {len(mine)} count")

    if not trace:
        metrics = {
            "cells_per_s": statistics.median(cells_per_s(p) for p in passes),
            "cpu_s_per_cell": statistics.median(cpu_per_cell(p)
                                                for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
            "cells_attempted": attempted,
        }
        units = dict(END_TO_END)
    else:
        descs = cells_of[wl]
        per_pass = [layer_values(p, descs,
                                 twins[0] if twins else None,
                                 cells_of.get(TWIN.get(wl)))
                    for p in traced]
        metrics = {k: statistics.median(pp[k] for pp in per_pass)
                   for k in per_pass[0]}
        for name in COUNTS:
            values = [pp[name] for pp in per_pass]
            metrics[name + ".exact"] = int(len(set(values)) == 1)
            print(f"count {name}: "
                  f"{'exact' if len(set(values)) == 1 else 'DRIFTS'} "
                  f"{values}")
        untraced = cells_per_s(passes[-1])
        metrics["trace.overhead"] = (
            (untraced - statistics.median(cells_per_s(p) for p in traced))
            / untraced)
        units = LAYER_UNITS
        write_trace(all_passes)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(mine),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def write_trace(passes):
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR,
                        f"trace-{ARGS.workload}-seed{ARGS.seed}.json")
    spans = [dict(c, workload=p["workload"], pass_index=i, traced=p["trace"])
             for i, p in enumerate(passes) for c in p["cells"]]
    with open(path, "w") as f:
        json.dump({"workers": WORKERS, "spans": spans}, f)
    log(f"trace written to {os.path.relpath(path, ROOT)}")


def record_reference(seeds):
    """Run every workload twice per seed and store the digests of the
    cells that completed with the same result both times."""
    try:
        with open(REFERENCE) as f:
            data = json.load(f)
    except OSError:
        data = {"workloads": {}}
    for seed in seeds:
        pool = Pool(seed)
        try:
            for wl in WORKLOADS:
                a, b = run_pass(pool, wl, False), run_pass(pool, wl, False)
                ref = {x["label"]: x["digest"]
                       for x, y in zip(a["cells"], b["cells"])
                       if x["status"] == y["status"] == "ok"
                       and x["digest"] == y["digest"]}
                data["workloads"].setdefault(wl, {})[str(seed)] = ref
                log(f"seed {seed} {wl}: {len(ref)}/{len(a['cells'])} "
                    f"cells reproducible")
        finally:
            pool.close()
        with open(REFERENCE, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    global ARGS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", metavar="SEEDS",
                    help="re-record reference digests, e.g. 0-15,42")
    ap.add_argument("--measure", action="store_true",
                    help=argparse.SUPPRESS)
    ARGS = ap.parse_args()
    if not ARGS.workload and not ARGS.record_reference:
        ap.error("--workload is required")
    if ARGS.measure:
        return measure()
    if not build():
        log("perfbench: build failed")
        return 1
    if ARGS.record_reference:
        return record_reference(parse_seeds(ARGS.record_reference))
    # Measure in a child process: its RUSAGE_CHILDREN peak then covers
    # the workers only, not the compiler.
    child = subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--measure"] + sys.argv[1:])
    return child.returncode


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
