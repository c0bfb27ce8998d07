#!/usr/bin/env python3
"""Repository benchmark for repmpi (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds perfbench_driver (first run only), runs workload W and prints
      its metrics; the last stdout line is one JSON object. --trace 0 gives
      the end-to-end metrics, --trace 1 the per-layer metrics plus a Chrome
      trace in .bench_out/.
  python3 perfbench/run.py --steadiness [--runs 10] [--seconds S]
      Runs every workload --runs times, interleaved, one seed per round,
      and prints median, quartiles and (q3 - q1) / median per metric.
      With --runs 1 it is a one-shot table of every workload's metrics.
  python3 perfbench/run.py --write-reference
      Regenerates perfbench/reference.json from the current program.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
DRIVER = BUILD / "perfbench_driver"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ["hpccg_kernels", "amg_events", "sweep_cold"]
# Fresh processes that only run the cold pass, for extra setup_s samples.
# sweep_cold needs none: every sweep it times starts cold.
SETUP_PROCESSES = {"hpccg_kernels": 6, "amg_events": 4, "sweep_cold": 0}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_share": "ratio",
}

PER_LAYER = {
    "apps.native_ms": "ms",
    "apps.sdr_ms": "ms",
    "apps.intra_ms": "ms",
    "apps.cold_minflt": "count",
    "apps.warm_minflt": "count",
    "kernels.spmv_s": "s",
    "kernels.vector_s": "s",
    "kernels.share": "ratio",
    "kernels.spmv_gbps": "GB/s",
    "kernels.vector_gbps": "GB/s",
    "compute_cache.hit_share": "ratio",
    "compute_cache.uncached": "count",
    "compute_cache.shared_mb": "MB",
    "intra.sections": "count",
    "intra.received_share": "ratio",
    "intra.update_mb": "MB",
    "intra.section_us": "us",
    "intra.reexecuted": "count",
    "replication.msg_us": "us",
    "simmpi.messages": "count",
    "simmpi.match_us": "us",
    "net.mb": "MB",
    "net.bytes_per_msg": "B",
    "sim.events": "count",
    "sim.fiber_switches": "count",
    "sim.heap_bypass_share": "ratio",
    "sim.wakeups_elided": "count",
    "sim.event_ns": "ns",
    "sim.switch_ns": "ns",
    "sim.shard1_over_classic": "ratio",
    "sim.shard2_over_classic": "ratio",
    "sim.shard_windows": "count",
    "sim.shard_cross_messages": "count",
    "sweep.cell_ms_p50": "ms",
    "sweep.cell_ms_max": "ms",
    "sweep.minflt": "count",
    "sweep.sys_share": "ratio",
    "sweep.attempts_per_cell": "count",
    "sweep.log_append_ms": "ms",
    "fault.crashed_ranks": "count",
    "fault.job_failed": "count",
    "trace.overhead_s": "s",
}

# Diagnostics whose run-to-run spread the steadiness report prints beside
# the end-to-end metrics (they are not end-to-end metrics themselves).
SPREAD_DIAGNOSTICS = [
    "alu_ms",
    "chase_ms",
    "apps.warm_minflt",
    "compute_cache.hit_share",
    "compute_cache.shared_mb",
    "compute_cache.uncached",
]

RUN_DEADLINE_S = 170  # one run, after the build, must end within 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a repmpi source tree")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"={BENCH}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured from another source directory
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_log, "w") as out:
        for cmd in (
            ["cmake", "-S", str(BENCH), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD), "-j", jobs,
             "--target", "perfbench_driver"],
        ):
            res = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if res.returncode:
                tail = build_log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# --- driver -----------------------------------------------------------------


def kill_session(sid):
    """SIGKILLs every process of session `sid`: the driver and whatever it
    started (the sweep and its workers run in process groups of their own)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                os.kill(int(stat.parent.name), signal.SIGKILL)
        except (OSError, IndexError, ValueError):
            pass  # the process ended meanwhile


def run_driver(args, deadline):
    """Runs the driver, killing it at `deadline` (time.monotonic()).
    Returns (scenario lines, final JSON report)."""
    proc = subprocess.Popen([str(DRIVER)] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver passed the run's deadline: {args}")
    finally:
        if proc.poll() is None:
            kill_session(proc.pid)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"driver exited {proc.returncode}: {args}")
    lines = out.splitlines()
    if not lines:
        raise BenchError(f"driver printed nothing: {args}")
    scenarios = []
    for line in lines[:-1]:
        if line.startswith("scenario "):
            _, sid, outputs = line.split(" ", 2)
            scenarios.append((sid, outputs))
    return scenarios, json.loads(lines[-1])


def replay_drift(scenarios):
    """Keys of `replay:<key>` results whose wallclock or messages differ from
    the `sweep:<key>` result of the same driver run (or that have none).

    The replay mirrors the crash plans of tools/repmpi_sweep.cpp in the
    driver process; this is what ties its layer counters to the sweep."""
    sweep = {}
    for sid, outputs in scenarios:
        if sid.startswith("sweep:"):
            w = re.search(r'"wallclock": ([^,}]+)', outputs)
            m = re.search(r'"messages": (\d+)', outputs)
            if w and m:
                sweep.setdefault(sid[len("sweep:"):], set()).add(
                    (float(w.group(1)), int(m.group(1))))
    drifted = set()
    for sid, outputs in scenarios:
        if sid.startswith("replay:"):
            key = sid[len("replay:"):]
            w = re.search(r"\bwallclock=(\S+)", outputs)
            m = re.search(r"\bmessages=(\d+)", outputs)
            got = (float(w.group(1)), int(m.group(1))) if w and m else None
            if sweep.get(key) != {got}:
                drifted.add(key)
    return drifted


class Correctness:
    """Counts scenario results against the committed reference. A replay
    result that differs from the sweep's own result counts as a miss too."""

    def __init__(self):
        self.reference = json.loads(REFERENCE.read_text())["scenarios"]
        self.attempted = 0
        self.failed = 0

    def check(self, scenarios, reported):
        drifted = replay_drift(scenarios)
        for sid, outputs in scenarios:
            self.attempted += 1
            if sid.startswith("replay:") and sid[len("replay:"):] in drifted:
                self.failed += 1
                log(f"perfbench: {sid} differs from the sweep's result")
            elif self.reference.get(sid) != outputs:
                self.failed += 1
                if self.failed <= 3:
                    log(f"perfbench: mismatch in {sid}: {outputs[:300]}")
        # Results the driver attempted but never printed count as misses.
        missing = reported["attempted"] - len(scenarios)
        if missing > 0:
            self.attempted += missing
            self.failed += missing

    def share(self):
        return (self.attempted - self.failed) / self.attempted


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace):
    build()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    _, cal = run_driver(["--calibrate"], deadline)
    base = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
            f"--tmp={tmp}"]
    check = Correctness()
    setup = []
    if not trace:
        for _ in range(SETUP_PROCESSES[workload]):
            scenarios, rep = run_driver(base + ["--setup-only"], deadline)
            check.check(scenarios, rep)
            setup += rep["setup_samples"]
    trace_file = OUT / f"trace_{workload}_seed{seed}.json"
    extra = ["--trace=1", f"--trace-out={trace_file}"] if trace else []
    scenarios, rep = run_driver(base + extra, deadline)
    check.check(scenarios, rep)
    setup += rep["setup_samples"]

    print(f"perfbench: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)} backend={rep['labels'].get('backend')}")
    print("calibration (host, not a metric): " + ", ".join(
        f"{k}={v:.2f}" for k, v in sorted(cal["diag"].items())))
    print(f"correct_share={check.share():.6f} "
          f"failed_share={check.failed / check.attempted:.6f} "
          f"({check.failed} of {check.attempted} scenario results)")
    diag = dict(rep["diag"], **cal["diag"])
    print("diagnostics " + json.dumps(diag, sort_keys=True))

    if trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name in rep["layers"]:
                metrics[name] = metric(rep["layers"][name], unit)
            else:
                reason = rep["unmeasured"].get(name, "not reported by driver")
                print(f"unmeasured {name}: {reason} (reported as 0)")
                metrics[name] = metric(0.0, unit)
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        print(f"trace written to {trace_file} (open in ui.perfetto.dev)")
    else:
        values = {
            "wall_s": statistics.median(rep["wall_s"]),
            "cpu_s": statistics.median(rep["cpu_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rep["peak_rss_mb"],
            "correct_share": check.share(),
        }
        metrics = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
        print(f"  timed rounds: {len(rep['wall_s'])}, setup samples: "
              f"{len(setup)}")
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


# --- steadiness report ------------------------------------------------------


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def steadiness(runs, seconds, first_seed):
    build()
    got = {w: {"metrics": [], "diag": []} for w in WORKLOADS}
    for i in range(runs):
        for w in WORKLOADS:  # interleaved: one run of each workload per seed
            seed = first_seed + i
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            start = time.monotonic()
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT)
            elapsed = time.monotonic() - start
            if res.returncode != 0:
                raise BenchError(f"run failed: {' '.join(cmd)}")
            lines = res.stdout.splitlines()
            final = json.loads(lines[-1])
            diag = next(json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("diagnostics "))
            got[w]["metrics"].append(
                {k: v["value"] for k, v in final["metrics"].items()})
            got[w]["diag"].append(diag)
            log(f"steadiness: {w} seed={seed} ({elapsed:.1f} s) " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in final["metrics"].items()))
    summary = {}
    for w in WORKLOADS:
        last = first_seed + runs - 1
        print(f"== {w}: {runs} runs, seeds {first_seed}..{last}")
        print(f"  {'metric':26s} {'unit':>6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'(q3-q1)/med':>12s}")
        summary[w] = {}
        rows = [(k, u, [m[k] for m in got[w]["metrics"]])
                for k, u in END_TO_END.items()]
        rows += [(f"diag:{k}", "", [d[k] for d in got[w]["diag"] if k in d])
                 for k in SPREAD_DIAGNOSTICS]
        for name, unit, values in rows:
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": rel, "values": values}
            print(f"  {name:26s} {unit:>6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {rel:12.4f}")
    print(json.dumps(summary))


# --- reference --------------------------------------------------------------


def write_reference():
    build()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    scenarios, _ = run_driver(["--reference", f"--tmp={tmp}"],
                              time.monotonic() + 600)
    ref = {}
    for sid, outputs in scenarios:
        if outputs.startswith("ERROR") or ref.get(sid, outputs) != outputs:
            raise BenchError(f"scenario {sid} is not reproducible: {outputs}")
        ref[sid] = outputs
    drifted = replay_drift(scenarios)
    if drifted:
        raise BenchError("the replay differs from repmpi_sweep in wallclock "
                         f"or messages: {', '.join(sorted(drifted))}")
    REFERENCE.write_text(json.dumps({
        "about": "Virtual-time outputs per scenario; written by "
                 "perfbench/run.py --write-reference. Host counters and "
                 "RunResult::events are left out.",
        "scenarios": dict(sorted(ref.items())),
    }, indent=1) + "\n")
    print(f"wrote {len(ref)} scenarios to {REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()
    # SIGTERM unwinds like an error, so a running driver is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if a.write_reference:
            write_reference()
        elif a.steadiness:
            steadiness(a.runs, a.seconds, a.seed)
        elif a.workload:
            run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
        else:
            ap.error("give --workload, --steadiness or --write-reference")
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
