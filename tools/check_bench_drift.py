#!/usr/bin/env python3
"""Diff a repmpi-bench-report JSON against the committed baseline.

Usage: check_bench_drift.py <report.json> <baseline.json> [--tolerance=0.01]

Compares every headline metric recorded by the benches (the `metrics` maps in
a `repmpi-bench-report/1` document) against the baseline and fails on
relative drift above the tolerance (default 1%). All bench metrics are
virtual-time quantities and therefore deterministic for a given source tree
— drift means a perf/semantics regression (or an intentional change, in
which case the baseline must be regenerated with
`repmpi_bench --all --smoke --json bench/baseline_smoke.json`).

Host-dependent fields are excluded from the gate: wall_time_s / wall_ms /
events_per_sec / messages_per_sec per bench, and any metric prefixed
`host_` (the sharded engine's host_shard_* counts, which depend on the
shard count). Metrics present only on one side are reported (new metrics
are fine; vanished ones fail).
The reports' kernel backends (top-level `host_backend`) are printed as an
informational note. Host performance is judged by perfbench/, not here.

Benches are matched by *name*, never by array position: the driver emits
the array in registry order, but a parallel run (--jobs) or a reordered
baseline must not affect the comparison. Duplicate names in either
document are an error.

Two metric classes get special gating rules: metrics whose name contains
`job_failed` are exact-match — they encode whether (and when) a seeded
fault scenario killed the job, and any change is a fault-semantics
regression, not drift (today A3 `failures` carries them: `job_failed_pair`
and `job_failed_time_pair`); metrics ending in `_gap` are measured-vs-model
differences that legitimately sit near zero, so they gate on absolute
deviation at the tolerance instead of meaningless relative drift (today
`hostile_sdc`'s `sdc_b*_gap`).

Robustness semantics (crash-safe sweeps): a bench entry with nonzero
status (a failed cell) is *skipped with a note* rather than
failing the gate — its metrics are partial garbage and the driver's own
exit code already reports the failure. A report flagged `"partial": true`
(flushed on SIGINT/SIGTERM) may be missing baseline
benches; those are noted, not failed. A *non*-partial report missing a
baseline bench still fails: something silently dropped a bench.
"""

import json
import sys


def load(path):
    """Returns (benches_by_name, partial, host_backend) for a report."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "repmpi-bench-report/1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    by_name = {}
    for b in doc["benches"]:
        if b["name"] in by_name:
            sys.exit(f"{path}: duplicate bench entry {b['name']!r}")
        by_name[b["name"]] = b
    return by_name, bool(doc.get("partial", False)), doc.get("host_backend")


def usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_tolerance(argv):
    """Returns the tolerance, exiting with a usage error (status 2) on a
    malformed or negative value instead of an uncaught ValueError traceback
    (which CI renders as an inscrutable script crash, not a gate verdict)."""
    tolerance = 0.01
    for a in argv[1:]:
        if not a.startswith("--"):
            continue
        if a.startswith("--tolerance="):
            raw = a.split("=", 1)[1]
            try:
                tolerance = float(raw)
            except ValueError:
                usage_error(f"--tolerance expects a number, got {raw!r}")
            if tolerance != tolerance or tolerance < 0:  # NaN or negative
                usage_error(f"--tolerance must be >= 0, got {raw!r}")
        else:
            usage_error(f"unknown option {a!r} "
                        f"(supported: --tolerance=<fraction>)")
    return tolerance


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        sys.exit(__doc__)
    tolerance = parse_tolerance(argv)

    report, report_partial, report_backend = load(args[0])
    baseline, _, baseline_backend = load(args[1])
    failures, notes = [], []

    for name, base in sorted(baseline.items()):
        cur = report.get(name)
        if cur is None:
            if report_partial:
                # A partial report (flushed on a signal) legally
                # stops early; absent benches are expected there.
                notes.append(f"{name}: missing from partial report "
                             f"(expected; skipped)")
            else:
                failures.append(f"{name}: bench missing from report")
            continue
        if cur.get("status") != 0:
            # A failed/timed-out cell carries no trustworthy metrics; the
            # bench driver's own exit code already reports the failure, so
            # the drift gate skips it instead of double-erroring.
            notes.append(f"{name}: status {cur.get('status')} — skipped "
                         f"(failed cell; metrics not compared)")
            continue
        for metric, expect in sorted(base.get("metrics", {}).items()):
            if metric.startswith("host_"):
                continue
            got = cur.get("metrics", {}).get(metric)
            if expect is None:
                # The driver serializes inf/nan as JSON null. A null baseline
                # value carries no magnitude to compare against; relative
                # drift is undefined, so skip it loudly rather than crash on
                # abs(None).
                notes.append(f"{name}.{metric}: baseline value is null "
                             f"(non-finite at capture); skipped")
                continue
            if got is None:
                failures.append(
                    f"{name}.{metric}: non-finite in report (null), "
                    f"baseline {expect:.6g}"
                    if metric in cur.get("metrics", {})
                    else f"{name}.{metric}: metric vanished "
                         f"(baseline {expect:.6g})")
                continue
            if "job_failed" in metric:
                # Fault-outcome metrics (did the seeded scenario kill the
                # job, and when): the scenario is fully deterministic, so
                # anything but exact equality is a fault-semantics change.
                if got != expect:
                    failures.append(
                        f"{name}.{metric}: {expect:.6g} -> {got:.6g} "
                        f"(exact-match rule for job_failed metrics)")
                continue
            if metric.endswith("_gap"):
                # Measured-vs-model gaps legitimately hover near zero;
                # relative drift on them is noise amplification. Gate on
                # absolute deviation at the same tolerance.
                if abs(got - expect) > tolerance:
                    failures.append(
                        f"{name}.{metric}: {expect:.6g} -> {got:.6g} "
                        f"(|delta| > {tolerance:g}, gap-metric rule)")
                continue
            if expect == 0:
                # A zero baseline makes relative drift meaningless (0/0) or
                # infinite; gate on absolute deviation at the same tolerance.
                if abs(got) > tolerance:
                    failures.append(
                        f"{name}.{metric}: baseline 0 -> {got:.6g} "
                        f"(|absolute| > {tolerance:g}, zero-baseline rule)")
                continue
            drift = abs(got - expect) / abs(expect)
            if drift > tolerance:
                failures.append(f"{name}.{metric}: {expect:.6g} -> {got:.6g} "
                                f"({drift:.2%} > {tolerance:.0%})")
    for name, cur in sorted(report.items()):
        if name not in baseline:
            notes.append(f"{name}: new bench (not in baseline)")
        else:
            for metric in cur.get("metrics", {}):
                if not metric.startswith("host_") and \
                        metric not in baseline[name].get("metrics", {}):
                    notes.append(f"{name}.{metric}: new metric")

    # Kernel-backend provenance. Never gating — the backend seam's contract
    # is that the virtual-time metrics compared above are identical whatever
    # backend executed the kernels (which is exactly why the same baseline
    # serves the default AVX2 and the --backend=scalar CI passes).
    if report_backend or baseline_backend:
        notes.append(f"host_backend: baseline {baseline_backend or 'n/a'}, "
                     f"report {report_backend or 'n/a'} (informational)")

    for n in notes:
        print(f"note: {n}")
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) drifted beyond "
              f"{tolerance:.0%}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"OK: all baseline metrics within {tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
