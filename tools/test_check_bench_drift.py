#!/usr/bin/env python3
"""Self-contained checks for tools/check_bench_drift.py (no pytest needed).

Run directly: python3 tools/test_check_bench_drift.py
Exercises the edge cases the gate must not crash or lie on: malformed /
negative --tolerance, unknown options, null (non-finite) metric values on
either side, and zero-valued baseline metrics.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_drift.py")


def make_report(metrics, name="b1", status=0, extra=None,
                partial=False, benches=None, host_backend=None):
    bench = {"name": name, "status": status, "metrics": metrics}
    doc = {"schema": "repmpi-bench-report/1", "partial": partial,
           "benches": benches if benches is not None
           else [bench] + (extra or [])}
    if host_backend is not None:
        doc["host_backend"] = host_backend
    f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    json.dump(doc, f)
    f.close()
    return f.name


def run(report, baseline, *flags):
    proc = subprocess.run(
        [sys.executable, SCRIPT, report, baseline, *flags],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(label, ok):
    if not ok:
        print(f"FAIL: {label}")
        sys.exit(1)
    print(f"ok: {label}")


def main():
    base = make_report({"eff": 0.5, "zero": 0.0})

    code, out = run(make_report({"eff": 0.5, "zero": 0.0}), base)
    check("identical reports pass", code == 0 and "OK" in out)

    code, out = run(make_report({"eff": 0.6, "zero": 0.0}), base)
    check("20% drift fails", code == 1 and "eff" in out)

    # Malformed / negative / unknown options: usage error (2), no traceback.
    for flags, label in [(["--tolerance=banana"], "malformed tolerance"),
                         (["--tolerance="], "empty tolerance"),
                         (["--tolerance=-0.5"], "negative tolerance"),
                         (["--tol=0.1"], "unknown option")]:
        code, out = run(base, base, *flags)
        check(f"{label} is a clean usage error",
              code == 2 and "error:" in out and "Traceback" not in out)

    code, out = run(make_report({"eff": 0.5004, "zero": 0.0}), base,
                    "--tolerance=0.01")
    check("explicit tolerance accepted", code == 0)

    # Null metric in the *baseline* (driver serializes inf/nan as null):
    # skipped with a note, not an abs(None) TypeError.
    null_base = make_report({"eff": 0.5, "weird": None})
    code, out = run(make_report({"eff": 0.5, "weird": 1.0}), null_base)
    check("null baseline metric skips with a note",
          code == 0 and "skipped" in out and "Traceback" not in out)

    # Null metric in the *report*: the bench produced a non-finite value now
    # — that is a regression, and the message must say so.
    code, out = run(make_report({"eff": None, "zero": 0.0}), base)
    check("null report metric fails clearly",
          code == 1 and "non-finite" in out and "Traceback" not in out)

    # Zero-valued baseline: zero vs zero passes; zero vs large fails via the
    # absolute-deviation rule rather than dividing by zero.
    code, out = run(make_report({"eff": 0.5, "zero": 0.5}), base)
    check("zero baseline gates on absolute deviation",
          code == 1 and "zero-baseline" in out)

    # Vanished metric still fails.
    code, out = run(make_report({"eff": 0.5}), base)
    check("vanished metric fails", code == 1 and "vanished" in out)

    # Kernel-backend provenance: a report produced on a different backend
    # passes with an informational note, never gated (the virtual-time
    # metrics are backend-invariant by contract).
    hb_base = make_report({"eff": 0.5}, host_backend="scalar")
    code, out = run(make_report({"eff": 0.5}, host_backend="avx2"), hb_base)
    check("host_backend is informational only",
          code == 0 and "host_backend: baseline scalar, report avx2" in out)

    # Reports predating host_backend (no top-level key) stay silent about it.
    code, out = run(make_report({"eff": 0.5, "zero": 0.0}), base)
    check("absent host_backend emits no note",
          code == 0 and "host_backend" not in out)

    # --- Hostile-bench metric classes ---------------------------------------

    # job_failed metrics are exact-match: a 1 -> 0 flip means a seeded fault
    # scenario stopped killing (or started killing) the job — fault
    # semantics, not drift — and even a tiny time-of-death shift fails.
    jf_base = make_report({"job_failed_naive_d0": 1.0,
                           "job_failed_time_d0": 0.00171}, name="hostile")
    code, out = run(make_report({"job_failed_naive_d0": 1.0,
                                 "job_failed_time_d0": 0.00171},
                                name="hostile"), jf_base)
    check("identical job_failed metrics pass", code == 0)
    code, out = run(make_report({"job_failed_naive_d0": 0.0,
                                 "job_failed_time_d0": 0.00171},
                                name="hostile"), jf_base)
    check("job_failed outcome flip fails exactly",
          code == 1 and "exact-match" in out)
    code, out = run(make_report({"job_failed_naive_d0": 1.0,
                                 "job_failed_time_d0": 0.001711},
                                name="hostile"), jf_base)
    check("time-of-death shift below 1% still fails (exact-match)",
          code == 1 and "exact-match" in out)

    # _gap metrics gate on absolute deviation: a gap moving 0.001 -> 0.002
    # is 100% relative drift but well within absolute tolerance, while a
    # gap jumping past the tolerance fails.
    gap_base = make_report({"straggler_x20_gap": 0.001}, name="hostile")
    code, out = run(make_report({"straggler_x20_gap": 0.002},
                                name="hostile"), gap_base)
    check("tiny absolute gap change passes despite 100% relative drift",
          code == 0)
    code, out = run(make_report({"straggler_x20_gap": 0.05},
                                name="hostile"), gap_base)
    check("gap beyond absolute tolerance fails",
          code == 1 and "gap-metric" in out)

    # --- Robustness semantics (crash-safe sweeps) ---------------------------

    # A failed cell (nonzero status, e.g. --timeout-sec killed it) is
    # skipped with a note — even with drifted/garbage metrics — instead of
    # failing the gate on top of the driver's own failure exit.
    code, out = run(make_report({"eff": 9.9, "zero": 5.0}, status=124), base)
    check("failed cell skipped with a note",
          code == 0 and "skipped" in out and "status 124" in out)

    # A partial report (flushed on SIGINT/SIGTERM) may be missing benches;
    # that is noted, not failed.
    code, out = run(make_report({}, benches=[], partial=True), base)
    check("bench missing from partial report is a note",
          code == 0 and "partial report" in out)

    # The same missing bench in a NON-partial report still fails: a full
    # run silently dropping a bench is a regression.
    code, out = run(make_report({}, benches=[], partial=False), base)
    check("bench missing from full report still fails",
          code == 1 and "missing" in out)

    # Old-schema reports (no top-level "partial" key) keep strict semantics.
    old = make_report({"eff": 0.5, "zero": 0.0})
    with open(old) as f:
        doc = json.load(f)
    del doc["partial"]
    doc["benches"] = []
    with open(old, "w") as f:
        json.dump(doc, f)
    code, out = run(old, base)
    check("missing 'partial' key defaults to strict", code == 1)

    print("all checks passed")


if __name__ == "__main__":
    main()
