#!/usr/bin/env python3
"""Self-contained checks for tools/check_dead_code.py (no pytest needed).

Run directly: python3 tools/test_check_dead_code.py [--cxx=c++] [--ar=ar]
Builds a two-function archive, a main that calls one of them and a probe
test binary that also instantiates a header-only inline function main
never calls, the way the audit builds the real binaries (-O0
-ffunction-sections, linked with --gc-sections). Every case passes the
probe test binary. Checks that an unlisted dead symbol fails, the same
symbol allowlisted passes, a stale allowlist entry fails, and the
test-only inline function fails unless it is allowlisted.
"""

import argparse
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_dead_code.py")

LIB = """
namespace probe {
int used(int x) { return x + 1; }
int unused(int x) { return x * 2; }
}  // namespace probe
"""

HEADER = """
namespace repmpi::probe {
inline int test_only_helper(int x) { return x * 3; }
template <class T> T twice(T x) { return x + x; }
}  // namespace repmpi::probe
"""

MAIN = """
#include "probe.hpp"
namespace probe { int used(int x); }
int main() {
  return probe::used(-1) + static_cast<int>(repmpi::probe::twice(0.0));
}
"""

# Uses the production template at another type, its own anonymous-namespace
# helper, and an inline function production never calls.
TEST = """
#include "probe.hpp"
namespace probe { int used(int x); }
namespace repmpi::probe { namespace { int local(int x) { return x - 1; } } }
int main() {
  return probe::used(repmpi::probe::twice(1)) +
         repmpi::probe::local(repmpi::probe::test_only_helper(0));
}
"""


def build(tmp, cxx, ar):
    def sh(*cmd):
        subprocess.run(cmd, cwd=tmp, check=True)
    for name, text in [("lib.cpp", LIB), ("probe.hpp", HEADER),
                       ("main.cpp", MAIN), ("probe_test.cpp", TEST)]:
        with open(os.path.join(tmp, name), "w") as f:
            f.write(text)
    flags = ["-O0", "-ffunction-sections"]
    sh(cxx, *flags, "-c", "lib.cpp", "-o", "lib.o")
    sh(ar, "rcs", "libprobe.a", "lib.o")
    for exe in ["main", "probe_test"]:
        sh(cxx, *flags, f"{exe}.cpp", "libprobe.a", "-Wl,--gc-sections",
           "-o", exe)
    return (os.path.join(tmp, "libprobe.a"), os.path.join(tmp, "main"),
            os.path.join(tmp, "probe_test"))


def run(tmp, archive, binary, probe_test, allowlist):
    path = os.path.join(tmp, "allow.txt")
    with open(path, "w") as f:
        f.write(allowlist)
    proc = subprocess.run(
        [sys.executable, SCRIPT, f"--archive={archive}",
         f"--allowlist={path}", binary, "--tests", probe_test],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(label, ok, out):
    if not ok:
        print(f"FAIL: {label}\n{out}")
        sys.exit(1)
    print(f"ok: {label}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cxx", default="c++")
    ap.add_argument("--ar", default="ar")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        built = build(tmp, args.cxx, args.ar)
        helper = "repmpi::probe::test_only_helper # a test hook\n"

        code, out = run(tmp, *built, helper)
        check("unlisted dead symbol fails",
              code == 1 and "dead: probe::unused(int)" in out
              and "probe::used(int)" not in out, out)

        listed = "probe::unused(int) # kept for a reason\n"
        code, out = run(tmp, *built, listed + helper)
        check("allowlisted dead symbol and test-only function pass",
              code == 0, out)

        code, out = run(tmp, *built,
                        listed + helper + "probe::used(int) # linked now\n")
        check("stale entry for a linked symbol fails",
              code == 1 and "now linked" in out, out)

        code, out = run(tmp, *built,
                        listed + helper + "probe::gone(int) # deleted\n")
        check("stale entry for a deleted symbol fails",
              code == 1 and "not defined any more" in out, out)

        code, out = run(tmp, *built, "probe::unused(int)\n")
        check("entry without a reason is a usage error", code == 2, out)

        code, out = run(tmp, *built, listed)
        check("test-only inline function fails",
              code == 1 and "dead: repmpi::probe::test_only_helper" in out
              and "twice" not in out and "local" not in out, out)
    print("all check_dead_code checks passed")


if __name__ == "__main__":
    main()
