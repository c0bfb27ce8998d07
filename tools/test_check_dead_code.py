#!/usr/bin/env python3
"""Self-contained checks for tools/check_dead_code.py (no pytest needed).

Run directly: python3 tools/test_check_dead_code.py [--cxx=c++] [--ar=ar]
Builds a two-function archive and a main that calls one of them, the way
the audit builds the real binaries (-O0 -ffunction-sections, linked with
--gc-sections), then checks that an unlisted dead symbol fails, the same
symbol allowlisted passes, and a stale allowlist entry fails.
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

MAIN = """
namespace probe { int used(int x); }
int main() { return probe::used(-1); }
"""


def build(tmp, cxx, ar):
    def sh(*cmd):
        subprocess.run(cmd, cwd=tmp, check=True)
    for name, text in [("lib.cpp", LIB), ("main.cpp", MAIN)]:
        with open(os.path.join(tmp, name), "w") as f:
            f.write(text)
    flags = ["-O0", "-ffunction-sections"]
    sh(cxx, *flags, "-c", "lib.cpp", "-o", "lib.o")
    sh(ar, "rcs", "libprobe.a", "lib.o")
    sh(cxx, *flags, "main.cpp", "libprobe.a", "-Wl,--gc-sections", "-o",
       "main")
    return os.path.join(tmp, "libprobe.a"), os.path.join(tmp, "main")


def run(tmp, archive, binary, allowlist):
    path = os.path.join(tmp, "allow.txt")
    with open(path, "w") as f:
        f.write(allowlist)
    proc = subprocess.run(
        [sys.executable, SCRIPT, f"--archive={archive}",
         f"--allowlist={path}", binary],
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
        archive, binary = build(tmp, args.cxx, args.ar)

        code, out = run(tmp, archive, binary, "")
        check("unlisted dead symbol fails",
              code == 1 and "dead: probe::unused(int)" in out
              and "probe::used(int)" not in out, out)

        listed = "probe::unused(int) # kept for a reason\n"
        code, out = run(tmp, archive, binary, listed)
        check("allowlisted dead symbol passes", code == 0, out)

        code, out = run(tmp, archive, binary,
                        listed + "probe::used(int) # linked now\n")
        check("stale entry for a linked symbol fails",
              code == 1 and "now linked" in out, out)

        code, out = run(tmp, archive, binary,
                        listed + "probe::gone(int) # deleted\n")
        check("stale entry for a deleted symbol fails",
              code == 1 and "not defined by the archive" in out, out)

        code, out = run(tmp, archive, binary, "probe::unused(int)\n")
        check("entry without a reason is a usage error", code == 2, out)
    print("all check_dead_code checks passed")


if __name__ == "__main__":
    main()
