#!/usr/bin/env python3
"""Fail on library functions that no production binary links.

Usage: check_dead_code.py --archive=<lib.a> --allowlist=<file> <binary>...

Takes every strong text symbol (`T`) the archive defines and subtracts
every symbol defined in any of the binaries; what is left is library code
that nothing ships. The binaries must be linked from an archive built at
-O0 -ffunction-sections with -Wl,--gc-sections: -O0 keeps inlining from
hiding a call, and --gc-sections drops every function no entry point
reaches, so a symbol present in a binary is one the binary really uses.

The allowlist names one demangled symbol per line, exactly as
`nm -C` prints it, followed by `# reason`; blank lines and lines starting
with `#` are ignored. An entry without a reason is an error. The check
fails (exit 1) on:
  * a dead symbol that is not allowlisted, and
  * a stale allowlist entry: one the binaries now link, or one the archive
    no longer defines — so the list cannot outlive the code it excuses.
Exit 2 is a usage or tool error. The tool needs only `nm` (binutils).
"""

import argparse
import subprocess
import sys


def usage_error(msg):
    print(f"check_dead_code: {msg}", file=sys.stderr)
    sys.exit(2)


def defined_symbols(path, kinds=None):
    """Demangled names of the symbols `path` defines (of `kinds`, if given)."""
    try:
        out = subprocess.run(["nm", "-C", "--defined-only", path],
                             capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        usage_error(f"nm {path} failed: {e}")
    names = set()
    for line in out.splitlines():
        # "<address> <kind> <name>"; archive member headers ("x.o:") and
        # blank lines have no kind field.
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue
        if kinds is None or parts[1] in kinds:
            names.add(parts[2])
    return names


def read_allowlist(path):
    entries = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        usage_error(f"cannot read allowlist: {e}")
    for n, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        symbol, sep, reason = line.partition("#")
        symbol, reason = symbol.strip(), reason.strip()
        if not sep or not reason:
            usage_error(f"{path}:{n}: entry '{symbol}' needs a '# reason'")
        entries[symbol] = reason
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--archive", required=True)
    ap.add_argument("--allowlist", required=True)
    ap.add_argument("binaries", nargs="+")
    args = ap.parse_args()

    library = defined_symbols(args.archive, kinds={"T"})
    linked = set()
    for b in args.binaries:
        linked |= defined_symbols(b)
    allow = read_allowlist(args.allowlist)

    dead = library - linked
    unlisted = sorted(dead - allow.keys())
    stale = sorted(s for s in allow if s not in dead)

    for s in unlisted:
        print(f"dead: {s}")
    for s in stale:
        why = "now linked" if s in linked else "not defined by the archive"
        print(f"stale allowlist entry ({why}): {s}")
    if unlisted or stale:
        print(f"FAIL: {len(unlisted)} unlisted dead symbol(s), "
              f"{len(stale)} stale allowlist entr(y/ies)")
        return 1
    print(f"OK: {len(library)} library symbols, {len(dead)} allowlisted "
          f"dead, {len(args.binaries)} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
