#!/usr/bin/env python3
"""Fail on library functions that no production binary links.

Usage: check_dead_code.py --archive=<lib.a> --allowlist=<file> <binary>...
                          --tests <test binary>...

Takes every strong text symbol (`T`) the archive defines and subtracts
every symbol defined in any of the binaries; what is left is library code
that nothing ships. The binaries must be linked from an archive built at
-O0 -ffunction-sections with -Wl,--gc-sections: -O0 keeps inlining from
hiding a call, and --gc-sections drops every function no entry point
reaches, so a symbol present in a binary is one the binary really uses.

Header-only code (inline functions, templates) never reaches the archive
as a strong symbol, so a second check reads the test binaries (--tests,
built the same way): every `repmpi::` function a test binary defines must
also be defined by a production binary. Names are compared with template
arguments and parameter lists stripped, so `LogicalComm::bcast<int>(...)`
in a test counts as used when production instantiates `bcast<double>`.
Skipped: the tests' own code (anonymous namespaces and the fixtures'
`repmpi::testing`), lambdas, constructors, destructors, assignment
operators, and the archive's strong symbols (the first check covers
them).

The allowlist names one symbol per line followed by `# reason`: an archive
symbol exactly as `nm -C` prints it, or a test-only function by its
stripped name (`repmpi::ns::Class::member`). Blank lines and lines
starting with `#` are ignored. An entry without a reason is an error. The
check fails (exit 1) on:
  * a dead symbol or test-only function that is not allowlisted, and
  * a stale allowlist entry: one the binaries now link, or one nothing
    defines any more — so the list cannot outlive the code it excuses.
Exit 2 is a usage or tool error. The tool needs only `nm` (binutils).
"""

import argparse
import subprocess
import sys


def usage_error(msg):
    print(f"check_dead_code: {msg}", file=sys.stderr)
    sys.exit(2)


# Operator names that contain characters the stripping below acts on.
OPERATORS = ["operator<=>", "operator<<=", "operator>>=", "operator<<",
             "operator>>", "operator<=", "operator>=", "operator->*",
             "operator->", "operator<", "operator>", "operator()"]


def strip_name(symbol):
    """`symbol` without template arguments, parameter list, qualifiers and
    the return type `nm -C` prints before a function template's name."""
    for i, op in enumerate(OPERATORS):
        symbol = symbol.replace(op, f"\0{i}\0")
    out, depth = [], 0
    for c in symbol:
        if c == "<":
            depth += 1
        elif c == ">" and depth:
            depth -= 1
        elif not depth:
            out.append(c)
    name = "".join(out)
    paren = name.find("(")
    if paren > 0 and name[paren - 1] == " ":
        # A function returning a function pointer, "R (*f(args))(args)":
        # the name is the declarator inside the first parentheses.
        name = name[paren + 1:].lstrip("*&")
        paren = name.find("(")
    if paren >= 0:
        name = name[:paren]
    for i, op in enumerate(OPERATORS):
        name = name.replace(f"\0{i}\0", op)
    words = name.split()
    if len(words) > 1 and words[-2].endswith("operator"):  # operator bool
        return " ".join(words[-2:])
    return words[-1] if words else name


def special_member(name):
    """Constructors, destructors and assignment operators."""
    parts = name.split("::")
    return (parts[-1].startswith("~") or parts[-1].startswith("operator=")
            or (len(parts) > 1 and parts[-1] == parts[-2]))


# The shared test fixtures' own namespace (tests/*.hpp).
TEST_NS = "repmpi::testing::"


def test_only(test_symbols, production_symbols, archive_symbols):
    """Stripped names of repmpi:: functions only the tests define."""
    production = {strip_name(s) for s in production_symbols}
    names = set()
    for s in test_symbols - archive_symbols:
        if "(anonymous namespace)" in s or "{lambda" in s or "(" not in s:
            continue
        name = strip_name(s)
        if (name.startswith("repmpi::") and not name.startswith(TEST_NS)
                and not special_member(name) and name not in production):
            names.add(name)
    return names


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
    ap.add_argument("--tests", nargs="+", required=True)
    args = ap.parse_args()

    library = defined_symbols(args.archive, kinds={"T"})
    linked = set()
    for b in args.binaries:
        linked |= defined_symbols(b)
    in_tests = set()
    for b in args.tests:
        in_tests |= defined_symbols(b, kinds={"T", "W", "t"})
    allow = read_allowlist(args.allowlist)

    dead = (library - linked) | test_only(in_tests, linked, library)
    unlisted = sorted(dead - allow.keys())
    stale = sorted(s for s in allow if s not in dead)

    for s in unlisted:
        print(f"dead: {s}")
    for s in stale:
        why = ("now linked" if s in linked or s in
               {strip_name(x) for x in linked} else "not defined any more")
        print(f"stale allowlist entry ({why}): {s}")
    if unlisted or stale:
        print(f"FAIL: {len(unlisted)} unlisted dead symbol(s), "
              f"{len(stale)} stale allowlist entr(y/ies)")
        return 1
    print(f"OK: {len(library)} library symbols, {len(dead)} allowlisted "
          f"dead, {len(args.binaries)} binaries, {len(args.tests)} tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
