#!/usr/bin/env python3
"""Source-level kernel-discipline lint for the virtual-GPU layer.

KernelCheck (src/gpusim/check.hpp) can only analyze what flows through the
instrumented access paths: GlobalSpan reads/writes/atomics and BlockCtx
shared memory.  A kernel body that reaches device data any other way —
raw pointers, host staging copies, casts that launder a pointer past the
type system — executes unchecked, and a race through that side channel is
invisible to the dynamic analyzer.  This lint closes the loophole
statically: every lambda passed to ``parallel_runs`` / ``parallel_for`` /
``launch_blocks`` (including the ``for_active_voxels``,
``for_active_rows`` and ``for_ghost_slots`` wrappers) in ``src/`` must
touch device data only through the instrumented abstractions.

Rules (rule name -> what is banned inside a kernel lambda):
  raw-pointer      .raw( — bypasses the GlobalSpan access hooks
  reinterpret-cast reinterpret_cast — pointer laundering
  const-cast       const_cast — writing through a read-only view
  host-copy        copy_to_host / copy_from_host — host I/O mid-kernel
  host-fill        .fill( — whole-buffer host-side store mid-kernel
  storage-access   storage_ — reaching into DeviceBuffer internals
  heap-alloc       new / malloc — device code must not allocate
  member-write     assigning or incrementing a trailing-underscore member
                   (name_ = ..., ++name_) — a kernel body may run on several
                   host threads at once (block-parallel launches,
                   gpusim/device.hpp), so it writes only through its spans

A deliberate exception is suppressed in place with a trailing comment
naming the rule::

    ptr = buf.raw();  // lint-kernels: allow(raw-pointer) host-side probe

Tests are exempt (gpusim_test seeds violations on purpose); only
``src/`` is scanned.  Exit status: 0 = clean, 1 = findings (printed as
``file:line: rule: source line``).

Usage:
  python3 tools/lint_kernels.py [ROOT]      # default ROOT: repo src/
"""

import os
import re
import sys

# Call sites of the kernel-launch entry points.  The leading ``.``/``->``
# (or the wrapper's name) keeps the *definitions* in device.hpp out.
LAUNCH_RE = re.compile(
    r"(?:(?:\.|->)\s*(?:parallel_for|parallel_runs|launch_blocks)"
    r"|\bfor_active_voxels|\bfor_active_rows|\bfor_ghost_slots)\s*\(")

# A region is only a kernel if it actually contains a lambda; the
# for_active_voxels *declaration* (``const char* name, F&& body``) has none.
# Capture-less kernels (``[](... const auto& span)``), which reach device
# data only through launch-bound span arguments, count too.
LAMBDA_RE = re.compile(r"\[[&=\]]|\[this")

RULES = [
    ("raw-pointer", re.compile(r"\.\s*raw\s*\(")),
    ("reinterpret-cast", re.compile(r"\breinterpret_cast\b")),
    ("const-cast", re.compile(r"\bconst_cast\b")),
    ("host-copy", re.compile(r"\bcopy_(?:to|from)_host\b")),
    ("host-fill", re.compile(r"\.\s*fill\s*\(")),
    ("storage-access", re.compile(r"\bstorage_\b")),
    ("heap-alloc", re.compile(r"\bnew\b|\bmalloc\s*\(")),
    ("member-write", re.compile(
        r"\b[A-Za-z]\w*_\s*(?:[-+*/|&^]?=(?!=)|\+\+|--)"
        r"|(?:\+\+|--)\s*[A-Za-z]\w*_\b")),
]

ALLOW_RE = re.compile(r"//.*lint-kernels:\s*allow\(([a-z-]+)\)")


def balanced_region(text, open_paren):
    """Returns the index one past the ``)`` matching ``text[open_paren]``,
    skipping comments, string and char literals (an unbalanced file returns
    len(text), which just widens the lint region — safe)."""
    depth = 0
    i = open_paren
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            i = text.find("\n", i)
            if i < 0:
                return n
        elif c == "/" and nxt == "*":
            i = text.find("*/", i + 2)
            if i < 0:
                return n
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
    return n


def strip_line_comment(line):
    """Drops a // comment (good enough per line: kernel bodies in this repo
    do not put // inside string literals)."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def lint_file(path, text):
    findings = []
    line_starts = [0]
    for m in re.finditer("\n", text):
        line_starts.append(m.end())

    def line_no(offset):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    for m in LAUNCH_RE.finditer(text):
        open_paren = text.rfind("(", m.start(), m.end())
        end = balanced_region(text, open_paren)
        region = text[open_paren:end]
        if not LAMBDA_RE.search(region):
            continue  # declaration or config-only call, not a kernel body
        base_line = line_no(open_paren)
        for k, raw_line in enumerate(region.splitlines()):
            allowed = {a.group(1) for a in ALLOW_RE.finditer(raw_line)}
            code = strip_line_comment(raw_line)
            for rule, pat in RULES:
                if pat.search(code) and rule not in allowed:
                    findings.append(
                        (path, base_line + k, rule, raw_line.strip()))
    return findings


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    findings = []
    scanned = 0
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if not name.endswith((".cpp", ".hpp")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            if "parallel_for" not in text and "launch_blocks" not in text:
                continue
            scanned += 1
            findings.extend(lint_file(os.path.relpath(path), text))
    for path, line, rule, src in findings:
        print(f"{path}:{line}: {rule}: {src}")
    if findings:
        print(f"lint-kernels: {len(findings)} finding(s) in {scanned} "
              "file(s) with kernel launches", file=sys.stderr)
        return 1
    print(f"lint-kernels: clean ({scanned} file(s) with kernel launches)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
