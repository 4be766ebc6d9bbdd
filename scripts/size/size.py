#!/usr/bin/env python3
"""Print the code-size numbers the project ratchets, and check them.

    python3 scripts/size/size.py [--binary PATH] [--check]

Run after `cargo build --release -p ldl1 --example floor`, from any
directory (paths are taken from the script's own place). It prints:

- each crate's non-test source lines: the lines of every `.rs` file under
  `crates/<crate>/src` before the file's first `#[cfg(test)]`;
- the executor's text, from `nm -S` on the release `floor` example: the
  bytes and the number of instances of `exec::exec_op`, its closures and
  `exec::Rows::run`, which the compiler instantiates once per mode and
  row matcher;
- the sink's text: `exec::Out::emit` and `grouping::Groups::add_solution`,
  the per-solution code every pass sends its solutions to.

`--check` compares each number with its ceiling in `ceilings.json` beside
this script and exits 1 if any exceeds it. A change that lowers a number
lowers its ceiling; one that raises it edits the ceiling and says why.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CEILINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ceilings.json")

EXECUTOR = re.compile(
    r"^ldl_eval::exec::(exec_op|exec_op::\{\{closure\}\}|Rows::run)$")
SINK = re.compile(
    r"^ldl_eval::(exec::Out::emit|grouping::Groups::add_solution)$")


def non_test_lines(path):
    """Lines of `path` before its first `#[cfg(test)]`."""
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def crate_lines():
    """Non-test source lines per crate, by crate directory name."""
    crates = os.path.join(ROOT, "crates")
    out = {}
    for name in sorted(os.listdir(crates)):
        src = os.path.join(crates, name, "src")
        if not os.path.isdir(src):
            continue
        total = 0
        for dirpath, _, files in os.walk(src):
            total += sum(non_test_lines(os.path.join(dirpath, f))
                         for f in files if f.endswith(".rs"))
        out[name] = total
    return out


def symbols(binary):
    """(size, demangled name) of each sized symbol in `binary`."""
    nm = subprocess.run(["nm", "-S", "-C", binary], check=True,
                        capture_output=True, text=True).stdout
    parts = (line.split(maxsplit=3) for line in nm.splitlines())
    return [(int(p[1], 16), p[3]) for p in parts if len(p) == 4]


def text(syms, pattern):
    """(bytes, functions) of the symbols whose name matches `pattern`."""
    sizes = [size for size, name in syms if pattern.match(name)]
    return sum(sizes), len(sizes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary",
                    default=os.path.join(ROOT, "target/release/examples/floor"))
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if a number exceeds its ceiling")
    args = ap.parse_args()

    if not os.path.exists(args.binary):
        sys.exit(f"{args.binary} not found: cargo build --release -p ldl1 --example floor")
    values = {f"lines.{k}": v for k, v in crate_lines().items()}
    syms = symbols(args.binary)
    exe_bytes, exe_fns = text(syms, EXECUTOR)
    sink_bytes, sink_fns = text(syms, SINK)
    values["executor.bytes"] = exe_bytes
    values["executor.functions"] = exe_fns
    values["sink.bytes"] = sink_bytes
    values["sink.functions"] = sink_fns

    ceilings = {}
    if args.check:
        with open(CEILINGS, encoding="utf-8") as f:
            ceilings = json.load(f)["ceilings"]
    over = []
    for key, v in values.items():
        limit = ceilings.get(key)
        note = "" if limit is None else f"  (ceiling {limit})"
        print(f"{key:24s} {v:8d}{note}")
        if limit is not None and v > limit:
            over.append(f"{key} = {v} exceeds its ceiling {limit}")
    missing = [k for k in ceilings if k not in values]
    if missing:
        over.append(f"no value measured for {', '.join(missing)}")
    if over:
        print("\n".join(over), file=sys.stderr)
        print(f"lower the code, or raise the ceiling in {os.path.relpath(CEILINGS, ROOT)} "
              "and say why in CHANGES.md", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
