#!/usr/bin/env python3
"""Map the sampler's addresses to functions, and optionally to instructions.

    python3 report.py prof.1234 [prof.1235 ...] [--top 30] [--annotate NAME]

Each address is placed in the mapped file that held it (the profile's own
copy of the process's memory map), turned into that file's virtual address
through its ELF program headers, and given to the symbol at or below it in
`nm -C --numeric-sort` (`nm -D` when the file has no symbol table, so a
stripped library maps only to its nearest exported symbol). `--annotate
NAME` disassembles every function whose name contains NAME with `objdump`
and prints each instruction's sample count beside it.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess


def load_segments(path):
    """The ELF file's PT_LOAD segments as (offset, vaddr, filesz)."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def load_symbols(path):
    """Sorted (address, name) of the file's functions."""
    for flags in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "--numeric-sort", *flags, path],
                             capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            m = re.match(r"([0-9a-f]+) [TtWw] (.*)", line)
            if m:
                syms.append((int(m[1], 16), m[2]))
        if syms:
            return syms
    return []


class Object:
    def __init__(self, path):
        self.path = path
        self.segs = load_segments(path)
        self.syms = load_symbols(path)
        self.addrs = [a for a, _ in self.syms]

    def vaddr(self, file_off):
        for off, vaddr, size in self.segs:
            if off <= file_off < off + size:
                return file_off - off + vaddr
        return None

    def symbol(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.syms[i][1] if i >= 0 else None


def read_profile(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                fields = line.split()
                if len(fields) >= 7 and "x" in fields[2] and fields[6].startswith("/"):
                    lo, hi = (int(x, 16) for x in fields[1].split("-"))
                    maps.append((lo, hi, int(fields[3], 16), fields[6]))
            elif line.strip():
                samples.append(int(line, 16))
    return maps, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--annotate", metavar="NAME")
    args = ap.parse_args()

    objects = {}
    by_func = collections.Counter()
    by_insn = collections.Counter()  # (object path, vaddr)
    total = 0
    for prof in args.profiles:
        maps, samples = read_profile(prof)
        for addr in samples:
            total += 1
            hit = next((m for m in maps if m[0] <= addr < m[1]), None)
            if hit is None:
                by_func[("?", "[unmapped]")] += 1
                continue
            lo, _, off, path = hit
            if path not in objects:
                objects[path] = Object(path)
            obj = objects[path]
            vaddr = obj.vaddr(addr - lo + off)
            name = obj.symbol(vaddr) if vaddr is not None else None
            by_func[(path, name or "[no symbol]")] += 1
            if vaddr is not None:
                by_insn[(path, vaddr)] += 1

    print(f"{total} samples")
    for (path, name), count in by_func.most_common(args.top):
        short = path.rsplit("/", 1)[-1]
        print(f"{count:7d} {100.0 * count / max(total, 1):6.2f}%  {name}  [{short}]")

    if args.annotate:
        for path, obj in objects.items():
            for i, (start, name) in enumerate(obj.syms):
                if args.annotate not in name:
                    continue
                stop = obj.syms[i + 1][0] if i + 1 < len(obj.syms) else start + 1
                if stop <= start:
                    continue
                print(f"\n== {name} [{path}]")
                dis = subprocess.run(
                    ["objdump", "-d", "-C", "--no-show-raw-insn",
                     f"--start-address={start:#x}", f"--stop-address={stop:#x}", path],
                    capture_output=True, text=True).stdout
                for line in dis.splitlines():
                    head = line.split(":", 1)[0].strip()
                    try:
                        at = int(head, 16)
                    except ValueError:
                        continue
                    if ":" in line and line.startswith(" "):
                        print(f"{by_insn.get((path, at), 0):6d} {line}")


if __name__ == "__main__":
    main()
