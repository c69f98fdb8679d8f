#!/usr/bin/env python3
"""Symbolize the samples bench/pcsample.c wrote and print the top frames.

    python3 bench/pcreport.py pcsample.<pid> [--top 30]

Each sample is charged to the code that contains the interrupted
instruction, inline frames included (addr2line -i), shown as
"innermost <- ... <- containing function". Code without line info (libc,
PLT stubs) is named by the exported symbol that covers the address, or
by its file; the second table charges those samples to the caller that
the word at the stack pointer names, which is exact for frameless
leaves such as memcpy.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess


def load_maps(path):
    """Executable mappings as sorted (start, end, offset, file, is_dyn)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            if not parts[5].startswith("/") or not os.path.exists(parts[5]):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            with open(parts[5], "rb") as elf:
                e_type = struct.unpack("<H", elf.read(18)[16:18])[0]
            maps.append((start, end, int(parts[2], 16), parts[5],
                         e_type == 3))
    maps.sort()
    return maps


def locate(maps, starts, addr):
    """(file, address as addr2line wants it) for a runtime address."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    start, _, offset, path, is_dyn = maps[i]
    return path, (addr - start + offset if is_dyn else addr)


def strip_params(name):
    """Drop a trailing parameter list: 'f(int) const' -> 'f'."""
    name = name.removesuffix(" const")
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(name[i], 0)
        if depth == 0:
            return name if name[:i].endswith("operator") else name[:i]
    return name


def exported(path):
    """Sorted (address, size, name) of the file's exported functions."""
    out = subprocess.run(["nm", "-D", "-C", "-S", "--defined-only", path],
                         capture_output=True, text=True,
                         check=False).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(maxsplit=3)
        if len(parts) == 4 and parts[2] in "TtWwi":
            syms.append((int(parts[0], 16), int(parts[1], 16),
                         strip_params(parts[3].split("@")[0])))
    return sorted(syms)


def symbolize(by_file):
    """{(file, addr): (name, has line info)}, one addr2line per file."""
    names = {}
    for path, addrs in by_file.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
            input="\n".join("0x%x" % a for a in addrs),
            capture_output=True, text=True, check=False).stdout
        # Per address: its "0x..." line, then (function, file:line)
        # pairs from the innermost inline frame outwards.
        chains = []
        for line in out.split("\n"):
            if line.startswith("0x"):
                chains.append([])
            elif chains and line:
                chains[-1].append(line)
        syms = None
        for addr, chain in zip(addrs, chains):
            funcs = [strip_params(f) for f in chain[0::2] if f != "??"]
            if funcs and not chain[1].startswith("??"):
                if len(funcs) > 3:
                    funcs = [funcs[0], "...", funcs[-1]]
                names[(path, addr)] = (" <- ".join(funcs), True)
                continue
            # No line info: addr2line's name is only the nearest
            # preceding symbol, so trust an exported symbol's extent.
            if syms is None:
                syms = exported(path)
            i = bisect.bisect_right(syms, (addr, float("inf"), "")) - 1
            base = os.path.basename(path)
            if i >= 0 and addr < syms[i][0] + syms[i][1]:
                names[(path, addr)] = ("%s (%s)" % (syms[i][2], base), False)
            else:
                names[(path, addr)] = ("[%s]" % base, False)
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("prefix", help="pcsample.<pid> (without extension)")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()

    maps = load_maps(args.prefix + ".maps")
    starts = [m[0] for m in maps]
    with open(args.prefix + ".pcs", "rb") as f:
        samples = list(struct.iter_unpack("<QQ", f.read()))
    if not samples:
        print("no samples")
        return

    located = [(locate(maps, starts, rip), locate(maps, starts, ret))
               for rip, ret in samples]
    by_file = collections.defaultdict(set)
    for pc, ret in located:
        for loc in (pc, ret):
            if loc:
                by_file[loc[0]].add(loc[1])
    names = symbolize(by_file)

    def name(loc):
        return names[loc][0] if loc else "[unknown]"

    total = len(samples)
    frames = collections.Counter(name(pc) for pc, _ in located)
    leaves = collections.Counter(
        "%s <- %s" % (name(pc), name(ret))
        for pc, ret in located if pc and not names[pc][1])
    print("%d samples" % total)
    print("\n%samples  frame (innermost <- ... <- containing function)")
    for frame, n in frames.most_common(args.top):
        print("%6.2f%% %6d  %s" % (100.0 * n / total, n, frame))
    if leaves:
        print("\n%samples  frame without line info <- caller at [rsp]")
        for frame, n in leaves.most_common(args.top):
            print("%6.2f%% %6d  %s" % (100.0 * n / total, n, frame))


if __name__ == "__main__":
    main()
