#!/usr/bin/env python3
"""Summarize a profile written by tools/prof_sampler.cc.

    prof_report.py PROFILE [--top N] [--focus FN]

Prints the self and inclusive shares of CPU samples per function, and with
--focus the callers and callees of every function whose name contains FN.
Addresses are symbolized with addr2line against the modules listed in the
profile's copy of /proc/self/maps, so run it on the host that made the
profile, against the same binaries.

A module without a symbol table (a stripped libc, say) only has its dynamic
symbols, so addr2line names the nearest exported one: memmove can come out
as __nss_database_lookup. Frames in such modules are therefore named after
the module and charged to their first dfdb:: caller, e.g.
`[libc.so.6] in dfdb::Page::AppendParts`.
"""

import argparse
import collections
import os
import struct
import subprocess
import sys


class Module:
    def __init__(self, path):
        self.path = path
        self.name = os.path.basename(path)
        self.loads = []  # (p_offset, p_vaddr, p_filesz) of each PT_LOAD.
        self.has_symtab = False
        self.read_elf()

    def read_elf(self):
        try:
            with open(self.path, "rb") as f:
                data = f.read()
        except OSError:
            return
        if data[:4] != b"\x7fELF" or data[4] != 2:  # ELF64 only.
            return
        e_phoff, e_shoff = struct.unpack_from("<QQ", data, 0x20)
        e_phentsize, e_phnum, e_shentsize, e_shnum = struct.unpack_from(
            "<HHHH", data, 0x36)
        for i in range(e_phnum):
            off = e_phoff + i * e_phentsize
            p_type, = struct.unpack_from("<I", data, off)
            if p_type == 1:  # PT_LOAD
                p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
                    "<QQQQ", data, off + 8)
                self.loads.append((p_offset, p_vaddr, p_filesz))
        for i in range(e_shnum):
            off = e_shoff + i * e_shentsize
            if off + 8 > len(data):
                break
            sh_type, = struct.unpack_from("<I", data, off + 4)
            if sh_type == 2:  # SHT_SYMTAB
                self.has_symtab = True

    def vaddr(self, file_offset):
        for p_offset, p_vaddr, p_filesz in self.loads:
            if p_offset <= file_offset < p_offset + p_filesz:
                return file_offset - p_offset + p_vaddr
        return file_offset


def parse_profile(path):
    header, samples, maps = "", [], []
    in_maps = False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# prof_sampler"):
                header = line[2:]
            elif line == "# maps":
                in_maps = True
            elif in_maps:
                maps.append(line)
            elif line:
                samples.append([int(a, 16) for a in line.split()])
    return header, samples, maps


def parse_maps(lines):
    regions = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        regions.append((start, end, int(parts[2], 16), parts[5]))
    regions.sort()
    return regions


def strip_params(name):
    """Drops a demangled name's parameter list and qualifiers."""
    for suffix in (" const", " &", " &&"):
        if name.endswith(suffix):
            name = name[:-len(suffix)]
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i] if i > 0 else name
    return name


def symbolize(samples, regions):
    """Maps every (address, is_leaf) in the samples to (module, name)."""
    modules = {}
    wanted = collections.defaultdict(set)  # path -> {(addr, lookup vaddr)}
    located = {}
    for stack in samples:
        for depth, addr in enumerate(stack):
            key = (addr, depth == 0)
            if key in located:
                continue
            # A return address points past its call: look up the call.
            probe = addr if depth == 0 else addr - 1
            hit = None
            for start, end, offset, path in regions:
                if start <= probe < end:
                    hit = (start, offset, path)
                    break
            if hit is None:
                located[key] = None
                continue
            start, offset, path = hit
            if path not in modules:
                modules[path] = Module(path)
            vaddr = modules[path].vaddr(probe - start + offset)
            located[key] = (path, vaddr)
            wanted[path].add(vaddr)
    names = {}
    for path, vaddrs in wanted.items():
        ordered = sorted(vaddrs)
        out = []
        try:
            proc = subprocess.run(
                ["addr2line", "-f", "-C", "-e", path] +
                ["%x" % v for v in ordered],
                capture_output=True, text=True, check=False)
            out = proc.stdout.splitlines()
        except OSError:
            pass
        for i, v in enumerate(ordered):
            fn = out[2 * i] if 2 * i < len(out) else "??"
            names[(path, v)] = strip_params(fn)
    frames = {}
    for key, loc in located.items():
        if loc is None:
            frames[key] = ("?", "0x%x" % key[0], False)
            continue
        path, vaddr = loc
        module = modules[path]
        fn = names.get((path, vaddr), "??")
        if fn == "??":
            fn = "%s+0x%x" % (module.name, vaddr)
        frames[key] = (module.name, fn, module.has_symtab)
    return frames


def named_stacks(samples, frames):
    """Each sample as a list of names, leaf first. Frames of modules without
    a symbol table are named after the module and their first dfdb:: caller.
    """
    stacks = []
    for stack in samples:
        raw = [frames[(addr, d == 0)] for d, addr in enumerate(stack)]
        names = []
        for i, (module, fn, trusted) in enumerate(raw):
            if trusted:
                names.append(fn)
                continue
            caller = next((f for m, f, t in raw[i + 1:]
                           if t and f.startswith("dfdb::")), None)
            names.append("[%s] in %s" % (module, caller) if caller
                         else "[%s]" % module)
        stacks.append(names)
    return stacks


def print_table(title, counts, total, top):
    print("\n%s (top %d of %d)" % (title, min(top, len(counts)), len(counts)))
    print("%7s %7s  %s" % ("share", "samples", "function"))
    for name, n in counts.most_common(top):
        print("%6.1f%% %7d  %s" % (100.0 * n / total, n, name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--focus", default=None,
                        help="print callers and callees of functions whose "
                             "name contains this string")
    args = parser.parse_args()

    header, samples, maps = parse_profile(args.profile)
    samples = [s for s in samples if s]
    if not samples:
        sys.exit("%s: no samples" % args.profile)
    stacks = named_stacks(samples, symbolize(samples, parse_maps(maps)))
    total = len(stacks)
    print("%s: %s" % (args.profile, header))

    self_counts = collections.Counter(s[0] for s in stacks)
    inclusive = collections.Counter()
    for s in stacks:
        inclusive.update(set(s))
    print_table("Self", self_counts, total, args.top)
    print_table("Inclusive", inclusive, total, args.top)

    if args.focus:
        callers, callees = collections.Counter(), collections.Counter()
        hits = 0
        for s in stacks:
            idx = next((i for i, n in enumerate(s) if args.focus in n), None)
            if idx is None:
                continue
            hits += 1
            callers[s[idx + 1] if idx + 1 < len(s) else "(root)"] += 1
            callees[s[idx - 1] if idx > 0 else "(self)"] += 1
        print("\nFocus %r: %d samples, %.1f%%" %
              (args.focus, hits, 100.0 * hits / total))
        if hits:
            print_table("Callers of %r" % args.focus, callers, total, args.top)
            print_table("Callees of %r" % args.focus, callees, total, args.top)


if __name__ == "__main__":
    main()
