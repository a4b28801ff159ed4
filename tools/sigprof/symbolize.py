#!/usr/bin/env python3
"""symbolize.py SAMPLES [TOP]: self and inclusive shares per function.

Reads what sigprof.so wrote: `S pc caller caller ...` per sample, then the
process's /proc/self/maps as `M` lines. PCs inside the sampled executable
are named from `nm -C` (so it must still be where it ran); the rest are
named after their mapping, e.g. [libc.so.6]. A sample counts once towards
the self share of its first frame and once towards the inclusive share of
every distinct function on its stack.
"""
import bisect, collections, os, subprocess, sys

samples, maps = [], []
for line in open(sys.argv[1]):
    kind, *rest = line.split()
    if kind == "S":
        samples.append([int(pc, 16) for pc in rest])
    elif len(rest) >= 6 and rest[5].startswith("/"):
        lo, hi = (int(x, 16) for x in rest[0].split("-"))
        maps.append((lo, hi, int(rest[2], 16), rest[5]))
top = int(sys.argv[2]) if len(sys.argv) > 2 else 20
exe = maps[0][3]
base = min(lo - off for lo, _, off, path in maps if path == exe)
nm = subprocess.run(["nm", "-C", "--defined-only", exe], capture_output=True, text=True).stdout
syms = sorted((int(a, 16), name) for a, t, name in (l.split(" ", 2) for l in nm.splitlines()) if t in "tTwW")
addrs = [a for a, _ in syms]

def name(pc):
    for lo, hi, _, path in maps:
        if lo <= pc < hi:
            if path != exe:
                return "[%s]" % os.path.basename(path)
            i = bisect.bisect_right(addrs, pc - base) - 1
            return syms[i][1].strip() if i >= 0 else "[%s]" % os.path.basename(exe)
    return "[unmapped]"

self_n, incl_n = collections.Counter(), collections.Counter()
for stack in samples:
    # A return address names the instruction after the call: step back into it.
    frames = [name(stack[0])] + [name(pc - 1) for pc in stack[1:]]
    self_n[frames[0]] += 1
    incl_n.update(set(frames))
try:
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print("%s, %d samples" % (title, len(samples)))
        for fn, n in counts.most_common(top):
            print("  %5.1f%%  %s" % (100.0 * n / max(len(samples), 1), fn))
    sys.stdout.flush()
except BrokenPipeError:
    # `... | head` has read what it wanted. Point stdout at /dev/null so the
    # interpreter's own flush at exit finds no closed pipe to complain about.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
