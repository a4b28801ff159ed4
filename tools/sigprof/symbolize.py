#!/usr/bin/env python3
"""symbolize.py [--split-libc] SAMPLES [TOP]: self and inclusive shares per function.
symbolize.py --allocs RECORDS [TOP]: allocator calls per call site.
symbolize.py --annotate FUNCTION SAMPLES: one function's self samples per instruction.
symbolize.py [--split-libc] --callers FUNCTION SAMPLES [TOP]: one function's self samples by caller.
symbolize.py --lines [FUNCTION] SAMPLES [TOP]: self samples by workspace source line.

Reads what sigprof.so wrote: `S word pc caller caller ...` per sample (word:
the 8 bytes at RSP when the sample was taken), then the
process's /proc/self/maps as `M` lines. PCs inside the sampled executable
are named from `nm -C` (so it must still be where it ran); the rest are
named after their mapping, e.g. [libc.so.6]. A sample counts once towards
the self share of its first frame and once towards the inclusive share of
every distinct function on its stack. A caller PC that lies in no mapping
is dropped: without frame pointers RBP is a general register, and the walk
reads whatever sits where it points (only a frame-pointer build's inclusive
table means anything; see README.md).

--split-libc cuts the [libc.so.6] line in three by file offset, which is
all a stripped libc leaves to go by: `malloc.c` is the run of text around
the exported allocator entry points (its static workers sit between them
and the neighbouring objects' exports), `mem*` is libc's longest run of
text without any exported function (on x86-64 glibc: the IFUNC-selected
memmove/memset/str* variants, which are local symbols), the rest is
`other`. The ranges used are printed, to be checked with objdump.

--annotate prints `objdump -d --no-show-raw-insn` of every symbol whose
demangled name is exactly FUNCTION (a generic function has one per
instantiation) with the samples that stopped at each instruction in front
of it. It needs no frame pointers: only the sampled RIP is used.

--callers takes the samples whose first frame is named FUNCTION exactly (as
the self table prints it, `[libc.so.6: mem*]` with --split-libc) and groups
them by their first three caller frames. It needs a frame-pointer build. A
frameless leaf such as libc's mem* never pushes a frame, so the RBP chain
starts at its caller's caller; for a sample in the mem* run (--split-libc)
whose word at RSP is a PC in the executable's text, that word is the return
address into the caller and is shown as the first caller.

--lines groups the self samples (all of them, or FUNCTION's) by the innermost
source line of the workspace at the sampled RIP: `addr2line -i` lists the
lines inlined at a PC, innermost first, and the first one that is not in the
toolchain's library or a registry crate names it. A probe of the std HashMap
inlined into a workspace function is charged to the workspace line that
made it. It needs line tables (a build with
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only; README.md); samples outside
the executable keep their mapping's name.

--allocs reads what alloctrace.so wrote: `A size caller caller ...` per
allocator call. A call is charged to its first frame that is not the
allocator's own plumbing (alloc::, core::, hashbrown::, __rust_*): share of
calls, count, mean size.
"""
import bisect, collections, os, re, subprocess, sys

args = [a for a in sys.argv[1:] if not a.startswith("--")]
flags = {a for a in sys.argv[1:] if a.startswith("--")}
# `--lines` takes FUNCTION only when SAMPLES follows it (`--lines SAMPLES TOP` has none).
takes_function = flags & {"--annotate", "--callers"} or ("--lines" in flags and len(args) > 1 and not args[1].isdigit())
function = args.pop(0) if takes_function else None
rows, words, maps, text = [], [], [], []
for line in open(args[0]):
    kind, *rest = line.split()
    if kind in "SA":
        row = [int(x, 16 if kind == "S" or i else 10) for i, x in enumerate(rest)]
        if kind == "S":
            words.append(row.pop(0))
        rows.append(row)
    elif len(rest) >= 6 and rest[5].startswith("/"):
        lo, hi = (int(x, 16) for x in rest[0].split("-"))
        maps.append((lo, hi, int(rest[2], 16), rest[5]))
        if "x" in rest[1]:
            text.append((lo, hi, rest[5]))
top = int(args[1]) if len(args) > 1 else 20
exe = maps[0][3]
exe_text = [(lo, hi) for lo, hi, path in text if path == exe]
base = min(lo - off for lo, _, off, path in maps if path == exe)
nm = subprocess.run(["nm", "-C", "--defined-only", exe], capture_output=True, text=True).stdout
syms = sorted((int(a, 16), name) for a, t, name in (l.split(" ", 2) for l in nm.splitlines()) if t in "tTwW")
addrs = [a for a, _ in syms]

ALLOCATOR = re.compile(r"^(__libc_)?(malloc|free|cfree|calloc|realloc|memalign|aligned_alloc|posix_memalign|valloc"
                       r"|pvalloc|mallinfo2?|mallopt|malloc_(trim|usable_size|stats|info))$|^__default_morecore$")

def libc_ranges(path):
    """(malloc.c, mem*) as file-offset ranges of `path`'s text, from its exports."""
    out = subprocess.run(["nm", "-D", "--defined-only", "-S", path], capture_output=True, text=True).stdout
    funcs = sorted({(int(f[0], 16), int(f[1], 16), f[3].split("@")[0])
                    for f in (l.split() for l in out.splitlines()) if len(f) == 4 and f[2] in "TtWwi"})
    # The run of allocator exports around `malloc`, out to the neighbouring objects' exports.
    below = above = next(i for i, f in enumerate(funcs) if f[2] == "malloc")
    while below > 0 and ALLOCATOR.match(funcs[below - 1][2]):
        below -= 1
    while above + 1 < len(funcs) and ALLOCATOR.match(funcs[above + 1][2]):
        above += 1
    malloc_c = (sum(funcs[below - 1][:2]) if below else 0, funcs[above + 1][0] if above + 1 < len(funcs) else 1 << 62)
    gaps = [(b[0] - (a[0] + a[1]), a[0] + a[1], b[0]) for a, b in zip(funcs, funcs[1:])]
    return malloc_c, max(gaps)[1:]

split = {}
if "--split-libc" in flags:
    for lo, _, off, path in maps:
        if os.path.basename(path).startswith("libc.so") and path not in split:
            split[path] = libc_ranges(path)
            (a, b), (c, d) = split[path]
            print("%s: malloc.c = %#x-%#x, mem* = %#x-%#x (file offsets)" % (os.path.basename(path), a, b, c, d))

def name(pc):
    for lo, hi, off, path in maps:
        if lo <= pc < hi:
            if path in split:
                (a, b), (c, d) = split[path]
                at = pc - (lo - off)
                part = "malloc.c" if a <= at < b else "mem*" if c <= at < d else "other"
                return "[%s: %s]" % (os.path.basename(path), part)
            if path != exe:
                return "[%s]" % os.path.basename(path)
            i = bisect.bisect_right(addrs, pc - base) - 1
            return syms[i][1].strip() if i >= 0 else "[%s]" % os.path.basename(exe)
    return "[unmapped]"

PLUMBING = re.compile(r"^<?(alloc|core|hashbrown)::|^__rust_|^__rdl_|^__rg_|^\[")

def call_sites():
    calls, sizes = collections.Counter(), collections.Counter()
    for size, *stack in rows:
        # A return address names the instruction after the call: step back into it.
        frames = [name(pc - 1) for pc in stack]
        site = next((f for f in frames if not PLUMBING.search(f)), frames[0] if frames else "[no frames]")
        calls[site] += 1
        sizes[site] += size
    print("allocator calls by call site, %d calls" % len(rows))
    for site, n in calls.most_common(top):
        print("  %5.1f%%  %8d  %7.1f B  %s" % (100.0 * n / max(len(rows), 1), n, sizes[site] / n, site))

def shares():
    self_n, incl_n = collections.Counter(), collections.Counter()
    for stack in rows:
        callers = [name(pc - 1) for pc in stack[1:]]
        frames = [name(stack[0])] + [f for f in callers if f != "[unmapped]"]
        self_n[frames[0]] += 1
        incl_n.update(set(frames))
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print("%s, %d samples" % (title, len(rows)))
        for fn, n in counts.most_common(top):
            print("  %5.1f%%  %s" % (100.0 * n / max(len(rows), 1), fn))

def annotate(fn):
    hits = collections.Counter(stack[0] - base for stack in rows if name(stack[0]) == fn)
    print("%s: %d of %d samples" % (fn, sum(hits.values()), len(rows)))
    for addr, sym in syms:
        if sym.strip() != fn:
            continue
        k = bisect.bisect_right(addrs, addr)
        end = addrs[k] if k < len(addrs) else addr + 1
        if not any(addr <= pc < end for pc in hits):
            continue
        dis = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", "--start-address=%#x" % addr,
                              "--stop-address=%#x" % end, exe], capture_output=True, text=True).stdout
        for line in dis.splitlines():
            at = re.match(r"\s*([0-9a-f]+):\t", line)
            if at:
                n = hits.get(int(at.group(1), 16), 0)
                print("%6s %s" % (n or "", line))

def callers(fn):
    chains = collections.Counter()
    leaf = fn.endswith(": mem*]")
    for stack, word in zip(rows, words):
        if name(stack[0]) == fn:
            up = [f for f in (name(pc - 1) for pc in stack[1:]) if f != "[unmapped]"]
            if leaf and any(lo <= word < hi for lo, hi in exe_text):
                up.insert(0, name(word - 1))
            chains[" <- ".join(up[:3]) or "[no caller]"] += 1
    n = sum(chains.values())
    print("%s: %d of %d samples, by first three callers" % (fn, n, len(rows)))
    for chain, k in chains.most_common(top):
        print("  %5.1f%%  %6d  %s" % (100.0 * k / max(n, 1), k, chain))

# Source paths that are not the workspace's: the toolchain's library
# (`/rustc/<hash>/library/...`) and vendored or registry crates.
FOREIGN = re.compile(r"^/rustc/|/\.cargo/registry/|/\.rustup/|/rust/deps/|^\?\?")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

def lines(fn):
    pcs = collections.Counter(stack[0] for stack in rows if fn is None or name(stack[0]) == fn)
    ours = sorted(pc for pc in pcs if any(lo <= pc < hi for lo, hi in exe_text))
    out = subprocess.run(["addr2line", "-i", "-a", "-e", exe], input="".join("%#x\n" % (pc - base) for pc in ours),
                         capture_output=True, text=True).stdout
    # `-a` prints each address, then its inline chain, innermost first.
    chains = collections.defaultdict(list)
    for line in out.splitlines():
        if line.startswith("0x"):
            chain = chains[int(line, 16) + base]
        else:
            chain.append(re.sub(r" \(discriminator \d+\)$", "", line))
    by_line = collections.Counter()
    for pc, k in pcs.items():
        if pc in chains:
            site = next((f for f in chains[pc] if not FOREIGN.search(f)), "[no workspace line] " + chains[pc][0])
            site = os.path.relpath(site, ROOT) if site.startswith(ROOT + "/") else site
        else:
            site = name(pc)
        by_line[site] += k
    n = sum(pcs.values())
    print("%s: %d of %d samples, by workspace source line" % (fn or "all functions", n, len(rows)))
    for site, k in by_line.most_common(top):
        print("  %5.1f%%  %6d  %s" % (100.0 * k / max(len(rows), 1), k, site))

try:
    if "--lines" in flags:
        lines(function)
    elif "--annotate" in flags:
        annotate(function)
    elif "--callers" in flags:
        callers(function)
    else:
        call_sites() if "--allocs" in flags else shares()
    sys.stdout.flush()
except BrokenPipeError:
    # `... | head` has read what it wanted. Point stdout at /dev/null so the
    # interpreter's own flush at exit finds no closed pipe to complain about.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
