/* alloctrace.c: an LD_PRELOAD call-site tracer for the allocator, for boxes
 * without `perf` or `ltrace`. Every ALLOCTRACE_EVERY-th (default: every)
 * `malloc`, `calloc` and `realloc` the process makes is written down as its
 * size and, through the RBP chain, its callers; at exit the records and
 * /proc/self/maps go to $ALLOCTRACE_OUT (default alloctrace.out) for
 * `symbolize.py --allocs`. `free` is not interposed: this answers "who
 * calls the allocator, how often, for how much", not "who leaks". Use with
 * the `-C force-frame-pointers=yes` profiling copy README.md describes — a
 * plain build's chain ends at the first frame. x86-64 Linux only; only the
 * main thread's stacks are walked (other threads' calls keep their size
 * alone). */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

enum { MAX_RECORDS = 1 << 21, DEPTH = 16 };
static uint64_t records[MAX_RECORDS][DEPTH]; /* size, then zero-terminated PCs; BSS, paged in as used */
static size_t n_records, n_calls, every = 1;
static uint64_t stack_top, stack_span;

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);

/* `dlsym` may allocate before it can say where the allocator is: those
 * calls (a few hundred bytes, once) are served from here and never freed. */
static char bootstrap[4096];
static size_t bootstrap_used;
static int resolving;

static void *bootstrap_alloc(size_t size) {
    size_t at = (bootstrap_used + 15) & ~(size_t)15;
    if (at + size > sizeof bootstrap) abort();
    bootstrap_used = at + size;
    return bootstrap + at; /* BSS: already zero, as calloc promises */
}

static void resolve(void) {
    resolving = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    resolving = 0;
}

/* Record one call of `size` bytes made from the frame whose saved RBP and
 * return address sit at `frame` (the interposer's own, built with
 * -fno-omit-frame-pointer). */
static void note(size_t size, uint64_t *frame) {
    if (__atomic_fetch_add(&n_calls, 1, __ATOMIC_RELAXED) % every) return;
    size_t n = __atomic_fetch_add(&n_records, 1, __ATOMIC_RELAXED);
    if (n >= MAX_RECORDS) return;
    uint64_t *row = records[n], rbp = (uint64_t)frame;
    int d = 0;
    row[d++] = size;
    /* As in sigprof.c: a frame pointer is believed only while it stays
     * inside the main thread's stack and moves up it. */
    while (d < DEPTH && rbp < stack_top && stack_top - rbp <= stack_span && stack_top - rbp >= 16 &&
           rbp % 8 == 0) {
        uint64_t next = ((uint64_t *)rbp)[0], ret = ((uint64_t *)rbp)[1];
        if (ret < 4096) break;
        row[d++] = ret;
        if (next <= rbp) break;
        rbp = next;
    }
}

void *malloc(size_t size) {
    if (!real_malloc) {
        if (resolving) return bootstrap_alloc(size);
        resolve();
    }
    note(size, __builtin_frame_address(0));
    return real_malloc(size);
}

void *calloc(size_t count, size_t size) {
    if (!real_calloc) {
        if (resolving) return bootstrap_alloc(count * size);
        resolve();
    }
    note(count * size, __builtin_frame_address(0));
    return real_calloc(count, size);
}

void *realloc(void *ptr, size_t size) {
    if (!real_realloc) resolve();
    note(size, __builtin_frame_address(0));
    if ((char *)ptr >= bootstrap && (char *)ptr < bootstrap + sizeof bootstrap) {
        void *moved = real_malloc(size); /* grown out of the bootstrap arena */
        if (moved) memcpy(moved, ptr, size < sizeof bootstrap ? size : sizeof bootstrap);
        return moved;
    }
    return real_realloc(ptr, size);
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    unsigned long lo, hi;
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2) stack_top = hi;
    if (maps) fclose(maps);
    struct rlimit limit;
    getrlimit(RLIMIT_STACK, &limit);
    stack_span = limit.rlim_cur == RLIM_INFINITY ? 8 << 20 : limit.rlim_cur;
    const char *n = getenv("ALLOCTRACE_EVERY");
    if (n && atol(n) > 0) every = atol(n);
}

__attribute__((destructor)) static void dump(void) {
    size_t n = n_records < MAX_RECORDS ? n_records : MAX_RECORDS;
    every = (size_t)-1; /* what writing the file allocates is not the program's */
    const char *path = getenv("ALLOCTRACE_OUT");
    FILE *out = fopen(path ? path : "alloctrace.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out) return;
    for (size_t i = 0; i < n; i++) {
        fprintf(out, "A %lu", records[i][0]);
        for (int d = 1; d < DEPTH && records[i][d]; d++) fprintf(out, " %lx", records[i][d]);
        fputc('\n', out);
    }
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fclose(out);
}
