/* sigprof.c: an LD_PRELOAD sampling profiler for boxes without `perf`.
 * About every millisecond of process CPU time (ITIMER_PROF; in practice every
 * kernel tick) it records the interrupted RIP, the word at RSP (a frameless
 * leaf's return address) and, through the RBP chain, its callers; at exit it writes the samples and /proc/self/maps to $SIGPROF_OUT
 * (default sigprof.out) for symbolize.py. See README.md. x86-64 Linux only;
 * only the main thread's stacks are walked (other threads' samples keep their
 * RIP alone). */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

enum { MAX_SAMPLES = 1 << 18, DEPTH = 24 };
static uint64_t samples[MAX_SAMPLES][DEPTH]; /* zero-terminated rows; BSS, paged in as used */
static uint64_t top_words[MAX_SAMPLES];      /* the word at RSP: a frameless leaf's return address */
static size_t n_samples;
static uint64_t stack_top, stack_span; /* the main thread's stack ends at top, is at most span long */

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    ucontext_t *uc = uc_;
    size_t n = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED); /* threads share the buffer */
    if (n >= MAX_SAMPLES) return;
    uint64_t *row = samples[n];
    uint64_t rbp = uc->uc_mcontext.gregs[REG_RBP], rsp = uc->uc_mcontext.gregs[REG_RSP];
    int d = 0;
    row[d++] = uc->uc_mcontext.gregs[REG_RIP];
    top_words[n] = *(uint64_t *)rsp; /* the interrupted thread's own stack: always mapped */
    /* A frame pointer is believed only while it stays inside the stack and
     * moves up it (without -C force-frame-pointers RBP holds anything, -8
     * included, and the walk ends early). */
    if (rsp >= stack_top || stack_top - rsp > stack_span) return; /* another thread's stack */
    while (d < DEPTH && rbp >= rsp && rbp < stack_top && stack_top - rbp >= 16 && rbp % 8 == 0) {
        uint64_t next = ((uint64_t *)rbp)[0], ret = ((uint64_t *)rbp)[1];
        if (ret < 4096) break;
        row[d++] = ret;
        if (next <= rbp) break;
        rbp = next;
    }
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
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1003}, {0, 1003}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out) return;
    for (size_t i = 0; i < n_samples && i < MAX_SAMPLES; i++) {
        fprintf(out, "S %lx", top_words[i]);
        for (int d = 0; d < DEPTH && samples[i][d]; d++) fprintf(out, " %lx", samples[i][d]);
        fputc('\n', out);
    }
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fclose(out);
}
