/*
 * A SIGPROF sampler that also sees code running on fiber stacks.
 * Preload it into a single-threaded process (see bench/PROFILING.md):
 *
 *   gcc -O2 -shared -fPIC -o build/pcsample.so bench/pcsample.c
 *   LD_PRELOAD=$PWD/build/pcsample.so <program> ...
 *
 * Every 1 ms of process CPU (the kernel rounds up to its tick) it
 * records the interrupted instruction pointer and the word at the stack
 * pointer, which is the return address while a frameless libc leaf such
 * as memcpy runs. No unwinding, so the stack a rank runs on does not
 * matter. At exit it writes the samples to pcsample.<pid>.pcs (pairs of
 * u64) and a copy of /proc/self/maps to pcsample.<pid>.maps in the
 * working directory; bench/pcreport.py symbolizes them.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 21)

static uint64_t samples[MAX_SAMPLES][2];
static long nsamples;

static void
on_prof(int sig, siginfo_t *info, void *ctx)
{
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    const long i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    (void)sig;
    (void)info;
    if (i < MAX_SAMPLES) {
        samples[i][0] = (uint64_t)regs[REG_RIP];
        samples[i][1] = *(const uint64_t *)regs[REG_RSP];
    }
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], line[4096];
    const long n = nsamples < MAX_SAMPLES ? nsamples : MAX_SAMPLES;
    snprintf(path, sizeof(path), "pcsample.%d.pcs", (int)getpid());
    FILE *out = fopen(path, "wb");
    if (out) {
        fwrite(samples, sizeof(samples[0]), (size_t)n, out);
        fclose(out);
    }
    snprintf(path, sizeof(path), "pcsample.%d.maps", (int)getpid());
    FILE *maps = fopen("/proc/self/maps", "r");
    out = fopen(path, "w");
    while (maps && out && fgets(line, sizeof(line), maps))
        fputs(line, out);
    if (maps)
        fclose(maps);
    if (out)
        fclose(out);
}
