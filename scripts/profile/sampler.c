/* A SIGPROF sampler, preloaded into one process (see README.md).
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   SAMPLER_OUT=prof LD_PRELOAD=./sampler.so ./program
 *
 * The kernel sends SIGPROF each time the process has used another
 * millisecond of CPU time (in practice once a scheduler tick), and the
 * handler records the interrupted instruction's address. At exit the
 * process's own memory map and then the addresses, one hex value a line,
 * go to `$SAMPLER_OUT.<pid>`. Without `SAMPLER_OUT` nothing is armed. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1 << 20)
#define PERIOD_US 1000
static unsigned long samples[CAP];
static volatile sig_atomic_t n;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    if (n < CAP)
        samples[n++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("SAMPLER_OUT"))
        return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    const char *out = getenv("SAMPLER_OUT");
    if (!out)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    FILE *f = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fprintf(f, "map %s", line);
    for (sig_atomic_t i = 0; i < n; i++)
        fprintf(f, "%lx\n", samples[i]);
    fclose(maps);
    fclose(f);
}
