/*
 * A SIGPROF stack sampler, loaded into a process with LD_PRELOAD.
 *
 * The process's CPU-time interval timer (setitimer(ITIMER_PROF)) fires
 * SIGPROF at SAMPLER_HZ (default 997) ticks per CPU second, summed over
 * its threads; on each tick the handler takes one backtrace() of the
 * thread that was running and keeps it in a buffer allocated up front.
 * At exit the process writes its memory map and every sample to
 * SAMPLER_DIR/sampler.<pid>.txt (default directory: the working one).
 * Each process writes its own file, and so does each program image: a
 * launcher that replaces itself with exec (as `cargo run` does) writes
 * its samples before the exec, and the program after it then writes
 * sampler.<pid>.1.txt. The interval timer outlives an exec but the
 * handler does not, so the exec wrappers below stop the timer first: a
 * tick between exec and this library's start-up in the new image would
 * kill it. scripts/profile/fold.py symbolizes and aggregates the files.
 *
 *   gcc -shared -fPIC -O2 -o sampler.so scripts/profile/sampler.c
 *   SAMPLER_DIR=/tmp/prof LD_PRELOAD=$PWD/sampler.so ./program
 *   python3 scripts/profile/fold.py /tmp/prof/sampler.*.txt
 *
 * Build the program with debug info (the workspace's release profile
 * keeps it) so that addresses resolve to functions and inlined frames.
 *
 * Options, read once at start-up:
 *   SAMPLER_HZ       ticks per CPU second (the kernel may deliver fewer:
 *                    CPU-time timers are checked at its scheduler tick)
 *   SAMPLER_DIR      where the sample file goes
 *   SAMPLER_SAMPLES  capacity in samples (default 200000); ticks beyond
 *                    it are counted as dropped
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

/* Frames kept per sample, the handler's own two (the handler and the
 * signal trampoline) included. */
#define DEPTH 64
/* Leading frames that are the sampler's, not the program's. */
#define SKIP 2

struct sample {
    int frames;
    void *pc[DEPTH];
};

static struct sample *samples;
static size_t capacity;
static size_t taken;   /* ticks that reserved a slot, atomically */
static size_t dropped; /* ticks past the capacity, atomically */
static long hz;

static void on_tick(int sig) {
    (void)sig;
    size_t at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at >= capacity) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    samples[at].frames = backtrace(samples[at].pc, DEPTH);
}

static void set_timer(long per_second) {
    struct itimerval every = {{0, 0}, {0, 0}};
    if (per_second > 0) {
        every.it_interval.tv_usec = 1000000 / per_second;
        every.it_value = every.it_interval;
    }
    setitimer(ITIMER_PROF, &every, NULL);
}

/* A forked child writes only what it samples itself. */
static void forget_samples(void) {
    __atomic_store_n(&taken, 0, __ATOMIC_RELAXED);
    __atomic_store_n(&dropped, 0, __ATOMIC_RELAXED);
}

static long env_long(const char *name, long fallback) {
    const char *text = getenv(name);
    long value = text ? strtol(text, NULL, 10) : 0;
    return value > 0 ? value : fallback;
}

__attribute__((constructor)) static void sampler_start(void) {
    hz = env_long("SAMPLER_HZ", 997);
    if (hz > 1000000) {
        hz = 1000000;
    }
    capacity = (size_t)env_long("SAMPLER_SAMPLES", 200000);
    void *buffer = mmap(NULL, capacity * sizeof(struct sample), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buffer == MAP_FAILED) {
        return;
    }
    samples = buffer;
    /* backtrace() loads the unwinder on its first call, which is not
     * safe inside a signal handler: make that call here. */
    void *warm[2];
    backtrace(warm, 2);
    pthread_atfork(NULL, NULL, forget_samples);
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_handler = on_tick;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    set_timer(hz);
}

/* A new file for this image: sampler.<pid>.txt, or the first of
 * sampler.<pid>.<n>.txt free when an earlier image of the process wrote
 * that. */
static FILE *open_output(void) {
    const char *dir = getenv("SAMPLER_DIR");
    char path[4096];
    for (int image = 0; image < 1000; image++) {
        int n = image ? snprintf(path, sizeof path, "%s/sampler.%d.%d.txt", dir ? dir : ".",
                                 (int)getpid(), image)
                      : snprintf(path, sizeof path, "%s/sampler.%d.txt", dir ? dir : ".",
                                 (int)getpid());
        if (n < 0 || (size_t)n >= sizeof path) {
            return NULL;
        }
        int fd = open(path, O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd >= 0) {
            return fdopen(fd, "w");
        }
        if (errno != EEXIST) {
            return NULL;
        }
    }
    return NULL;
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (!samples) {
        return;
    }
    set_timer(0);
    size_t kept = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    if (kept > capacity) {
        kept = capacity;
    }
    FILE *out = open_output();
    if (!out) {
        return;
    }
    fprintf(out, "# sampler pid %d hz %ld samples %zu dropped %zu\n", (int)getpid(), hz, kept,
            __atomic_load_n(&dropped, __ATOMIC_RELAXED));
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[8192];
        while (fgets(line, sizeof line, maps)) {
            fputs(line, out);
        }
        fclose(maps);
    }
    /* One line per sample: the interrupted frame first, then each
     * caller's return address. */
    fputs("samples\n", out);
    for (size_t i = 0; i < kept; i++) {
        for (int f = SKIP; f < samples[i].frames; f++) {
            fprintf(out, f > SKIP ? " %lx" : "%lx", (unsigned long)(uintptr_t)samples[i].pc[f]);
        }
        fputc('\n', out);
    }
    fclose(out);
}

/* The exec family: write this image's samples and stop the timer, then
 * exec; if the exec fails, sampling resumes with an empty buffer (what
 * was taken is already in its file). */
static void before_exec(void) {
    sampler_stop();
    forget_samples();
}

static void after_failed_exec(void) {
    if (samples) {
        set_timer(hz);
    }
}

typedef int (*exec_fn)(const char *, char *const[], char *const[]);
typedef int (*execp_fn)(const char *, char *const[]);

int execve(const char *path, char *const argv[], char *const envp[]) {
    exec_fn real = (exec_fn)dlsym(RTLD_NEXT, "execve");
    before_exec();
    int failed = real(path, argv, envp);
    after_failed_exec();
    return failed;
}

int execvpe(const char *file, char *const argv[], char *const envp[]) {
    exec_fn real = (exec_fn)dlsym(RTLD_NEXT, "execvpe");
    before_exec();
    int failed = real(file, argv, envp);
    after_failed_exec();
    return failed;
}

int execv(const char *path, char *const argv[]) {
    execp_fn real = (execp_fn)dlsym(RTLD_NEXT, "execv");
    before_exec();
    int failed = real(path, argv);
    after_failed_exec();
    return failed;
}

int execvp(const char *file, char *const argv[]) {
    execp_fn real = (execp_fn)dlsym(RTLD_NEXT, "execvp");
    before_exec();
    int failed = real(file, argv);
    after_failed_exec();
    return failed;
}
