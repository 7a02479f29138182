/// \file prof_sampler.cc
/// \brief A CPU-time stack sampler loaded with LD_PRELOAD, for hosts
/// without `perf`.
///
///   PROF_HZ=500 PROF_OUT=/tmp/p10 PROF_COMM=perfbench
///   LD_PRELOAD=build/tools/libprof_sampler.so <command>
///
/// (one command line: the variables, then the command).
///
/// Each process that loads the library, and whose name (/proc/self/comm)
/// equals PROF_COMM when that is set, arms setitimer(ITIMER_PROF) at PROF_HZ
/// samples per CPU-second (default 500). Every SIGPROF records the
/// interrupted thread's stack, leaf first, into a buffer allocated before
/// the timer starts (100,000 stacks of at most 64 frames; the output's
/// `dropped=` counts samples past that), so the handler never allocates.
/// At exit the process writes `<PROF_OUT>.<pid>` (default `prof.<pid>`):
/// one line of hex addresses per sample, then a copy of /proc/self/maps.
/// tools/prof_report.py symbolizes and summarizes it.

#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kMaxDepth = 64;
constexpr size_t kMaxSamples = 100000;

struct Sample {
  uint32_t depth;
  void* pc[kMaxDepth];
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_next{0};
std::atomic<bool> g_recording{false};
int g_hz = 0;
char g_out_path[1024];

/// The interrupted program counter, or null where the layout is unknown.
void* InterruptedPc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void OnProf(int, siginfo_t*, void* context) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    // backtrace() starts inside this handler and the signal trampoline;
    // the stack proper starts at the interrupted pc.
    void* frames[kMaxDepth + 4];
    const int n = backtrace(frames, kMaxDepth + 4);
    void* pc = InterruptedPc(context);
    int first = 0;
    while (first < n && frames[first] != pc) ++first;
    Sample& s = g_samples[i];
    uint32_t depth = 0;
    if (first == n) {
      // The unwinder skipped the interrupted frame: keep the pc, then
      // whatever lies past the handler and the trampoline.
      if (pc != nullptr) s.pc[depth++] = pc;
      first = n < 2 ? n : 2;
    }
    for (int f = first; f < n && depth < kMaxDepth; ++f) {
      s.pc[depth++] = frames[f];
    }
    s.depth = depth;
  }
  errno = saved_errno;
}

bool NameMatches(const char* want) {
  if (want == nullptr || *want == '\0') return true;
  FILE* f = std::fopen("/proc/self/comm", "r");
  if (f == nullptr) return false;
  char comm[64] = {0};
  const bool read = std::fgets(comm, sizeof(comm), f) != nullptr;
  std::fclose(f);
  if (!read) return false;
  comm[std::strcspn(comm, "\n")] = '\0';
  return std::strcmp(comm, want) == 0;
}

__attribute__((constructor, used)) void Start() {
  if (!NameMatches(std::getenv("PROF_COMM"))) return;
  const char* hz = std::getenv("PROF_HZ");
  const char* out = std::getenv("PROF_OUT");
  g_hz = hz != nullptr ? std::atoi(hz) : 500;
  if (g_hz <= 0 || g_hz > 100000) return;
  std::snprintf(g_out_path, sizeof(g_out_path), "%s.%d",
                out != nullptr && *out != '\0' ? out : "prof",
                static_cast<int>(getpid()));
  void* mem = mmap(nullptr, kMaxSamples * sizeof(Sample),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  // The first backtrace() loads the unwinder, which allocates: do it here,
  // never inside the handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  g_recording.store(true, std::memory_order_relaxed);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1000000 / g_hz;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor, used)) void Stop() {
  if (g_samples == nullptr) return;
  struct itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  g_recording.store(false, std::memory_order_relaxed);
  // A handler already past the check may still be filling its slot.
  usleep(10000);
  const size_t taken = g_next.load(std::memory_order_relaxed);
  const size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  FILE* f = std::fopen(g_out_path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "# prof_sampler hz=%d samples=%zu dropped=%zu\n", g_hz,
               kept, taken - kept);
  for (size_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    for (uint32_t d = 0; d < s.depth; ++d) {
      std::fprintf(f, d == 0 ? "%lx" : " %lx",
                   static_cast<unsigned long>(
                       reinterpret_cast<uintptr_t>(s.pc[d])));
    }
    std::fputc('\n', f);
  }
  std::fputs("# maps\n", f);
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps != nullptr) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, f);
    }
    std::fclose(maps);
  }
  std::fclose(f);
}

}  // namespace
