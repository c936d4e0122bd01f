#include "grist/parallel/mp_launch.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <omp.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace grist::parallel {

std::string makeSegmentName() {
  const auto ns = std::chrono::steady_clock::now().time_since_epoch().count();
  return "/grist-mp-" + std::to_string(::getpid()) + "-" +
         std::to_string(static_cast<unsigned long long>(ns) % 0x1000000ull);
}

CpuShare cpuShare(Index nranks) {
  CpuShare c;
  c.nranks = nranks;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) c.cpus.push_back(cpu);
    }
  }
  if (c.cpus.empty()) {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    for (long cpu = 0; cpu < std::max(1L, n); ++cpu) {
      c.cpus.push_back(static_cast<int>(cpu));
    }
  }
  const Index ncpu = static_cast<Index>(c.cpus.size());
  c.share = static_cast<int>(std::max<Index>(1, ncpu / std::max<Index>(1, nranks)));
  c.threads = std::min(c.share, omp_get_max_threads());
  return c;
}

cpu_set_t CpuShare::block(Index rank) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  const std::size_t n = cpus.size();
  for (int i = 0; i < share; ++i) {
    const std::size_t k =
        (static_cast<std::size_t>(rank) * static_cast<std::size_t>(share) +
         static_cast<std::size_t>(i)) % n;
    CPU_SET(cpus[k], &set);
  }
  return set;
}

std::vector<pid_t> spawnRanks(Index nranks, bool pin,
                              const std::function<std::vector<std::string>(Index)>& argv_for) {
  return spawnRanks(cpuShare(nranks), pin, argv_for);
}

std::vector<pid_t> spawnRanks(const CpuShare& cpus, bool pin,
                              const std::function<std::vector<std::string>(Index)>& argv_for) {
  const Index nranks = cpus.nranks;
  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(nranks));
  for (Index r = 0; r < nranks; ++r) {
    // Materialize the child's argv and CPU mask BEFORE fork: between fork
    // and exec only async-signal-safe calls are allowed (the parent is
    // multithreaded), and heap allocation is not one of them.
    const std::vector<std::string> args = argv_for(r);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const cpu_set_t block = cpus.block(r);

    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      for (const pid_t p : pids) ::kill(p, SIGKILL);
      for (const pid_t p : pids) ::waitpid(p, nullptr, 0);
      throw std::runtime_error(std::string("spawnRanks: fork: ") +
                               std::strerror(err));
    }
    if (pid == 0) {
      if (pin) ::sched_setaffinity(0, sizeof(block), &block);  // best effort
      ::execv("/proc/self/exe", argv.data());
      _exit(127);  // exec failed; async-signal-safe exit only
    }
    pids.push_back(pid);
  }
  return pids;
}

int waitRanks(const std::vector<pid_t>& pids, double kill_grace_s) {
  std::vector<bool> done(pids.size(), false);
  std::size_t remaining = pids.size();
  int first_fail = 0;
  bool terminated = false;
  bool killed = false;
  std::chrono::steady_clock::time_point fail_at{};

  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (done[i]) continue;
      int status = 0;
      const pid_t w = ::waitpid(pids[i], &status, WNOHANG);
      if (w == 0) continue;
      done[i] = true;
      --remaining;
      progressed = true;
      int code = 1;
      if (w == pids[i]) {
        if (WIFEXITED(status)) {
          code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          code = 128 + WTERMSIG(status);
        }
      }
      if (code != 0 && first_fail == 0) {
        first_fail = code;
        fail_at = std::chrono::steady_clock::now();
      }
    }
    if (first_fail != 0 && remaining > 0) {
      // Whole-run teardown: a dead rank leaves its peers blocked on shared
      // futexes; take them down rather than hang the run.
      if (!terminated) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
          if (!done[i]) ::kill(pids[i], SIGTERM);
        }
        terminated = true;
      } else if (!killed &&
                 std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               fail_at)
                         .count() > kill_grace_s) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
          if (!done[i]) ::kill(pids[i], SIGKILL);
        }
        killed = true;
      }
    }
    if (!progressed && remaining > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return first_fail;
}

} // namespace grist::parallel
