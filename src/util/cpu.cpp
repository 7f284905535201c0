#include "util/cpu.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace phissl::util {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512ifma = __builtin_cpu_supports("avx512ifma") != 0;
#endif
  return f;
}

#if defined(__linux__)
/// CPUs in this thread's affinity mask; 0 if the call fails. The mask is
/// sized for up to 4096 CPUs, enough for any host the library targets.
std::size_t affinity_cpus() {
  constexpr int kMaxCpus = 4096;
  cpu_set_t* set = CPU_ALLOC(kMaxCpus);
  if (set == nullptr) return 0;
  const std::size_t bytes = CPU_ALLOC_SIZE(kMaxCpus);
  std::size_t n = 0;
  if (sched_getaffinity(0, bytes, set) == 0) {
    n = static_cast<std::size_t>(CPU_COUNT_S(bytes, set));
  }
  CPU_FREE(set);
  return n;
}

/// The CPUs granted by the cgroup-v2 `cpu.max` quota of this process's
/// own cgroup (the "0::<path>" entry of /proc/self/cgroup, mounted under
/// /sys/fs/cgroup). nullopt when there is no v2 entry or no quota is set.
std::optional<std::size_t> cgroup_quota_cpus() {
  std::ifstream self("/proc/self/cgroup");
  std::string line;
  while (std::getline(self, line)) {
    if (line.compare(0, 3, "0::") != 0) continue;
    std::ifstream max("/sys/fs/cgroup" + line.substr(3) + "/cpu.max");
    std::string quota;
    std::getline(max, quota);
    return cpus_from_cpu_max(quota);
  }
  return std::nullopt;
}
#endif

std::size_t probe_usable_cpus() {
  std::size_t n = 0;
#if defined(__linux__)
  n = affinity_cpus();
  if (const auto quota = cgroup_quota_cpus(); quota && n > 0) {
    n = std::min(n, *quota);
  }
#endif
  if (n == 0) n = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, n);
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();
  return f;
}

std::size_t usable_cpus() {
  static const std::size_t n = probe_usable_cpus();
  return n;
}

std::optional<std::size_t> cpus_from_cpu_max(std::string_view line) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return std::nullopt;
  const std::string_view q = line.substr(0, sp);
  std::string_view p = line.substr(sp + 1);
  while (!p.empty() && (p.back() == '\n' || p.back() == ' ')) {
    p.remove_suffix(1);
  }
  std::size_t quota = 0;
  std::size_t period = 0;
  const auto qr = std::from_chars(q.data(), q.data() + q.size(), quota);
  const auto pr = std::from_chars(p.data(), p.data() + p.size(), period);
  if (qr.ec != std::errc{} || qr.ptr != q.data() + q.size() ||
      pr.ec != std::errc{} || pr.ptr != p.data() + p.size() || quota == 0 ||
      period == 0) {
    return std::nullopt;  // "max <period>", or malformed
  }
  return std::max<std::size_t>(1, (quota + period - 1) / period);
}

}  // namespace phissl::util
