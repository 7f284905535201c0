// Shared plumbing for the repository benchmark: clocks, quantiles, the
// in-memory span recorder, per-thread CPU accounting from /proc, and
// snapshots of the metrics the library exports through obs::Registry.
//
// Everything here observes the library from outside: spans are recorded
// only around calls the benchmark itself makes, and server-side numbers
// come from the public Prometheus rendering, never from private state.
#pragma once

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/timing.hpp"

namespace perfbench {

inline std::uint64_t now_ns() { return phissl::util::now_ns(); }

inline std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
inline long this_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile (q in [0, 1]); +inf samples sort last, so a failed
/// operation counted as +inf pushes the tail up. NaN for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Complete-event spans kept in memory and written as Chrome trace JSON.
/// Only the thread that owns the benchmark's control flow records (request
/// spans are reconstructed from returned timestamps), so no locking.
class Tracer {
 public:
  static constexpr std::size_t kCap = 1u << 19;

  bool on = false;

  void span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t id, std::uint64_t parent = 0) {
    if (!on) return;
    if (spans_.size() >= kCap) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, start_ns, end_ns > start_ns ? end_ns - start_ns : 0,
                          id, parent});
  }

  /// Writes {"traceEvents": [...]} with one "X" event per span plus the
  /// trace_dropped_spans counter tools/check_trace_json.py expects.
  bool write(const std::string& path, std::uint64_t origin_ns) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"traceEvents\":[\n";
    for (const Span& s : spans_) {
      const double ts = static_cast<double>(s.start_ns - std::min(s.start_ns, origin_ns)) / 1e3;
      os << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
         << "\"tid\":1,\"ts\":" << fmt(ts) << ",\"dur\":"
         << fmt(static_cast<double>(s.dur_ns) / 1e3) << ",\"args\":{\"id\":" << s.id
         << ",\"parent\":" << s.parent << "}},\n";
    }
    os << "{\"name\":\"trace_dropped_spans\",\"ph\":\"C\",\"pid\":1,\"ts\":0,"
       << "\"args\":{\"dropped\":" << dropped_ << "}}\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns, dur_ns, id, parent;
  };
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
  }
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Moves the calling thread round-robin over the CPUs it may run on. Each
/// vCPU of a shared host changes speed on its own schedule, so a
/// single-thread phase that steps the rotor samples all of them instead of
/// inheriting one vCPU's slow or fast episode. Restores the original
/// affinity on destruction.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotor() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  void step() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_;
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

/// Per-thread CPU ticks (utime + stime) from /proc/self/task/<tid>/stat,
/// keyed by tid.
using TaskTicks = std::map<long, std::uint64_t>;

inline TaskTicks read_task_ticks() {
  TaskTicks out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(f, line)) continue;
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15 (1-based), so they sit 11 and 12 tokens past the state.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string tok;
    std::uint64_t utime = 0, stime = 0;
    for (int i = 0; i < 13 && rest >> tok; ++i) {
      if (i == 11) utime = std::stoull(tok);
      if (i == 12) stime = std::stoull(tok);
    }
    out[std::stol(e->d_name)] = utime + stime;
  }
  ::closedir(dir);
  return out;
}

/// Busy share (CPU time / wall time) per thread between two samples.
inline std::map<long, double> busy_shares(const TaskTicks& a, const TaskTicks& b,
                                          double wall_s) {
  static const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::map<long, double> out;
  for (const auto& [tid, t1] : b) {
    const auto it = a.find(tid);
    const std::uint64_t t0 = it == a.end() ? 0 : it->second;
    out[tid] = wall_s > 0 ? static_cast<double>(t1 - std::min(t0, t1)) / hz / wall_s : 0.0;
  }
  return out;
}

/// A parsed rendering of the global obs::Registry: sample key
/// ("name{labels}") -> value. Differences between snapshots, summed over a
/// workload's slices, give per-phase server counters without touching
/// library internals.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take() {
    std::ostringstream os;
    phissl::obs::render_prometheus(os);
    RegistrySnapshot s;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const auto sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      s.v_[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return s;
  }

  /// Adds (b - a) sample by sample: accumulates one phase's delta.
  void add_delta(const RegistrySnapshot& a, const RegistrySnapshot& b) {
    for (const auto& [key, val] : b.v_) {
      const auto it = a.v_.find(key);
      v_[key] += val - (it == a.v_.end() ? 0.0 : it->second);
    }
  }

  /// Sum over every instance of `name` whose labels contain `filter`.
  [[nodiscard]] double sum(const std::string& name, const std::string& filter = "") const {
    double total = 0;
    for (const auto& [key, val] : v_) {
      if (!matches(key, name)) continue;
      if (!filter.empty() && key.find(filter) == std::string::npos) continue;
      total += val;
    }
    return total;
  }

  /// Quantile of a histogram family's samples (summed over instances),
  /// interpolated linearly inside the log2 bucket that holds the rank.
  [[nodiscard]] double quantile(const std::string& name, double q) const {
    std::map<double, double> cum;  // le -> cumulative count
    const std::string fam = name + "_bucket";
    for (const auto& [key, val] : v_) {
      if (!matches(key, fam)) continue;
      const auto le = key.find("le=\"");
      if (le == std::string::npos) continue;
      const std::string edge = key.substr(le + 4, key.find('"', le + 4) - le - 4);
      cum[edge == "+Inf" ? kInf : std::strtod(edge.c_str(), nullptr)] += val;
    }
    if (cum.empty() || cum.rbegin()->second <= 0) return 0.0;
    const double rank = q * cum.rbegin()->second;
    double prev_edge = 0, prev_cum = 0;
    for (const auto& [edge, c] : cum) {
      if (c >= rank) {
        if (std::isinf(edge)) return prev_edge;
        const double in_bucket = c - prev_cum;
        return prev_edge + (in_bucket > 0 ? (rank - prev_cum) / in_bucket : 1.0) *
                               (edge - prev_edge);
      }
      prev_edge = edge;
      prev_cum = c;
    }
    return prev_edge;
  }

 private:
  static bool matches(const std::string& key, const std::string& name) {
    return key.compare(0, name.size(), name) == 0 &&
           (key.size() == name.size() || key[name.size()] == '{');
  }
  std::map<std::string, double> v_;
};

/// Ordered name -> (value, unit) list printed as the result's metrics.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
