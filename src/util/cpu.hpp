// Runtime CPU probes: instruction-set features for kernel backend
// selection, and the number of CPUs this process may run on for sizing
// the crypto worker pools.
//
// The build may compile several Montgomery backends (the KNC-faithful
// 27-bit vector path, the radix-52 IFMA path, the scalar references); which
// one actually runs is decided at context-construction time from this
// probe plus the PHISSL_FORCE_BACKEND override (see rsa/backend.hpp). Both
// probes are evaluated once per process and cached.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace phissl::util {

struct CpuFeatures {
  bool avx512f = false;     ///< AVX-512 Foundation (512-bit vectors)
  bool avx512ifma = false;  ///< vpmadd52luq / vpmadd52huq available
};

/// Cached one-time probe of the machine this process runs on. On non-x86
/// builds every feature reads false and the portable emulation paths run.
const CpuFeatures& cpu_features();

/// CPUs this process may keep busy at once: the sched_getaffinity mask
/// count, capped by the cgroup-v2 `cpu.max` quota (rounded up) of this
/// process's cgroup when one is set, and at least 1. The
/// dispatch-pool defaults (SignServiceConfig, BatchDecryptConfig,
/// DriverConfig) use it, so a container granted 2 of a host's 64 CPUs runs
/// 2 crypto workers rather than 64 that preempt each other. Resolved once
/// per process and cached; a later affinity or quota change is not seen.
/// Off Linux it falls back to std::thread::hardware_concurrency().
std::size_t usable_cpus();

/// Parses one cgroup-v2 `cpu.max` line ("<quota> <period>" in
/// microseconds, or "max <period>") into the CPUs it grants,
/// ceil(quota / period). nullopt for "max" (no quota) and for anything
/// malformed.
std::optional<std::size_t> cpus_from_cpu_max(std::string_view line);

}  // namespace phissl::util
