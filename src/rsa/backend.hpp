// Host-backend selection for the RSA engines.
//
// The repo carries three interchangeable Montgomery implementations of
// the private-op hot loop, and the service layer needs to A/B them
// without rebuilding:
//   knc_vec  - the paper-faithful 16-lane redundant-radix kernels
//              (mont::VectorMontCtx / mont::BatchVectorMontCtx),
//   ifma52   - radix-2^52 truncated REDC (mont::IfmaMontCtx /
//              mont::BatchIfmaMontCtx), vpmadd52 when the CPU has
//              AVX-512 IFMA, the portable u128 instantiation otherwise,
//   scalar64 - the word-serial CIOS baseline (mont::MontCtx64).
//
// `Backend` is the coarse service-level knob (SignServiceConfig,
// BatchDecryptConfig, DriverConfig, the bench --backend flags); it maps
// onto the finer-grained rsa::Kernel for the scalar Engine via
// kernel_for() in engine.hpp. The service-level defaults come from
// default_backend(): ifma52 where the CPU runs vpmadd52, knc_vec elsewhere
// (the portable u128 ifma52 path is 2-4x slower than knc_vec).
// PHISSL_FORCE_BACKEND overrides every construction-site choice
// process-wide — a CI sanitizer leg uses PHISSL_FORCE_BACKEND=knc_vec to
// push the whole suite through the paper's kernels without touching any
// call site.
#pragma once

#include <optional>
#include <string_view>

namespace phissl::rsa {

/// Which Montgomery backend family carries the private-op hot loop.
enum class Backend {
  kKncVec,    ///< 16-lane redundant-radix SIMD (PhiOpenSSL-faithful)
  kIfma52,    ///< radix-2^52 truncated REDC (vpmadd52 or portable u128)
  kScalar64,  ///< word-serial CIOS, 64-bit limbs (OpenSSL-like baseline)
};

/// "knc_vec" / "ifma52" / "scalar64".
const char* to_string(Backend b);

/// Parses the names accepted by PHISSL_FORCE_BACKEND and the bench
/// --backend flags: "knc_vec", "ifma52", "ifma52-portable" (also
/// kIfma52 — the context itself pins the portable path when it sees the
/// env spelling), "scalar64". nullopt for anything else.
std::optional<Backend> backend_from_string(std::string_view name);

/// The backend the service-level configs default to: kIfma52 when the
/// IFMA kernels are compiled in and util::cpu_features() reports AVX-512
/// IFMA, else kKncVec. Probed once per process; PHISSL_FORCE_BACKEND still
/// overrides it at construction (resolve_backend).
Backend default_backend();

/// The PHISSL_FORCE_BACKEND environment override, parsed once per
/// process. nullopt when unset or unrecognized.
std::optional<Backend> forced_backend();

/// `requested`, unless PHISSL_FORCE_BACKEND names a backend.
Backend resolve_backend(Backend requested);

}  // namespace phissl::rsa
