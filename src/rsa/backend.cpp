#include "rsa/backend.hpp"

#include <cstdlib>

#include "mont/ifma_kernels.hpp"
#include "util/cpu.hpp"

namespace phissl::rsa {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kKncVec:
      return "knc_vec";
    case Backend::kIfma52:
      return "ifma52";
    case Backend::kScalar64:
      return "scalar64";
  }
  return "?";
}

std::optional<Backend> backend_from_string(std::string_view name) {
  if (name == "knc_vec") return Backend::kKncVec;
  if (name == "ifma52" || name == "ifma52-portable") return Backend::kIfma52;
  if (name == "scalar64") return Backend::kScalar64;
  return std::nullopt;
}

Backend default_backend() {
  static const Backend b =
      mont::ifma::compiled() && util::cpu_features().avx512ifma
          ? Backend::kIfma52
          : Backend::kKncVec;
  return b;
}

std::optional<Backend> forced_backend() {
  // Parsed once: the override is a process-wide A/B switch, not a
  // per-call one, and construction sites may sit on hot paths.
  static const std::optional<Backend> forced = [] {
    const char* v = std::getenv("PHISSL_FORCE_BACKEND");
    return v == nullptr ? std::nullopt : backend_from_string(v);
  }();
  return forced;
}

Backend resolve_backend(Backend requested) {
  return forced_backend().value_or(requested);
}

}  // namespace phissl::rsa
