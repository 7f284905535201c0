// Isolated calls into each layer's public functions, made only in traced
// runs with the workload's key and seed. Each figure is the median of a few
// timed repetitions, and each repetition is one span.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "rsa/key.hpp"

namespace perfbench {

struct LayerCosts {
  double mont_mul_ns = 0;                 // default context, 1024-bit CRT half
  double mont_sqr_ns = 0;
  double mont_batch_mul_ns_per_lane = 0;  // default batch context, per lane
  double rsa_private_op_ms = 0;           // rsa::Engine defaults
  double rsa_batch16_ms_per_lane = 0;     // rsa::BatchEngine defaults
  double rsa_public_op_us = 0;
  double prf_us = 0;  // one 96-byte key-block expansion
  double record_seal_us = 0;
  double record_open_us = 0;
  double cache_get_ns = 0;
  double cache_put_ns = 0;
};

LayerCosts measure_layers(const phissl::rsa::PrivateKey& key, std::uint64_t seed,
                          Tracer& tracer);

}  // namespace perfbench
