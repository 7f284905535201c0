#include "layers.hpp"

#include <array>
#include <stdexcept>
#include <span>
#include <variant>
#include <vector>

#include "bigint/bigint.hpp"
#include "mont/batch.hpp"
#include "mont/ifma_mont.hpp"
#include "mont/mont32.hpp"
#include "mont/mont64.hpp"
#include "mont/vector_mont.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "ssl/driver.hpp"
#include "ssl/prf.hpp"
#include "ssl/record.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"

namespace perfbench {

using phissl::bigint::BigInt;

namespace {

constexpr int kReps = 5;

/// Runs `body` kReps times, one span per repetition, and returns the median
/// repetition time divided by `per` (ns per unit of work).
template <typename F>
double timed(Tracer& tracer, const char* name, double per, F&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    const std::uint64_t t1 = now_ns();
    tracer.span(name, t0, t1, 0);
    reps.push_back(static_cast<double>(t1 - t0) / per);
  }
  return median(std::move(reps));
}

BigInt random_below(const BigInt& n, phissl::util::Rng& rng) {
  return BigInt::from_bytes_be(rng.bytes((n.bit_length() + 7) / 8 + 8)) % n;
}

template <typename Ctx>
void mont_costs(const Ctx& ctx, const BigInt& m, phissl::util::Rng& rng, Tracer& tracer, LayerCosts& out) {
  constexpr int kOps = 4000;
  const auto a = ctx.to_mont(random_below(m, rng));
  const auto b = ctx.to_mont(random_below(m, rng));
  auto acc = a;
  auto tmp = a;
  out.mont_mul_ns = timed(tracer, "mont.mul", kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      ctx.mul(acc, b, tmp);
      acc.swap(tmp);
    }
  });
  out.mont_sqr_ns = timed(tracer, "mont.sqr", kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      ctx.sqr(acc, tmp);
      acc.swap(tmp);
    }
  });
}

template <typename Ctx>
void batch_mont_cost(const Ctx& ctx, const BigInt& m, phissl::util::Rng& rng, Tracer& tracer,
                     LayerCosts& out) {
  constexpr int kOps = 500;
  std::array<BigInt, Ctx::kBatch> xs;
  for (auto& x : xs) x = random_below(m, rng);
  auto acc = ctx.to_mont(xs);
  const auto b = acc;
  auto tmp = acc;
  out.mont_batch_mul_ns_per_lane =
      timed(tracer, "mont.batch_mul", double{kOps} * Ctx::kBatch, [&] {
        for (int i = 0; i < kOps; ++i) {
          ctx.mul(acc, b, tmp);
          acc.swap(tmp);
        }
      });
}

}  // namespace

LayerCosts measure_layers(const phissl::rsa::PrivateKey& key, std::uint64_t seed,
                          Tracer& tracer) {
  namespace rsa = phissl::rsa;
  namespace mont = phissl::mont;
  namespace ssl = phissl::ssl;
  LayerCosts out;
  phissl::util::Rng rng(seed ^ 0x1a7e'45ULL);

  // mont: the context the default Engine runs for a CRT half.
  const rsa::Engine engine(key, rsa::EngineOptions{});
  const rsa::EngineOptions& opts = engine.options();
  switch (opts.kernel) {
    case rsa::Kernel::kVector:
      mont_costs(mont::VectorMontCtx(key.p, opts.digit_bits), key.p, rng, tracer, out);
      break;
    case rsa::Kernel::kIfma52:
      mont_costs(mont::IfmaMontCtx(key.p), key.p, rng, tracer, out);
      break;
    case rsa::Kernel::kScalar64:
      mont_costs(mont::MontCtx64(key.p), key.p, rng, tracer, out);
      break;
    case rsa::Kernel::kScalar32:
      mont_costs(mont::MontCtx32(key.p), key.p, rng, tracer, out);
      break;
  }
  const rsa::BatchEngine batch(key);
  if (batch.backend() == rsa::Backend::kIfma52) {
    batch_mont_cost(mont::BatchIfmaMontCtx(key.p), key.p, rng, tracer, out);
  } else {
    batch_mont_cost(mont::BatchVectorMontCtx(key.p), key.p, rng, tracer, out);
  }

  // rsa: scalar private op, 16-lane batch, public op (the verify budget).
  std::vector<BigInt> xs(rsa::BatchEngine::kBatch);
  for (auto& x : xs) x = random_below(key.pub.n, rng);
  BigInt sink;
  out.rsa_private_op_ms = timed(tracer, "rsa.private_op", 1e6 * 16, [&] {
    for (const auto& x : xs) engine.private_op_into(x, sink);
  });
  std::vector<BigInt> lanes(rsa::BatchEngine::kBatch);
  out.rsa_batch16_ms_per_lane = timed(tracer, "rsa.batch16", 1e6 * 16 * 2, [&] {
    batch.private_op(xs, lanes);
    batch.private_op(xs, lanes);
  });
  out.rsa_public_op_us = timed(tracer, "rsa.public_op", 1e3 * 200, [&] {
    for (int i = 0; i < 200; ++i) sink = engine.public_op(xs[static_cast<std::size_t>(i) % 16]);
  });

  // ssl: the key-block PRF, the echo record's seal/open, cache put/get.
  const std::vector<std::uint8_t> master = rng.bytes(48);
  const std::vector<std::uint8_t> randoms = rng.bytes(64);
  out.prf_us = timed(tracer, "ssl.prf", 1e3 * 500, [&] {
    for (int i = 0; i < 500; ++i) {
      (void)ssl::prf_sha256(master, "key expansion", randoms, 96);
    }
  });
  const std::vector<std::uint8_t> enc = rng.bytes(ssl::kEncKeySize);
  const std::vector<std::uint8_t> mac = rng.bytes(ssl::kMacKeySize);
  const std::vector<std::uint8_t> ping{'p', 'i', 'n', 'g'};
  constexpr int kRecords = 2000;
  ssl::RecordChannel sealer(enc, mac);
  ssl::RecordChannel opener(enc, mac);
  std::vector<std::vector<std::uint8_t>> records(kRecords);
  std::vector<double> seal_reps, open_reps;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t t0 = now_ns();
    for (auto& rec : records) rec = sealer.seal(ssl::kContentApplicationData, ping, rng);
    std::uint64_t t1 = now_ns();
    tracer.span("ssl.record_seal", t0, t1, 0);
    seal_reps.push_back(static_cast<double>(t1 - t0) / 1e3 / kRecords);
    t0 = now_ns();
    for (const auto& rec : records) {
      if (!opener.open(ssl::kContentApplicationData, rec)) {
        throw std::runtime_error("perfbench: record open failed");
      }
    }
    t1 = now_ns();
    tracer.span("ssl.record_open", t0, t1, 0);
    open_reps.push_back(static_cast<double>(t1 - t0) / 1e3 / kRecords);
  }
  out.record_seal_us = median(seal_reps);
  out.record_open_us = median(open_reps);

  const ssl::DriverConfig defaults;
  ssl::SessionCache cache(ssl::SessionCacheConfig{.capacity = defaults.cache_capacity,
                                                  .shards = defaults.cache_shards});
  constexpr std::size_t kIds = 256;
  std::vector<ssl::SessionId> ids(kIds);
  ssl::MasterSecret secret{};
  for (auto& id : ids) rng.fill_bytes(id.data(), id.size());
  rng.fill_bytes(secret.data(), secret.size());
  constexpr int kRounds = 40;
  out.cache_put_ns = timed(tracer, "ssl.cache_put", double{kRounds} * kIds, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& id : ids) cache.put(id, secret);
    }
  });
  out.cache_get_ns = timed(tracer, "ssl.cache_get", double{kRounds} * kIds, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& id : ids) {
        if (!cache.get(id)) throw std::runtime_error("perfbench: cache miss");
      }
    }
  });
  return out;
}

}  // namespace perfbench
