// Lane-coalescing ClientKeyExchange decryption for the TLS terminator.
//
// A full TLS 1.2 RSA-key-transport handshake costs one private-key
// decryption, and a terminator runs many handshakes concurrently — the
// same irregular-arrivals-vs-16-wide-kernel mismatch the signing service
// solves. This adapter closes the loop for the DECRYPT direction: it owns
// a single-key service::SignService (whose raw private_op() path shares
// the adaptive linger/backpressure scheduler and the 16-lane BatchEngine
// with signing traffic) and exposes it through the ssl::KexDecrypter
// interface, so ServerHandshake::on_key_exchange calls from concurrent
// connections fill whole SIMD batches instead of each running a scalar
// CRT exponentiation — once enough of them are queued to beat the scalar
// engine. Below the service's measured break-even (batch_min_lanes; 10-11
// for the default ifma52 backend at RSA-2048 on an AVX-512 IFMA Xeon) a
// linger flush runs the oldest decryption alone on the scalar engine, so
// a sparse terminator pays for no padded lanes.
//
// decrypt_premaster() blocks the calling handshake thread until its
// dispatch completes — about max_linger longer than a direct scalar call
// at light load, and strictly higher throughput once enough connections
// are in flight to fill lanes (the bench_handshake sweep measures exactly
// this crossover). PKCS#1 v1.5 unpadding runs on the caller after the
// batch returns the raw k-byte block; a padding failure here is reported
// as nullopt and absorbed by the handshake's random-premaster
// substitution like any scalar-path failure.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "rsa/key.hpp"
#include "service/sign_service.hpp"
#include "ssl/handshake.hpp"
#include "util/cpu.hpp"

namespace phissl::ssl {

/// Tuning knobs, forwarded to the underlying SignService.
struct BatchDecryptConfig {
  /// Dispatch workers (each runs a 16-lane batch or one scalar op at a
  /// time). Defaults to util::usable_cpus(), like
  /// SignServiceConfig::dispatch_threads: at light load each decryption
  /// runs scalar on its own worker, so fewer workers than CPUs caps a
  /// busy terminator at that many cores.
  std::size_t dispatch_threads = util::usable_cpus();
  /// Partial-batch linger bound (see SignServiceConfig::max_linger).
  std::chrono::microseconds max_linger{500};
  /// Real lanes that trigger an immediate dispatch (see
  /// SignServiceConfig::max_batch_lanes). Clamped to [1, 16].
  std::size_t max_batch_lanes = 16;
  /// Forced-full baseline: only dispatch 16-lane batches.
  bool full_batches_only = false;
  /// Redundant-radix digit width for the batch contexts (knc_vec only).
  unsigned digit_bits = 27;
  /// Montgomery backend for the batched and scalar private ops (see
  /// rsa/backend.hpp and SignServiceConfig::backend).
  rsa::Backend backend = rsa::default_backend();
};

class BatchDecryptService final : public KexDecrypter {
 public:
  explicit BatchDecryptService(rsa::PrivateKey key,
                               BatchDecryptConfig config = {});

  /// Coalesced RSAES-PKCS1-v1_5 decryption: enqueues the raw private op,
  /// blocks until its batch runs, unpads on this thread. nullopt on a
  /// wrong-size ciphertext, a value >= n, or invalid PKCS#1 padding.
  std::optional<std::vector<std::uint8_t>> decrypt_premaster(
      std::span<const std::uint8_t> ciphertext) override;

  /// Result delivery for the non-blocking forms below. Invoked exactly
  /// once; nullopt covers every failure (malformed ciphertext, bad
  /// padding, batch dispatch failure) so the handshake's uniform-failure
  /// discipline sees one shape. Runs on a SignService dispatch worker —
  /// or INLINE, before the call returns, when the input fails the public
  /// checks — so it must be cheap and must not block (see
  /// service::SignService::Completion for the full contract).
  using DecryptCompletion =
      std::function<void(std::optional<std::vector<std::uint8_t>>)>;

  /// Non-blocking sibling of decrypt_premaster() for event-driven
  /// callers: instead of parking this thread for the linger window, the
  /// unpadded premaster (or nullopt) is delivered through `done`.
  void decrypt_premaster_async(std::span<const std::uint8_t> ciphertext,
                               DecryptCompletion done);

  /// Non-blocking RSASSA-PKCS1-v1_5 signature over a 32-byte SHA-256
  /// digest, on the same key and through the same adaptive scheduler as
  /// the decryptions — a terminator mixing DHE and RSA-kex connections
  /// coalesces both operation kinds into shared 16-lane batches. `done`
  /// receives the k-byte signature block, or nullopt on dispatch failure.
  void sign_digest_async(std::span<const std::uint8_t> digest,
                         DecryptCompletion done);

  /// Scheduler counters of the underlying service (lane occupancy,
  /// batch/padded-lane and scalar-op counts, queue-wait quantiles).
  [[nodiscard]] service::StatsSnapshot stats() const { return svc_.stats(); }

 private:
  std::size_t k_;      // modulus size in bytes
  bigint::BigInt n_;   // modulus, for the public range check
  service::SignService svc_;
};

}  // namespace phissl::ssl
