// Asynchronous batched signing service: the on-ramp that feeds the
// 16-lane BatchEngine from irregular single-request traffic.
//
// The batch kernels (rsa::BatchEngine over mont::BatchIfmaMontCtx or
// mont::BatchVectorMontCtx) hit
// the paper's headline throughput only when all 16 SIMD lanes carry real
// work, but a server sees requests one at a time. This service closes the
// gap: callers submit single `sign(digest) -> future<SignResult>`
// requests and the service coalesces them into 16-lane batches — when,
// and only when, a batch is the cheaper way to run them. The flush policy
// is adaptive:
//
//   - the moment 16 requests are pending for one key, the batch is
//     dispatched immediately (the fast path — zero added latency under
//     load);
//   - otherwise, once the oldest request has lingered for `max_linger`
//     AND a dispatch slot is free, the shard flushes by the break-even
//     rule in service/flush_rule.hpp: with at least `batch_min_lanes`
//     requests pending it runs one 16-lane batch, the unused lanes padded
//     with a precomputed dummy input (their results are discarded);
//     with fewer, it hands only its oldest request to the slot, which
//     runs it on a per-shard scalar rsa::Engine over the same backend.
//
// A padded batch costs the same wall time as a full one, so below the
// break-even a partial batch costs more than running its requests one at
// a time. `batch_min_lanes` is not a
// knob: add_key() measures it per shard as ceil(B / S), the best of three
// interleaved timings of a warm 16-lane batch (B) and a warm scalar op
// (S) on the shard's backend. On an idle 4-core AVX-512 IFMA Xeon the
// ifma52 backend measures 10-11 at RSA-2048 and 17 at RSA-4096 (a batch
// never pays there, so every flush runs scalar), 4-8 at the 512/1024-bit
// test keys; knc_vec measures 9 at RSA-2048. A busy host shifts these by
// a lane or two.
//
// The dispatch-slot condition is what makes the scheduler lane-FILLING
// rather than merely deadline-driven: while every worker is busy, an
// expired partial keeps accumulating arrivals (a flush could not start
// any sooner anyway), so under load batches reach 16 lanes on their own
// and the deadline only ever fires into an idle worker. Without it, a
// short linger at moderate load shreds the queue into 2–3-lane batches
// whose per-batch cost is that of a full one — effective capacity drops
// ~8x and the backlog (and tail latency) diverges; bench_sign_service's
// sweep is exactly the experiment that exposes this.
//
// Net effect: at light load a request waits about max_linger and then
// runs alone on the scalar engine; at heavy load lane occupancy
// approaches 100% — the occupancy-vs-latency knob bench_sign_service
// sweeps.
//
// One service instance holds one shard per private key (keyed by a caller
// chosen string id) and routes requests by key id; dispatches run on the
// service's util::ThreadPool, so several shards' batches overlap on
// multi-worker configurations.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/workload.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/key.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace phissl::service {

/// Tuning knobs for a SignService.
struct SignServiceConfig {
  /// Workers in the dispatch pool (each runs one 16-lane batch or one
  /// scalar op at a time).
  std::size_t dispatch_threads = 2;
  /// How long the oldest pending request may wait before its shard
  /// flushes a partial queue (once a dispatch slot is free — see the class
  /// comment for the batch-or-scalar rule). Smaller = lower tail latency
  /// at light load, lower lane occupancy. Ignored when full_batches_only.
  std::chrono::microseconds max_linger{500};
  /// Pending requests that trigger an immediate ("full") flush of the
  /// whole queue. A batch always runs the fixed 16-lane shape — lowering
  /// this pads the remainder with dummy lanes (or, below the measured
  /// batch_min_lanes, runs each request on the scalar engine), trading
  /// occupancy for queue wait (an autotuner output, not usually
  /// hand-set). Clamped to [1, 16].
  std::size_t max_batch_lanes = 16;
  /// Never flush a partial queue on a deadline: dispatch only when 16
  /// requests are pending (plus a final drain at stop()). This is the
  /// forced-full baseline bench_sign_service compares against — maximal
  /// occupancy, unbounded queueing latency at light load.
  bool full_batches_only = false;
  /// Redundant-radix digit width for the underlying batch contexts
  /// (knc_vec backend only; the ifma52 radix is fixed at 52).
  unsigned digit_bits = 27;
  /// Montgomery backend for every per-key shard (its BatchEngine and its
  /// scalar Engine). ifma52 (vpmadd52) is the fast path on CPUs with
  /// AVX-512 IFMA; without it ifma52 runs portable u128 kernels, which
  /// are slower than knc_vec, the paper-faithful kernel. Subject to the
  /// process-wide PHISSL_FORCE_BACKEND override (see rsa/backend.hpp).
  rsa::Backend backend = rsa::Backend::kIfma52;
};

/// A completed signing request: the PKCS#1 v1.5 signature block plus the
/// service-side timestamps (submit and completion) so callers — load
/// generators and tracing alike — can compute exact per-request latency
/// without polling the future.
struct SignResult {
  /// k-byte big-endian RSASSA-PKCS1-v1_5(SHA-256) signature.
  std::vector<std::uint8_t> signature;
  std::chrono::steady_clock::time_point submitted_at;
  std::chrono::steady_clock::time_point completed_at;
};

/// A point-in-time snapshot of service counters; cheap to take while the
/// service is running.
struct StatsSnapshot {
  std::uint64_t requests = 0;      ///< sign() calls accepted
  std::uint64_t batches = 0;       ///< 16-lane dispatches issued
  std::uint64_t full_batches = 0;  ///< batches with no padded lane
  std::uint64_t padded_lanes = 0;  ///< dummy lanes across all batches
  std::uint64_t lanes_signed = 0;  ///< requests dispatched in batches
  /// Requests dispatched alone on the scalar engine. Once stop() returns,
  /// requests == lanes_signed + scalar_ops.
  std::uint64_t scalar_ops = 0;
  /// The break-even measured at add_key (see service/flush_rule.hpp);
  /// the largest across shards, 0 before the first key.
  std::uint64_t batch_min_lanes = 0;
  /// Real requests per batched lane: lanes_signed / (batches * 16).
  /// 1.0 means every dispatched lane carried caller work.
  double mean_lane_occupancy = 0.0;
  /// Per-request time from sign() to dispatch (microseconds), batched
  /// and scalar requests alike.
  util::Summary queue_wait_us;
  /// Per-batch kernel + completion time (microseconds).
  util::Summary service_us;
};

class SignService {
 public:
  static constexpr std::size_t kBatch = rsa::BatchEngine::kBatch;

  /// Completion callback for the non-blocking submission forms
  /// (sign_async / private_op_async): invoked exactly once with the
  /// result, or with nullopt if the dispatch failed. It runs on a
  /// dispatch worker thread immediately after its dispatch completes, so it
  /// must be cheap and must not block (the event-driven TLS frontend's
  /// bridge, for example, only enqueues a resume event into its reactor —
  /// see ssl/async/reactor.hpp). Re-entering the service from the
  /// callback is allowed (submitting follow-up work is fine); blocking on
  /// another future of the same service is not (it could deadlock the
  /// dispatch pool).
  using Completion = std::function<void(std::optional<SignResult>)>;

  explicit SignService(SignServiceConfig config = {});

  /// Stops the service (flushing and completing everything pending).
  ~SignService();

  SignService(const SignService&) = delete;
  SignService& operator=(const SignService&) = delete;

  /// Registers a private key under `key_id` (one shard per key: a
  /// BatchEngine, a scalar Engine, and the batch_min_lanes break-even
  /// timed between them, which costs about four batches' wall time).
  /// Thread-safe; throws std::invalid_argument on a duplicate id and
  /// std::runtime_error after stop().
  void add_key(const std::string& key_id, rsa::PrivateKey key);

  /// Public half of a registered key (for verification).
  [[nodiscard]] const rsa::PublicKey& public_key(
      const std::string& key_id) const;

  /// Queues one signing request: the returned future resolves to the
  /// RSASSA-PKCS1-v1_5 signature of the given 32-byte SHA-256 `digest`
  /// under the key registered as `key_id`. Thread-safe. Throws
  /// std::invalid_argument for an unknown key or non-32-byte digest and
  /// std::runtime_error after stop().
  std::future<SignResult> sign(const std::string& key_id,
                               std::span<const std::uint8_t> digest);

  /// Queues one RAW private-key operation: `input_be` must be exactly the
  /// modulus size (k bytes, big-endian) with value < n, and the returned
  /// future resolves to x^d mod n as a k-byte block in
  /// SignResult::signature (no EMSA encoding on the way in, no padding
  /// interpretation on the way out). This is the TLS-termination on-ramp:
  /// ClientKeyExchange decryptions from many concurrent connections
  /// coalesce into the same adaptive 16-lane batches as signing traffic,
  /// sharing the linger/backpressure scheduler, the batch-or-scalar rule
  /// and the per-key shard. Thread-safe. Throws std::invalid_argument for an
  /// unknown key, a wrong-size block, or a value >= n, and
  /// std::runtime_error after stop().
  std::future<SignResult> private_op(const std::string& key_id,
                                     std::span<const std::uint8_t> input_be);

  /// Non-blocking sibling of sign(): queues the request and delivers the
  /// result through `done` (see Completion for the threading contract)
  /// instead of a future, so callers multiplexing thousands of
  /// connections never park a thread per request. Argument validation
  /// still throws synchronously, exactly like sign().
  /// `op` tags the request in the workload trace (obs/workload.hpp): the
  /// DHE-RSA path passes kDheSign so the recorded op mix distinguishes
  /// server-signature traffic from key-transport signing.
  void sign_async(const std::string& key_id,
                  std::span<const std::uint8_t> digest, Completion done,
                  obs::WorkloadOp op = obs::WorkloadOp::kSign);

  /// Non-blocking sibling of private_op(): same raw x^d mod n contract,
  /// result delivered through `done`. Argument validation (unknown key,
  /// wrong-size block, value >= n) still throws synchronously.
  void private_op_async(const std::string& key_id,
                        std::span<const std::uint8_t> input_be,
                        Completion done);

  /// Counter snapshot; safe to call concurrently with sign()/dispatches.
  [[nodiscard]] StatsSnapshot stats() const;

  /// Stops accepting requests, flushes every pending partial batch, and
  /// blocks until all dispatched work has completed (every returned
  /// future is ready afterwards). Idempotent; called by the destructor.
  void stop();

 private:
  struct Pending;
  struct Shard;

  struct Flush;

  /// Why a batch left the queue: 16 pending (full), linger deadline, or
  /// the stop() drain. Feeds the phissl_service_flush_total counters.
  enum class FlushReason { kFull, kLinger, kDrain };

  Shard& find_shard(const std::string& key_id) const;
  /// Shared submission tail for sign()/private_op(): queues the encoded
  /// request, flushes the queue immediately at the threshold, or arms the
  /// linger timer for a fresh partial.
  std::future<SignResult> enqueue(Shard& shard, Pending&& p);
  /// Takes one plan_flush() worth of requests off a non-empty queue.
  /// Caller holds shard.mu.
  static Flush take_flush(Shard& shard);
  void run_flush(Flush&& flush, FlushReason why);
  void dispatch(Shard& shard, std::vector<Pending>&& batch, FlushReason why);
  void dispatch_scalar(Shard& shard, Pending&& req);
  /// A dispatch finished: frees its slot and wakes the linger timer.
  void release_slot();
  void linger_loop();

  SignServiceConfig config_;

  mutable std::mutex shards_mu_;
  std::unordered_map<std::string, std::unique_ptr<Shard>> shards_;

  // Stats block: obs::Registry-backed counters and histograms, labelled
  // svc="N" per instance so concurrent services stay separate. Every
  // record path is lock-free (this replaced a global stats mutex taken on
  // each request — see src/obs/metrics.hpp); stats() reassembles the same
  // StatsSnapshot from counter sums and histogram snapshots.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;

  // Linger timer: one thread waking at the earliest partial-batch
  // deadline. gen_ bumps on every first-pending arrival and on every
  // dispatch completion so the timer re-evaluates its wait without
  // missed wakeups.
  std::mutex linger_mu_;
  std::condition_variable linger_cv_;
  std::uint64_t linger_gen_ = 0;
  bool stopping_ = false;

  // Dispatches (batches and scalar ops) submitted to the pool and not yet
  // finished. The linger timer only deadline-flushes while this is below
  // the worker count (a free dispatch slot exists); threshold flushes
  // always dispatch.
  std::atomic<std::uint64_t> inflight_{0};

  std::atomic<bool> accepting_{true};
  std::mutex stop_mu_;  // serializes stop() callers (incl. the destructor)
  bool stopped_ = false;
  util::ThreadPool pool_;
  std::thread linger_thread_;
};

}  // namespace phissl::service
