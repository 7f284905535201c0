#include "service/sign_service.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#if defined(__unix__)
#include <time.h>
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "rsa/engine.hpp"
#include "rsa/pkcs1.hpp"
#include "service/flush_rule.hpp"
#include "util/sha256.hpp"

namespace phissl::service {

using bigint::BigInt;
using Clock = std::chrono::steady_clock;

static_assert(kFlushLanes == SignService::kBatch);

namespace {

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Prometheus label body identifying one service instance. Each SignService
// gets its own metric instances so tests running several services in one
// process never see each other's counts.
std::string next_svc_labels() {
  static std::atomic<std::uint64_t> next{0};
  return "svc=\"" + std::to_string(next.fetch_add(1)) + "\"";
}

}  // namespace

/// Registry-backed stats block. References are stable for the process
/// lifetime (Registry::global() never destroys metrics), so holding them
/// across the service's life is safe.
struct SignService::Metrics {
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& full_batches;
  obs::Counter& padded_lanes;
  obs::Counter& lanes_signed;
  obs::Counter& flush_full;
  obs::Counter& flush_linger;
  obs::Counter& flush_drain;
  obs::Counter& scalar_ops;
  obs::Gauge& batch_min_lanes;
  obs::Histogram& queue_wait_us;
  obs::Histogram& service_us;

  explicit Metrics(const std::string& svc)
      : requests(obs::Registry::global().counter(
            "phissl_service_requests_total", "sign() calls accepted", svc)),
        batches(obs::Registry::global().counter(
            "phissl_service_batches_total", "16-lane dispatches issued", svc)),
        full_batches(obs::Registry::global().counter(
            "phissl_service_full_batches_total",
            "dispatches with no padded lane", svc)),
        padded_lanes(obs::Registry::global().counter(
            "phissl_service_padded_lanes_total",
            "dummy lanes across all dispatched batches", svc)),
        lanes_signed(obs::Registry::global().counter(
            "phissl_service_lanes_signed_total",
            "caller requests dispatched (real lanes)", svc)),
        flush_full(obs::Registry::global().counter(
            "phissl_service_flush_total", "batch flushes by reason",
            svc + ",reason=\"full\"")),
        flush_linger(obs::Registry::global().counter(
            "phissl_service_flush_total", "batch flushes by reason",
            svc + ",reason=\"linger\"")),
        flush_drain(obs::Registry::global().counter(
            "phissl_service_flush_total", "batch flushes by reason",
            svc + ",reason=\"drain\"")),
        scalar_ops(obs::Registry::global().counter(
            "phissl_service_scalar_ops_total",
            "requests dispatched alone on the scalar engine", svc)),
        batch_min_lanes(obs::Registry::global().gauge(
            "phissl_service_batch_min_lanes",
            "measured batch break-even: fewest real lanes a batch runs",
            svc)),
        queue_wait_us(obs::Registry::global().histogram(
            "phissl_service_queue_wait_us",
            "per-request sign()-to-dispatch wait, batched and scalar "
            "(microseconds)",
            svc)),
        service_us(obs::Registry::global().histogram(
            "phissl_service_batch_service_us",
            "per-batch kernel + completion time (microseconds)", svc)) {}
};

namespace {

/// This thread's CPU time in microseconds (wall time where the thread
/// clock is unavailable). Unlike wall time it leaves out the stretches
/// other threads or processes hold the core, which on a loaded host land
/// mostly in the longer batch timing and push the break-even past 16.
double thread_cpu_us() {
#if defined(__unix__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return to_us(Clock::now().time_since_epoch());
}

/// The shard's batch_min_lanes: ceil(B / S) for a warm 16-lane batch (B)
/// and a warm scalar op (S) on the same input, each the best of three
/// interleaved timings in thread CPU time: interleaving makes a frequency
/// step hit both, and CPU time leaves preemption out of either.
std::size_t measure_batch_min_lanes(const rsa::BatchEngine& batch,
                                    const rsa::Engine& scalar,
                                    const BigInt& x) {
  std::array<BigInt, SignService::kBatch> xs;
  std::array<BigInt, SignService::kBatch> out;
  xs.fill(x);
  BigInt y;
  batch.private_op(xs, out);  // warm the per-thread workspaces
  scalar.private_op_into(x, y);
  double batch_us = std::numeric_limits<double>::infinity();
  double scalar_us = batch_us;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = thread_cpu_us();
    batch.private_op(xs, out);
    const double t1 = thread_cpu_us();
    scalar.private_op_into(x, y);
    const double t2 = thread_cpu_us();
    batch_us = std::min(batch_us, t1 - t0);
    scalar_us = std::min(scalar_us, t2 - t1);
  }
  return batch_min_lanes_for(batch_us, scalar_us);
}

}  // namespace

/// One queued request: the EMSA-encoded digest as an integer in [0, n),
/// plus the promise OR completion callback the dispatch path fulfills
/// (`done` set means the request came through an *_async submission and
/// the promise is never touched).
struct SignService::Pending {
  BigInt x;
  std::promise<SignResult> promise;
  Completion done;
  Clock::time_point submitted;
  obs::WorkloadOp op = obs::WorkloadOp::kSign;  // workload-trace tag
};

/// Per-key shard: a BatchEngine and a scalar Engine over the same key and
/// backend, the break-even between them, and the (sub-16) submission
/// queue.
struct SignService::Shard {
  Shard(rsa::PrivateKey key, rsa::Backend backend, unsigned digit_bits)
      : engine(key, backend, digit_bits),
        scalar(std::move(key),
               rsa::EngineOptions{.kernel = rsa::kernel_for(engine.backend()),
                                  .digit_bits = digit_bits}),
        k(engine.pub().byte_size()),
        // Dummy input for padded lanes: the EMSA encoding of an all-zero
        // digest. Any EMSA block starts 0x00 0x01, so its value is
        // < 2^(8k-8) <= n — always a valid private_op input. Using one
        // fixed value keeps the padded lanes on the identical 16-lane
        // kernel shape; their outputs are simply discarded.
        dummy(BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(
            util::Sha256::Digest{}, k))),
        batch_min_lanes(measure_batch_min_lanes(engine, scalar, dummy)) {}

  rsa::BatchEngine engine;
  rsa::Engine scalar;  // kernel_for(engine.backend()): same math, one lane
  std::size_t k;       // modulus byte size (signature length)
  BigInt dummy;
  std::size_t batch_min_lanes;
  std::uint32_t key_bits() const { return static_cast<std::uint32_t>(k * 8); }

  std::mutex mu;
  std::vector<Pending> pending;   // always < kBatch entries
  Clock::time_point oldest;       // submit time of pending.front()
};

/// One plan_flush() decision with the requests it took off the queue.
struct SignService::Flush {
  Shard* shard;
  std::vector<Pending> reqs;
  bool scalar;
};

SignService::SignService(SignServiceConfig config)
    : config_(config),
      metrics_(std::make_unique<Metrics>(next_svc_labels())),
      pool_(config.dispatch_threads) {
  config_.max_batch_lanes =
      std::clamp<std::size_t>(config_.max_batch_lanes, 1, kBatch);
  linger_thread_ = std::thread([this] { linger_loop(); });
}

SignService::~SignService() { stop(); }

void SignService::add_key(const std::string& key_id, rsa::PrivateKey key) {
  if (!accepting_.load()) {
    throw std::runtime_error("SignService::add_key after stop()");
  }
  auto shard = std::make_unique<Shard>(std::move(key), config_.backend,
                                       config_.digit_bits);
  const auto lanes = static_cast<std::int64_t>(shard->batch_min_lanes);
  std::lock_guard<std::mutex> lock(shards_mu_);
  if (!shards_.emplace(key_id, std::move(shard)).second) {
    throw std::invalid_argument("SignService::add_key: duplicate key id \"" +
                                key_id + "\"");
  }
  if (lanes > metrics_->batch_min_lanes.value()) {
    metrics_->batch_min_lanes.set(lanes);
  }
}

SignService::Shard& SignService::find_shard(const std::string& key_id) const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  const auto it = shards_.find(key_id);
  if (it == shards_.end()) {
    throw std::invalid_argument("SignService: unknown key id \"" + key_id +
                                "\"");
  }
  return *it->second;  // shards are never removed while the service lives
}

const rsa::PublicKey& SignService::public_key(const std::string& key_id) const {
  return find_shard(key_id).engine.pub();
}

std::future<SignResult> SignService::sign(
    const std::string& key_id, std::span<const std::uint8_t> digest) {
  PHISSL_OBS_SPAN("svc.sign");
  Shard& shard = find_shard(key_id);

  Pending p;
  p.x = BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(digest, shard.k));
  p.submitted = Clock::now();
  return enqueue(shard, std::move(p));
}

std::future<SignResult> SignService::private_op(
    const std::string& key_id, std::span<const std::uint8_t> input_be) {
  PHISSL_OBS_SPAN("svc.private_op");
  Shard& shard = find_shard(key_id);
  if (input_be.size() != shard.k) {
    throw std::invalid_argument(
        "SignService::private_op: input must be exactly k bytes");
  }
  Pending p;
  p.x = BigInt::from_bytes_be(input_be);
  if (p.x >= shard.engine.pub().n) {
    throw std::invalid_argument("SignService::private_op: input >= modulus");
  }
  p.op = obs::WorkloadOp::kPrivateOp;
  p.submitted = Clock::now();
  return enqueue(shard, std::move(p));
}

void SignService::sign_async(const std::string& key_id,
                             std::span<const std::uint8_t> digest,
                             Completion done, obs::WorkloadOp op) {
  PHISSL_OBS_SPAN("svc.sign_async");
  Shard& shard = find_shard(key_id);
  Pending p;
  p.x = BigInt::from_bytes_be(rsa::emsa_pkcs1_v15_from_digest(digest, shard.k));
  p.done = std::move(done);
  p.op = op;
  p.submitted = Clock::now();
  (void)enqueue(shard, std::move(p));
}

void SignService::private_op_async(const std::string& key_id,
                                   std::span<const std::uint8_t> input_be,
                                   Completion done) {
  PHISSL_OBS_SPAN("svc.private_op_async");
  Shard& shard = find_shard(key_id);
  if (input_be.size() != shard.k) {
    throw std::invalid_argument(
        "SignService::private_op_async: input must be exactly k bytes");
  }
  Pending p;
  p.x = BigInt::from_bytes_be(input_be);
  if (p.x >= shard.engine.pub().n) {
    throw std::invalid_argument(
        "SignService::private_op_async: input >= modulus");
  }
  p.done = std::move(done);
  p.op = obs::WorkloadOp::kPrivateOp;
  p.submitted = Clock::now();
  (void)enqueue(shard, std::move(p));
}

std::future<SignResult> SignService::enqueue(Shard& shard, Pending&& p) {
  std::future<SignResult> fut = p.promise.get_future();

  std::vector<Flush> flushes;
  bool first_pending = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Checked under the shard lock so stop()'s drain (which sets
    // accepting_ first, then flushes under this lock) cannot miss us.
    if (!accepting_.load()) {
      throw std::runtime_error("SignService::sign after stop()");
    }
    if (shard.pending.empty()) {
      shard.oldest = p.submitted;
      first_pending = true;
    }
    shard.pending.push_back(std::move(p));
    if (shard.pending.size() >= config_.max_batch_lanes) {
      // Threshold reached: flush the whole queue now — one batch, unless
      // the threshold sits below the break-even.
      while (!shard.pending.empty()) flushes.push_back(take_flush(shard));
    }
  }
  metrics_->requests.inc();

  if (!flushes.empty()) {
    for (Flush& f : flushes) run_flush(std::move(f), FlushReason::kFull);
  } else if (first_pending && !config_.full_batches_only) {
    // Arm the linger timer for this shard's new deadline.
    {
      std::lock_guard<std::mutex> lock(linger_mu_);
      ++linger_gen_;
    }
    linger_cv_.notify_one();
  }
  return fut;
}

SignService::Flush SignService::take_flush(Shard& shard) {
  const FlushPlan plan =
      plan_flush(shard.pending.size(), shard.batch_min_lanes);
  const auto first = shard.pending.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(plan.take);
  Flush f{&shard,
          {std::make_move_iterator(first), std::make_move_iterator(last)},
          plan.scalar};
  shard.pending.erase(first, last);
  if (!shard.pending.empty()) shard.oldest = shard.pending.front().submitted;
  return f;
}

void SignService::run_flush(Flush&& flush, FlushReason why) {
  if (flush.scalar) {
    dispatch_scalar(*flush.shard, std::move(flush.reqs.front()));
  } else {
    dispatch(*flush.shard, std::move(flush.reqs), why);
  }
}

namespace {

/// Hands one finished request its result, through the callback for the
/// *_async forms or the promise otherwise. nullopt is passed only from a
/// catch handler, whose exception the promise then carries. A throwing
/// completion is a caller bug; it is swallowed so sibling requests still
/// deliver.
template <typename Pending>
void deliver(Pending& p, std::optional<SignResult> r) {
  if (p.done) {
    try {
      p.done(std::move(r));
    } catch (...) {
    }
  } else if (r) {
    p.promise.set_value(std::move(*r));
  } else {
    p.promise.set_exception(std::current_exception());
  }
}

/// The workload-trace event of one dispatched request (batch_id and
/// lanes_filled stay 0 for a scalar dispatch).
template <typename Pending>
obs::WorkloadEvent workload_event(const Pending& p, Clock::time_point dispatch,
                                  std::uint32_t key_bits) {
  obs::WorkloadEvent ev;
  ev.arrival_ns = obs::WorkloadRecorder::global().rel_ns(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              p.submitted.time_since_epoch())
              .count()));
  ev.queue_wait_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dispatch -
                                                           p.submitted)
          .count());
  ev.key_bits = key_bits;
  ev.op = p.op;
  return ev;
}

}  // namespace

void SignService::dispatch(Shard& shard, std::vector<Pending>&& batch,
                           FlushReason why) {
  const Clock::time_point dispatch_time = Clock::now();
  const std::size_t real = batch.size();
  // shared_ptr because ThreadPool::submit takes a copyable std::function
  // and promises are move-only.
  auto work = std::make_shared<std::vector<Pending>>(std::move(batch));

  // No lock: every record below is a shard-local atomic. `batches` is
  // incremented BEFORE `full_batches` (and stats() reads them in the
  // opposite order), so a concurrent snapshot can never observe
  // full_batches > batches.
  metrics_->batches.inc();
  if (real == kBatch) metrics_->full_batches.inc();
  metrics_->padded_lanes.inc(kBatch - real);
  metrics_->lanes_signed.inc(real);
  switch (why) {
    case FlushReason::kFull:
      metrics_->flush_full.inc();
      break;
    case FlushReason::kLinger:
      metrics_->flush_linger.inc();
      break;
    case FlushReason::kDrain:
      metrics_->flush_drain.inc();
      break;
  }
  for (const Pending& p : *work) {
    metrics_->queue_wait_us.record(to_us(dispatch_time - p.submitted));
  }
  if (PHISSL_OBS_WORKLOAD_ENABLED) {
    // One workload event per REAL lane, all tagged with this dispatch's
    // batch ordinal so the replay engine can reconstruct per-batch
    // occupancy. Timestamps reuse the steady_clock values already taken.
    obs::WorkloadRecorder& rec = obs::WorkloadRecorder::global();
    const std::uint64_t batch_id = rec.next_batch_id();
    for (const Pending& p : *work) {
      obs::WorkloadEvent ev =
          workload_event(p, dispatch_time, shard.key_bits());
      ev.batch_id = batch_id;
      ev.lanes_filled = static_cast<std::uint8_t>(real);
      rec.record(ev);
    }
  }

  inflight_.fetch_add(1);
  auto run = [this, &shard, work, dispatch_time, real] {
    PHISSL_OBS_SPAN("svc.batch", "lanes", static_cast<std::uint64_t>(real));
    std::array<BigInt, kBatch> xs;
    std::array<BigInt, kBatch> out;
    for (std::size_t l = 0; l < kBatch; ++l) {
      xs[l] = l < work->size() ? (*work)[l].x : shard.dummy;
    }
    try {
      shard.engine.private_op(xs, out);
      const Clock::time_point done = Clock::now();
      // Serialize every signature before fulfilling any promise so a
      // failure cannot leave the batch half-fulfilled.
      std::vector<std::vector<std::uint8_t>> sigs(work->size());
      for (std::size_t l = 0; l < work->size(); ++l) {
        sigs[l] = out[l].to_bytes_be(shard.k);
      }
      for (std::size_t l = 0; l < work->size(); ++l) {
        deliver((*work)[l],
                SignResult{std::move(sigs[l]), (*work)[l].submitted, done});
      }
      metrics_->service_us.record(to_us(done - dispatch_time));
    } catch (...) {
      for (Pending& p : *work) deliver(p, std::nullopt);
    }
    release_slot();
  };
  try {
    pool_.submit(run);
  } catch (const std::exception&) {
    // The pool is draining (a sign() racing stop() can get here): run the
    // batch inline so every promise is still fulfilled.
    run();
  }
}

void SignService::dispatch_scalar(Shard& shard, Pending&& req) {
  const Clock::time_point dispatch_time = Clock::now();
  auto work = std::make_shared<Pending>(std::move(req));

  metrics_->scalar_ops.inc();
  metrics_->queue_wait_us.record(to_us(dispatch_time - work->submitted));
  if (PHISSL_OBS_WORKLOAD_ENABLED) {
    obs::WorkloadRecorder::global().record(
        workload_event(*work, dispatch_time, shard.key_bits()));
  }

  inflight_.fetch_add(1);
  auto run = [this, &shard, work] {
    PHISSL_OBS_SPAN("svc.scalar");
    try {
      BigInt y;
      shard.scalar.private_op_into(work->x, y);
      deliver(*work, SignResult{y.to_bytes_be(shard.k), work->submitted,
                                Clock::now()});
    } catch (...) {
      deliver(*work, std::nullopt);
    }
    release_slot();
  };
  try {
    pool_.submit(run);
  } catch (const std::exception&) {
    run();  // the pool is draining: see dispatch()
  }
}

void SignService::release_slot() {
  // A dispatch slot just freed up: wake the linger timer so a partial
  // queue whose deadline expired while we were busy flushes now.
  inflight_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(linger_mu_);
    ++linger_gen_;
  }
  linger_cv_.notify_one();
}

void SignService::linger_loop() {
  std::unique_lock<std::mutex> lk(linger_mu_);
  for (;;) {
    if (stopping_) return;
    const std::uint64_t gen = linger_gen_;
    const auto changed = [&] { return stopping_ || linger_gen_ != gen; };

    // Lane-filling backpressure: while every dispatch slot is busy, an
    // expired partial would only sit in the pool queue — let it keep
    // filling instead and wait for a completion (which bumps gen).
    if (inflight_.load() >= pool_.size()) {
      linger_cv_.wait(lk, changed);
      continue;
    }

    // Earliest partial-batch deadline across all shards.
    std::optional<Clock::time_point> next;
    if (!config_.full_batches_only) {
      std::lock_guard<std::mutex> sl(shards_mu_);
      for (auto& [id, shard] : shards_) {
        std::lock_guard<std::mutex> pl(shard->mu);
        if (!shard->pending.empty()) {
          const Clock::time_point deadline = shard->oldest + config_.max_linger;
          if (!next || deadline < *next) next = deadline;
        }
      }
    }

    if (!next) {
      linger_cv_.wait(lk, changed);
      continue;
    }
    if (linger_cv_.wait_until(lk, *next, changed)) continue;  // re-evaluate
    if (inflight_.load() >= pool_.size()) continue;  // slot filled meanwhile

    // Deadline reached: every shard whose oldest request expired flushes
    // once by the batch-or-scalar rule. A scalar flush leaves the rest
    // queued under the next request's deadline; the loop comes back for
    // it while slots stay free.
    PHISSL_OBS_SPAN("svc.linger_flush");
    const Clock::time_point now = Clock::now();
    std::vector<Flush> flushes;
    {
      std::lock_guard<std::mutex> sl(shards_mu_);
      for (auto& [id, shard] : shards_) {
        std::lock_guard<std::mutex> pl(shard->mu);
        if (!shard->pending.empty() &&
            shard->oldest + config_.max_linger <= now) {
          flushes.push_back(take_flush(*shard));
        }
      }
    }
    for (Flush& f : flushes) run_flush(std::move(f), FlushReason::kLinger);
  }
}

StatsSnapshot SignService::stats() const {
  StatsSnapshot s;
  // Lock-free: counter value() is an acquire-load sum. full_batches is
  // read BEFORE batches (dispatch() increments them in the opposite
  // order), so a mid-run snapshot can never show full_batches > batches.
  s.full_batches = metrics_->full_batches.value();
  s.batches = metrics_->batches.value();
  s.requests = metrics_->requests.value();
  s.padded_lanes = metrics_->padded_lanes.value();
  s.lanes_signed = metrics_->lanes_signed.value();
  s.scalar_ops = metrics_->scalar_ops.value();
  s.batch_min_lanes =
      static_cast<std::uint64_t>(metrics_->batch_min_lanes.value());
  s.mean_lane_occupancy =
      s.batches == 0 ? 0.0
                     : static_cast<double>(s.lanes_signed) /
                           static_cast<double>(s.batches * kBatch);
  s.queue_wait_us = metrics_->queue_wait_us.snapshot().summary();
  s.service_us = metrics_->service_us.snapshot().summary();
  return s;
}

void SignService::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;

  {
    std::lock_guard<std::mutex> lock(linger_mu_);
    stopping_ = true;
  }
  linger_cv_.notify_all();
  if (linger_thread_.joinable()) linger_thread_.join();

  // Reject new submissions, then drain: any sign() that passed its
  // accepting_ check did so under its shard's mutex, so taking each mutex
  // here is a barrier — every accepted request is either in pending (we
  // flush it) or was already dispatched (the pool drain below waits).
  accepting_.store(false);
  std::vector<Flush> flushes;
  {
    std::lock_guard<std::mutex> sl(shards_mu_);
    for (auto& [id, shard] : shards_) {
      std::lock_guard<std::mutex> pl(shard->mu);
      while (!shard->pending.empty()) flushes.push_back(take_flush(*shard));
    }
  }
  for (Flush& f : flushes) run_flush(std::move(f), FlushReason::kDrain);
  pool_.shutdown();
  stopped_ = true;
}

}  // namespace phissl::service
