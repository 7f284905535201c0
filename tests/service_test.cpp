// SignService tests: the async batching layer must produce exactly the
// signatures the synchronous engines produce, on every dispatch path —
// the 16-pending fast path, the linger-deadline flush (a dummy-padded
// batch at or above the measured break-even, the scalar engine below
// it), the stop() drain, and cross-key routing — and its stats block must
// stay consistent with the traffic it served.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bigint/bigint.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "service/flush_rule.hpp"
#include "service/sign_service.hpp"
#include "util/cpu.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace phissl {
namespace {

using bigint::BigInt;
using service::SignResult;
using service::SignService;
using service::SignServiceConfig;
using service::StatsSnapshot;

util::Sha256::Digest digest_of(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Sha256::Digest d;
  rng.fill_bytes(d.data(), d.size());
  return d;
}

// Verifies a service signature with nothing but the public key: the
// public op must reproduce the EMSA-PKCS1-v1_5 encoding of the digest.
bool verifies(const rsa::PublicKey& pub, const util::Sha256::Digest& digest,
              std::span<const std::uint8_t> signature) {
  const rsa::Engine pub_engine(pub, rsa::EngineOptions{});
  const std::size_t k = pub.byte_size();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= pub.n) return false;
  return pub_engine.public_op(s).to_bytes_be(k) ==
         rsa::emsa_pkcs1_v15_from_digest(digest, k);
}

TEST(SignService, FullBatchFastPath) {
  SignServiceConfig cfg;
  cfg.full_batches_only = true;  // only the 16-pending path can dispatch
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < SignService::kBatch; ++i) {
    digests.push_back(digest_of(i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const SignResult r = futs[i].get();
    EXPECT_TRUE(verifies(svc.public_key("k"), digests[i], r.signature));
    EXPECT_GE(r.completed_at, r.submitted_at);
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, SignService::kBatch);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.full_batches, 1u);
  EXPECT_EQ(s.padded_lanes, 0u);
  EXPECT_DOUBLE_EQ(s.mean_lane_occupancy, 1.0);
}

TEST(SignService, PartialBatchLingerFlush) {
  // A partial below the measured break-even flushes on the linger timer
  // one request at a time, each alone on the scalar engine: no batch and
  // no padded lane.
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(2000);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));
  const std::size_t min_lanes = svc.stats().batch_min_lanes;
  ASSERT_GE(min_lanes, 1u);
  if (min_lanes == 1) GTEST_SKIP() << "a one-lane batch beats scalar here";
  const std::size_t n = std::min<std::size_t>(min_lanes - 1, 3);

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < n; ++i) {
    digests.push_back(digest_of(100 + i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  // No stop() here: completion must come from the linger timer alone.
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const SignResult r = futs[i].get();
    EXPECT_TRUE(verifies(svc.public_key("k"), digests[i], r.signature));
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, n);
  EXPECT_EQ(s.scalar_ops, n);
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.lanes_signed, 0u);
  EXPECT_EQ(s.padded_lanes, 0u);
  EXPECT_DOUBLE_EQ(s.mean_lane_occupancy, 0.0);
  EXPECT_EQ(s.queue_wait_us.count, n);  // scalar waits are recorded too
  EXPECT_EQ(s.service_us.count, 0u);    // ...but only batches time here
}

TEST(SignService, PartialAtBreakEvenRunsOnePaddedBatch) {
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(20000);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));
  const std::size_t n = svc.stats().batch_min_lanes;
  if (n >= SignService::kBatch) {
    GTEST_SKIP() << "break-even " << n << " leaves no partial batch";
  }

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  const auto submit_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    digests.push_back(digest_of(150 + i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  const auto submit_window = std::chrono::steady_clock::now() - submit_start;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(
        verifies(svc.public_key("k"), digests[i], futs[i].get().signature));
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, n);
  EXPECT_EQ(s.full_batches, 0u);
  EXPECT_EQ(s.lanes_signed + s.scalar_ops, n);
  // The linger deadline starts no earlier than the first submission, so if
  // every submission landed within max_linger the flush saw all n pending
  // and ran them as ONE padded batch. If scheduler contention stretched
  // the loop past the deadline, the oldest may have gone scalar first;
  // assert the shape invariants instead of serializing the test run
  // around a timing budget.
  if (submit_window < cfg.max_linger) {
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.scalar_ops, 0u);
  }
  EXPECT_EQ(s.padded_lanes, s.batches * SignService::kBatch - s.lanes_signed);
}

TEST(SignService, SixteenPendingDispatchImmediately) {
  // With a linger far longer than the test, only the 16-pending threshold
  // can complete these requests: as one full batch, or as 16 scalar ops
  // where the measured break-even says a batch never pays.
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::seconds(60);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));
  const bool batch_pays = svc.stats().batch_min_lanes <= SignService::kBatch;

  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < SignService::kBatch; ++i) {
    futs.push_back(svc.sign("k", digest_of(170 + i)));
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  }
  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.batches, batch_pays ? 1u : 0u);
  EXPECT_EQ(s.full_batches, batch_pays ? 1u : 0u);
  EXPECT_EQ(s.padded_lanes, 0u);
  EXPECT_EQ(s.scalar_ops, batch_pays ? 0u : SignService::kBatch);
}

TEST(SignService, ScalarPathMatchesEngine) {
  // One request at a time sits below the break-even, so every form runs
  // on the shard's scalar engine — and must produce exactly the bytes the
  // synchronous rsa::Engine produces.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(200);
  SignService svc(cfg);
  svc.add_key("k", key);
  const rsa::Engine engine(key, rsa::EngineOptions{});

  const util::Sha256::Digest digest = digest_of(4100);
  const auto expected_sig =
      engine
          .private_op(BigInt::from_bytes_be(
              rsa::emsa_pkcs1_v15_from_digest(digest, k)))
          .to_bytes_be(k);
  util::Rng rng(4101);
  std::vector<std::uint8_t> block(k);
  rng.fill_bytes(block.data(), block.size());
  block[0] = 0;
  const auto expected_raw =
      engine.private_op(BigInt::from_bytes_be(block)).to_bytes_be(k);

  EXPECT_EQ(svc.sign("k", digest).get().signature, expected_sig);
  EXPECT_EQ(svc.private_op("k", block).get().signature, expected_raw);

  std::promise<std::optional<SignResult>> async_sig, async_raw;
  svc.sign_async("k", digest, [&](std::optional<SignResult> r) {
    async_sig.set_value(std::move(r));
  });
  auto sig = async_sig.get_future().get();
  svc.private_op_async("k", block, [&](std::optional<SignResult> r) {
    async_raw.set_value(std::move(r));
  });
  auto raw = async_raw.get_future().get();
  ASSERT_TRUE(sig.has_value());
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(sig->signature, expected_sig);
  EXPECT_EQ(raw->signature, expected_raw);
  EXPECT_GE(raw->completed_at, raw->submitted_at);

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, 4u);
  if (s.batch_min_lanes > 1) {
    EXPECT_EQ(s.scalar_ops, 4u);
    EXPECT_EQ(s.batches, 0u);
  }
}

TEST(SignService, RequestsInvariantAfterStop) {
  // Concurrent submitters with uneven pacing mix full batches, linger
  // flushes of both kinds and a final drain; afterwards every accepted
  // request is accounted for exactly once.
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(300);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 25;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::future<SignResult>>> futs(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        futs[t].push_back(svc.sign("k", digest_of(5000 + t * 100 + i)));
        if ((i + t) % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(700));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  svc.stop();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(verifies(svc.public_key("k"),
                           digest_of(5000 + t * 100 + i),
                           futs[t][i].get().signature));
    }
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, kThreads * kPerThread);
  EXPECT_EQ(s.requests, s.lanes_signed + s.scalar_ops);
  EXPECT_EQ(s.queue_wait_us.count, s.requests);
  EXPECT_EQ(s.service_us.count, s.batches);
  EXPECT_EQ(s.lanes_signed + s.padded_lanes, s.batches * SignService::kBatch);
}

TEST(SignService, ConfigDefaultsFollowHost) {
  const SignServiceConfig cfg;
  EXPECT_EQ(cfg.dispatch_threads, util::usable_cpus());
  EXPECT_EQ(cfg.backend, rsa::default_backend());
}

TEST(SignService, ConcurrentSubmittersAtUsableCpusMatchEngine) {
  // Default dispatch pool (one worker per usable CPU) under several
  // submitter threads mixing sign() and private_op() in a trickle that
  // keeps the queue mostly below the break-even, so scalar ops on the
  // same shard run on several workers at once, with the odd burst
  // batching. Every result must be bit-identical to rsa::Engine and every
  // request counted exactly once.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(100);
  ASSERT_EQ(cfg.dispatch_threads, util::usable_cpus());
  SignService svc(cfg);
  svc.add_key("k", key);

  const std::size_t threads_n = std::max<std::size_t>(4, util::usable_cpus());
  constexpr std::size_t kPerThread = 24;
  struct Req {
    bool raw;
    std::vector<std::uint8_t> input;  // raw block, or the 32-byte digest
    std::future<SignResult> fut;
  };
  std::vector<std::vector<Req>> reqs(threads_n);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(7000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Req r;
        r.raw = (i + t) % 2 == 0;
        if (r.raw) {
          r.input.resize(k);
          rng.fill_bytes(r.input.data(), r.input.size());
          r.input[0] = 0;
          r.fut = svc.private_op("k", r.input);
        } else {
          const util::Sha256::Digest d = digest_of(7100 + t * 100 + i);
          r.input.assign(d.begin(), d.end());
          r.fut = svc.sign("k", d);
        }
        reqs[t].push_back(std::move(r));
        if (i % 8 == 7) continue;  // burst: no pause
        if (i % 3 == 0) {
          reqs[t].back().fut.wait();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(150));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  svc.stop();

  const rsa::Engine engine(key, rsa::EngineOptions{});
  for (std::size_t t = 0; t < threads_n; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      Req& r = reqs[t][i];
      const BigInt x =
          r.raw ? BigInt::from_bytes_be(r.input)
                : BigInt::from_bytes_be(
                      rsa::emsa_pkcs1_v15_from_digest(r.input, k));
      EXPECT_EQ(r.fut.get().signature, engine.private_op(x).to_bytes_be(k))
          << "thread " << t << " request " << i;
    }
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, threads_n * kPerThread);
  EXPECT_EQ(s.requests, s.lanes_signed + s.scalar_ops);
  EXPECT_EQ(s.queue_wait_us.count, s.requests);
  EXPECT_EQ(s.lanes_signed + s.padded_lanes, s.batches * SignService::kBatch);
  if (s.batch_min_lanes > 1) {
    EXPECT_GT(s.scalar_ops, 0u);
  }
}

TEST(SignService, StopDrainsSubBreakEvenPartial) {
  // The linger timer cannot fire within the test, so only stop()'s drain
  // completes these: below the break-even it runs each request scalar.
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::seconds(60);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));
  const std::size_t min_lanes = svc.stats().batch_min_lanes;
  const std::size_t n = std::clamp<std::size_t>(min_lanes - 1, 1, 15);

  std::vector<std::future<SignResult>> futs;
  std::vector<std::optional<SignResult>> async_results(n);
  std::atomic<std::size_t> async_done{0};
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      futs.push_back(svc.sign("k", digest_of(600 + i)));
    } else {
      svc.sign_async("k", digest_of(600 + i),
                     [&, i](std::optional<SignResult> r) {
                       async_results[i] = std::move(r);
                       async_done.fetch_add(1);
                     });
    }
  }
  svc.stop();
  EXPECT_EQ(async_done.load(), n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 1) ASSERT_TRUE(async_results[i].has_value()) << i;
    const std::vector<std::uint8_t> sig =
        i % 2 == 0 ? futs[i / 2].get().signature : async_results[i]->signature;
    EXPECT_TRUE(verifies(svc.public_key("k"), digest_of(600 + i), sig)) << i;
  }
  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, n);
  EXPECT_EQ(s.lanes_signed + s.scalar_ops, n);
  if (min_lanes > n) {
    EXPECT_EQ(s.scalar_ops, n);
    EXPECT_EQ(s.batches, 0u);
  }
}

TEST(SignServiceFlushRule, BreakEvenFromCosts) {
  EXPECT_EQ(service::batch_min_lanes_for(1000.0, 100.0), 10u);
  EXPECT_EQ(service::batch_min_lanes_for(1001.0, 100.0), 11u);
  EXPECT_EQ(service::batch_min_lanes_for(50.0, 100.0), 1u);  // batch wins
  EXPECT_EQ(service::batch_min_lanes_for(1600.0, 100.0), 16u);
  // A batch dearer than 16 scalars never pays (the RSA-4096 regime).
  EXPECT_EQ(service::batch_min_lanes_for(1601.0, 100.0), 17u);
  EXPECT_EQ(service::batch_min_lanes_for(1e9, 1.0), 17u);
  // No scalar cost: there is no scalar path, every flush batches.
  EXPECT_EQ(service::batch_min_lanes_for(1000.0, 0.0), 1u);
}

TEST(SignServiceFlushRule, PlanFlush) {
  using service::plan_flush;
  // Below the break-even: only the oldest leaves, on the scalar engine.
  EXPECT_EQ(plan_flush(3, 10).take, 1u);
  EXPECT_TRUE(plan_flush(3, 10).scalar);
  EXPECT_TRUE(plan_flush(9, 10).scalar);
  // At or above it: one batch takes everything pending, up to 16.
  EXPECT_EQ(plan_flush(10, 10).take, 10u);
  EXPECT_FALSE(plan_flush(10, 10).scalar);
  EXPECT_EQ(plan_flush(16, 10).take, 16u);
  EXPECT_FALSE(plan_flush(16, 10).scalar);
  EXPECT_EQ(plan_flush(20, 10).take, 16u);
  // Break-even 1: always a batch, even of one lane.
  EXPECT_EQ(plan_flush(1, 1).take, 1u);
  EXPECT_FALSE(plan_flush(1, 1).scalar);
  EXPECT_EQ(plan_flush(7, 1).take, 7u);
  // Break-even above 16: even 16 pending go one at a time, scalar.
  EXPECT_EQ(plan_flush(16, 17).take, 1u);
  EXPECT_TRUE(plan_flush(16, 17).scalar);
  EXPECT_TRUE(plan_flush(1, 17).scalar);
  static_assert(plan_flush(16, 16).take == 16 && !plan_flush(16, 16).scalar);
}

TEST(SignService, MatchesSynchronousEngineSignature) {
  // No blinding anywhere, so the batched service signature must be
  // byte-identical to the single-op Engine path for the same message.
  const rsa::PrivateKey& key = rsa::test_key(512);
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(500);
  SignService svc(cfg);
  svc.add_key("k", key);

  const std::string msg = "sign me through the batching service";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  const auto digest = util::Sha256::hash(bytes);

  const SignResult r = svc.sign("k", digest).get();
  const rsa::Engine engine(key, rsa::EngineOptions{});
  EXPECT_EQ(r.signature, rsa::sign_sha256(engine, bytes));
  EXPECT_TRUE(rsa::verify_sha256(engine, bytes, r.signature));
}

TEST(SignService, RawPrivateOpMatchesEngine) {
  // private_op must compute exactly x^d mod n for a caller-chosen block —
  // no EMSA encoding on the way in, no interpretation on the way out —
  // so the TLS path can run RSAES decryptions through the same batches.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignService svc;
  svc.add_key("k", key);

  util::Rng rng(4242);
  std::vector<std::uint8_t> block(k);
  rng.fill_bytes(block.data(), block.size());
  block[0] = 0;  // keep the value comfortably below n

  const SignResult r = svc.private_op("k", block).get();
  const rsa::Engine engine(key, rsa::EngineOptions{});
  const auto expected =
      engine.private_op(bigint::BigInt::from_bytes_be(block)).to_bytes_be(k);
  EXPECT_EQ(r.signature, expected);
  EXPECT_GE(r.completed_at, r.submitted_at);
}

TEST(SignService, RawPrivateOpAndSignSharePipeline) {
  // Mixed traffic on one key: raw blocks and digests interleave in the
  // same shard and both come back correct.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignService svc;
  svc.add_key("k", key);
  const rsa::Engine engine(key, rsa::EngineOptions{});

  std::vector<std::future<SignResult>> raw_futs, sign_futs;
  std::vector<std::vector<std::uint8_t>> blocks;
  util::Rng rng(777);
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> block(k);
    rng.fill_bytes(block.data(), block.size());
    block[0] = 0;
    blocks.push_back(block);
    raw_futs.push_back(svc.private_op("k", block));
    sign_futs.push_back(svc.sign("k", digest_of(900 + i)));
  }
  for (int i = 0; i < 6; ++i) {
    const auto expected =
        engine.private_op(bigint::BigInt::from_bytes_be(blocks[i]))
            .to_bytes_be(k);
    EXPECT_EQ(raw_futs[i].get().signature, expected) << i;
    EXPECT_TRUE(verifies(svc.public_key("k"), digest_of(900 + i),
                         sign_futs[i].get().signature))
        << i;
  }
}

TEST(SignService, RawPrivateOpRejectsBadInput) {
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignService svc;
  svc.add_key("k", key);
  // Wrong size.
  EXPECT_THROW(svc.private_op("k", std::vector<std::uint8_t>(k - 1, 0)),
               std::invalid_argument);
  // Value >= n.
  EXPECT_THROW(svc.private_op("k", std::vector<std::uint8_t>(k, 0xff)),
               std::invalid_argument);
  // Unknown key.
  EXPECT_THROW(svc.private_op("nope", std::vector<std::uint8_t>(k, 0)),
               std::invalid_argument);
}

TEST(SignService, CrossKeyRouting) {
  util::Rng rng_a(1001), rng_b(2002);
  const rsa::PrivateKey key_a = rsa::generate_key(512, rng_a);
  const rsa::PrivateKey key_b = rsa::generate_key(512, rng_b);
  ASSERT_NE(key_a.pub.n, key_b.pub.n);

  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(500);
  SignService svc(cfg);
  svc.add_key("a", key_a);
  svc.add_key("b", key_b);

  // Interleaved submissions must land on the right shard/key.
  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < 8; ++i) {
    digests.push_back(digest_of(200 + i));
    futs.push_back(svc.sign(i % 2 == 0 ? "a" : "b", digests.back()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const SignResult r = futs[i].get();
    const rsa::PublicKey& right = i % 2 == 0 ? key_a.pub : key_b.pub;
    const rsa::PublicKey& wrong = i % 2 == 0 ? key_b.pub : key_a.pub;
    EXPECT_TRUE(verifies(right, digests[i], r.signature));
    EXPECT_FALSE(verifies(wrong, digests[i], r.signature));
  }

  EXPECT_THROW((void)svc.sign("nope", digests[0]), std::invalid_argument);
  EXPECT_THROW(svc.add_key("a", key_a), std::invalid_argument);
  const std::vector<std::uint8_t> short_digest(16, 0xab);
  EXPECT_THROW((void)svc.sign("a", short_digest), std::invalid_argument);
}

TEST(SignService, StopDrainsPartialEvenWhenFullBatchesOnly) {
  SignServiceConfig cfg;
  cfg.full_batches_only = true;
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < 5; ++i) {
    digests.push_back(digest_of(300 + i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  svc.stop();  // must flush the 5-element partial and complete everything
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(
        verifies(svc.public_key("k"), digests[i], futs[i].get().signature));
  }
  EXPECT_THROW((void)svc.sign("k", digests[0]), std::runtime_error);
  EXPECT_THROW(svc.add_key("late", rsa::test_key(512)), std::runtime_error);
  svc.stop();  // idempotent
}

TEST(SignService, StatsSnapshotSanity) {
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(20000);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  constexpr std::size_t kRequests = 35;  // 2 full batches + a partial
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(svc.sign("k", digest_of(400 + i)));
    if (i == kRequests / 2) {
      // Snapshots must be consistent mid-run too.
      const StatsSnapshot mid = svc.stats();
      EXPECT_LE(mid.requests, kRequests);
      EXPECT_LE(mid.full_batches, mid.batches);
    }
  }
  for (auto& f : futs) (void)f.get();
  svc.stop();

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, kRequests);
  // The linger is far longer than 35 submissions take, so no linger flush
  // splits the first 32 requests: both 16-pending batches are full.
  EXPECT_GE(s.batches, kRequests / SignService::kBatch);
  EXPECT_GE(s.full_batches, 2u);
  EXPECT_GT(s.mean_lane_occupancy, 0.0);
  EXPECT_LE(s.mean_lane_occupancy, 1.0);
  // Every request contributes one queue-wait sample; every batch one
  // service-time sample.
  EXPECT_EQ(s.queue_wait_us.count, kRequests);
  EXPECT_EQ(s.service_us.count, s.batches);
  EXPECT_GE(s.queue_wait_us.p99, s.queue_wait_us.median);
  EXPECT_GE(s.service_us.min, 0.0);
  // Occupancy identity: signed lanes + padded lanes = batches * 16.
  EXPECT_EQ(static_cast<std::uint64_t>(
                s.mean_lane_occupancy *
                    static_cast<double>(s.batches * SignService::kBatch) +
                0.5) +
                s.padded_lanes,
            s.batches * SignService::kBatch);
}

}  // namespace
}  // namespace phissl
