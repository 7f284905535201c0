// Unit tests for src/util: PRNG determinism, hex codec, stats, thread pool,
// CPU probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/cpu.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timing.hpp"

namespace phissl::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000003ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, FillBytesLengths) {
  Rng rng(3);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 64u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

TEST(Rng, BytesLookUniformish) {
  Rng rng(11);
  auto v = rng.bytes(4096);
  std::vector<int> counts(256, 0);
  for (auto b : v) counts[b]++;
  // Each byte value expected ~16 times; allow a generous band.
  for (int c : counts) EXPECT_LT(c, 64);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(hex_encode(data), "0001abff10");
  EXPECT_EQ(hex_decode("0001abff10"), data);
  EXPECT_EQ(hex_decode("0x0001ABFF10"), data);
}

TEST(Hex, OddLengthGetsLeadingNibble) {
  const auto v = hex_decode("abc");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0x0a);
  EXPECT_EQ(v[1], 0xbc);
}

TEST(Hex, RejectsBadDigit) {
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);
  EXPECT_THROW(hex_decode("12g4"), std::invalid_argument);
}

TEST(Hex, EmptyInput) {
  EXPECT_TRUE(hex_decode("").empty());
  EXPECT_EQ(hex_encode(std::vector<std::uint8_t>{}), "");
}

TEST(Stats, BasicSummary) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.p95, 5.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

TEST(Stats, PercentilesNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  const Summary s = summarize(std::move(samples));
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

TEST(Stats, EvenCountMedian) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(Stats, NonFiniteSamplesAreDropped) {
  // A NaN or infinity in the sample set (a poisoned timer, a division by
  // a zero duration) must not leak into any aggregate: summarize drops
  // non-finite values and reports only the finite subset.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize({2.0, nan, 4.0, inf, 6.0, -inf});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  EXPECT_TRUE(std::isfinite(s.stddev));
  EXPECT_DOUBLE_EQ(s.p99, 6.0);

  // All-non-finite input behaves exactly like an empty sample.
  const Summary none = summarize({nan, inf, -inf});
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_DOUBLE_EQ(none.p99, 0.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { counter++; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksAreContiguousAndDisjoint) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for(103, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(lo, hi);
  });
  ASSERT_LE(ranges.size(), 4u);
  std::sort(ranges.begin(), ranges.end());
  std::size_t expect = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect);
    EXPECT_LT(lo, hi);
    expect = hi;
  }
  EXPECT_EQ(expect, 103u);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t, std::size_t) { FAIL(); });
}

/// Runs `k` tasks on `pool` that each wait until all `k` have started,
/// and returns the thread ids they ran on. Only k distinct workers can
/// get every task past the rendezvous; a pool that parked one task behind
/// another would time out instead (the test then fails, it does not hang).
std::vector<std::thread::id> rendezvous(ThreadPool& pool, std::size_t k) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<std::thread::id> ids;
  std::vector<std::future<void>> futs;
  for (std::size_t i = 0; i < k; ++i) {
    futs.push_back(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ids.push_back(std::this_thread::get_id());
      ++arrived;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return arrived == k; })) {
        throw std::runtime_error("rendezvous timed out");
      }
    }));
  }
  for (auto& f : futs) f.get();
  return ids;
}

TEST(ThreadPool, ConcurrentTasksRunOnDistinctWorkers) {
  ThreadPool pool(4);
  for (std::size_t k = 1; k <= pool.size(); ++k) {
    const std::vector<std::thread::id> ids = rendezvous(pool, k);
    EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), k);
  }
}

TEST(ThreadPool, TaskExceptionReachesItsFuture) {
  ThreadPool pool(2);
  std::future<void> bad =
      pool.submit([] { throw std::invalid_argument("task failed"); });
  EXPECT_THROW(bad.get(), std::invalid_argument);
  std::atomic<int> c{0};
  pool.submit([&c] { c = 1; }).get();  // the worker survived the throw
  EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ShutdownDrainsBlockedBacklogThenRejects) {
  // Drain-then-reject with every worker busy and a backlog queued behind
  // them: shutdown() (here from another thread, while the workers are
  // still blocked) must run the whole backlog before joining, and submit()
  // must throw once the drain has begun.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 2; ++i) {
    futs.push_back(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return open; });
      ran++;
    }));
  }
  for (int i = 0; i < 30; ++i) futs.push_back(pool.submit([&ran] { ran++; }));
  std::thread stopper([&pool] { pool.shutdown(); });
  // submit() rejects as soon as the drain has begun, even with work queued.
  bool rejected = false;
  while (!rejected) {
    try {
      (void)pool.submit([] {});
      std::this_thread::yield();
    } catch (const std::runtime_error&) {
      rejected = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  stopper.join();
  for (auto& f : futs) f.get();
  EXPECT_GE(ran.load(), 32);  // plus any probe tasks accepted before the drain
  EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(CpuProbe, UsableCpusWithinAffinityMask) {
  const std::size_t n = usable_cpus();
  EXPECT_GE(n, 1u);
  EXPECT_EQ(usable_cpus(), n);  // cached
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    EXPECT_LE(n, static_cast<std::size_t>(CPU_COUNT(&set)));
  }
#endif
}

TEST(CpuProbe, CpuMaxQuotaRoundsUp) {
  EXPECT_EQ(cpus_from_cpu_max("200000 100000"), 2u);
  EXPECT_EQ(cpus_from_cpu_max("150000 100000\n"), 2u);
  EXPECT_EQ(cpus_from_cpu_max("50000 100000"), 1u);
  EXPECT_EQ(cpus_from_cpu_max("1 100000"), 1u);
  EXPECT_FALSE(cpus_from_cpu_max("max 100000").has_value());
  EXPECT_FALSE(cpus_from_cpu_max("-1 100000").has_value());
  EXPECT_FALSE(cpus_from_cpu_max("max").has_value());
  EXPECT_FALSE(cpus_from_cpu_max("").has_value());
  EXPECT_FALSE(cpus_from_cpu_max("0 100000").has_value());
  EXPECT_FALSE(cpus_from_cpu_max("100000 0").has_value());
  EXPECT_FALSE(cpus_from_cpu_max("12x 100000").has_value());
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> c{0};
  pool.submit([&c] { c = 1; }).get();
  EXPECT_EQ(c.load(), 1);
}

TEST(Timing, StopwatchMonotone) {
  Stopwatch sw;
  const auto a = sw.elapsed_ns();
  const auto b = sw.elapsed_ns();
  EXPECT_LE(a, b);
  sw.reset();
  EXPECT_GE(sw.elapsed_s(), 0.0);
}

}  // namespace
}  // namespace phissl::util
