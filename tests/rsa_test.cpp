// RSA key generation and engine tests: consistency of generated keys,
// round-trips across all kernel/schedule/CRT/blinding configurations, and
// cross-engine agreement (every configuration must produce bit-identical
// results for the same key).
#include <gtest/gtest.h>

#include <stdexcept>

#include "mont/ifma_kernels.hpp"
#include "rsa/backend.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/cpu.hpp"
#include "util/random.hpp"

namespace phissl::rsa {
namespace {

using bigint::BigInt;

TEST(KeyGen, GeneratesConsistentKey) {
  util::Rng rng(100);
  const PrivateKey key = generate_key(512, rng);
  EXPECT_EQ(key.pub.bits(), 512u);
  EXPECT_EQ(key.pub.e, BigInt{65537});
  EXPECT_TRUE(key.is_consistent());
  EXPECT_NE(key.p, key.q);
}

TEST(KeyGen, ExactModulusBits) {
  util::Rng rng(101);
  for (std::size_t bits : {128u, 384u, 1024u}) {
    const PrivateKey key = generate_key(bits, rng);
    EXPECT_EQ(key.pub.n.bit_length(), bits);
  }
}

TEST(KeyGen, DeterministicForSeed) {
  util::Rng a(7), b(7);
  EXPECT_EQ(generate_key(256, a).pub.n, generate_key(256, b).pub.n);
}

TEST(KeyGen, CustomExponent) {
  util::Rng rng(102);
  const PrivateKey key = generate_key(256, rng, 3);
  EXPECT_EQ(key.pub.e, BigInt{3});
  EXPECT_TRUE(key.is_consistent());
}

TEST(KeyGen, RejectsBadArguments) {
  util::Rng rng(103);
  EXPECT_THROW(generate_key(63, rng), std::invalid_argument);   // odd size
  EXPECT_THROW(generate_key(32, rng), std::invalid_argument);   // too small
  EXPECT_THROW(generate_key(128, rng, 4), std::invalid_argument);  // even e
  EXPECT_THROW(generate_key(128, rng, 1), std::invalid_argument);
}

TEST(TestKey, CachedAndConsistent) {
  const PrivateKey& k1 = test_key(512);
  const PrivateKey& k2 = test_key(512);
  EXPECT_EQ(&k1, &k2);  // same cached object
  EXPECT_TRUE(k1.is_consistent());
  EXPECT_EQ(k1.pub.bits(), 512u);
  EXPECT_NE(test_key(1024).pub.n, k1.pub.n);
}

struct EngineConfig {
  Kernel kernel;
  Schedule schedule;
  bool use_crt;
  bool blinding;
};

class EngineRoundTrip : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineRoundTrip, PrivateThenPublicIsIdentity) {
  const EngineConfig cfg = GetParam();
  const PrivateKey& key = test_key(512);
  EngineOptions opts;
  opts.kernel = cfg.kernel;
  opts.schedule = cfg.schedule;
  opts.use_crt = cfg.use_crt;
  opts.blinding = cfg.blinding;
  const Engine engine(key, opts);
  util::Rng rng(7777);
  for (int i = 0; i < 3; ++i) {
    const BigInt m = BigInt::random_below(key.pub.n, rng);
    const BigInt s = engine.private_op(m, &rng);
    EXPECT_EQ(engine.public_op(s), m);
    // And the other direction: decrypt(encrypt(m)) == m.
    const BigInt c = engine.public_op(m);
    EXPECT_EQ(engine.private_op(c, &rng), m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EngineRoundTrip,
    ::testing::Values(
        EngineConfig{Kernel::kVector, Schedule::kFixedWindow, true, false},
        EngineConfig{Kernel::kVector, Schedule::kFixedWindow, false, false},
        EngineConfig{Kernel::kVector, Schedule::kFixedWindow, true, true},
        EngineConfig{Kernel::kVector, Schedule::kSlidingWindow, true, false},
        EngineConfig{Kernel::kScalar32, Schedule::kSlidingWindow, true, false},
        EngineConfig{Kernel::kScalar32, Schedule::kFixedWindow, false, false},
        EngineConfig{Kernel::kScalar64, Schedule::kSlidingWindow, true, false},
        EngineConfig{Kernel::kScalar64, Schedule::kFixedWindow, true, true},
        EngineConfig{Kernel::kIfma52, Schedule::kFixedWindow, true, false},
        EngineConfig{Kernel::kIfma52, Schedule::kFixedWindow, false, false},
        EngineConfig{Kernel::kIfma52, Schedule::kSlidingWindow, true, false},
        EngineConfig{Kernel::kIfma52, Schedule::kFixedWindow, true, true}),
    [](const auto& param_info) {
      const EngineConfig& c = param_info.param;
      std::string name = to_string(c.kernel);
      name += c.schedule == Schedule::kFixedWindow ? "_fixed" : "_sliding";
      name += c.use_crt ? "_crt" : "_nocrt";
      name += c.blinding ? "_blind" : "";
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Engine, AllKernelsAgreeOnPrivateOp) {
  const PrivateKey& key = test_key(1024);
  util::Rng rng(42);
  const BigInt m = BigInt::random_below(key.pub.n, rng);

  BigInt reference;
  bool first = true;
  for (const Kernel k : {Kernel::kScalar32, Kernel::kScalar64, Kernel::kVector,
                         Kernel::kIfma52}) {
    for (const Schedule s : {Schedule::kFixedWindow, Schedule::kSlidingWindow}) {
      for (const bool crt : {false, true}) {
        EngineOptions opts;
        opts.kernel = k;
        opts.schedule = s;
        opts.use_crt = crt;
        const Engine engine(key, opts);
        const BigInt got = engine.private_op(m);
        if (first) {
          reference = got;
          first = false;
        } else {
          EXPECT_EQ(got, reference)
              << to_string(k) << "/" << to_string(s) << "/crt=" << crt;
        }
      }
    }
  }
  // The reference must also be the textbook m^d mod n.
  EXPECT_EQ(reference, m.mod_pow(key.d, key.pub.n));
}

TEST(Engine, BlindingChangesNothingObservable) {
  const PrivateKey& key = test_key(512);
  EngineOptions plain;
  plain.kernel = Kernel::kVector;
  EngineOptions blinded = plain;
  blinded.blinding = true;
  const Engine e1(key, plain);
  const Engine e2(key, blinded);
  util::Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    const BigInt m = BigInt::random_below(key.pub.n, rng);
    EXPECT_EQ(e1.private_op(m), e2.private_op(m, &rng));
  }
}

TEST(Engine, BlindingRequiresRng) {
  EngineOptions opts;
  opts.blinding = true;
  const Engine engine(test_key(512), opts);
  EXPECT_THROW(engine.private_op(BigInt{42}), std::invalid_argument);
}

TEST(Engine, PublicOnlyEngineRejectsPrivateOp) {
  const Engine engine(test_key(512).pub, EngineOptions{});
  EXPECT_FALSE(engine.has_private());
  EXPECT_EQ(engine.public_op(BigInt{2}),
            BigInt{2}.mod_pow(BigInt{65537}, engine.pub().n));
  EXPECT_THROW(engine.private_op(BigInt{2}), std::logic_error);
}

TEST(Engine, RejectsOutOfRangeInputs) {
  const Engine engine(test_key(512), EngineOptions{});
  EXPECT_THROW(engine.public_op(engine.pub().n), std::invalid_argument);
  EXPECT_THROW(engine.public_op(BigInt{-1}), std::invalid_argument);
  EXPECT_THROW(engine.private_op(engine.pub().n), std::invalid_argument);
}

TEST(Engine, ZeroAndSmallMessages) {
  const Engine engine(test_key(512), EngineOptions{});
  EXPECT_EQ(engine.private_op(engine.public_op(BigInt{})), BigInt{});
  EXPECT_EQ(engine.private_op(engine.public_op(BigInt{1})), BigInt{1});
  EXPECT_EQ(engine.private_op(engine.public_op(BigInt{2})), BigInt{2});
}

TEST(Engine, KernelAndScheduleNames) {
  EXPECT_STREQ(to_string(Kernel::kVector), "vector");
  EXPECT_STREQ(to_string(Kernel::kScalar32), "scalar32");
  EXPECT_STREQ(to_string(Kernel::kScalar64), "scalar64");
  EXPECT_STREQ(to_string(Kernel::kIfma52), "ifma52");
  EXPECT_STREQ(to_string(Schedule::kFixedWindow), "fixed-window");
  EXPECT_STREQ(to_string(Schedule::kSlidingWindow), "sliding-window");
}

TEST(Backend, NamesRoundTrip) {
  EXPECT_STREQ(to_string(Backend::kKncVec), "knc_vec");
  EXPECT_STREQ(to_string(Backend::kIfma52), "ifma52");
  EXPECT_STREQ(to_string(Backend::kScalar64), "scalar64");
  EXPECT_EQ(backend_from_string("knc_vec"), Backend::kKncVec);
  EXPECT_EQ(backend_from_string("ifma52"), Backend::kIfma52);
  // The portable spelling selects the same backend; IfmaMontCtx itself
  // re-reads the env var to pin the u128 path.
  EXPECT_EQ(backend_from_string("ifma52-portable"), Backend::kIfma52);
  EXPECT_EQ(backend_from_string("scalar64"), Backend::kScalar64);
  EXPECT_FALSE(backend_from_string("avx2").has_value());
  EXPECT_FALSE(backend_from_string("").has_value());
}

TEST(Backend, KernelMapping) {
  EXPECT_EQ(kernel_for(Backend::kKncVec), Kernel::kVector);
  EXPECT_EQ(kernel_for(Backend::kIfma52), Kernel::kIfma52);
  EXPECT_EQ(kernel_for(Backend::kScalar64), Kernel::kScalar64);
}

TEST(Backend, ResolveHonorsEnvironment) {
  // In the plain test environment resolve_backend is the identity; under
  // a PHISSL_FORCE_BACKEND CI leg it must report the override for every
  // request (the sanitizer legs rely on this to pin ifma52 everywhere).
  for (const Backend b :
       {Backend::kKncVec, Backend::kIfma52, Backend::kScalar64}) {
    EXPECT_EQ(resolve_backend(b), forced_backend().value_or(b));
  }
}

TEST(Backend, DefaultFollowsCpuFeatures) {
  // ifma52 only where vpmadd52 runs: its portable path is slower than
  // knc_vec.
  const bool ifma = util::cpu_features().avx512ifma && mont::ifma::compiled();
  EXPECT_EQ(default_backend(), ifma ? Backend::kIfma52 : Backend::kKncVec);
  // PHISSL_FORCE_BACKEND still wins over the default at construction.
  const BatchEngine batch(test_key(512), default_backend());
  EXPECT_EQ(batch.backend(), forced_backend().value_or(default_backend()));
}

}  // namespace
}  // namespace phissl::rsa
