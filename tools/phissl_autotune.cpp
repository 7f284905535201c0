// phissl_autotune: sweep candidate service configurations over a recorded
// workload trace and emit the winner as tuned-config JSON.
//
//   phissl_autotune <workload.jsonl> [--out tuned_config.json]
//                   [--batch-us X | --model]
//                   [--event-workers 0,2,4] [--seed N] [--all]
//
// The trace comes from any instrumented binary run with --workload (the
// bench harnesses and examples all take the flag; see docs/AUTOTUNE.md).
// Costs default to a live calibration on the service's default backend:
// one 16-lane BatchEngine private_op and one scalar Engine private op on
// this host, timed, so the recommendation reflects the machine it runs
// on and the model's batch-or-scalar break-even matches the service's.
// --batch-us X skips the probe (replaying a production trace on a dev
// box against the production cost; no scalar path is modeled); --model
// prices batches with the phisim PCIe offload model instead (tuning for
// the KNC deployment, where every op ships as a batch).
//
// The winning config is written as JSON consumable by
// ssl::load_tuned_config() / apply_tuned_config(). --all additionally
// prints the full scoreboard. Exit 0 on success, 2 on usage errors,
// 1 on a bad trace.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "obs/workload.hpp"
#include "phisim/autotune.hpp"
#include "phisim/profile.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "service/sign_service.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace {

using namespace phissl;

/// Median wall times of one full 16-lane batch private_op and of one
/// scalar private op on this host, in microseconds, over the backend a
/// default-configured SignService runs.
phisim::ReplayCost calibrate_costs(std::size_t key_bits) {
  const rsa::PrivateKey& key = rsa::test_key(key_bits);
  const rsa::BatchEngine engine(key, service::SignServiceConfig{}.backend);
  const rsa::Engine scalar(
      key, rsa::EngineOptions{.kernel = rsa::kernel_for(engine.backend())});
  util::Rng rng(7);
  std::array<bigint::BigInt, rsa::BatchEngine::kBatch> xs;
  std::array<bigint::BigInt, rsa::BatchEngine::kBatch> out;
  for (auto& x : xs) x = bigint::BigInt::random_below(key.pub.n, rng);
  bigint::BigInt y;
  engine.private_op(xs, out);  // warm-up (tables, allocator)
  scalar.private_op_into(xs[0], y);
  std::vector<double> batch_samples, scalar_samples;
  for (int rep = 0; rep < 5; ++rep) {
    util::Stopwatch sw;
    engine.private_op(xs, out);
    batch_samples.push_back(static_cast<double>(sw.elapsed_ns()) * 1e-3);
    sw.reset();
    scalar.private_op_into(xs[0], y);
    scalar_samples.push_back(static_cast<double>(sw.elapsed_ns()) * 1e-3);
  }
  return phisim::ReplayCost::from_measured(
      util::summarize(std::move(batch_samples)).median,
      util::summarize(std::move(scalar_samples)).median);
}

std::vector<std::size_t> parse_size_list(const char* s) {
  std::vector<std::size_t> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    out.push_back(static_cast<std::size_t>(std::strtoull(p, &end, 10)));
    if (end == p) throw std::invalid_argument("bad list element");
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: phissl_autotune <workload.jsonl> [--out tuned_config.json]\n"
      "                       [--batch-us X | --model]\n"
      "                       [--event-workers 0,2,4] [--seed N] [--all]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string out_path = "tuned_config.json";
  double batch_us_override = 0.0;
  bool use_model = false;
  bool print_all = false;
  std::uint64_t seed = 1;
  phisim::AutotuneGrid grid;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(a, "--batch-us") == 0 && i + 1 < argc) {
      batch_us_override = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--model") == 0) {
      use_model = true;
    } else if (std::strcmp(a, "--event-workers") == 0 && i + 1 < argc) {
      try {
        grid.event_workers = parse_size_list(argv[++i]);
      } catch (const std::exception&) {
        return usage();
      }
    } else if (std::strcmp(a, "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--all") == 0) {
      print_all = true;
    } else if (a[0] == '-') {
      return usage();
    } else if (trace_path.empty()) {
      trace_path = a;
    } else {
      return usage();
    }
  }
  if (trace_path.empty()) return usage();

  std::vector<obs::WorkloadEvent> events;
  try {
    std::ifstream f(trace_path);
    if (!f) throw std::runtime_error("cannot open " + trace_path);
    events = obs::load_workload_jsonl(f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phissl_autotune: %s\n", e.what());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "phissl_autotune: trace has no events\n");
    return 1;
  }
  std::size_t key_bits = 1024;
  for (const obs::WorkloadEvent& ev : events) {
    if (ev.key_bits > 0) {
      key_bits = ev.key_bits;
      break;
    }
  }

  phisim::ReplayCost cost;
  if (batch_us_override > 0.0) {
    cost = phisim::ReplayCost::from_measured(batch_us_override);
    std::printf("batch cost: %.1f us (given)\n", cost.batch_us);
  } else if (use_model) {
    const phisim::OffloadModel model;
    const phisim::KernelProfile op =
        phisim::profile_rsa_private(key_bits, rsa::EngineOptions{});
    const std::size_t k = key_bits / 8;
    cost = phisim::ReplayCost::from_offload_model(model, op, k, k);
    std::printf("batch cost: %.1f us (phisim offload model, RSA-%zu)\n",
                cost.batch_us, key_bits);
  } else {
    cost = calibrate_costs(key_bits);
    std::printf("batch cost: %.1f us, scalar op: %.1f us (calibrated on "
                "this host, RSA-%zu)\n",
                cost.batch_us, cost.scalar_us, key_bits);
  }

  const phisim::AutotuneReport report =
      phisim::autotune(events, cost, grid, seed);

  std::printf("trace: %zu events, %llu ops offered\n", events.size(),
              static_cast<unsigned long long>(
                  report.candidates.front().result.offered));
  if (print_all) {
    std::printf("%10s %6s %6s %8s %8s | %9s %9s %7s %7s %12s\n", "linger_us",
                "lanes", "slots", "adm_us", "workers", "p99w_us", "p99l_us",
                "occup", "shed%", "score");
    for (const phisim::AutotuneCandidate& c : report.candidates) {
      std::printf(
          "%10.0f %6zu %6zu %8.0f %8zu | %9.0f %9.0f %6.1f%% %6.2f%% %12.1f\n",
          c.config.linger_us, c.config.max_batch_lanes,
          c.config.dispatch_slots, c.config.admission_max_wait_us,
          c.config.event_workers, c.result.wait_us.p99,
          c.result.sojourn_us.p99, 100.0 * c.result.occupancy,
          100.0 * c.result.shed_fraction, c.score);
    }
  }

  const phisim::TunedConfig& best = report.best;
  std::printf(
      "\nrecommended: linger %.0f us, %zu lanes, %zu dispatch threads, "
      "%zu event workers, admission %s, %zu cache shards\n"
      "predicted:   p99 wait %.0f us, p99 latency %.0f us, occupancy "
      "%.1f%%, shed %.2f%%\n",
      best.linger_us, best.max_batch_lanes, best.dispatch_threads,
      best.event_workers,
      best.admission_max_wait_us > 0.0
          ? (std::to_string(static_cast<long long>(best.admission_max_wait_us)) +
             " us")
                .c_str()
          : "off",
      best.cache_shards, best.predicted_p99_wait_us,
      best.predicted_p99_latency_us, 100.0 * best.predicted_occupancy,
      100.0 * best.predicted_shed_fraction);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "phissl_autotune: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  phisim::write_tuned_config_json(out, best);
  std::printf("wrote %s (load with ssl::load_tuned_config)\n",
              out_path.c_str());
  return 0;
}
