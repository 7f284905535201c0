// The repository benchmark driver. Three workloads over the library as it
// ships (every default untouched, no backend pin):
//
//   tls_full    SocketFrontend over loopback; every connection is a full
//               RSA key-transport handshake + one echo + close. A paced
//               open-loop phase (latency, CPU per handshake) then a
//               saturated closed-loop phase (throughput).
//   tls_resume  The same stack; every measured connection resumes a session
//               banked during warm-up, so no private op runs at all.
//   sign        service::SignService called directly (paced, saturated),
//               plus one caller signing through rsa::Engine back to back.
//
// Traced runs add a "direct" phase to every workload: one caller thread runs
// the workload's operation back to back through the library with no
// service, reactor or socket in the way.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--key <pem>] [--trace-out <json>] [--commit <id>]
//
// The last stdout line is the result object; the line before it carries
// provenance and run validity. See README.md in this directory.
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "tls_load.hpp"

#include "bigint/bigint.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/der.hpp"
#include "rsa/engine.hpp"
#include "rsa/pkcs1.hpp"
#include "service/sign_service.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/driver.hpp"
#include "ssl/session_cache.hpp"
#include "util/cpu.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

namespace rsa = phissl::rsa;
namespace ssl = phissl::ssl;
namespace async = phissl::ssl::async;
namespace service = phissl::service;
using phissl::bigint::BigInt;

// --- Fixed workload shape -------------------------------------------------
// Rates are fixed, not adapted to the host, so two commits see the same
// offered load. The paced rates are about 40% of the saturated throughput
// the library reached on a 4-vCPU AVX-512 Xeon when the benchmark was
// defined; the nominal rates only size the count-based phases so that each
// phase lasts about its share of --seconds there.
constexpr std::size_t kSetupReps = 5;        // setup_s is their median
constexpr std::size_t kWindow = 256;         // closed-loop in-flight ops
constexpr std::size_t kMinPhaseOps = 64;

// Each run's --seconds is split into kSlices rounds. An untraced round runs
// the paced and saturated phases; a traced round also runs the direct
// phase. tls_resume has no paced phase and gives its share to the
// saturated one.
constexpr std::size_t kSlices = 12;

struct Shares {
  double paced, sat, direct;
};
Shares shares(bool trace) { return trace ? Shares{0.3, 0.4, 0.3} : Shares{0.45, 0.55, 0.0}; }

constexpr std::size_t kFullWarmup = 256;     // tls_full warm-up handshakes
constexpr double kFullPacedRate = 260.0;     // hs/s offered, open loop
constexpr double kFullSatNominal = 650.0;    // hs/s, sizes the closed loop
constexpr double kDirectFullNominal = 300.0;

constexpr std::size_t kIdentities = 256;     // tls_resume client identities
constexpr std::size_t kResumeWarmup = 2048;  // resumed warm-up handshakes
constexpr double kResumeNominal = 10000.0;
constexpr double kDirectResumeNominal = 15000.0;
constexpr std::size_t kDirectIdentities = 16;

constexpr std::size_t kSignWarmup = 512;
constexpr double kSignPacedRate = 600.0;     // signs/s offered, open loop
constexpr double kSignSatNominal = 1450.0;
constexpr double kDirectSignNominal = 350.0;

// Direct TLS handshakes between CPU rotor steps (a resumed one takes
// tens of microseconds; a full one, a private op's milliseconds).
constexpr std::size_t kRotateEvery = 16;

// A paced generator whose p99 start lateness exceeds this has fallen behind
// its schedule; the run is flagged invalid.
constexpr double kLateLimitMs = 5.0;

const char* const kKeyId = "bench";

#ifdef __clang__
const char* const kCompiler = "clang " __VERSION__;
#else
const char* const kCompiler = "gcc " __VERSION__;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string key_path = "perfbench/key2048.pem";
  std::string trace_out;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + flag);
    }
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--key") a.key_path = value;
    else if (flag == "--trace-out") a.trace_out = value;
    else if (flag == "--commit") a.commit = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload != "tls_full" && a.workload != "tls_resume" && a.workload != "sign") {
    throw std::invalid_argument("--workload must be tls_full, tls_resume or sign");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::size_t phase_ops(double nominal_rate, double seconds) {
  return std::max(kMinPhaseOps, static_cast<std::size_t>(nominal_rate * seconds));
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A fixed scalar loop timed in benchmark code: a slow-vCPU episode shows up
/// here, so it can be told apart from a regression. It normalises nothing.
double host_ref_ms() {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 2'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    reps.push_back(ms(now_ns() - t0));
  }
  return median(reps);
}

rsa::PrivateKey load_key(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read key file " + path);
  const std::string pem((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  rsa::PrivateKey key = rsa::private_key_from_pem(pem);
  if (!key.is_consistent() || key.pub.bits() != 2048) {
    throw std::runtime_error("key file does not hold a consistent 2048-bit key");
  }
  return key;
}

/// Server-side resource use at one instant, read from outside the library.
struct Probe {
  std::uint64_t wall = 0, proc_cpu = 0, gen_cpu = 0;
  TaskTicks ticks;
  RegistrySnapshot reg;
  static Probe take() {
    Probe p;
    p.ticks = read_task_ticks();
    p.reg = RegistrySnapshot::take();
    p.proc_cpu = process_cpu_ns();
    p.gen_cpu = thread_cpu_ns();
    p.wall = now_ns();
    return p;
  }
};

/// Resource use and registry deltas of one phase, summed over its slices.
struct PhaseAcc {
  double wall_s = 0;
  double server_cpu_ms = 0;  ///< process CPU minus the generator thread's
  double gen_cpu_s = 0;
  double busiest_s = 0;      ///< Σ busiest server thread's share × wall
  double busy_threads_s = 0; ///< Σ server threads at least half busy × wall
  RegistrySnapshot reg;

  void add(const Probe& a, const Probe& b, long gen_tid) {
    const double wall = static_cast<double>(b.wall - a.wall) / 1e9;
    const double gen_ns = static_cast<double>(b.gen_cpu - a.gen_cpu);
    wall_s += wall;
    gen_cpu_s += gen_ns / 1e9;
    server_cpu_ms += (static_cast<double>(b.proc_cpu - a.proc_cpu) - gen_ns) / 1e6;
    double busiest = 0, busy = 0;
    for (const auto& [tid, share] : busy_shares(a.ticks, b.ticks, wall)) {
      if (tid == gen_tid) continue;
      busiest = std::max(busiest, share);
      if (share >= 0.5) busy += 1;
    }
    busiest_s += busiest * wall;
    busy_threads_s += busy * wall;
    reg.add_delta(a.reg, b.reg);
  }
  [[nodiscard]] double per_wall(double v) const { return wall_s > 0 ? v / wall_s : 0.0; }
  [[nodiscard]] double gen_busy() const { return per_wall(gen_cpu_s); }
  [[nodiscard]] double max_server_busy() const { return per_wall(busiest_s); }
  [[nodiscard]] double busy_threads() const { return per_wall(busy_threads_s); }
};

/// Latency samples in slice order; quantiles are taken per slice of
/// `per_slice` samples and summarised by their median over slices.
class SliceLatency {
 public:
  explicit SliceLatency(std::size_t per_slice) : per_slice_(per_slice) {}
  void add(double ms_value) { samples_.push_back(ms_value); }
  [[nodiscard]] double median_of(double q) const {
    std::vector<double> per;
    for (std::size_t at = 0; at + per_slice_ <= samples_.size(); at += per_slice_) {
      per.push_back(quantile(std::vector<double>(samples_.begin() + static_cast<std::ptrdiff_t>(at),
                                                 samples_.begin() + static_cast<std::ptrdiff_t>(at + per_slice_)),
                             q));
    }
    return median(std::move(per));
  }

 private:
  std::size_t per_slice_;
  std::vector<double> samples_;
};

/// Everything one run accumulates before printing.
struct Run {
  Args args;
  Tracer tracer;
  long gen_tid = this_tid();
  Metrics e2e, layer;
  std::vector<std::string> errors;
  std::size_t attempted = 0, failed = 0;
  std::vector<double> setup_reps;
  bool generator_behind = false;
  bool generator_busiest = false;
  double gen_busy_max = 0;
  double server_busy_max = 0;
  double gen_late_p99 = 0;
  std::size_t latency_samples = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void note_phase(const PhaseAcc& p) {
    gen_busy_max = std::max(gen_busy_max, p.gen_busy());
    server_busy_max = std::max(server_busy_max, p.max_server_busy());
    if (p.gen_busy() >= p.max_server_busy()) generator_busiest = true;
  }
  void note_lateness(const std::vector<double>& late_ms) {
    gen_late_p99 = late_ms.empty() ? 0.0 : quantile(late_ms, 0.99);
    generator_behind = gen_late_p99 > kLateLimitMs;
  }
  /// The end-to-end metrics after setup_s, from per-slice rates, the paced
  /// latency samples and the paced phase's CPU per operation.
  void add_e2e(const std::vector<double>& sat_rates, const SliceLatency& lat,
               double cpu_ms_per_op) {
    e2e.push_back({"throughput_per_s", median(sat_rates), "1/s"});
    e2e.push_back({"p50_ms", lat.median_of(0.50), "ms"});
    e2e.push_back({"p99_ms", lat.median_of(0.99), "ms"});
    e2e.push_back({"cpu_ms_per_op", cpu_ms_per_op, "ms"});
  }
  void add_layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

/// Service-layer figures from a phase's registry deltas (null: no service).
void add_service_layer(Run& run, const PhaseAcc* p) {
  double occ = 0, padded = 0, wait50 = 0, wait99 = 0, batch50 = 0, linger = 0;
  if (p != nullptr) {
    const RegistrySnapshot& r = p->reg;
    const double batches = r.sum("phissl_service_batches_total");
    const double lanes = batches * static_cast<double>(service::SignService::kBatch);
    if (lanes > 0) {
      occ = r.sum("phissl_service_lanes_signed_total") / lanes;
      padded = r.sum("phissl_service_padded_lanes_total") / lanes;
      linger = r.sum("phissl_service_flush_total", "reason=\"linger\"") / batches;
    }
    wait50 = r.quantile("phissl_service_queue_wait_us", 0.50) / 1e3;
    wait99 = r.quantile("phissl_service_queue_wait_us", 0.99) / 1e3;
    batch50 = r.quantile("phissl_service_batch_service_us", 0.50) / 1e3;
  }
  run.add_layer("service.lane_occupancy", occ, "ratio");
  run.add_layer("service.padded_lane_share", padded, "ratio");
  run.add_layer("service.queue_wait_ms_p50", wait50, "ms");
  run.add_layer("service.queue_wait_ms_p99", wait99, "ms");
  run.add_layer("service.batch_ms_p50", batch50, "ms");
  run.add_layer("service.linger_flush_share", linger, "ratio");
}

void add_proc_layer(Run& run, const PhaseAcc& p) {
  run.add_layer("proc.max_thread_busy_share", p.max_server_busy(), "ratio");
  run.add_layer("proc.busy_threads", p.busy_threads(), "count");
}

/// Reactor and transport counters over a socket phase of `conns`
/// connections (null: the workload has no socket stack).
void add_async_layer(Run& run, const PhaseAcc* p, double conns) {
  double per_wakeup = 0, eagain = 0, shed = 0, resets = 0;
  if (p != nullptr && conns > 0) {
    const RegistrySnapshot& r = p->reg;
    const double wakeups = r.sum("phissl_reactor_wakeups_total");
    if (wakeups > 0) per_wakeup = r.sum("phissl_reactor_resumptions_total") / wakeups;
    eagain = r.sum("phissl_transport_eagain_total") / conns;
    shed = r.sum("phissl_reactor_shed_total") / conns;
    resets = r.sum("phissl_transport_resets_total");
  }
  run.add_layer("async.resumptions_per_wakeup", per_wakeup, "ratio");
  run.add_layer("async.eagain_per_conn", eagain, "ratio");
  run.add_layer("async.shed_share", shed, "ratio");
  run.add_layer("async.resets", resets, "count");
}

void add_cache_share(Run& run, const PhaseAcc* p) {
  double share = 0;
  if (p != nullptr) {
    const double hits = p->reg.sum("phissl_session_cache_lookups_total", "hit");
    const double misses = p->reg.sum("phissl_session_cache_lookups_total", "miss");
    if (hits + misses > 0) share = hits / (hits + misses);
  }
  run.add_layer("ssl.cache_hit_share", share, "ratio");
}

/// Client phase spans of a phase's connections (ms percentiles).
void add_client_phases(Run& run, const std::vector<ConnStamps>* conns) {
  std::vector<double> connect, f1, f2, echo;
  if (conns != nullptr) {
    for (const ConnStamps& c : *conns) {
      if (!c.ok) continue;
      connect.push_back(ms(c.connected - c.open));
      f1.push_back(ms(c.out1 - c.connected));
      if (c.out2 != 0) f2.push_back(ms(c.out2 - c.out1));
      echo.push_back(ms(c.done - (c.out2 != 0 ? c.out2 : c.out1)));
    }
  }
  const auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : quantile(v, p);
  };
  run.add_layer("hs.connect_ms_p50", q(connect, 0.5), "ms");
  run.add_layer("hs.flight1_ms_p50", q(f1, 0.5), "ms");
  run.add_layer("hs.flight2_ms_p50", q(f2, 0.5), "ms");
  run.add_layer("hs.flight2_ms_p99", q(f2, 0.99), "ms");
  run.add_layer("hs.echo_ms_p50", q(echo, 0.5), "ms");
}

/// Traced against untraced throughput in closed-loop slices whose span
/// recording alternated every `chunk` completions (odd chunks traced).
struct OverheadAcc {
  double on_ops = 0, on_s = 0, off_ops = 0, off_s = 0;

  void add(std::vector<std::uint64_t> done_ns, std::size_t chunk, std::uint64_t start_ns) {
    if (chunk == 0) return;
    std::sort(done_ns.begin(), done_ns.end());
    std::uint64_t prev = start_ns;
    for (std::size_t c = 0; (c + 1) * chunk <= done_ns.size(); ++c) {
      const std::uint64_t end = done_ns[(c + 1) * chunk - 1];
      (c % 2 == 1 ? on_ops : off_ops) += static_cast<double>(chunk);
      (c % 2 == 1 ? on_s : off_s) += static_cast<double>(end - prev) / 1e9;
      prev = end;
    }
  }
  /// 1 - traced/untraced throughput.
  [[nodiscard]] double share() const {
    if (on_s <= 0 || off_s <= 0 || off_ops <= 0) return 0.0;
    return 1.0 - (on_ops / on_s) / (off_ops / off_s);
  }
};

/// The Σ(isolated layer cost per op) ÷ cpu_ms_per_op remainder.
double unexplained(double explained_ms, double cpu_ms_per_op) {
  return cpu_ms_per_op > 0 ? 1.0 - explained_ms / cpu_ms_per_op : 0.0;
}

void add_layer_costs(Run& run, const LayerCosts& c) {
  run.add_layer("mont.mul_ns", c.mont_mul_ns, "ns");
  run.add_layer("mont.sqr_ns", c.mont_sqr_ns, "ns");
  run.add_layer("mont.batch_mul_ns_per_lane", c.mont_batch_mul_ns_per_lane, "ns");
  run.add_layer("rsa.private_op_ms", c.rsa_private_op_ms, "ms");
  run.add_layer("rsa.batch16_ms_per_lane", c.rsa_batch16_ms_per_lane, "ms");
  run.add_layer("rsa.public_op_us", c.rsa_public_op_us, "us");
  run.add_layer("ssl.prf_us", c.prf_us, "us");
  run.add_layer("ssl.record_seal_us", c.record_seal_us, "us");
  run.add_layer("ssl.record_open_us", c.record_open_us, "us");
  run.add_layer("ssl.cache_get_ns", c.cache_get_ns, "ns");
  run.add_layer("ssl.cache_put_ns", c.cache_put_ns, "ns");
}

/// A sample of 16-lane batch private ops must equal the scalar engine's.
void check_batch_matches_scalar(Run& run, const rsa::PrivateKey& key) {
  const rsa::Engine engine(key, rsa::EngineOptions{});
  const rsa::BatchEngine batch(key);
  phissl::util::Rng rng(run.args.seed ^ 0xba7c'4ULL);
  std::vector<BigInt> xs(rsa::BatchEngine::kBatch);
  for (auto& x : xs) {
    x = BigInt::from_bytes_be(rng.bytes(key.pub.byte_size() + 8)) % key.pub.n;
  }
  const auto lanes = batch.private_op(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    run.check(lanes[i] == engine.private_op(xs[i]), "batch private op differs from rsa::Engine");
  }
}

// --- TLS workloads ----------------------------------------------------------

/// One in-memory handshake + echo + close between a ServerConnection and a
/// ScriptedClient on the calling thread, the private op resolved inline on
/// rsa::Engine: the "direct" path with no service, reactor or socket.
bool direct_handshake(const rsa::Engine& server, const rsa::Engine& client_engine,
                      ssl::SessionCache& cache, std::uint64_t seed,
                      std::optional<ssl::ResumableSession> resume,
                      std::optional<ssl::ResumableSession>* bank) {
  const bool want_resume = resume.has_value();
  async::ServerConnection srv(server, seed, &cache, nullptr, nullptr);
  async::ScriptedClient cli(client_engine, seed ^ 0xc11e'47ULL, std::move(resume));
  cli.start();
  for (int step = 0; step < 16 && !cli.done() && !cli.failed(); ++step) {
    const auto up = cli.take_output();
    if (!up.empty()) srv.on_input(up);
    if (auto op = srv.take_pending_op()) {
      if (op->kind != async::PendingOp::Kind::kPrivateOp) return false;
      srv.on_crypto_result(rsa::decrypt_pkcs1(server, op->payload));
    }
    const auto down = srv.take_output();
    if (!down.empty()) cli.on_server_bytes(down);
  }
  const auto close = cli.take_output();
  if (!close.empty()) srv.on_input(close);
  const bool ok = cli.done() && !cli.failed() && !srv.failed() &&
                  cli.resumed() == want_resume &&
                  srv.state() == async::ConnState::kClosed;
  if (ok && bank != nullptr && !cli.resumed()) *bank = cli.resumable();
  return ok;
}

void run_tls(Run& run, bool resume) {
  const Args& a = run.args;
  const double slice_s = a.seconds / kSlices;
  const std::size_t warm_full = resume ? kIdentities : kFullWarmup;
  const std::size_t warm_resumed = resume ? kResumeWarmup : 0;
  const Shares sh = shares(a.trace);
  const std::size_t paced_n = resume ? 0 : phase_ops(kFullPacedRate, sh.paced * slice_s);
  const std::size_t sat_n = resume ? phase_ops(kResumeNominal, (1 - sh.direct) * slice_s)
                                   : phase_ops(kFullSatNominal, sh.sat * slice_s);
  const std::size_t direct_n =
      sh.direct == 0 ? 0
      : resume       ? phase_ops(kDirectResumeNominal, sh.direct * slice_s)
                     : phase_ops(kDirectFullNominal, sh.direct * slice_s);

  struct Stack {
    std::optional<rsa::PrivateKey> key;
    std::unique_ptr<rsa::Engine> server, client;
    std::unique_ptr<async::SocketFrontend> frontend;
    ssl::DriverReport report;
    std::thread serve;
    std::unique_ptr<TlsLoad> gen;
    std::unique_ptr<ssl::SessionCache> direct_cache;
    std::vector<std::optional<ssl::ResumableSession>> direct_ids;
    std::size_t completed = 0, failed = 0, resumed = 0;  // client-side totals

    void tally(const PhaseResult& r) {
      completed += r.completed;
      failed += r.failed;
      resumed += r.resumed;
    }
    void finish(Run& run) {
      if (serve.joinable()) serve.join();
      run.check(report.completed == completed && report.failed == failed &&
                    report.resumed == resumed && report.shed == 0,
                "server DriverReport counts differ from the client's");
    }
  };

  // Set-up, kSetupReps times: load the key, build the stack with library
  // defaults, warm it up. Only the last stack is sized for the measured
  // connections and kept.
  std::unique_ptr<Stack> st;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    if (st) st->finish(run);
    st = std::make_unique<Stack>();
    const std::uint64_t t0 = now_ns();
    st->key.emplace(load_key(a.key_path));
    st->server = std::make_unique<rsa::Engine>(*st->key, rsa::EngineOptions{});
    st->client = std::make_unique<rsa::Engine>(st->key->pub, rsa::EngineOptions{});
    ssl::DriverConfig cfg;
    cfg.num_handshakes = warm_full + warm_resumed + (last ? kSlices * (paced_n + sat_n) : 0);
    cfg.seed = a.seed;
    st->frontend = std::make_unique<async::SocketFrontend>(*st->server, cfg);
    st->serve = std::thread([s = st.get()] { s->report = s->frontend->run(); });
    st->gen = std::make_unique<TlsLoad>(*st->client, st->frontend->port(), kIdentities,
                                        run.tracer);
    const PhaseResult w1 = st->gen->run(PhaseSpec{.count = warm_full, .window = kWindow,
                                                  .bank_sessions = resume, .seed = a.seed});
    st->tally(w1);
    run.check(w1.failed == 0, "warm-up connections failed");
    if (warm_resumed > 0) {
      const PhaseResult w2 = st->gen->run(PhaseSpec{.count = warm_resumed, .window = kWindow,
                                                    .offer_resumption = true,
                                                    .seed = a.seed + 1});
      st->tally(w2);
      run.check(w2.failed == 0 && w2.resumed == warm_resumed, "resumed warm-up did not resume");
    }
    const ssl::DriverConfig defaults;
    st->direct_cache = std::make_unique<ssl::SessionCache>(ssl::SessionCacheConfig{
        .capacity = defaults.cache_capacity, .shards = defaults.cache_shards});
    st->direct_ids.assign(kDirectIdentities, std::nullopt);
    for (std::size_t i = 0; i < kDirectIdentities; ++i) {
      run.check(direct_handshake(*st->server, *st->client, *st->direct_cache,
                                 a.seed * 7919 + i, std::nullopt, &st->direct_ids[i]),
                "direct warm-up handshake failed");
    }
    run.setup_reps.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Measured phases, interleaved slice by slice so that every metric
  // samples the whole run rather than one stretch of host speed.
  Stack& s = *st;
  PhaseAcc paced, sat;
  OverheadAcc overhead;
  std::vector<ConnStamps> paced_conns, sat_conns;
  std::size_t paced_done = 0, sat_done = 0, sat_resumed = 0, measured_failed = 0;
  std::size_t direct_failed = 0;
  std::vector<double> sat_rates, direct_rates;
  const std::size_t chunk = a.trace ? std::max<std::size_t>(1, sat_n / 8) : 0;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (!resume) {
      run.tracer.on = a.trace;
      const Probe p0 = Probe::take();
      const PhaseResult r = s.gen->run(PhaseSpec{.count = paced_n,
                                                 .rate_per_s = kFullPacedRate,
                                                 .seed = a.seed + 100 + k});
      paced.add(p0, Probe::take(), run.gen_tid);
      s.tally(r);
      paced_done += r.completed;
      measured_failed += r.failed;
      run.check(r.resumed == 0, "a tls_full connection resumed");
      paced_conns.insert(paced_conns.end(), r.conns.begin(), r.conns.end());
    }
    run.tracer.on = false;
    const Probe p2 = Probe::take();
    const PhaseResult r = s.gen->run(PhaseSpec{.count = sat_n, .window = kWindow,
                                               .offer_resumption = resume,
                                               .seed = a.seed + 200 + k, .trace_chunk = chunk});
    sat.add(p2, Probe::take(), run.gen_tid);
    s.tally(r);
    sat_done += r.completed;
    sat_resumed += r.resumed;
    measured_failed += r.failed;
    sat_rates.push_back(static_cast<double>(r.completed) * 1e9 /
                        static_cast<double>(r.end_ns - r.start_ns));
    std::vector<std::uint64_t> done;
    for (const ConnStamps& c : r.conns) done.push_back(c.done);
    overhead.add(std::move(done), chunk, r.start_ns);
    sat_conns.insert(sat_conns.end(), r.conns.begin(), r.conns.end());

    // Direct slice (traced runs): the same handshake in memory on this thread.
    if (direct_n == 0) continue;
    run.tracer.on = true;
    CpuRotor rotor;
    const std::uint64_t d0 = now_ns();
    for (std::size_t i = 0; i < direct_n; ++i) {
      if (i % kRotateEvery == 0) rotor.step();
      const std::uint64_t t = now_ns();
      const std::size_t idx = k * direct_n + i;
      std::optional<ssl::ResumableSession> offer;
      if (resume) offer = s.direct_ids[idx % kDirectIdentities];
      if (!direct_handshake(*s.server, *s.client, *s.direct_cache, a.seed * 104729 + idx,
                            offer, nullptr)) {
        ++direct_failed;
      }
      run.tracer.span("direct.handshake", t, now_ns(), idx + 1);
    }
    direct_rates.push_back(static_cast<double>(direct_n) * 1e9 /
                           static_cast<double>(now_ns() - d0));
    run.tracer.on = false;
  }
  s.finish(run);
  if (!resume) run.note_phase(paced);
  run.note_phase(sat);

  // Output checks.
  run.check(measured_failed == 0, "measured connections failed");
  if (resume) {
    run.check(sat_resumed == kSlices * sat_n, "a measured tls_resume connection did not resume");
  } else {
    run.check(sat_resumed == 0, "a tls_full connection resumed");
  }
  run.check(direct_failed == 0, "direct handshakes failed");
  check_batch_matches_scalar(run, *s.key);
  run.attempted = kSlices * (paced_n + sat_n + direct_n);
  run.failed = measured_failed + direct_failed;

  // Latency: tls_full's paced phase from each connection's scheduled time;
  // tls_resume's closed loop from each connection's open. Percentiles are
  // taken per slice and the median over slices is reported, so one slow
  // stretch of host time cannot own the pooled tail.
  const std::vector<ConnStamps>& lat_conns = resume ? sat_conns : paced_conns;
  const std::size_t per_slice = resume ? sat_n : paced_n;
  SliceLatency lat(per_slice);
  std::vector<double> late;
  for (const ConnStamps& c : lat_conns) {
    lat.add(c.ok ? ms(c.done - c.sched) : kInf);
    if (!resume) late.push_back(ms(c.open - c.sched));
  }
  run.latency_samples = lat_conns.size();
  run.note_lateness(late);
  const PhaseAcc& cpu_phase = resume ? sat : paced;
  const double cpu_ms_per_op =
      cpu_phase.server_cpu_ms / static_cast<double>(std::max<std::size_t>(1, resume ? sat_done : paced_done));

  if (!a.trace) {
    run.add_e2e(sat_rates, lat, cpu_ms_per_op);
    return;
  }
  const LayerCosts costs = measure_layers(*s.key, a.seed, run.tracer);
  add_layer_costs(run, costs);
  run.add_layer("direct_ops_per_s", median(direct_rates), "1/s");
  add_service_layer(run, resume ? nullptr : &paced);
  add_proc_layer(run, sat);
  add_cache_share(run, resume ? &sat : &paced);
  add_async_layer(run, &sat, static_cast<double>(kSlices * sat_n));
  add_client_phases(run, &lat_conns);
  run.add_layer("gen.late_ms_p99", run.gen_late_p99, "ms");
  run.add_layer("trace.overhead_share", overhead.share(), "ratio");
  const double explained =
      resume ? (3 * costs.prf_us + costs.record_seal_us + costs.record_open_us) / 1e3 +
                   costs.cache_get_ns / 1e6
             : costs.rsa_batch16_ms_per_lane +
                   (4 * costs.prf_us + costs.record_seal_us + costs.record_open_us) / 1e3 +
                   costs.cache_put_ns / 1e6;
  run.add_layer("ledger.unexplained_share", unexplained(explained, cpu_ms_per_op), "ratio");
}

// --- sign workload ------------------------------------------------------------

/// Drives SignService::sign_async from the generator thread. Completions
/// land on dispatch threads; they store the result and queue the request
/// index, and the generator drains that queue (recording spans there).
class SignLoad {
 public:
  struct Req {
    std::vector<std::uint8_t> digest;
    std::vector<std::uint8_t> sig;
    std::uint64_t sched = 0, submit = 0, svc_submit = 0, done = 0;
    bool ok = false;
  };
  struct Result {
    std::vector<Req> reqs;
    std::uint64_t start_ns = 0, end_ns = 0;
  };

  SignLoad(service::SignService& svc, Tracer& tracer) : svc_(svc), tracer_(tracer) {}

  /// n requests: open-loop Poisson at rate_per_s, or (rate 0) a closed loop
  /// keeping `outstanding` in flight. trace_chunk alternates span recording.
  Result run(std::size_t n, double rate_per_s, std::size_t outstanding, std::uint64_t seed,
             std::size_t trace_chunk = 0) {
    Result res;
    res.reqs.resize(n);
    phissl::util::Rng rng(seed);
    for (Req& r : res.reqs) r.digest = rng.bytes(32);
    std::mt19937_64 arrivals(seed ^ 0x5147'a11ULL);
    std::exponential_distribution<double> gap_s(rate_per_s > 0 ? rate_per_s : 1.0);
    reqs_ = &res.reqs;
    completed_ = 0;
    trace_chunk_ = trace_chunk;
    res.start_ns = now_ns();
    std::uint64_t sched = res.start_ns;
    std::size_t submitted = 0;
    while (submitted < n) {
      if (rate_per_s > 0) {
        wait_until(sched);
        submit(submitted++, sched);
        sched += static_cast<std::uint64_t>(gap_s(arrivals) * 1e9);
      } else {
        while (submitted < n && submitted - completed_ < outstanding) {
          submit(submitted++, now_ns());
        }
        wait_for_completion();
      }
    }
    while (completed_ < n) wait_for_completion();
    res.end_ns = now_ns();
    reqs_ = nullptr;
    return res;
  }

 private:
  void submit(std::size_t i, std::uint64_t sched) {
    Req& r = (*reqs_)[i];
    r.sched = sched;
    r.submit = now_ns();
    svc_.sign_async(kKeyId, r.digest, [this, i](std::optional<service::SignResult> out) {
      Req& q = (*reqs_)[i];
      if (out.has_value()) {
        q.sig = std::move(out->signature);
        q.svc_submit = static_cast<std::uint64_t>(out->submitted_at.time_since_epoch().count());
        q.done = static_cast<std::uint64_t>(out->completed_at.time_since_epoch().count());
        q.ok = true;
      } else {
        q.done = now_ns();
      }
      {
        std::lock_guard<std::mutex> l(mu_);
        done_.push_back(i);
      }
      cv_.notify_one();
    });
  }

  void drain(std::vector<std::size_t>& ready) {
    for (const std::size_t i : ready) {
      ++completed_;
      if (trace_chunk_ > 0) tracer_.on = (completed_ / trace_chunk_) % 2 == 1;
      const Req& r = (*reqs_)[i];
      tracer_.span("sign.request", r.sched, r.done, i + 1);
      tracer_.span("sign.service", r.svc_submit, r.done, i + 1, i + 1);
    }
    ready.clear();
  }

  void wait_until(std::uint64_t deadline_ns) {
    std::vector<std::size_t> ready;
    for (;;) {
      {
        std::unique_lock<std::mutex> l(mu_);
        const auto deadline = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(deadline_ns));
        cv_.wait_until(l, deadline, [&] { return !done_.empty(); });
        ready.swap(done_);
      }
      drain(ready);
      if (now_ns() >= deadline_ns) return;
    }
  }

  void wait_for_completion() {
    std::vector<std::size_t> ready;
    {
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait(l, [&] { return !done_.empty(); });
      ready.swap(done_);
    }
    drain(ready);
  }

  service::SignService& svc_;
  Tracer& tracer_;
  std::vector<Req>* reqs_ = nullptr;
  std::size_t completed_ = 0;
  std::size_t trace_chunk_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> done_;
};

/// Every signature must verify under the public key; a sample must also
/// equal the scalar engine's signature of the same digest.
std::size_t check_signatures(Run& run, const rsa::Engine& engine, const SignLoad::Result& r) {
  const std::size_t k = engine.pub().byte_size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < r.reqs.size(); ++i) {
    const SignLoad::Req& q = r.reqs[i];
    const auto em = rsa::emsa_pkcs1_v15_from_digest(q.digest, k);
    bool ok = q.ok && q.sig.size() == k &&
              engine.public_op(BigInt::from_bytes_be(q.sig)).to_bytes_be(k) == em;
    if (ok && i < 16) {
      ok = engine.private_op(BigInt::from_bytes_be(em)).to_bytes_be(k) == q.sig;
    }
    if (!ok) ++bad;
  }
  run.check(bad == 0, std::to_string(bad) + " service signatures failed verification");
  return bad;
}

void run_sign(Run& run) {
  const Args& a = run.args;
  const double slice_s = a.seconds / kSlices;
  const Shares sh = shares(a.trace);
  const std::size_t paced_n = phase_ops(kSignPacedRate, sh.paced * slice_s);
  const std::size_t sat_n = phase_ops(kSignSatNominal, sh.sat * slice_s);
  const std::size_t direct_n = sh.direct == 0 ? 0 : phase_ops(kDirectSignNominal, sh.direct * slice_s);

  std::optional<rsa::PrivateKey> key;
  std::unique_ptr<rsa::Engine> engine;
  std::unique_ptr<service::SignService> svc;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const std::uint64_t t0 = now_ns();
    key.emplace(load_key(a.key_path));
    engine = std::make_unique<rsa::Engine>(*key, rsa::EngineOptions{});
    svc = std::make_unique<service::SignService>(service::SignServiceConfig{});
    svc->add_key(kKeyId, *key);
    SignLoad warm(*svc, run.tracer);
    const auto w = warm.run(kSignWarmup, 0.0, kWindow, a.seed);
    phissl::util::Rng rng(a.seed);
    for (int i = 0; i < 8; ++i) (void)rsa::sign_sha256(*engine, rng.bytes(64));
    run.setup_reps.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    check_signatures(run, *engine, w);
  }

  SignLoad load(*svc, run.tracer);
  PhaseAcc paced, sat;
  OverheadAcc overhead;
  SliceLatency lat(paced_n);
  std::vector<double> late;
  std::size_t bad = 0, direct_bad = 0;
  std::vector<double> sat_rates, direct_rates;
  const std::size_t chunk = a.trace ? std::max<std::size_t>(1, sat_n / 8) : 0;
  phissl::util::Rng msg_rng(a.seed + 4);
  for (std::size_t k = 0; k < kSlices; ++k) {
    run.tracer.on = a.trace;
    const Probe p0 = Probe::take();
    const auto pr = load.run(paced_n, kSignPacedRate, 0, a.seed + 100 + k);
    paced.add(p0, Probe::take(), run.gen_tid);

    run.tracer.on = false;
    const Probe p2 = Probe::take();
    const auto sr = load.run(sat_n, 0.0, kWindow, a.seed + 200 + k, chunk);
    sat.add(p2, Probe::take(), run.gen_tid);
    sat_rates.push_back(static_cast<double>(sat_n) * 1e9 /
                        static_cast<double>(sr.end_ns - sr.start_ns));
    std::vector<std::uint64_t> done;
    for (const auto& q : sr.reqs) done.push_back(q.done);
    overhead.add(std::move(done), chunk, sr.start_ns);

    // Direct slice (traced runs): one caller signing through rsa::Engine.
    std::vector<std::vector<std::uint8_t>> msgs(direct_n), sigs(direct_n);
    if (direct_n > 0) {
      run.tracer.on = true;
      for (auto& m : msgs) m = msg_rng.bytes(64);
      CpuRotor rotor;
      const std::uint64_t d0 = now_ns();
      for (std::size_t i = 0; i < direct_n; ++i) {
        rotor.step();
        const std::uint64_t t = now_ns();
        sigs[i] = rsa::sign_sha256(*engine, msgs[i]);
        run.tracer.span("direct.sign", t, now_ns(), k * direct_n + i + 1);
      }
      direct_rates.push_back(static_cast<double>(direct_n) * 1e9 /
                             static_cast<double>(now_ns() - d0));
      run.tracer.on = false;
    }

    // Checks run between slices, outside every timed phase.
    for (std::size_t i = 0; i < direct_n; ++i) {
      if (!rsa::verify_sha256(*engine, msgs[i], sigs[i])) ++direct_bad;
    }
    bad += check_signatures(run, *engine, pr) + check_signatures(run, *engine, sr);
    for (const auto& q : pr.reqs) {
      lat.add(q.ok ? ms(q.done - q.sched) : kInf);
      late.push_back(ms(q.submit - q.sched));
    }
  }
  run.note_phase(paced);
  run.note_phase(sat);
  run.check(direct_bad == 0, "direct signatures failed verification");
  check_batch_matches_scalar(run, *key);
  run.attempted = kSlices * (paced_n + sat_n + direct_n);
  run.failed = bad + direct_bad;
  run.latency_samples = kSlices * paced_n;
  run.note_lateness(late);
  const double cpu_ms_per_op = paced.server_cpu_ms / static_cast<double>(kSlices * paced_n);

  if (!a.trace) {
    run.add_e2e(sat_rates, lat, cpu_ms_per_op);
    return;
  }
  const LayerCosts costs = measure_layers(*key, a.seed, run.tracer);
  add_layer_costs(run, costs);
  run.add_layer("direct_ops_per_s", median(direct_rates), "1/s");
  add_service_layer(run, &paced);
  add_proc_layer(run, sat);
  add_cache_share(run, nullptr);
  add_async_layer(run, nullptr, 0);
  add_client_phases(run, nullptr);
  run.add_layer("gen.late_ms_p99", run.gen_late_p99, "ms");
  run.add_layer("trace.overhead_share", overhead.share(), "ratio");
  run.add_layer("ledger.unexplained_share",
                unexplained(costs.rsa_batch16_ms_per_lane, cpu_ms_per_op), "ratio");
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_metrics(std::ostream& os, const Metrics& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << json_string(ms[i].name) << ": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": " << json_string(ms[i].unit) << "}";
  }
  os << "}";
}

int bench_main(int argc, char** argv) {
  if (std::getenv("PHISSL_FORCE_BACKEND") != nullptr) {
    std::cerr << "perfbench: PHISSL_FORCE_BACKEND is set; the benchmark measures "
                 "library defaults only\n";
    return 2;
  }
  Run run;
  run.args = parse_args(argc, argv);
  const double ref_before = host_ref_ms();
  const std::uint64_t origin = now_ns();

  if (run.args.workload == "sign") {
    run_sign(run);
  } else {
    run_tls(run, run.args.workload == "tls_resume");
  }

  const double ref_after = host_ref_ms();
  if (run.args.trace) {
    run.add_layer("gen.busy_share", run.gen_busy_max, "ratio");
    run.add_layer("host.ref_ms", (ref_before + ref_after) / 2, "ms");
    if (!run.args.trace_out.empty() && !run.tracer.write(run.args.trace_out, origin)) {
      run.check(false, "cannot write trace file " + run.args.trace_out);
    }
  } else {
    run.e2e.insert(run.e2e.begin(), Metric{"setup_s", median(run.setup_reps), "s"});
  }

  const phissl::util::CpuFeatures& cpu = phissl::util::cpu_features();
  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": " << json_string(run.args.workload)
       << ", \"seed\": " << run.args.seed << ", \"seconds\": " << json_number(run.args.seconds)
       << ", \"cpu_model\": " << json_string(cpu_model())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"avx512f\": " << (cpu.avx512f ? "true" : "false")
       << ", \"avx512ifma\": " << (cpu.avx512ifma ? "true" : "false")
       << ", \"compiler\": " << json_string(kCompiler)
       << ", \"commit\": " << json_string(run.args.commit)
       << ", \"host_ref_ms_before\": " << json_number(ref_before)
       << ", \"host_ref_ms_after\": " << json_number(ref_after)
       << ", \"setup_s_reps\": [";
  for (std::size_t i = 0; i < run.setup_reps.size(); ++i) {
    prov << (i ? ", " : "") << json_number(run.setup_reps[i]);
  }
  prov << "], \"latency_samples\": " << run.latency_samples
       << ", \"gen_late_ms_p99\": " << json_number(run.gen_late_p99)
       << ", \"gen_busy_share\": " << json_number(run.gen_busy_max)
       << ", \"server_max_thread_busy_share\": " << json_number(run.server_busy_max)
       << ", \"generator_behind\": " << (run.generator_behind ? "true" : "false")
       << ", \"generator_busiest\": " << (run.generator_busiest ? "true" : "false")
       << ", \"valid\": "
       << (!run.generator_behind && !run.generator_busiest ? "true" : "false")
       << ", \"errors\": [";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    prov << (i ? ", " : "") << json_string(run.errors[i]);
  }
  prov << "]}}";
  std::cout << prov.str() << "\n";

  const bool correct = run.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": ";
  print_metrics(std::cout, run.args.trace ? run.layer : run.e2e);
  std::cout << "}" << std::endl;
  for (const std::string& e : run.errors) std::cerr << "perfbench: check failed: " << e << "\n";
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
