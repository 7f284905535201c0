// E10: SSL handshake throughput. Full RSA-key-transport handshakes for the
// three systems across key sizes — the end-to-end workload the paper's
// introduction motivates (handshake throughput limited by RSA private ops).
//
// Usage:
//   ./bench_handshake [--smoke] [--json [path]]
//                     [--frontend threaded|event|socket|both|all]
//                     [--trace [path]] [--metrics [path]] [--workload [path]]
//
// The termination sweep (threads x resumption ratio x scalar/batched)
// measures the lane-coalescing ClientKeyExchange path: with
// batch_private_ops on, concurrent full handshakes fill 16-lane SIMD
// batches through the shared BatchDecryptService instead of each running
// a scalar CRT decryption. The scalar rows of the same run are the
// baseline the batched rows are judged against.
//
// The event sweep (connections x reactor workers) measures the
// event-driven frontend: parked connections, not blocked threads, fill
// the batches — so lane occupancy should saturate from a handful of
// workers where the threaded frontend needs >= 16 threads. Extra rows
// inject overload (admission cap, expect nonzero shed with bounded p99),
// a resumption mix, and a DHE mix.
//
// --smoke shrinks everything to a seconds-long CI run (512-bit key, small
// counts, legacy tables skipped) while keeping every code path exercised.
// --frontend selects which sweeps run (default both). The obs export
// flags (src/obs/export.hpp) capture the run; --workload in particular
// records the driver's shed/resumed/dhe_sign tagging for the autotuner
// (docs/AUTOTUNE.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "baseline/systems.hpp"
#include "bench/harness.hpp"
#include "dh/dh.hpp"
#include "obs/export.hpp"
#include "ssl/dhe_handshake.hpp"
#include "ssl/handshake.hpp"
#include "util/random.hpp"
#include "phisim/core_model.hpp"
#include "rsa/key.hpp"
#include "ssl/driver.hpp"

namespace {

// One sweep cell: runs the driver and reports + records one row.
void sweep_cell(phissl::bench::JsonReporter& json, const phissl::rsa::Engine& engine,
                bool batched, std::size_t threads, double ratio,
                std::size_t handshakes, phissl::rsa::Backend batch_backend) {
  using namespace phissl;
  ssl::DriverConfig cfg;
  cfg.num_handshakes = handshakes;
  cfg.num_threads = threads;
  cfg.resumption_ratio = ratio;
  cfg.batch_private_ops = batched;
  cfg.batch_backend = batch_backend;
  const ssl::DriverReport r = ssl::run_handshakes(engine, cfg);

  char name[64];
  std::snprintf(name, sizeof(name), "%s_t%zu_r%.1f",
                batched ? "batched" : "scalar", threads, ratio);
  std::printf("%-8s %4zu %6.1f %12.1f %10.0f %10.0f %7.2f %6zu/%zu\n",
              batched ? "batched" : "scalar", threads, ratio,
              r.handshakes_per_s, r.latency_us.median, r.latency_us.p99,
              r.batch_lane_occupancy, r.resumed, r.completed);
  if (r.failed != 0) std::printf("  (FAILED %zu)\n", r.failed);
  json.add_row("termination_sweep", name,
               {{"threads", static_cast<double>(threads)},
                {"resumption_ratio", ratio},
                {"batched", batched ? 1.0 : 0.0},
                {"hs_per_s", r.handshakes_per_s},
                {"p50_us", r.latency_us.median},
                {"p99_us", r.latency_us.p99},
                {"completed", static_cast<double>(r.completed)},
                {"failed", static_cast<double>(r.failed)},
                {"resumed", static_cast<double>(r.resumed)},
                {"cache_hits", static_cast<double>(r.cache_hits)},
                {"cache_misses", static_cast<double>(r.cache_misses)},
                {"cache_evictions", static_cast<double>(r.cache_evictions)},
                {"batches", static_cast<double>(r.batches)},
                {"lane_occupancy", r.batch_lane_occupancy}});
}

// One event-sweep cell: runs the reactor frontend and reports one row.
void event_cell(phissl::bench::JsonReporter& json,
                const phissl::rsa::Engine& engine, std::size_t conns,
                std::size_t workers, double ratio, double dhe_ratio,
                std::size_t max_pending, phissl::rsa::Backend batch_backend) {
  using namespace phissl;
  ssl::DriverConfig cfg;
  cfg.frontend = ssl::Frontend::kEvent;
  cfg.num_handshakes = conns;
  cfg.event_workers = workers;
  // Slot table bound: everything up to 16k connections runs fully open;
  // beyond that, further connections start as slots free up.
  cfg.max_open_connections = std::min<std::size_t>(conns, 16384);
  if (ratio > 0.0) {
    // Resumption needs churn: a full handshake must complete and bank its
    // session before a later connection with the same identity opens. With
    // every connection open up front nothing can ever resume, so the resume
    // cell runs with a window well below the run length.
    cfg.max_open_connections = std::max<std::size_t>(workers * 16, conns / 8);
  }
  cfg.resumption_ratio = ratio;
  cfg.event_dhe_ratio = dhe_ratio;
  cfg.admission.max_pending_ops = max_pending;
  cfg.batch_backend = batch_backend;
  const ssl::DriverReport r = ssl::run_handshakes(engine, cfg);

  char name[96];
  std::snprintf(name, sizeof(name), "event_c%zu_w%zu%s%s%s", conns, workers,
                max_pending != 0 ? "_overload" : "",
                ratio > 0.0 ? "_resume" : "", dhe_ratio > 0.0 ? "_dhe" : "");
  std::printf("%7zu %3zu %10.1f %9.0f %9.0f %6.2f %7zu %6.1f %7zu/%zu\n",
              conns, workers, r.handshakes_per_s, r.latency_us.median,
              r.latency_us.p99, r.batch_lane_occupancy, r.shed,
              r.resumptions_per_wakeup, r.completed, conns);
  if (r.failed != 0) std::printf("  (FAILED %zu)\n", r.failed);
  json.add_row("event_sweep", name,
               {{"connections", static_cast<double>(conns)},
                {"workers", static_cast<double>(workers)},
                {"resumption_ratio", ratio},
                {"dhe_ratio", dhe_ratio},
                {"max_pending_ops", static_cast<double>(max_pending)},
                {"hs_per_s", r.handshakes_per_s},
                {"p50_us", r.latency_us.median},
                {"p99_us", r.latency_us.p99},
                {"completed", static_cast<double>(r.completed)},
                {"failed", static_cast<double>(r.failed)},
                {"shed", static_cast<double>(r.shed)},
                {"resumed", static_cast<double>(r.resumed)},
                {"batches", static_cast<double>(r.batches)},
                {"lane_occupancy", r.batch_lane_occupancy},
                {"resumptions_per_wakeup", r.resumptions_per_wakeup}});
}

// One socket-sweep cell: the same reactor, but over real loopback sockets
// with the in-process epoll client fleet supplying the load. Occupancy
// parity with the simulated event sweep is the acceptance bar — kernel
// byte-shuffling must not drain the batches.
void socket_cell(phissl::bench::JsonReporter& json,
                 const phissl::rsa::Engine& engine, std::size_t conns,
                 std::size_t workers, double ratio, std::size_t max_pending,
                 phissl::rsa::Backend batch_backend) {
  using namespace phissl;
  ssl::DriverConfig cfg;
  cfg.frontend = ssl::Frontend::kSocket;
  cfg.num_handshakes = conns;
  cfg.event_workers = workers;
  cfg.max_open_connections = std::min<std::size_t>(conns, 16384);
  cfg.socket_clients = std::min<std::size_t>(conns, 512);
  if (ratio > 0.0) {
    cfg.max_open_connections = std::max<std::size_t>(workers * 16, conns / 8);
    cfg.socket_clients =
        std::min(cfg.socket_clients, cfg.max_open_connections);
  }
  cfg.resumption_ratio = ratio;
  cfg.admission.max_pending_ops = max_pending;
  cfg.batch_backend = batch_backend;
  const ssl::DriverReport r = ssl::run_handshakes(engine, cfg);

  char name[96];
  std::snprintf(name, sizeof(name), "socket_c%zu_w%zu%s%s", conns, workers,
                max_pending != 0 ? "_overload" : "",
                ratio > 0.0 ? "_resume" : "");
  std::printf("%7zu %3zu %10.1f %9.0f %9.0f %6.2f %7zu %8zu %7zu/%zu\n",
              conns, workers, r.handshakes_per_s, r.latency_us.median,
              r.latency_us.p99, r.batch_lane_occupancy, r.shed, r.eagain,
              r.completed, conns);
  if (r.failed != 0) std::printf("  (FAILED %zu)\n", r.failed);
  json.add_row("socket_sweep", name,
               {{"connections", static_cast<double>(conns)},
                {"workers", static_cast<double>(workers)},
                {"resumption_ratio", ratio},
                {"max_pending_ops", static_cast<double>(max_pending)},
                {"hs_per_s", r.handshakes_per_s},
                {"p50_us", r.latency_us.median},
                {"p99_us", r.latency_us.p99},
                {"completed", static_cast<double>(r.completed)},
                {"failed", static_cast<double>(r.failed)},
                {"shed", static_cast<double>(r.shed)},
                {"resumed", static_cast<double>(r.resumed)},
                {"batches", static_cast<double>(r.batches)},
                {"lane_occupancy", r.batch_lane_occupancy},
                {"resumptions_per_wakeup", r.resumptions_per_wakeup},
                {"accepts", static_cast<double>(r.accepts)},
                {"eagain", static_cast<double>(r.eagain)},
                {"resets", static_cast<double>(r.resets)}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phissl;

  bool smoke = false;
  bool run_threaded = true;
  bool run_event = true;
  bool run_socket = false;  // opt-in: needs a Linux host with loopback
  // --backend pins the termination sweep's Montgomery backend: both the
  // server engine's scalar kernel and the batched-decrypt contexts, so
  // scalar and batched rows stay an apples-to-apples A/B.
  rsa::Backend backend = rsa::default_backend();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--frontend") == 0 && i + 1 < argc) {
      const char* f = argv[i + 1];
      if (std::strcmp(f, "threaded") == 0) {
        run_event = false;
      } else if (std::strcmp(f, "event") == 0) {
        run_threaded = false;
      } else if (std::strcmp(f, "socket") == 0) {
        run_threaded = false;
        run_event = false;
        run_socket = true;
      } else if (std::strcmp(f, "all") == 0) {
        run_socket = true;
      } else if (std::strcmp(f, "both") != 0) {
        std::fprintf(stderr,
                     "unknown --frontend %s (threaded|event|socket|both|all)\n",
                     f);
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      const auto b = rsa::backend_from_string(argv[i + 1]);
      if (!b) {
        std::fprintf(stderr,
                     "unknown --backend %s "
                     "(knc_vec|ifma52|ifma52-portable|scalar64)\n",
                     argv[i + 1]);
        return 2;
      }
      backend = *b;
      // The portable spelling maps to the same Backend enum value; the
      // portable-vs-vpmadd52 pin lives in the context constructors, which
      // read PHISSL_FORCE_BACKEND. Export it here (before any engine is
      // built) so --backend ifma52-portable really measures the portable
      // kernels on IFMA hardware instead of silently running vpmadd52.
      if (std::strcmp(argv[i + 1], "ifma52-portable") == 0) {
        setenv("PHISSL_FORCE_BACKEND", "ifma52-portable", 1);
      }
    }
  }
  auto json = bench::JsonReporter::from_args("bench_handshake", argc, argv);
  auto obs_out = obs::ExportConfig::from_args(argc, argv);

  bench::print_header("E10 bench_handshake",
                      "SSL handshake throughput, three systems");

  // --- Termination sweep: threads x resumption ratio, scalar vs batched.
  // Both modes run the SAME sweep in the SAME process, so the batched
  // rows are compared against a baseline captured under identical
  // conditions. Handshake counts scale with the thread count so every
  // configuration gives each worker enough work to fill batches.
  const std::size_t sweep_bits = smoke ? 512 : 2048;
  // 16 and 32 threads matter even on small hosts: a handshake thread
  // BLOCKS while its decryption waits in a batch, so the number of
  // threads bounds the number of lanes a batch can fill (8 threads can
  // never fill more than half a 16-lane batch). The batched path's
  // crossover therefore appears once threads >= the batch width.
  const std::vector<std::size_t> sweep_threads =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
  const std::vector<double> sweep_ratios =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.5, 0.9};
  rsa::EngineOptions sweep_opts =
      baseline::options_for(baseline::System::kPhiOpenSSL);
  sweep_opts.kernel = rsa::kernel_for(backend);
  const rsa::Engine sweep_engine(rsa::test_key(sweep_bits), sweep_opts);

  if (run_threaded) {
    std::printf("\n    termination sweep, RSA-%zu, backend %s "
                "[hs/s | p50 us | p99 us | lane occ | resumed]\n",
                sweep_bits, rsa::to_string(backend));
    std::printf("%-8s %4s %6s %12s %10s %10s %7s %9s\n", "mode", "thr",
                "ratio", "hs/s", "p50_us", "p99_us", "occ", "resumed");
    for (const bool batched : {false, true}) {
      for (const std::size_t threads : sweep_threads) {
        for (const double ratio : sweep_ratios) {
          const std::size_t handshakes =
              smoke ? 6 * threads : (sweep_bits >= 2048 ? 12 : 24) * threads;
          sweep_cell(json, sweep_engine, batched, threads, ratio, handshakes,
                     backend);
        }
      }
    }
  }

  // --- Event sweep: connections x reactor workers, always batched (the
  // frontend exists to feed the batch service from parked connections).
  // Occupancy here is decoupled from the worker count — the acceptance
  // target is >= 0.9 from <= 4 workers at >= 1k connections, where the
  // threaded sweep above needs >= 16 threads for the same occupancy.
  if (run_event) {
    std::printf("\n    event-frontend sweep, RSA-%zu, backend %s "
                "[hs/s | p50 us | p99 us | lane occ | shed | res/wakeup]\n",
                sweep_bits, rsa::to_string(backend));
    std::printf("%7s %3s %10s %9s %9s %6s %7s %6s %9s\n", "conns", "wrk",
                "hs/s", "p50_us", "p99_us", "occ", "shed", "r/w",
                "completed");
    const std::vector<std::size_t> event_conns =
        smoke ? std::vector<std::size_t>{64, 256}
              : std::vector<std::size_t>{1024, 4096, 16384};
    const std::vector<std::size_t> event_workers =
        smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 8};
    for (const std::size_t conns : event_conns) {
      for (const std::size_t workers : event_workers) {
        event_cell(json, sweep_engine, conns, workers, /*ratio=*/0.0,
                   /*dhe_ratio=*/0.0, /*max_pending=*/0, backend);
      }
    }
    if (!smoke) {
      // 64k connections through 16k slots: the memory-bounded regime.
      event_cell(json, sweep_engine, 65536, 4, 0.0, 0.0, 0, backend);
    }
    // Overload injection: the admission cap forces shedding; the row's
    // point is that p99 stays bounded while shed goes nonzero, instead of
    // the queue (and tail latency) diverging.
    event_cell(json, sweep_engine, smoke ? 256 : 4096, smoke ? 2 : 4, 0.0,
               0.0, /*max_pending=*/smoke ? 8 : 48, backend);
    // Mixed workloads: resumption (abbreviated handshakes interleave with
    // full ones) and DHE (signature ops share batches with decryptions).
    event_cell(json, sweep_engine, smoke ? 64 : 4096, smoke ? 2 : 4,
               /*ratio=*/0.5, 0.0, 0, backend);
    event_cell(json, sweep_engine, smoke ? 64 : 1024, smoke ? 2 : 4, 0.0,
               /*dhe_ratio=*/0.3, 0, backend);
  }

  // --- Socket sweep: the same reactor behind real epoll loopback sockets
  // (Frontend::kSocket). The comparison row for each cell is the
  // simulated event row at the same geometry: occupancy within a few
  // percent means the kernel transport isn't draining the batches.
  if (run_socket) {
    std::printf("\n    socket-frontend sweep, RSA-%zu, backend %s "
                "[hs/s | p50 us | p99 us | lane occ | shed | eagain]\n",
                sweep_bits, rsa::to_string(backend));
    std::printf("%7s %3s %10s %9s %9s %6s %7s %8s %9s\n", "conns", "wrk",
                "hs/s", "p50_us", "p99_us", "occ", "shed", "eagain",
                "completed");
    const std::vector<std::size_t> socket_conns =
        smoke ? std::vector<std::size_t>{64} : std::vector<std::size_t>{1024};
    const std::vector<std::size_t> socket_workers =
        smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
    for (const std::size_t conns : socket_conns) {
      for (const std::size_t workers : socket_workers) {
        socket_cell(json, sweep_engine, conns, workers, /*ratio=*/0.0,
                    /*max_pending=*/0, backend);
      }
    }
    // Overload + resumption rows, mirroring the event sweep's.
    socket_cell(json, sweep_engine, smoke ? 64 : 1024, 2, 0.0,
                /*max_pending=*/smoke ? 8 : 48, backend);
    socket_cell(json, sweep_engine, smoke ? 64 : 1024, 2, /*ratio=*/0.5, 0,
                backend);
  }

  if (!smoke && run_threaded) {
    std::printf("\n(a) measured on this host [handshakes/s | p50 latency us], "
                "2 worker threads\n");
    std::printf("%8s", "bits");
    for (const auto s : baseline::all_systems()) {
      std::printf(" %24s", baseline::name(s));
    }
    std::printf("\n");
    for (const std::size_t bits : {1024u, 2048u}) {
      const rsa::PrivateKey& key = rsa::test_key(bits);
      std::printf("%8zu", bits);
      for (const auto s : baseline::all_systems()) {
        const rsa::Engine engine = baseline::make_engine(s, key);
        ssl::DriverConfig cfg;
        cfg.num_handshakes = bits >= 2048 ? 12 : 24;
        cfg.num_threads = 2;
        const auto r = ssl::run_handshakes(engine, cfg);
        std::printf(" %12.1f | %9.0f", r.handshakes_per_s, r.latency_us.median);
        if (r.failed != 0) std::printf("(FAILED %zu)", r.failed);
      }
      std::printf("\n");
    }

    // DHE-RSA (forward secrecy): server cost = RSA sign + 2 DH exps.
    // Single-threaded latency comparison against plain RSA key transport.
    std::printf("\n    key-exchange comparison, RSA-2048 cert, host-measured "
                "[median handshake ms]\n");
    std::printf("%-18s %14s %20s\n", "system", "RSA transport",
                "DHE-RSA (1024 grp)");
    {
      const rsa::PrivateKey& key = rsa::test_key(2048);
      for (const auto s : baseline::all_systems()) {
        const rsa::Engine server_engine = baseline::make_engine(s, key);
        const rsa::Engine client_engine(key.pub, server_engine.options());
        const dh::Dh group(dh::rfc2409_group2(),
                           baseline::options_for(s).kernel);
        util::Rng rng(9);

        const double rsa_ms =
            bench::time_op_ms(
                [&] {
                  ssl::ServerHandshake server(server_engine, rng);
                  ssl::ClientHandshake client(client_engine, rng);
                  const auto flight = server.on_client_hello(client.start());
                  const auto kex = client.on_server_hello(
                      flight.value().hello, *flight.value().certificate);
                  const auto fin = server.on_key_exchange(kex.value().first,
                                                          kex.value().second);
                  (void)client.on_server_finished(fin.value());
                },
                3, 0.2, 60)
                .median;
        const double dhe_ms =
            bench::time_op_ms(
                [&] {
                  ssl::DheServerHandshake server(server_engine, group, rng);
                  ssl::DheClientHandshake client(client_engine, rng);
                  const auto flight = server.on_client_hello(client.start());
                  const auto kex = client.on_server_flight(
                      flight.value().hello, flight.value().certificate,
                      flight.value().key_exchange);
                  const auto fin = server.on_key_exchange(kex.value().first,
                                                          kex.value().second);
                  (void)client.on_server_finished(fin.value());
                },
                3, 0.2, 60)
                .median;
        std::printf("%-18s %14.2f %20.2f\n", baseline::name(s), rsa_ms,
                    dhe_ms);
      }
    }

    // Session-resumption sweep: abbreviated handshakes skip the RSA private
    // op entirely, so throughput rises steeply with the resumption ratio —
    // and the advantage of a faster private op shrinks, which bounds how
    // much PhiOpenSSL can help a resumption-heavy terminator.
    std::printf("\n    resumption-ratio sweep, RSA-2048, PhiOpenSSL, "
                "host-measured [hs/s | %% resumed]\n");
    std::printf("%8s %14s %12s\n", "ratio", "hs/s", "resumed");
    {
      const rsa::Engine engine = baseline::make_engine(
          baseline::System::kPhiOpenSSL, rsa::test_key(2048));
      for (const double ratio : {0.0, 0.5, 0.9, 1.0}) {
        ssl::DriverConfig cfg;
        cfg.num_handshakes = 24;
        cfg.num_threads = 2;
        cfg.resumption_ratio = ratio;
        const auto r = ssl::run_handshakes(engine, cfg);
        std::printf("%8.2f %14.1f %9zu/%zu\n", ratio, r.handshakes_per_s,
                    r.resumed, r.completed);
      }
    }

    // The handshake is one private op plus one public op plus hashing; the
    // KNC projection uses the private-op profile (dominant term) at full
    // chip occupancy.
    std::printf("\n(b) simulated KNC chip at 240 threads "
                "[handshakes/s, private-op bound]\n");
    std::printf("%8s", "bits");
    for (const auto s : baseline::all_systems()) {
      std::printf(" %18s", baseline::name(s));
    }
    std::printf("\n");
    const phisim::ChipModel chip;
    for (const std::size_t bits : {1024u, 2048u, 4096u}) {
      std::printf("%8zu", bits);
      for (const auto s : baseline::all_systems()) {
        const auto priv =
            phisim::profile_rsa_private(bits, baseline::options_for(s));
        std::printf(" %18.1f", chip.throughput_ops_s(priv, 240));
      }
      std::printf("\n");
    }
  }

  const bool wrote_obs = obs_out.write();
  return json.write() && wrote_obs ? 0 : 1;
}
