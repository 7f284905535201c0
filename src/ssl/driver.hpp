// Handshake throughput driver: runs complete client/server handshakes
// (with optional session resumption) across a thread pool and reports
// handshakes/s — the workload behind the paper's motivation (SSL
// termination throughput limited by RSA).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "rsa/engine.hpp"
#include "ssl/async/admission.hpp"
#include "util/cpu.hpp"
#include "util/stats.hpp"

namespace phissl::ssl {

/// How the terminator maps connections to threads.
enum class Frontend {
  /// Thread-per-connection: each worker runs one handshake end to end,
  /// blocking inside the batch service while its lane lingers. Simple,
  /// but lane occupancy is bounded by thread count (16 lanes need 16
  /// parked threads).
  kThreaded,
  /// Event-driven (ssl/async/): nonblocking connection state machines
  /// multiplexed over a small reactor worker pool; crypto steps resume
  /// via completion callbacks. Occupancy is bounded by OPEN CONNECTIONS
  /// instead of threads, and admission control sheds load before the
  /// private op. Always routes private ops through the batch service.
  kEvent,
  /// The event reactor over real loopback sockets (ssl/async/transport):
  /// epoll readiness feeds the same connection state machines, and an
  /// in-process nonblocking client fleet supplies the load. Linux-only.
  kSocket,
};

struct DriverConfig {
  std::size_t num_handshakes = 64;  ///< total handshakes to run
  std::size_t num_threads = 1;      ///< worker threads (connections in flight)

  /// Connection-to-thread mapping (see Frontend). The event frontend
  /// ignores num_threads (its parallelism knobs are event_workers /
  /// max_open_connections) and always batches private ops.
  Frontend frontend = Frontend::kThreaded;
  /// Event frontend: reactor worker threads.
  std::size_t event_workers = 2;
  /// Event frontend: concurrently open connection slots (the in-flight
  /// bound; further connections start as slots free).
  std::size_t max_open_connections = 1024;
  /// Event frontend: fraction of connections negotiating DHE-RSA (their
  /// ServerKeyExchange signature batches alongside the decryptions).
  double event_dhe_ratio = 0.0;
  /// Event frontend: admission-control bounds (default: admit all).
  async::AdmissionConfig admission;
  /// Socket frontend: client connections the loopback fleet keeps open
  /// concurrently (the client-side window; the server side is bounded by
  /// max_open_connections independently).
  std::size_t socket_clients = 256;
  /// Socket frontend: Poisson client arrival rate (connections/s); 0
  /// opens as fast as the concurrency window allows.
  double socket_arrival_per_s = 0.0;
  std::uint64_t seed = 1;           ///< base RNG seed (per-thread derived)
  /// Fraction of handshakes that attempt session resumption (each worker
  /// reuses its most recent full session). 0.0 = all full handshakes.
  double resumption_ratio = 0.0;

  /// Route ClientKeyExchange decryptions through a BatchDecryptService so
  /// concurrent full handshakes fill 16-lane SIMD batches, instead of
  /// each connection running its own scalar CRT exponentiation. Below the
  /// service's measured break-even a lone decryption still runs scalar,
  /// on the service's dispatch worker.
  bool batch_private_ops = false;
  /// Partial-batch linger bound for the batched path.
  std::chrono::microseconds batch_linger{500};
  /// Real lanes that trigger an immediate dispatch on the batched path
  /// (see SignServiceConfig::max_batch_lanes). Clamped to [1, 16].
  std::size_t batch_max_lanes = 16;
  /// Dispatch workers for the batched path (see
  /// BatchDecryptConfig::dispatch_threads). Defaults to
  /// util::usable_cpus(): with fewer, the event and socket frontends run
  /// every private op on fewer cores than the host grants, and RSA is
  /// nearly all of a full handshake's server work.
  std::size_t batch_dispatch_threads = util::usable_cpus();
  /// Montgomery backend for the batch service's private ops, batched and
  /// scalar alike (see rsa/backend.hpp and SignServiceConfig::backend).
  /// The unbatched handshake path follows the server engine's kernel
  /// instead.
  rsa::Backend batch_backend = rsa::default_backend();

  /// Shared session-cache geometry (see SessionCacheConfig).
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
};

struct DriverReport {
  std::size_t completed = 0;    ///< handshakes that established a session
  std::size_t failed = 0;       ///< handshakes that alerted (should be 0)
  std::size_t resumed = 0;      ///< of completed, how many were abbreviated
  double wall_seconds = 0.0;    ///< total wall-clock time
  double handshakes_per_s = 0.0;
  util::Summary latency_us;     ///< per-handshake latency distribution

  // Session-cache effectiveness over the run.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  // Batched-decrypt scheduler counters (zero when batch_private_ops off).
  std::uint64_t batches = 0;            ///< 16-lane dispatches issued
  double batch_lane_occupancy = 0.0;    ///< real requests per dispatched lane
  /// Private ops the service ran alone on its scalar engine (below the
  /// measured break-even, see service/flush_rule.hpp).
  std::uint64_t scalar_ops = 0;

  // Event-frontend counters (zero under the threaded frontend).
  std::uint64_t shed = 0;  ///< connections rejected by admission control
  /// Mean parked connections resumed per reactor wakeup (>1 means one
  /// batch completion is amortizing across its lanemates).
  double resumptions_per_wakeup = 0.0;

  // Socket-frontend transport counters (zero elsewhere).
  std::uint64_t accepts = 0;  ///< connections accepted by the listener
  std::uint64_t eagain = 0;   ///< recv/send cycles ended by EAGAIN
  std::uint64_t resets = 0;   ///< peer resets / premature EOFs observed
};

/// Runs cfg.num_handshakes full (or resumed) handshakes, each ending with
/// one protected application-data echo, against a server using
/// `server_engine` (must hold a private key). Each worker thread owns its
/// own RNG and client state; the server engine, the session cache, and
/// (when enabled) the batched decrypt service are shared, matching a real
/// TLS terminator.
DriverReport run_handshakes(const rsa::Engine& server_engine,
                            const DriverConfig& cfg);

}  // namespace phissl::ssl
