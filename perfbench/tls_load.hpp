// The benchmark's TLS load generator: one thread, one epoll loop, many
// nonblocking ScriptedClient connections over loopback.
//
// The library's own fleet (ssl::async::run_load) times each connection from
// connect() and keeps no per-phase stamps, so an open-loop stall would hide
// inside it. This generator stamps every connection at its scheduled send
// time and at each client-visible step, so latency is charged from when the
// connection was due and the client phases can be traced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common.hpp"
#include "rsa/engine.hpp"
#include "ssl/handshake.hpp"

namespace perfbench {

/// Client-side timestamps of one connection (ns, steady clock; 0 = never).
struct ConnStamps {
  std::uint64_t sched = 0;      ///< when the connection was due
  std::uint64_t open = 0;       ///< socket() + connect() issued
  std::uint64_t connected = 0;  ///< connect completed; ClientHello goes out
  std::uint64_t out1 = 0;       ///< server flight 1 received, client answered
  std::uint64_t out2 = 0;       ///< server Finished verified, ping sent
  std::uint64_t done = 0;       ///< echo verified (or failure observed)
  bool ok = false;              ///< Finished and echo both verified
  bool resumed = false;
};

/// One load phase: either open-loop Poisson arrivals at rate_per_s, or a
/// closed loop keeping `window` connections in flight. Both run exactly
/// `count` connections (the server is sized for the total in advance).
struct PhaseSpec {
  std::size_t count = 0;
  double rate_per_s = 0.0;  ///< > 0: open loop; 0: closed loop
  std::size_t window = 64;
  bool offer_resumption = false;  ///< offer the identity's banked session
  bool bank_sessions = false;     ///< bank each full handshake's session
  std::uint64_t seed = 1;
  /// Traced runs only: toggle span recording every `trace_chunk`
  /// completions (0 = leave the tracer as it is), so traced and untraced
  /// stretches of one phase interleave for the overhead estimate.
  std::size_t trace_chunk = 0;
};

struct PhaseResult {
  std::vector<ConnStamps> conns;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t gen_cpu_ns = 0;  ///< generator thread CPU over the phase
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t resumed = 0;
};

class TlsLoad {
 public:
  /// engine needs only the server's public key; identities is the number
  /// of client identities connection indices cycle through.
  TlsLoad(const phissl::rsa::Engine& engine, std::uint16_t port,
          std::size_t identities, Tracer& tracer);

  /// Runs one phase to completion. Connection indices continue across
  /// phases, so identity i is always connection index i mod identities.
  PhaseResult run(const PhaseSpec& spec);

 private:
  const phissl::rsa::Engine& engine_;
  std::uint16_t port_;
  Tracer& tracer_;
  std::vector<std::optional<phissl::ssl::ResumableSession>> identities_;
  std::size_t next_index_ = 0;
};

}  // namespace perfbench
