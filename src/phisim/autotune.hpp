// Trace-driven configuration sweep: the tune half of the observe ->
// model -> tune loop.
//
// autotune() replays one recorded workload trace (obs/workload.hpp)
// through the scheduler model (phisim/replay.hpp) once per candidate
// configuration — a grid over {batch linger, max batch lanes, dispatch
// slots, admission max_predicted_wait, event workers} — scores every
// candidate, and returns the winner plus the full scoreboard. The
// recommended config serializes as versioned JSON which
// ssl/tuned_config.hpp loads back into SignServiceConfig / DriverConfig,
// and which the `phissl_autotune` CLI (tools/) emits.
//
// The sweep is exhaustive and the replay is pure arithmetic, so the whole
// pipeline is DETERMINISTIC: the same trace, grid, cost, and seed always
// produce the identical recommendation (the seed does not drive any
// randomness — it is stamped into the output so a recommendation is
// traceable to the run that produced it, and so the golden test has a
// second input to vary).
//
// Scoring minimizes predicted p99 end-to-end sojourn (arrival -> batch
// completion; queue wait alone is blind to a backlog of dispatched-but-
// unstarted batches) plus the event-frontend resume tail, with a dominant
// penalty for shedding (a config that drops
// traffic must beat a config that doesn't by a LOT) and small
// resource-preference tie-breaks (fewer dispatch slots / reactor workers,
// shorter linger) so equal-latency candidates resolve to the cheaper one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "obs/workload.hpp"
#include "phisim/replay.hpp"
#include "util/cpu.hpp"

namespace phissl::phisim {

/// Candidate values swept per knob. Defaults cover the ranges the
/// bench_sign_service / bench_handshake sweeps explore; every list must
/// be non-empty. The DEFAULT service config (500us linger, 16 lanes,
/// one dispatch worker per usable CPU, admission off) is inside the
/// default grid, so the winner can never score worse than the defaults
/// under the model.
struct AutotuneGrid {
  std::vector<double> linger_us = {100.0, 200.0, 500.0, 1000.0, 2000.0};
  std::vector<std::size_t> max_batch_lanes = {8, 16};
  /// Default is the shipped pool size alone, util::usable_cpus(): the
  /// replay prices extra slots at the full calibrated batch cost in
  /// parallel (ideal scaling), which measured A/B runs on a
  /// frequency-shared host contradict — sweep other slot counts only with
  /// a per-slot-count calibrated cost.
  std::vector<std::size_t> dispatch_slots = {util::usable_cpus()};
  /// 0 = admission off.
  std::vector<double> admission_max_wait_us = {0.0, 5000.0, 20000.0};
  /// 0 = threaded frontend (skip the resume-stage model and the
  /// event-worker dimension entirely).
  std::vector<std::size_t> event_workers = {0};
};

/// Version stamp of the tuned-config JSON schema.
inline constexpr int kTunedConfigVersion = 1;

/// The recommendation: directly assignable onto SignServiceConfig /
/// DriverConfig fields (ssl/tuned_config.hpp does the mapping), plus the
/// model's predictions for it.
struct TunedConfig {
  double linger_us = 500.0;           ///< -> max_linger / batch_linger
  std::size_t max_batch_lanes = 16;   ///< -> max_batch_lanes
  std::size_t dispatch_threads = 1;   ///< -> dispatch_threads
  std::size_t event_workers = 0;      ///< -> event_workers (0 = threaded)
  double admission_max_wait_us = 0.0; ///< -> admission.max_predicted_wait
  std::size_t cache_shards = 16;      ///< -> cache_shards (heuristic, see
                                      ///< autotune() docs)
  std::uint64_t seed = 0;             ///< run stamp, echoed from autotune()

  // Model predictions for this config on the tuning trace.
  double predicted_p99_wait_us = 0.0;     ///< queue wait (submit -> dispatch)
  double predicted_p99_latency_us = 0.0;  ///< sojourn (submit -> completion)
  double predicted_occupancy = 0.0;
  double predicted_shed_fraction = 0.0;
  double score = 0.0;

  bool operator==(const TunedConfig&) const = default;
};

/// One scored sweep cell, for reporting.
struct AutotuneCandidate {
  ReplayConfig config;
  ReplayResult result;
  double score = 0.0;
};

struct AutotuneReport {
  TunedConfig best;
  std::vector<AutotuneCandidate> candidates;  ///< grid order, all cells
};

/// Score one replay outcome (lower is better) — exposed for tests.
double autotune_score(const ReplayConfig& cfg, const ReplayResult& res);

/// Sweeps `grid` over `events` with per-batch cost `cost`. cache_shards
/// is not replayable (the session cache is orthogonal to the batching
/// queue); it is set by rule — the next power of two >= 4x the winning
/// concurrency (dispatch + event workers), floored at 16 — matching how
/// the striped-lock cache's contention scales with toucher threads.
/// Throws std::invalid_argument on an empty grid dimension.
AutotuneReport autotune(std::span<const obs::WorkloadEvent> events,
                        const ReplayCost& cost, const AutotuneGrid& grid = {},
                        std::uint64_t seed = 1);

/// Writes `cfg` as the versioned tuned-config JSON document:
///   {"schema":"phissl-tuned-config","version":1,"linger_us":...,...}
void write_tuned_config_json(std::ostream& os, const TunedConfig& cfg);

/// Parses a tuned-config JSON document. Throws std::runtime_error on a
/// missing/mismatched schema header or a malformed field.
TunedConfig parse_tuned_config_json(std::istream& is);

}  // namespace phissl::phisim
