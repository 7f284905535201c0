// The batch-or-scalar flush rule: how many queued requests one dispatch
// takes, and whether it runs them as one padded 16-lane batch or as a
// single scalar private op.
//
// A 16-lane batch costs the same wall time whether its lanes carry caller
// work or padding, so it only beats the scalar engine once enough lanes
// are real. `batch_min_lanes` is that break-even: the fewest real lanes
// for which one batch costs no more than running them one at a time,
// ceil(batch_cost / scalar_cost). A queue holding at least that many
// requests flushes them as a batch; a shorter queue hands only its oldest
// request to the scalar engine and keeps the rest queued.
//
// Header-only so the live scheduler (service::SignService) and its
// discrete-event model (phisim::replay_workload) share one definition
// without the model linking the service.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace phissl::service {

/// SIMD lanes in one batched dispatch (rsa::BatchEngine::kBatch).
inline constexpr std::size_t kFlushLanes = 16;

/// The break-even lane count for a batch that costs `batch_cost` and a
/// scalar op that costs `scalar_cost` (same units): ceil(batch/scalar),
/// at least 1. kFlushLanes + 1 means a batch never pays. A non-positive
/// scalar cost means there is no scalar path: every flush batches.
inline std::size_t batch_min_lanes_for(double batch_cost, double scalar_cost) {
  if (!(scalar_cost > 0.0)) return 1;
  const double lanes = std::ceil(batch_cost / scalar_cost);
  if (!(lanes >= 1.0)) return 1;
  return lanes > static_cast<double>(kFlushLanes)
             ? kFlushLanes + 1
             : static_cast<std::size_t>(lanes);
}

/// One flush decision.
struct FlushPlan {
  std::size_t take;  ///< requests leaving the queue, oldest first
  bool scalar;       ///< run them on the scalar engine (then take == 1)
};

/// The flush of a queue holding `pending` (>= 1) requests: a batch of up
/// to 16 when at least `batch_min_lanes` are pending, otherwise the
/// oldest request alone — scalar exactly when it takes fewer lanes than
/// the break-even.
constexpr FlushPlan plan_flush(std::size_t pending,
                               std::size_t batch_min_lanes) {
  const std::size_t take =
      pending >= batch_min_lanes ? std::min(pending, kFlushLanes) : 1;
  return {take, take < batch_min_lanes};
}

}  // namespace phissl::service
