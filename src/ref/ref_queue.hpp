// Queueing oracles for the serving simulator.  The Lindley recurrence
// replays a single-server FIFO trace request by request — the exact
// answer the event loop must reproduce — and the M/D/1 closed form
// gives the long-run mean wait the simulator's average must approach
// under a Poisson arrival process.  Shares no code with src/serve/.
#pragma once

#include <cstdint>
#include <vector>

namespace drift::ref {

/// Exact per-request waits of a single-server FIFO queue, by the
/// Lindley recurrence: request i starts at max(arrival[i],
/// completion[i-1]) and waits start - arrival.  `arrivals` must be
/// sorted non-decreasing; `services` holds each request's service time
/// in the same order.  All times are integer cycles, so the replay is
/// exact — no tolerance needed when pinning the simulator against it.
std::vector<std::int64_t> lindley_waits(
    const std::vector<std::int64_t>& arrivals,
    const std::vector<std::int64_t>& services);

/// Completion times of the same replay (start + service, FIFO order).
std::vector<std::int64_t> lindley_completions(
    const std::vector<std::int64_t>& arrivals,
    const std::vector<std::int64_t>& services);

/// M/D/1 mean queueing wait (excluding service): Wq = rho*D / (2(1-rho))
/// with rho = lambda*D.  `arrival_rate` is requests per cycle, and
/// `service_cycles` the deterministic per-request service time.
/// Returns a negative value when the queue is unstable (rho >= 1).
double md1_mean_wait(double arrival_rate, double service_cycles);

}  // namespace drift::ref
