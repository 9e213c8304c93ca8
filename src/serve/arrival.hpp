// Open-loop arrival processes for the serving simulator.  Three
// traffic shapes stand in for production load: Poisson (memoryless
// steady state), bursty (a 2-state Markov-modulated Poisson process —
// heavy-tailed interarrivals, CV^2 > 1) and diurnal (sinusoidal rate
// modulation over a configurable period, generated by Lewis–Shedler
// thinning).  All randomness flows through util/rng.hpp, so a fixed
// seed reproduces a trace exactly; time is simulated integer cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace drift::serve {

enum class ArrivalKind { kPoisson, kBursty, kDiurnal };

std::string to_string(ArrivalKind kind);

/// The kind whose to_string name is `name` ("poisson", "bursty",
/// "diurnal"); nullopt for anything else.
std::optional<ArrivalKind> parse_arrival_kind(const std::string& name);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean interarrival gap (cycles) of the *base* rate.  For bursty
  /// traffic the long-run mean gap is shorter (bursts raise the rate);
  /// for diurnal traffic the modulation is rate-symmetric.
  double mean_interarrival_cycles = 4096.0;
  // Bursty (MMPP-2): the burst state multiplies the base rate; state
  // transitions are evaluated once per arrival.
  double burst_rate_multiplier = 4.0;
  double burst_enter_prob = 0.08;
  double burst_exit_prob = 0.25;
  // Diurnal: rate(t) = base * (1 + kDiurnalAmplitude * sin(2*pi*t / period)).
  double diurnal_period_cycles = 1048576.0;
};

/// Relative swing of the diurnal rate around its base (at most 1, so
/// the rate never goes negative).
inline constexpr double kDiurnalAmplitude = 0.5;

/// Bound on an arrival time, in cycles: far below INT64_MAX, so a
/// request's start plus its service time stays representable.
inline constexpr std::int64_t kMaxArrivalCycles = std::int64_t{1} << 62;

/// `count` interarrival gaps (cycles, continuous).  Exposed separately
/// from arrival_cycles so the property tests can check sample moments
/// against the closed forms before any rounding.
std::vector<double> interarrival_gaps(const ArrivalConfig& config, Rng& rng,
                                      std::int64_t count);

/// `count` absolute arrival times: the running sum of the gaps, rounded
/// to integer cycles (monotone non-decreasing by construction — the sum
/// is accumulated before rounding).  Throws check_error, naming the
/// request, when a time would pass kMaxArrivalCycles.
std::vector<std::int64_t> arrival_cycles(const ArrivalConfig& config, Rng& rng,
                                         std::int64_t count);

}  // namespace drift::serve
