#include "serve/arrival.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace drift::serve {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

std::vector<double> poisson_gaps(const ArrivalConfig& config, Rng& rng,
                                 std::int64_t count) {
  const double rate = 1.0 / config.mean_interarrival_cycles;
  std::vector<double> gaps(static_cast<std::size_t>(count));
  for (auto& g : gaps) g = rng.exponential(rate);
  return gaps;
}

std::vector<double> bursty_gaps(const ArrivalConfig& config, Rng& rng,
                                std::int64_t count) {
  const double base_rate = 1.0 / config.mean_interarrival_cycles;
  std::vector<double> gaps(static_cast<std::size_t>(count));
  bool in_burst = false;
  for (auto& g : gaps) {
    const double rate =
        in_burst ? base_rate * config.burst_rate_multiplier : base_rate;
    g = rng.exponential(rate);
    // State transition evaluated after each arrival, so a trace always
    // opens in the calm state and the first gap has the base rate.
    in_burst = in_burst ? !rng.bernoulli(config.burst_exit_prob)
                        : rng.bernoulli(config.burst_enter_prob);
  }
  return gaps;
}

std::vector<double> diurnal_gaps(const ArrivalConfig& config, Rng& rng,
                                 std::int64_t count) {
  const double base_rate = 1.0 / config.mean_interarrival_cycles;
  const double max_rate = base_rate * (1.0 + kDiurnalAmplitude);
  std::vector<double> gaps(static_cast<std::size_t>(count));
  double t = 0.0;
  double last_accepted = 0.0;
  for (auto& g : gaps) {
    // Lewis–Shedler thinning: propose at the peak rate, accept with
    // probability rate(t)/max_rate.
    for (;;) {
      t += rng.exponential(max_rate);
      // At t = inf every rate is NaN; arrival_cycles rejects the time.
      if (!(t <= static_cast<double>(kMaxArrivalCycles))) break;
      const double rate =
          base_rate *
          (1.0 + kDiurnalAmplitude *
                     std::sin(kTwoPi * t / config.diurnal_period_cycles));
      if (rng.uniform() * max_rate <= rate) break;
    }
    g = t - last_accepted;
    last_accepted = t;
  }
  return gaps;
}

}  // namespace

std::string to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

std::optional<ArrivalKind> parse_arrival_kind(const std::string& name) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<double> interarrival_gaps(const ArrivalConfig& config, Rng& rng,
                                      std::int64_t count) {
  DRIFT_CHECK(count >= 0, "arrival count must be non-negative");
  DRIFT_CHECK(std::isfinite(config.mean_interarrival_cycles) &&
                  config.mean_interarrival_cycles > 0.0,
              "mean interarrival gap must be finite and positive");
  switch (config.kind) {
    case ArrivalKind::kPoisson: return poisson_gaps(config, rng, count);
    case ArrivalKind::kBursty: return bursty_gaps(config, rng, count);
    case ArrivalKind::kDiurnal: return diurnal_gaps(config, rng, count);
  }
  return {};
}

std::vector<std::int64_t> arrival_cycles(const ArrivalConfig& config, Rng& rng,
                                         std::int64_t count) {
  const auto gaps = interarrival_gaps(config, rng, count);
  std::vector<std::int64_t> cycles(gaps.size());
  double t = 0.0;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    t += gaps[i];
    // llround beyond int64 is unspecified; a NaN fails this test too.
    if (!(t <= static_cast<double>(kMaxArrivalCycles))) {
      throw check_error("arrival time of request " + std::to_string(i) +
                        " passes 2^62 cycles");
    }
    cycles[i] = std::llround(t);
  }
  return cycles;
}

}  // namespace drift::serve
