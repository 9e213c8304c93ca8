#include "ref/ref_queue.hpp"

#include <algorithm>

namespace drift::ref {

std::vector<std::int64_t> lindley_waits(
    const std::vector<std::int64_t>& arrivals,
    const std::vector<std::int64_t>& services) {
  std::vector<std::int64_t> waits(arrivals.size(), 0);
  std::int64_t free_at = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::int64_t start = std::max(free_at, arrivals[i]);
    waits[i] = start - arrivals[i];
    free_at = start + services[i];
  }
  return waits;
}

std::vector<std::int64_t> lindley_completions(
    const std::vector<std::int64_t>& arrivals,
    const std::vector<std::int64_t>& services) {
  std::vector<std::int64_t> completions(arrivals.size(), 0);
  std::int64_t free_at = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::int64_t start = std::max(free_at, arrivals[i]);
    free_at = start + services[i];
    completions[i] = free_at;
  }
  return completions;
}

double md1_mean_wait(double arrival_rate, double service_cycles) {
  const double rho = arrival_rate * service_cycles;
  if (rho >= 1.0) return -1.0;
  return rho * service_cycles / (2.0 * (1.0 - rho));
}

}  // namespace drift::ref
