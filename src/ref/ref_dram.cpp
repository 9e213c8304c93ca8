#include "ref/ref_dram.hpp"

#include <algorithm>
#include <cmath>

namespace drift::ref {

BurstDram::BurstDram(const dram::DramConfig& config)
    : config_(config),
      open_row_(static_cast<std::size_t>(config.channels *
                                         config.banks_per_channel),
                -1) {}

dram::TransferResult BurstDram::transfer(std::int64_t address,
                                         std::int64_t bytes, bool is_write) {
  dram::TransferResult result;
  if (bytes == 0) return result;

  // Address mapping: bursts interleave across channels, then rows map
  // onto banks round-robin.
  const std::int64_t first_burst = address / config_.burst_bytes;
  const std::int64_t last_burst =
      (address + bytes - 1) / config_.burst_bytes;
  const std::int64_t bursts_per_row =
      config_.row_bytes / config_.burst_bytes;

  // Per-channel bus occupancy in memory cycles.
  std::vector<std::int64_t> channel_busy(
      static_cast<std::size_t>(config_.channels), 0);

  for (std::int64_t b = first_burst; b <= last_burst; ++b) {
    const std::int64_t channel = b % config_.channels;
    const std::int64_t row_global = b / (bursts_per_row * config_.channels);
    const std::int64_t bank_idx = row_global % config_.banks_per_channel;
    std::int64_t& open_row = open_row_[static_cast<std::size_t>(
        channel * config_.banks_per_channel + bank_idx)];

    std::int64_t burst_cost = config_.t_bl;
    if (open_row == row_global) {
      ++stats_.row_hits;
    } else {
      ++stats_.row_misses;
      const bool needs_precharge = open_row >= 0;
      burst_cost += config_.t_rcd + config_.t_cl +
                    (needs_precharge ? config_.t_rp : 0);
      open_row = row_global;
      result.energy_pj += config_.e_activate_pj;
      stats_.energy_pj += config_.e_activate_pj;
    }
    channel_busy[static_cast<std::size_t>(channel)] += burst_cost;
    result.energy_pj += config_.e_burst_pj;
    stats_.energy_pj += config_.e_burst_pj;
    if (is_write) ++stats_.writes; else ++stats_.reads;
  }

  std::int64_t busy = 0;
  for (std::int64_t c : channel_busy) busy = std::max(busy, c);
  stats_.busy_mem_cycles += busy;

  result.core_cycles = static_cast<std::int64_t>(std::ceil(
      static_cast<double>(busy) / config_.mem_cycles_per_core_cycle));
  // Background energy for the occupancy window.
  const double background =
      config_.e_background_pj_per_core_cycle *
      static_cast<double>(result.core_cycles);
  result.energy_pj += background;
  stats_.energy_pj += background;
  return result;
}

dram::TransferResult BurstDram::stream(std::int64_t bytes, bool is_write) {
  const dram::TransferResult r = transfer(bump_address_, bytes, is_write);
  // One spare bank row past the stream's end...
  std::int64_t next =
      bump_address_ +
      ((bytes + config_.row_bytes - 1) / config_.row_bytes + 1) *
          config_.row_bytes;
  // ...but never inside a global row (row_bytes on every channel) the
  // stream touched.
  if (bytes > 0) {
    const std::int64_t global_row_bytes =
        config_.row_bytes * config_.channels;
    const std::int64_t last_row =
        (bump_address_ + bytes - 1) / global_row_bytes;
    next = std::max(next, (last_row + 1) * global_row_bytes);
  }
  bump_address_ = next;
  return r;
}

}  // namespace drift::ref
