#include "dram/dram.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace drift::dram {

DramModel::DramModel(const DramConfig& config) : config_(config) {
  DRIFT_CHECK(config.channels > 0 && config.banks_per_channel > 0,
              "invalid DRAM geometry");
  DRIFT_CHECK(config.row_bytes > 0 && config.burst_bytes > 0 &&
                  config.row_bytes % config.burst_bytes == 0,
              "row size must be a multiple of the burst size");
  DRIFT_CHECK(config.mem_cycles_per_core_cycle > 0.0, "invalid clock ratio");
  banks_.resize(
      static_cast<std::size_t>(config.channels * config.banks_per_channel));
}

TransferResult DramModel::transfer(std::int64_t address, std::int64_t bytes,
                                   bool is_write) {
  DRIFT_CHECK(address >= 0 && bytes >= 0, "invalid transfer");
  TransferResult result;
  if (bytes == 0) return result;

  // Address mapping: bursts interleave across channels, then global
  // rows (row_bytes on every channel) map onto banks round-robin — the
  // streaming-friendly mapping DNN accelerators use.
  const std::int64_t channels = config_.channels;
  const std::int64_t banks = config_.banks_per_channel;
  const std::int64_t row_span =
      config_.row_bytes / config_.burst_bytes * channels;  // bursts/row
  const std::int64_t first_burst = address / config_.burst_bytes;
  const std::int64_t last_burst =
      (address + bytes - 1) / config_.burst_bytes;
  const std::int64_t bursts = last_burst - first_burst + 1;
  const std::int64_t first_row = first_burst / row_span;
  const std::int64_t last_row = last_burst / row_span;
  // Rows strictly between the end rows are full on every channel.
  const std::int64_t interior =
      std::max<std::int64_t>(last_row - first_row - 1, 0);

  // A sequential stream visits global rows in order, so each
  // (channel, row) run is one bank visit: its first burst hits if the
  // bank already holds the row, and every other burst hits.  A miss
  // pays activate + column latency, plus precharge if a row was open.
  // `visit` opens `rows` rows of one bank, `banks` apart, starting at
  // `row`; after the first, each is a precharge miss.  Returns the miss
  // cycles.
  const std::int64_t activate = config_.t_rcd + config_.t_cl;
  std::int64_t misses = 0;
  const auto visit = [&](std::int64_t channel, std::int64_t row,
                         std::int64_t rows) {
    std::int64_t& open_row =
        banks_[static_cast<std::size_t>(channel * banks + row % banks)]
            .open_row;
    std::int64_t cost = (rows - 1) * (activate + config_.t_rp);
    misses += rows - 1;
    if (open_row != row) {
      ++misses;
      cost += activate + (open_row >= 0 ? config_.t_rp : 0);
    }
    open_row = row + (rows - 1) * banks;
    return cost;
  };
  // Whether `channel` owns a burst in [lo, hi].
  const auto touches = [&](std::int64_t channel, std::int64_t lo,
                           std::int64_t hi) {
    return (channel - lo % channels + channels) % channels <= hi - lo;
  };

  std::int64_t busy = 0;  // the slowest channel's bus occupancy
  for (std::int64_t c = 0; c < channels; ++c) {
    // Bursts b in [first_burst, last_burst] with b % channels == c.
    const std::int64_t channel_bursts =
        (last_burst + channels - c) / channels -
        (first_burst + channels - 1 - c) / channels;
    std::int64_t channel_busy = channel_bursts * config_.t_bl;
    if (touches(c, first_burst,
                std::min(last_burst, (first_row + 1) * row_span - 1))) {
      channel_busy += visit(c, first_row, 1);
    }
    // The interior, one step per bank class.
    for (std::int64_t j = 0; j < std::min(interior, banks); ++j) {
      channel_busy +=
          visit(c, first_row + 1 + j, (interior - 1 - j) / banks + 1);
    }
    if (last_row > first_row &&
        touches(c, last_row * row_span, last_burst)) {
      channel_busy += visit(c, last_row, 1);
    }
    busy = std::max(busy, channel_busy);
  }

  stats_.row_misses += misses;
  stats_.row_hits += bursts - misses;
  if (is_write) stats_.writes += bursts; else stats_.reads += bursts;
  stats_.busy_mem_cycles += busy;

  result.core_cycles = static_cast<std::int64_t>(std::ceil(
      static_cast<double>(busy) / config_.mem_cycles_per_core_cycle));
  // Events priced once; with integral pJ constants every partial sum is
  // an exact integer, so this equals the per-event running sum bitwise.
  const double event_pj =
      static_cast<double>(misses) * config_.e_activate_pj +
      static_cast<double>(bursts) * config_.e_burst_pj;
  // Background energy for the occupancy window.
  const double background =
      config_.e_background_pj_per_core_cycle *
      static_cast<double>(result.core_cycles);
  result.energy_pj = event_pj + background;
  stats_.energy_pj += event_pj;
  stats_.energy_pj += background;
  return result;
}

TransferResult DramModel::stream(std::int64_t bytes, bool is_write) {
  const TransferResult r = transfer(bump_address_, bytes, is_write);
  // Advance to a fresh row boundary so independent tensors do not
  // accidentally share rows: one spare bank row past the stream's end,
  // and never inside a global row (row_bytes on every channel) the
  // stream touched.
  std::int64_t next =
      bump_address_ +
      ((bytes + config_.row_bytes - 1) / config_.row_bytes + 1) *
          config_.row_bytes;
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

double DramModel::peak_bytes_per_core_cycle() const {
  // Row-hit steady state: one burst per t_bl per channel.
  const double bytes_per_mem_cycle =
      static_cast<double>(config_.burst_bytes * config_.channels) /
      static_cast<double>(config_.t_bl);
  return bytes_per_mem_cycle * config_.mem_cycles_per_core_cycle;
}

}  // namespace drift::dram
