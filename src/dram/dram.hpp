// Cycle-level DRAM model (the DRAMsim3 substitution — see DESIGN.md).
//
// Models a multi-channel DDR device with per-bank row buffers and the
// first-order timing parameters that dominate streaming DNN traffic:
// tRCD (activate->column), tCL (column->data), tRP (precharge), tBL
// (burst).  Open-page policy: sequential accesses that stay in a row
// are hits and pipeline at burst rate; row crossings pay
// precharge+activate.  Energy follows the same events (activate,
// read/write burst, background).  Refresh is not modelled.
//
// A transfer is priced in closed form, not burst by burst: a
// sequential stream visits global rows in order, so each (channel,
// row) run is one bank visit, and within one call every bank's rows
// after its first are precharge misses.  One call therefore costs
// O(channels x min(rows spanned, banks)) whatever its size.  Events
// are counted as integers and priced once; with integral pJ constants
// (the defaults) results and statistics are bitwise-equal to the
// per-burst replay kept as the oracle in src/ref/ref_dram.hpp.
//
// The accelerator models consume two things: the *cycles* a transfer
// occupies (to detect memory-bound layers) and the *energy* it costs
// (Figure 8's DRAM component).
#pragma once

#include <cstdint>
#include <vector>

namespace drift::dram {

/// Timing/energy configuration.  Defaults approximate DDR4-2400 with a
/// 64-bit channel, scaled to the paper's 500 MHz core clock domain.
struct DramConfig {
  // Geometry.
  std::int64_t channels = 2;
  std::int64_t banks_per_channel = 16;
  std::int64_t row_bytes = 2048;         ///< row buffer (page) size
  std::int64_t burst_bytes = 64;         ///< bytes per burst (BL8 x 64-bit)

  // Timing in memory-controller cycles.
  std::int64_t t_rcd = 16;   ///< activate to column command
  std::int64_t t_cl = 16;    ///< column command to first data
  std::int64_t t_rp = 16;    ///< precharge
  std::int64_t t_bl = 4;     ///< data burst occupancy on the bus

  /// Memory cycles per core (accelerator) cycle; >1 means the memory
  /// clock is faster than the 500 MHz core clock.
  double mem_cycles_per_core_cycle = 2.4;

  // Energy per event, in pJ (DDR4-class, cf. Micron power calc).
  double e_activate_pj = 1200.0;  ///< activate + implicit precharge
  double e_burst_pj = 250.0;      ///< one read/write burst on the bus
  double e_background_pj_per_core_cycle = 120.0;  ///< all channels
};

/// Accumulated statistics.
struct DramStats {
  std::int64_t reads = 0;          ///< read bursts
  std::int64_t writes = 0;         ///< write bursts
  std::int64_t row_hits = 0;
  std::int64_t row_misses = 0;
  std::int64_t busy_mem_cycles = 0;
  double energy_pj = 0.0;

  double row_hit_rate() const {
    const std::int64_t total = row_hits + row_misses;
    return total > 0 ? static_cast<double>(row_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// One transfer's outcome in core-clock terms.
struct TransferResult {
  std::int64_t core_cycles = 0;  ///< occupancy converted to core cycles
  double energy_pj = 0.0;
};

/// The model.  Transfers are modeled as channel-interleaved streams;
/// bank row-buffer state persists across calls so tensors that revisit
/// rows (small weights) see hits.
class DramModel {
 public:
  explicit DramModel(const DramConfig& config = DramConfig{});

  /// Streams `bytes` sequentially starting at `address` (reads when
  /// `is_write` is false).  Returns occupancy and energy; updates
  /// statistics.
  TransferResult transfer(std::int64_t address, std::int64_t bytes,
                          bool is_write);

  /// Convenience: sequential stream at the model's bump allocator (each
  /// call starts a fresh region — typical for layer tensors).  The
  /// allocator then moves past every global row the stream touched, so
  /// the next stream shares no row with it on any channel count.
  TransferResult stream(std::int64_t bytes, bool is_write);

  /// Peak sequential bandwidth in bytes per *core* cycle (row-hit
  /// steady state across all channels).
  double peak_bytes_per_core_cycle() const;

  const DramConfig& config() const { return config_; }
  const DramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DramStats{}; }

 private:
  struct Bank {
    std::int64_t open_row = -1;
  };

  DramConfig config_;
  DramStats stats_;
  std::vector<Bank> banks_;      ///< channels x banks
  std::int64_t bump_address_ = 0;
};

}  // namespace drift::dram
