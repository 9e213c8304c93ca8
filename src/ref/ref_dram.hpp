// Per-burst oracle for dram::DramModel's closed-form transfer.
//
// Replays a transfer one burst at a time: every burst looks up its
// (channel, bank), compares the bank's open row, and adds its cycles
// and pJ to running sums.  The production model prices the same
// transfer in O(channels x min(rows, banks)) from (channel, row) runs;
// with integral pJ constants the two must agree bitwise on every result
// and statistic, including bank state carried across calls.
#pragma once

#include <cstdint>
#include <vector>

// drift-lint: allow(oracle-include) — type-only include: DramConfig,
// DramStats and TransferResult are plain data structs; the model code
// under test is not linked into the oracle.
#include "dram/dram.hpp"

namespace drift::ref {

class BurstDram {
 public:
  explicit BurstDram(const dram::DramConfig& config);

  /// Streams `bytes` sequentially from `address`, burst by burst.
  dram::TransferResult transfer(std::int64_t address, std::int64_t bytes,
                                bool is_write);

  /// Transfer at the bump allocator, which then moves past every global
  /// row the stream touched (and at least one spare bank row).
  dram::TransferResult stream(std::int64_t bytes, bool is_write);

  const dram::DramStats& stats() const { return stats_; }

 private:
  dram::DramConfig config_;
  dram::DramStats stats_;
  std::vector<std::int64_t> open_row_;  ///< channels x banks; -1 = closed
  std::int64_t bump_address_ = 0;
};

}  // namespace drift::ref
