// Tests for the DRAM model.
#include <gtest/gtest.h>

#include "dram/dram.hpp"
#include "util/assert.hpp"

namespace drift::dram {
namespace {

/// Peak sequential bandwidth in bytes per *core* cycle: the row-hit
/// steady state, one burst per t_bl on every channel.
double peak_bytes_per_core_cycle(const DramConfig& c) {
  const double bytes_per_mem_cycle =
      static_cast<double>(c.burst_bytes * c.channels) /
      static_cast<double>(c.t_bl);
  return bytes_per_mem_cycle * c.mem_cycles_per_core_cycle;
}

TEST(Dram, SingleBurstPaysActivation) {
  DramModel model;
  const auto r = model.transfer(0, 64, false);
  EXPECT_EQ(model.stats().reads, 1);
  EXPECT_EQ(model.stats().row_misses, 1);
  EXPECT_EQ(model.stats().row_hits, 0);
  EXPECT_GT(r.core_cycles, 0);
  EXPECT_GT(r.energy_pj, 0.0);
}

TEST(Dram, SequentialStreamIsMostlyRowHits) {
  DramModel model;
  model.transfer(0, 1 << 20, false);  // 1 MiB sequential
  const DramStats& s = model.stats();
  EXPECT_GT(static_cast<double>(s.row_hits),
            0.9 * static_cast<double>(s.row_hits + s.row_misses));
}

TEST(Dram, RevisitingOpenRowHits) {
  DramModel model;
  model.transfer(0, 64, false);
  const auto before = model.stats().row_hits;
  model.transfer(0, 64, false);  // same row, still open
  EXPECT_EQ(model.stats().row_hits, before + 1);
}

TEST(Dram, HitsAreCheaperThanMisses) {
  DramModel model;
  const auto miss = model.transfer(0, 64, false);
  const auto hit = model.transfer(0, 64, false);
  EXPECT_LT(hit.core_cycles, miss.core_cycles + 1);
  EXPECT_LT(hit.energy_pj, miss.energy_pj);
}

TEST(Dram, BandwidthScalesWithChannels) {
  DramConfig one;
  one.channels = 1;
  DramConfig four;
  four.channels = 4;
  // Four channels stream four times the bytes of one, burst for burst.
  DramModel wide(four);
  DramModel narrow(one);
  const std::int64_t bytes = 8 << 20;
  const auto w = wide.transfer(0, bytes, false);
  const auto n = narrow.transfer(0, bytes, false);
  EXPECT_NEAR(static_cast<double>(n.core_cycles) /
                  static_cast<double>(w.core_cycles),
              4.0, 0.4);
}

TEST(Dram, LargeStreamApproachesPeakBandwidth) {
  DramModel model;
  const std::int64_t bytes = 8 << 20;
  const auto r = model.transfer(0, bytes, false);
  const double achieved =
      static_cast<double>(bytes) / static_cast<double>(r.core_cycles);
  const double peak = peak_bytes_per_core_cycle(model.config());
  EXPECT_GT(achieved, 0.7 * peak);
  EXPECT_LE(achieved, 1.05 * peak);
}

TEST(Dram, StreamAdvancesToFreshRows) {
  DramModel model;
  model.stream(64, false);
  const auto misses_before = model.stats().row_misses;
  model.stream(64, false);  // new region: must be a fresh row
  EXPECT_GT(model.stats().row_misses, misses_before);
}

TEST(Dram, StreamStartsAFreshRowOnAnyGeometry) {
  // A global row spans row_bytes on every channel; the bump allocator
  // must clear it on any channel count, not only on one or two.
  for (std::int64_t channels = 1; channels <= 8; ++channels) {
    DramConfig cfg;
    cfg.channels = channels;
    const std::int64_t global_row = cfg.row_bytes * channels;
    for (const std::int64_t bytes :
         {std::int64_t{64}, std::int64_t{100}, cfg.row_bytes,
          global_row - 64, global_row, 3 * global_row + 5}) {
      DramModel model(cfg);
      model.stream(bytes, false);
      const DramStats before = model.stats();
      model.stream(64, false);
      EXPECT_EQ(model.stats().row_misses, before.row_misses + 1)
          << channels << " channels, first stream of " << bytes << " B";
      EXPECT_EQ(model.stats().row_hits, before.row_hits)
          << channels << " channels, first stream of " << bytes << " B";
    }
  }
}

TEST(Dram, TerabyteTransferIsPricedPerRowNotPerBurst) {
  // 2^40 B from address 0 on the default 2-channel, 2 KiB-row device:
  // 2^34 bursts over 2^28 global rows, each opened once per channel.
  // A per-burst walk would take minutes; the closed form is instant.
  DramModel model;
  const DramConfig& cfg = model.config();
  const std::int64_t bytes = std::int64_t{1} << 40;
  const std::int64_t bursts = bytes / cfg.burst_bytes;
  const std::int64_t rows = bytes / (cfg.row_bytes * cfg.channels);
  const auto r = model.transfer(0, bytes, false);
  EXPECT_EQ(model.stats().reads, bursts);
  EXPECT_EQ(model.stats().row_misses, rows * cfg.channels);
  EXPECT_EQ(model.stats().row_hits, bursts - rows * cfg.channels);
  // Per channel: every burst on the bus, every row activated, all but
  // the first bank visit precharged.
  const std::int64_t busy =
      bursts / cfg.channels * cfg.t_bl + rows * (cfg.t_rcd + cfg.t_cl) +
      (rows - cfg.banks_per_channel) * cfg.t_rp;
  EXPECT_EQ(model.stats().busy_mem_cycles, busy);
  EXPECT_GT(r.core_cycles, 0);
}

TEST(Dram, ZeroByteTransferIsFree) {
  DramModel model;
  const auto r = model.transfer(0, 0, false);
  EXPECT_EQ(r.core_cycles, 0);
  EXPECT_DOUBLE_EQ(r.energy_pj, 0.0);
}

TEST(Dram, WritesCounted) {
  DramModel model;
  model.transfer(0, 256, true);
  EXPECT_EQ(model.stats().writes, 4);
  EXPECT_EQ(model.stats().reads, 0);
}

TEST(Dram, EnergyAccumulatesInStats) {
  DramModel model;
  const auto a = model.transfer(0, 1024, false);
  const auto b = model.transfer(1 << 16, 1024, true);
  EXPECT_NEAR(model.stats().energy_pj, a.energy_pj + b.energy_pj, 1e-6);
}

TEST(Dram, InvalidGeometryThrows) {
  DramConfig bad;
  bad.row_bytes = 100;  // not a multiple of burst
  EXPECT_THROW(DramModel{bad}, drift::check_error);
}

}  // namespace
}  // namespace drift::dram
