// Differential suite: the closed-form DRAM model vs. the per-burst
// replay in src/ref/ref_dram.hpp.
//
// Random geometry (channels, banks, burst and row sizes), timings,
// clock ratio and integral pJ constants; random call sequences mixing
// bump-allocated streams with transfers at arbitrary addresses, so
// bank row state carries across calls and revisited rows hit.  Every
// result and statistic must agree bitwise after every call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "dram/dram.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_dram.hpp"

namespace drift {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

dram::DramConfig gen_dram_config(Rng& rng) {
  dram::DramConfig c;
  c.channels = rng.uniform_int(1, 5);
  c.banks_per_channel = rng.uniform_int(1, 9);
  c.burst_bytes = std::int64_t{1} << rng.uniform_int(0, 7);
  c.row_bytes = c.burst_bytes * rng.uniform_int(1, 9);
  c.t_rcd = rng.uniform_int(0, 40);
  c.t_cl = rng.uniform_int(0, 40);
  c.t_rp = rng.uniform_int(0, 40);
  c.t_bl = rng.uniform_int(1, 16);
  c.mem_cycles_per_core_cycle =
      std::exp(rng.uniform(std::log(0.1), std::log(8.0)));
  c.e_activate_pj = static_cast<double>(rng.uniform_int(0, 5000));
  c.e_burst_pj = static_cast<double>(rng.uniform_int(0, 1000));
  c.e_background_pj_per_core_cycle =
      static_cast<double>(rng.uniform_int(0, 500));
  return c;
}

std::string describe(const dram::DramConfig& c) {
  return std::to_string(c.channels) + " ch x " +
         std::to_string(c.banks_per_channel) + " banks, " +
         std::to_string(c.burst_bytes) + " B bursts, " +
         std::to_string(c.row_bytes) + " B rows";
}

/// Bytes drawn from [0, cap] with extra weight on empty and
/// sub-global-row sizes (the partial-row edge cases).
std::int64_t gen_bytes(Rng& rng, const dram::DramConfig& c,
                       std::int64_t cap) {
  const double kind = rng.uniform();
  if (kind < 0.1) return 0;
  if (kind < 0.4) return rng.uniform_int(1, 2 * c.row_bytes * c.channels);
  return rng.uniform_int(0, cap);
}

std::optional<std::string> compare(const char* what,
                                   const dram::TransferResult& got,
                                   const dram::TransferResult& want,
                                   const dram::DramStats& gs,
                                   const dram::DramStats& ws) {
  if (got.core_cycles != want.core_cycles ||
      !same_bits(got.energy_pj, want.energy_pj)) {
    return proptest::fail(what, " result: ", got.core_cycles, " cycles / ",
                          got.energy_pj, " pJ vs oracle ", want.core_cycles,
                          " / ", want.energy_pj);
  }
  if (gs.reads != ws.reads || gs.writes != ws.writes ||
      gs.row_hits != ws.row_hits || gs.row_misses != ws.row_misses ||
      gs.busy_mem_cycles != ws.busy_mem_cycles ||
      !same_bits(gs.energy_pj, ws.energy_pj)) {
    return proptest::fail(
        what, " stats: r/w/hit/miss/busy/pJ ", gs.reads, "/", gs.writes,
        "/", gs.row_hits, "/", gs.row_misses, "/", gs.busy_mem_cycles, "/",
        gs.energy_pj, " vs oracle ", ws.reads, "/", ws.writes, "/",
        ws.row_hits, "/", ws.row_misses, "/", ws.busy_mem_cycles, "/",
        ws.energy_pj);
  }
  if (gs.row_hits + gs.row_misses != gs.reads + gs.writes) {
    return proptest::fail(what, ": row hits + misses != bursts");
  }
  return std::nullopt;
}

TEST(PropDram, ClosedFormMatchesPerBurstOracleBitwise) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const dram::DramConfig cfg = gen_dram_config(rng);
    dram::DramModel model(cfg);
    ref::BurstDram oracle(cfg);
    // Up to 20 x (one row on every bank of every channel) per call,
    // ramped by the case size so shrunk failures stay small.
    const std::int64_t region =
        cfg.row_bytes * cfg.channels * cfg.banks_per_channel;
    const std::int64_t cap = std::max<std::int64_t>(1, 20 * region * size / 16);
    std::vector<std::int64_t> addresses{0};
    const std::int64_t calls = rng.uniform_int(1, 12);
    for (std::int64_t i = 0; i < calls; ++i) {
      const bool is_write = rng.bernoulli(0.3);
      const std::int64_t bytes = gen_bytes(rng, cfg, cap);
      std::string what;
      dram::TransferResult got, want;
      if (rng.bernoulli(0.4)) {
        what = "stream(" + std::to_string(bytes) + ")";
        got = model.stream(bytes, is_write);
        want = oracle.stream(bytes, is_write);
      } else {
        // Revisit an earlier start (open rows hit) or pick a fresh,
        // usually unaligned one.
        const std::int64_t address =
            rng.bernoulli(0.3)
                ? addresses[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(addresses.size()) - 1))]
                : rng.uniform_int(0, 2 * cap);
        addresses.push_back(address);
        what = "transfer(" + std::to_string(address) + ", " +
               std::to_string(bytes) + ")";
        got = model.transfer(address, bytes, is_write);
        want = oracle.transfer(address, bytes, is_write);
      }
      if (auto err = compare(what.c_str(), got, want, model.stats(),
                             oracle.stats())) {
        return proptest::fail(describe(cfg), ", call ", i, " ", *err);
      }
    }
    return proptest::pass();
  });
}

TEST(PropDram, EveryStreamOpensAFreshRow) {
  // The bump allocator moves past every global row a stream touched,
  // so a one-burst stream issued after any stream must miss.
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const dram::DramConfig cfg = gen_dram_config(rng);
    dram::DramModel model(cfg);
    const std::int64_t region =
        cfg.row_bytes * cfg.channels * cfg.banks_per_channel;
    const std::int64_t cap = std::max<std::int64_t>(1, 4 * region * size / 16);
    const std::int64_t streams = rng.uniform_int(1, 12);
    for (std::int64_t i = 0; i < streams; ++i) {
      const std::int64_t bytes = gen_bytes(rng, cfg, cap);
      model.stream(bytes, false);
      const dram::DramStats before = model.stats();
      model.stream(1, false);
      if (model.stats().row_misses != before.row_misses + 1 ||
          model.stats().row_hits != before.row_hits) {
        return proptest::fail(describe(cfg), ": the stream after stream(",
                              bytes, ") #", i, " hit an open row");
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
