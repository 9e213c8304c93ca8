#include "accel/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace drift::accel {

OperandBits operand_bits_from_work(const core::LayerWork& work) {
  OperandBits bits;
  const std::int64_t m = work.m_high + work.m_low;
  const std::int64_t n = work.n_high + work.n_low;
  if (m > 0) {
    bits.act_bits = (static_cast<double>(work.m_high) * work.pa_high +
                     static_cast<double>(work.m_low) * work.pa_low) /
                    static_cast<double>(m);
  }
  if (n > 0) {
    bits.weight_bits = (static_cast<double>(work.n_high) * work.pw_high +
                        static_cast<double>(work.n_low) * work.pw_low) /
                       static_cast<double>(n);
  }
  return bits;
}

LayerTraffic compute_traffic(const core::GemmDims& dims,
                             const OperandBits& bits, std::int64_t n_tiles,
                             std::int64_t k_tiles,
                             const AccelConfig& /*hw*/) {
  DRIFT_CHECK(n_tiles >= 1 && k_tiles >= 1, "tile counts must be >= 1");
  LayerTraffic t;
  const auto act_bytes = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(dims.M * dims.K) * bits.act_bits / 8.0));
  const auto weight_bytes = static_cast<std::int64_t>(std::ceil(
      static_cast<double>(dims.K * dims.N) * bits.weight_bits / 8.0));
  const std::int64_t out_bytes = dims.M * dims.N * bits.out_bits / 8;

  // Activations are fetched from DRAM once; re-streams across weight
  // tiles hit the global buffer when the matrix fits, otherwise DRAM.
  const bool act_resident = act_bytes <= kGlobalBufferBytes;
  t.act_dram_bytes = act_resident ? act_bytes : act_bytes * n_tiles;
  t.weight_dram_bytes = weight_bytes;  // weight-stationary: one pass
  t.out_dram_bytes = out_bytes;

  // Buffer traffic: fills from DRAM (writes), streams into the array
  // (reads), psum spills beyond the first reduction tile, output
  // staging.
  const std::int64_t psum_bytes = dims.M * dims.N * 4 * (k_tiles - 1);
  t.buffer_write_bytes = act_bytes + weight_bytes + out_bytes + psum_bytes;
  t.buffer_read_bytes = act_bytes * n_tiles + weight_bytes + psum_bytes;

  DRIFT_OBS_COUNT("traffic.gemms", 1);
  DRIFT_OBS_COUNT("traffic.dram_bytes", t.dram_bytes());
  DRIFT_OBS_COUNT("traffic.buffer_read_bytes", t.buffer_read_bytes);
  DRIFT_OBS_COUNT("traffic.buffer_write_bytes", t.buffer_write_bytes);
  DRIFT_OBS_LAYER(rec, rec->dram_bytes += t.dram_bytes());
  return t;
}

double buffer_energy_pj(const LayerTraffic& traffic) {
  return static_cast<double>(traffic.buffer_read_bytes) *
             energy::kBufferReadPjPerByte +
         static_cast<double>(traffic.buffer_write_bytes) *
             energy::kBufferWritePjPerByte;
}

DramOutcome dram_outcome(const LayerTraffic& traffic,
                         dram::DramModel& model) {
  DramOutcome out;
  const auto read_act = model.stream(traffic.act_dram_bytes, false);
  const auto read_w = model.stream(traffic.weight_dram_bytes, false);
  const auto write_out = model.stream(traffic.out_dram_bytes, true);
  out.core_cycles =
      read_act.core_cycles + read_w.core_cycles + write_out.core_cycles;
  out.energy_pj =
      read_act.energy_pj + read_w.energy_pj + write_out.energy_pj;
  return out;
}

double total_bitbrick_ops(const core::LayerWork& work) {
  const std::int64_t k = work.k;
  double bb_ops = 0.0;
  bb_ops += static_cast<double>(work.m_high * k * work.n_high) *
            energy::bitbrick_ops_per_mac(work.pa_high, work.pw_high);
  bb_ops += static_cast<double>(work.m_high * k * work.n_low) *
            energy::bitbrick_ops_per_mac(work.pa_high, work.pw_low);
  bb_ops += static_cast<double>(work.m_low * k * work.n_high) *
            energy::bitbrick_ops_per_mac(work.pa_low, work.pw_high);
  bb_ops += static_cast<double>(work.m_low * k * work.n_low) *
            energy::bitbrick_ops_per_mac(work.pa_low, work.pw_low);
  return bb_ops;
}

double core_energy_pj(const core::LayerWork& work) {
  const double macs = static_cast<double>(work.total_macs());
  return total_bitbrick_ops(work) * energy::kBitbrickOpPj +
         macs * energy::kPsumAddPj;
}

RunResult run_layers(
    std::string name, const AccelConfig& hw, const nn::WorkloadSpec& spec,
    const std::vector<nn::LayerMix>& mixes, double static_pj_per_cycle,
    const std::function<LayerCost(const nn::LayerMix&)>& cost) {
  DRIFT_CHECK(mixes.size() == spec.layers.size(), "mix/layer mismatch");
  RunResult result;
  result.accelerator = std::move(name);
  result.model = spec.model;
  dram::DramModel dram(hw.dram);

  for (const nn::LayerMix& mix : mixes) {
    DRIFT_OBS_SPAN("accel.layer");
    const LayerCost layer = cost(mix);
    const DramOutcome mem = dram_outcome(layer.traffic, dram);
    const std::int64_t repeat = mix.layer.repeat;

    LayerResult lr;
    lr.layer = mix.layer.name;
    lr.compute_cycles = layer.compute_cycles;
    lr.dram_cycles = mem.core_cycles;
    lr.cycles = std::max(lr.compute_cycles, lr.dram_cycles) * repeat;
    lr.stall_cycles = layer.stall_cycles;
    lr.dram_bytes = layer.traffic.dram_bytes();
    lr.utilization = layer.utilization;
    lr.energy.core_pj = layer.core_pj * repeat;
    lr.energy.buffer_pj = buffer_energy_pj(layer.traffic) * repeat;
    lr.energy.dram_pj = mem.energy_pj * repeat;

    result.cycles += lr.cycles;
    result.stall_cycles += lr.stall_cycles * repeat;
    result.dram_bytes += lr.dram_bytes * repeat;
    result.energy += lr.energy;
    result.layers.push_back(std::move(lr));
  }

  result.energy.static_pj =
      static_pj_per_cycle * static_cast<double>(result.cycles);
  return result;
}

}  // namespace drift::accel
