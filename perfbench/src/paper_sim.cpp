// paper_sim: the Fig. 7/8 computation.  All four accelerator models run
// the paper-shape GEMMs of six models through accel::compare_workload.
#include <algorithm>
#include <cstdio>

#include "accel/bitfusion.hpp"
#include "accel/compare.hpp"
#include "accel/drq_accel.hpp"
#include "accel/eyeriss.hpp"
#include "accel/fabric.hpp"
#include "accel/traffic.hpp"
#include "bench.hpp"
#include "core/scheduler.hpp"

namespace perfbench {
namespace {

using namespace drift;

/// The four designs in Comparison order.
constexpr const char* kDesigns[] = {"Eyeriss", "BitFusion", "DRQ", "Drift"};

std::vector<const accel::RunResult*> runs_of(const accel::Comparison& cmp) {
  return {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift};
}

/// The three mix sets compare_workload builds, in its order.
struct Mixes {
  std::vector<nn::LayerMix> int8, drq, drift;
};
struct MixConfigs {
  nn::MixConfig int8, drq, drift;
};

/// The committed fig7/fig8 cells of one model, read once up front.
struct ArtifactRows {
  std::map<std::string, std::string> fig7;  ///< column -> cell
  std::map<std::string, std::map<std::string, std::string>> fig8;  ///< design
};

class PaperSim final : public Workload {
 public:
  explicit PaperSim(std::uint64_t seed) {
    config_.noise_budget = 0.05;  // as bench/fig7_latency.cpp
    config_.seed = shifted_seed(config_.seed, seed);
    reference_seed_ = seed == kReferenceSeed;
    if (!reference_seed_) return;
    for (const auto& spec : nn::paper_workloads()) {
      ArtifactRows& rows = artifacts_[spec.model];
      for (const char* col : {"bitfusion", "drq", "drift", "drift_over_bf",
                              "drift_over_drq"}) {
        rows.fig7[col] =
            artifact_cell("fig7_latency.csv", spec.model, col);
      }
      for (const char* design : kDesigns) {
        for (const char* col :
             {"normalized", "static", "dram", "buffer", "core"}) {
          rows.fig8[design][col] =
              artifact_cell("fig8_energy.csv", spec.model + "," + design, col);
        }
      }
    }
  }

  int setups_per_pass() const override { return 101; }

  LayerValues setup() override {
    specs_ = nn::paper_workloads();
    // OPT-6.7B repeats GPT2-XL's decoder structure at 3.6x the bursts.
    std::erase_if(specs_, [](const nn::WorkloadSpec& spec) {
      return spec.model == "OPT-6.7B";
    });
    return {};
  }

  void run() override {
    results_.clear();
    for (const auto& spec : specs_) {
      results_.push_back(accel::compare_workload(spec, config_));
    }
  }

  void check(Checks& checks) override {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      check_model(checks, specs_[i], results_[i], nullptr);
    }
  }

  TracedPass traced(Checks& checks) override;

 private:
  MixConfigs mix_configs() const;
  void check_model(Checks& checks, const nn::WorkloadSpec& spec,
                   const accel::Comparison& cmp,
                   const accel::Comparison* untraced) const;
  void replay_dram(Checks& checks, const nn::WorkloadSpec& spec,
                   const accel::Comparison& cmp, const Mixes& mixes,
                   LayerValues& layers) const;
  void replay_schedule(Checks& checks, const accel::Comparison& cmp,
                       const Mixes& mixes, LayerValues& layers) const;

  accel::CompareConfig config_;
  bool reference_seed_ = false;
  std::map<std::string, ArtifactRows> artifacts_;
  std::vector<nn::WorkloadSpec> specs_;
  std::vector<accel::Comparison> results_;
};

/// The MixConfigs of accel::compare_workload, rebuilt so each
/// build_mixes call can be timed on its own.
MixConfigs PaperSim::mix_configs() const {
  MixConfigs cfg;
  cfg.int8.algo = nn::MixAlgorithm::kStaticInt8;
  cfg.int8.seed = config_.seed;
  cfg.drq.algo = nn::MixAlgorithm::kDrq;
  cfg.drq.drq = config_.drq_config;
  cfg.drq.seed = config_.seed;
  cfg.drift.algo = nn::MixAlgorithm::kDrift;
  cfg.drift.drift = config_.drift_selector;
  cfg.drift.dynamic_weights = config_.drift_dynamic_weights;
  cfg.drift.auto_threshold = config_.auto_threshold;
  cfg.drift.noise_budget = config_.noise_budget;
  cfg.drift.seed = config_.seed;
  return cfg;
}

void PaperSim::check_model(Checks& checks, const nn::WorkloadSpec& spec,
                           const accel::Comparison& cmp,
                           const accel::Comparison* untraced) const {
  const auto runs = runs_of(cmp);
  const double eyeriss_pj = cmp.eyeriss.energy.total_pj();
  for (std::size_t d = 0; d < runs.size(); ++d) {
    const accel::RunResult& run = *runs[d];
    const std::string key = "paper_sim/" + spec.model + "/" + kDesigns[d];
    checks.operation(key);
    checks.expect(run.layers.size() == spec.layers.size(),
                  "one LayerResult per layer");
    if (run.layers.size() != spec.layers.size()) continue;

    // Run totals equal the sum over layers (LayerResult::cycles and
    // energy already carry the repeat factor; dram_bytes does not).
    std::int64_t cycles = 0, dram_bytes = 0;
    drift::energy::EnergyBreakdown energy;
    for (std::size_t l = 0; l < run.layers.size(); ++l) {
      const accel::LayerResult& lr = run.layers[l];
      const std::int64_t repeat = spec.layers[l].repeat;
      checks.expect(
          lr.cycles == std::max(lr.compute_cycles, lr.dram_cycles) * repeat,
          lr.layer + ": cycles = max(compute, dram) x repeat");
      cycles += lr.cycles;
      dram_bytes += lr.dram_bytes * repeat;
      energy += lr.energy;
    }
    checks.exact(static_cast<double>(run.cycles), static_cast<double>(cycles),
                 "cycles vs sum over layers");
    checks.exact(static_cast<double>(run.dram_bytes),
                 static_cast<double>(dram_bytes),
                 "dram_bytes vs sum over layers x repeat");
    checks.exact(run.energy.core_pj, energy.core_pj, "core_pj vs layers");
    checks.exact(run.energy.buffer_pj, energy.buffer_pj,
                 "buffer_pj vs layers");
    checks.exact(run.energy.dram_pj, energy.dram_pj, "dram_pj vs layers");

    if (untraced != nullptr) {
      // The traced pass repeats compare_workload call by call.
      const accel::RunResult& base = *runs_of(*untraced)[d];
      checks.exact(static_cast<double>(run.cycles),
                   static_cast<double>(base.cycles), "traced cycles");
      checks.exact(static_cast<double>(run.stall_cycles),
                   static_cast<double>(base.stall_cycles), "traced stalls");
      checks.exact(run.energy.total_pj(), base.energy.total_pj(),
                   "traced energy");
    }

    if (!reference_seed_) continue;
    checks.reference(key + "/cycles", static_cast<double>(run.cycles));
    checks.reference(key + "/stall_cycles",
                     static_cast<double>(run.stall_cycles));
    checks.reference(key + "/dram_bytes", static_cast<double>(run.dram_bytes));
    checks.reference(key + "/total_pj", run.energy.total_pj());

    // Committed fig7/fig8 rows, to their printed precision.
    const ArtifactRows& rows = artifacts_.at(spec.model);
    const auto fig7 = [&](const char* col, double value) {
      checks.artifact(rows.fig7.at(col), value,
                      "fig7_latency.csv " + spec.model + " " + col);
    };
    const double s_bf = cmp.speedup_bitfusion();
    const double s_drq = cmp.speedup_drq();
    const double s_drift = cmp.speedup_drift();
    if (d == 1) fig7("bitfusion", s_bf);
    if (d == 2) fig7("drq", s_drq);
    if (d == 3) {
      fig7("drift", s_drift);
      fig7("drift_over_bf", s_drift / s_bf);
      fig7("drift_over_drq", s_drift / s_drq);
    }
    const auto& fig8 = rows.fig8.at(kDesigns[d]);
    const auto& e = run.energy;
    const double total = e.total_pj();
    const std::string what = "fig8_energy.csv " + key + " ";
    checks.artifact(fig8.at("normalized"), total / eyeriss_pj,
                    what + "normalized");
    checks.artifact(fig8.at("static"), e.static_pj / total, what + "static");
    checks.artifact(fig8.at("dram"), e.dram_pj / total, what + "dram");
    checks.artifact(fig8.at("buffer"), e.buffer_pj / total, what + "buffer");
    checks.artifact(fig8.at("core"), e.core_pj / total, what + "core");
  }
}

/// Replays every layer's DRAM traffic exactly as each model derives it
/// and checks the replay against the model's own LayerResult; each
/// (model, design) replay is one operation.
void PaperSim::replay_dram(Checks& checks, const nn::WorkloadSpec& spec,
                           const accel::Comparison& cmp, const Mixes& mixes,
                           LayerValues& layers) const {
  const auto& hw = config_.hw;
  const auto runs = runs_of(cmp);
  const std::vector<nn::LayerMix>* mix_sets[] = {&mixes.int8, &mixes.int8,
                                                 &mixes.drq, &mixes.drift};
  for (std::size_t d = 0; d < runs.size(); ++d) {
    checks.operation("paper_sim/" + spec.model + "/" + kDesigns[d] +
                     "/dram_replay");
    dram::DramModel dram(hw.dram);
    const std::vector<nn::LayerMix>& mixes_d = *mix_sets[d];
    for (std::size_t l = 0; l < mixes_d.size(); ++l) {
      const nn::LayerMix& mix = mixes_d[l];
      const core::GemmDims& dims = mix.layer.dims;
      accel::OperandBits bits;
      std::int64_t n_tiles = 1, k_tiles = 1;
      switch (d) {
        case 0:  // Eyeriss: FP32, one ifmap pass per 16 output channels
          bits = {32.0, 32.0, 32};
          n_tiles = std::max<std::int64_t>(
              (dims.N + accel::EyerissModel::kPeCols - 1) /
                  accel::EyerissModel::kPeCols,
              1);
          break;
        case 1:  // BitFusion: static INT8
          bits = {8.0, 8.0, 8};
          k_tiles = core::ws_tile_repetitions({dims.M, dims.K, 1}, 8, 8,
                                              hw.array);
          n_tiles = core::ws_tile_repetitions({dims.M, 1, dims.N}, 8, 8,
                                              hw.array);
          break;
        case 2: {  // DRQ: stored widths, 8-bit weights
          core::LayerWork stored = mix.work;
          stored.n_high = dims.N;
          stored.n_low = 0;
          bits = accel::operand_bits_from_work(stored);
          k_tiles = core::ws_k_tiles(dims.K, 4.0, hw.array.rows);
          n_tiles = core::ws_n_tiles(dims.N, 8.0, hw.array.cols);
          break;
        }
        default:  // Drift: mix-weighted widths
          bits = accel::operand_bits_from_work(mix.work);
          k_tiles = core::ws_k_tiles(dims.K, bits.act_bits, hw.array.rows);
          n_tiles = core::ws_n_tiles(dims.N, bits.weight_bits, hw.array.cols);
          break;
      }
      const accel::LayerTraffic traffic =
          accel::compute_traffic(dims, bits, n_tiles, k_tiles, hw);
      const Clock::time_point t0 = Clock::now();
      const accel::DramOutcome mem = accel::dram_outcome(traffic, dram);
      layers["dram.stream_s"] += seconds_since(t0);

      const accel::LayerResult& lr = runs[d]->layers[l];
      checks.exact(static_cast<double>(mem.core_cycles),
                   static_cast<double>(lr.dram_cycles),
                   lr.layer + " replayed dram_cycles");
      checks.exact(static_cast<double>(traffic.dram_bytes()),
                   static_cast<double>(lr.dram_bytes),
                   lr.layer + " replayed dram_bytes");
      checks.exact(mem.energy_pj * static_cast<double>(mix.layer.repeat),
                   lr.energy.dram_pj, lr.layer + " replayed dram_pj");
    }
    const dram::DramStats& stats = dram.stats();
    const std::int64_t bursts = stats.reads + stats.writes;
    checks.exact(static_cast<double>(stats.row_hits + stats.row_misses),
                 static_cast<double>(bursts), "row hits + misses = bursts");
    layers["dram.bursts"] += static_cast<double>(bursts);
    layers["dram.row_misses"] += static_cast<double>(stats.row_misses);
  }
}

/// Re-runs Drift's Eq. 8 scheduler per layer and checks each layer's
/// compute cycles = makespan + fabric reconfiguration.
void PaperSim::replay_schedule(Checks& checks, const accel::Comparison& cmp,
                               const Mixes& mixes, LayerValues& layers) const {
  checks.operation("paper_sim/" + cmp.model + "/Drift/schedule_replay");
  const auto& array = config_.hw.array;
  accel::BitGroupFabric fabric(array);
  for (std::size_t l = 0; l < mixes.drift.size(); ++l) {
    const Clock::time_point t0 = Clock::now();
    const core::SplitDecision split =
        core::schedule_greedy(mixes.drift[l].work, array);
    layers["core.schedule_greedy_s"] += seconds_since(t0);
    const std::int64_t reconfigure =
        fabric.reconfigure_cycles(split.r, split.c);
    checks.exact(static_cast<double>(split.makespan + reconfigure),
                 static_cast<double>(cmp.drift.layers[l].compute_cycles),
                 cmp.drift.layers[l].layer + " makespan + reconfigure");
  }
}

TracedPass PaperSim::traced(Checks& checks) {
  TracedPass pass;
  LayerValues& layers = pass.layers;
  const auto timed = [&](const char* name, auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    auto out = fn();
    const double s = seconds_since(t0);
    layers[name] += s;
    pass.covered_s += s;
    return out;
  };

  const MixConfigs cfg = mix_configs();
  const Clock::time_point start = Clock::now();
  std::vector<Mixes> all_mixes;
  std::vector<accel::Comparison> comparisons;
  for (const auto& spec : specs_) {
    // accel::compare_workload, one public call at a time.
    Mixes mixes;
    mixes.int8 = timed("nn.build_mixes_s",
                       [&] { return nn::build_mixes(spec, cfg.int8); });
    mixes.drq = timed("nn.build_mixes_s",
                      [&] { return nn::build_mixes(spec, cfg.drq); });
    const Clock::time_point drift_start = Clock::now();
    mixes.drift = timed("nn.build_mixes_s",
                        [&] { return nn::build_mixes(spec, cfg.drift); });
    layers["nn.build_mixes.drift_s"] += seconds_since(drift_start);
    accel::Comparison cmp;
    cmp.model = spec.model;
    accel::EyerissModel eyeriss(config_.hw);
    accel::BitFusionModel bitfusion(config_.hw);
    accel::DrqAccelModel drq_model(config_.hw);
    accel::DriftAccelModel drift_model(config_.hw, config_.drift_policy);
    cmp.eyeriss = timed("accel.eyeriss_s",
                        [&] { return eyeriss.run(spec, mixes.int8); });
    cmp.bitfusion = timed("accel.bitfusion_s",
                          [&] { return bitfusion.run(spec, mixes.int8); });
    cmp.drq = timed("accel.drq_s",
                    [&] { return drq_model.run(spec, mixes.drq); });
    cmp.drift = timed("accel.drift_s",
                      [&] { return drift_model.run(spec, mixes.drift); });
    all_mixes.push_back(std::move(mixes));
    comparisons.push_back(std::move(cmp));
  }
  pass.wall_s = seconds_since(start);

  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const accel::Comparison* untraced =
        results_.size() == specs_.size() ? &results_[i] : nullptr;
    check_model(checks, specs_[i], comparisons[i], untraced);
    replay_dram(checks, specs_[i], comparisons[i], all_mixes[i], layers);
    replay_schedule(checks, comparisons[i], all_mixes[i], layers);
  }
  double accel_s = 0.0;
  for (const char* name : {"accel.eyeriss_s", "accel.bitfusion_s",
                           "accel.drq_s", "accel.drift_s"}) {
    accel_s += layers[name];
  }
  layers["accel.self_s"] = accel_s - layers["dram.stream_s"];
  layers["dram.ns_per_burst"] =
      layers["dram.bursts"] > 0
          ? 1e9 * layers["dram.stream_s"] / layers["dram.bursts"]
          : 0.0;
  return pass;
}

}  // namespace

std::unique_ptr<Workload> make_paper_sim(std::uint64_t seed) {
  return std::make_unique<PaperSim>(seed);
}

}  // namespace perfbench
