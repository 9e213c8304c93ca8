// LLM layer study: per-layer precision mixes and scheduler decisions
// for the full-size GPT2-XL workload — what the Drift controller
// actually does, layer by layer.
#include <cstdio>

#include "accel/drift_accel.hpp"
#include "core/scheduler.hpp"
#include "nn/precision_mix.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace drift;

int main(int argc, char** argv) {
  // --metrics-out / --trace-out artifact surface (README "Observability").
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;

  std::printf("=== GPT2-XL layer study ===\n\n");

  const auto spec = nn::make_gpt2_xl();
  nn::MixConfig mix_cfg;
  mix_cfg.algo = nn::MixAlgorithm::kDrift;
  mix_cfg.noise_budget = 0.05;
  const auto mixes = nn::build_mixes(spec, mix_cfg);

  const core::ArrayDims array{24, 33};
  TextTable table({"layer", "M", "K", "N", "act 4-bit", "wgt 4-bit",
                   "split (r,c)", "makespan", "vs INT8"});
  for (const auto& mix : mixes) {
    const auto split = core::schedule_greedy(mix.work, array);
    const auto int8 = core::ws_latency_cycles(mix.layer.dims, 8, 8, array);
    table.add_row(
        {mix.layer.name, std::to_string(mix.layer.dims.M),
         std::to_string(mix.layer.dims.K), std::to_string(mix.layer.dims.N),
         TextTable::pct(mix.act_low_fraction),
         TextTable::pct(mix.weight_low_fraction),
         '(' + std::to_string(split.r) + ',' + std::to_string(split.c) + ')',
         std::to_string(split.makespan),
         TextTable::ratio(static_cast<double>(int8) /
                          static_cast<double>(split.makespan))});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("total MACs: %.1f G, GEMMs (with repeats): %lld\n",
              static_cast<double>(spec.total_macs()) / 1e9,
              static_cast<long long>(spec.total_gemms()));
  std::printf("overall activation 4-bit share: %.1f%%\n",
              100.0 * nn::overall_act_low_fraction(mixes));
  std::printf(
      "\nreading the table: projection/FFN layers with wide N get deep\n"
      "weight-side cuts (small c keeps the high-precision columns on a\n"
      "narrow slice); the attention score/context layers, whose second\n"
      "operand is itself an activation, still split dynamically.\n");
  return artifacts->write() ? 0 : 1;
}
