// ViT-style end-to-end pipeline: one transformer classification proxy
// evaluated under all four execution modes, followed by the hardware
// comparison of the full-size ViT-B workload — the complete
// algorithm + architecture story of the paper on one model.
#include <cstdio>

#include "accel/compare.hpp"
#include "nn/proxy.hpp"
#include "nn/quant_engine.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace drift;

int main(int argc, char** argv) {
  // --metrics-out / --trace-out artifact surface (README "Observability").
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;

  std::printf("=== ViT pipeline: accuracy and hardware, one model ===\n\n");

  // Functional side: the transformer proxy under every mode.
  nn::TransformerProxy::Config pcfg;
  pcfg.samples = 96;
  const nn::TransformerProxy proxy(pcfg);

  TextTable acc_table({"mode", "accuracy", "4-bit %"});
  for (auto mode : {nn::QuantMode::kFloat32, nn::QuantMode::kStaticInt8,
                    nn::QuantMode::kDrq, nn::QuantMode::kDrift}) {
    nn::QuantEngine::Config ecfg;
    ecfg.mode = mode;
    ecfg.noise_budget = 0.02;
    nn::QuantEngine engine(ecfg);
    const auto r = proxy.evaluate(engine);
    acc_table.add_row({nn::to_string(mode), TextTable::pct(r.metric),
                       TextTable::pct(r.act_low_fraction)});
  }
  std::printf("proxy accuracy (ViT-class activations):\n%s\n",
              acc_table.to_string().c_str());

  // Hardware side: full-size ViT-B/16 layer shapes on all four designs.
  accel::CompareConfig hw_cfg;
  hw_cfg.noise_budget = 0.05;
  const auto spec = nn::make_vit_b16();
  const auto cmp = accel::compare_workload(spec, hw_cfg);

  TextTable hw_table({"design", "cycles", "speedup vs Eyeriss",
                      "energy vs Eyeriss", "stall cycles"});
  const auto add = [&](const accel::RunResult& r) {
    hw_table.add_row({r.accelerator, std::to_string(r.cycles),
                      TextTable::ratio(static_cast<double>(
                                           cmp.eyeriss.cycles) /
                                       static_cast<double>(r.cycles)),
                      TextTable::fmt(r.energy.total_pj() /
                                         cmp.eyeriss.energy.total_pj(),
                                     4),
                      std::to_string(r.stall_cycles)});
  };
  add(cmp.eyeriss);
  add(cmp.bitfusion);
  add(cmp.drq);
  add(cmp.drift);
  std::printf("full-size ViT-B/16 (%lld GEMMs, %.1f GMACs at batch 8):\n%s\n",
              static_cast<long long>(spec.total_gemms()),
              static_cast<double>(spec.total_macs()) / 1e9,
              hw_table.to_string().c_str());

  std::printf("note how DRQ's cycles barely improve on BitFusion here —\n"
              "scattered token precision defeats a single variable-speed\n"
              "array (Figure 2) — while Drift's split arrays deliver both\n"
              "the speedup and the energy cut.\n\n");

  std::printf("full-size topologies: tools/graph/drift_graph run "
              "examples/model_zoo/vit_b16.json\n");
  return artifacts->write() ? 0 : 1;
}
