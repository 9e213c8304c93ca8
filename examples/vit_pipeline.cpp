// ViT-style end-to-end pipeline: one transformer classification proxy
// evaluated under all four execution modes, followed by the hardware
// comparison of the full-size ViT-B workload — the complete
// algorithm + architecture story of the paper on one model.
#include <cstdio>

#include "accel/compare.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "nn/proxy.hpp"
#include "nn/quant_engine.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
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

  // Graph runtime: the same encoder topology as an operator graph
  // (reduced size so the functional pass stays fast).  Residual adds
  // make this a DAG that Sequential cannot express; the executor
  // infers every shape, frees intermediates after their last consumer,
  // and reports the peak resident footprint.
  graph::GraphBuilder builder("vit_tiny_demo", "vit");
  builder.input("image", {3, 32, 32});
  builder.then("patch_embed", "conv2d",
               {{"out_channels", graph::Attr::of_int(64)},
                {"kernel", graph::Attr::of_int(8)},
                {"stride", graph::Attr::of_int(8)},
                {"kind", graph::Attr::of_string("embed")}});
  builder.then("tokens", "to_tokens");
  builder.node("ln1", "layernorm", {"tokens"});
  builder.then("attn", "attention", {{"heads", graph::Attr::of_int(4)}});
  builder.node("add1", "add", {"attn", "tokens"});
  builder.then("ln2", "layernorm");
  builder.then("ffn1", "linear", {{"out_features", graph::Attr::of_int(128)},
                                  {"kind", graph::Attr::of_string("ffn")}});
  builder.then("gelu", "gelu");
  builder.then("ffn2", "linear", {{"out_features", graph::Attr::of_int(64)},
                                  {"kind", graph::Attr::of_string("ffn")}});
  builder.node("add2", "add", {"ffn2", "add1"});
  builder.then("pool", "mean_pool_tokens");
  builder.then("head", "linear", {{"out_features", graph::Attr::of_int(10)},
                                  {"kind", graph::Attr::of_string("fc")}});

  Rng graph_rng(7);
  graph::GraphExecutor executor(builder.build(), graph_rng);
  Rng input_rng(11);
  TensorF image(Shape{3, 32, 32});
  for (std::int64_t i = 0; i < image.shape().numel(); ++i) {
    image.at(i) = static_cast<float>(input_rng.normal(0.0, 1.0));
  }
  nn::QuantEngine::Config gcfg;
  gcfg.mode = nn::QuantMode::kDrift;
  nn::QuantEngine graph_engine(gcfg);
  const auto outputs = executor.run({image}, graph_engine);
  std::printf("graph runtime (vit_tiny_demo, one residual encoder block):\n"
              "  %zu nodes, logits [%lld], peak resident %.1f KiB, "
              "%lld intermediates freed in-flight\n",
              executor.graph().nodes.size(),
              static_cast<long long>(outputs.front().shape().numel()),
              static_cast<double>(executor.peak_resident_bytes()) / 1024.0,
              static_cast<long long>(executor.tensors_freed()));
  std::printf("full-size topologies: tools/graph/drift_graph run "
              "examples/model_zoo/vit_b16.json\n");
  return artifacts->write() ? 0 : 1;
}
