// Figure 6 reproduction: accuracy and 4-bit data percentage of FP32 /
// INT8 / DRQ / Drift across CNN-, ViT- and BERT-class models.
//
// Each paper model maps to a reduced-scale proxy with the matching
// activation statistics (see DESIGN.md).  Drift's per-model threshold
// is chosen the way the paper does — the most aggressive setting whose
// accuracy impact is negligible — by searching the noise-budget grid
// against the measured proxy accuracy (the paper's minimum-δ rule with
// the proxy's accuracy as the sensitivity oracle).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/proxy.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace drift;

namespace {

struct ModelEntry {
  std::string name;
  std::string family;  // cnn | vit | bert
  std::function<nn::ProxyResult(nn::QuantEngine&)> evaluate;
};

nn::QuantEngine make_engine(nn::QuantMode mode, double budget,
                            bool dynamic_weights) {
  nn::QuantEngine::Config cfg;
  cfg.mode = mode;
  cfg.noise_budget = budget;
  cfg.dynamic_weights = dynamic_weights;
  return nn::QuantEngine(cfg);
}

}  // namespace

int main(int argc, char** argv) try {
  // --metrics-out / --trace-out artifact surface (README "Observability").
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;

  std::printf("=== Figure 6: accuracy and 4-bit percentage ===\n\n");

  std::vector<ModelEntry> models;
  {
    auto add_cnn = [&](const std::string& name, std::uint64_t seed) {
      nn::CnnProxy::Config cfg;
      cfg.seed = seed;
      cfg.samples = 96;
      auto proxy = std::make_shared<nn::CnnProxy>(cfg);
      models.push_back({name, "cnn", [proxy](nn::QuantEngine& e) {
                          return proxy->evaluate(e);
                        }});
    };
    add_cnn("ResNet18", 18);
    add_cnn("ResNet50", 50);

    auto add_vit = [&](const std::string& name, std::int64_t dim,
                       std::uint64_t seed) {
      nn::TransformerProxy::Config cfg;
      cfg.model_dim = dim;
      cfg.ffn_dim = 2 * dim;
      cfg.seed = seed;
      cfg.samples = 96;
      auto proxy = std::make_shared<nn::TransformerProxy>(cfg);
      models.push_back({name, "vit", [proxy](nn::QuantEngine& e) {
                          return proxy->evaluate(e);
                        }});
    };
    add_vit("ViT-B", 32, 7);
    add_vit("DeiT-S", 24, 8);

    auto add_bert = [&](const std::string& name, std::int64_t classes,
                        std::uint64_t seed) {
      nn::TransformerProxy::Config cfg;
      cfg.classes = classes;
      cfg.seed = seed;
      cfg.samples = 96;
      auto proxy = std::make_shared<nn::TransformerProxy>(cfg);
      models.push_back({name, "bert", [proxy](nn::QuantEngine& e) {
                          return proxy->evaluate(e);
                        }});
    };
    add_bert("BERT-CoLA", 2, 21);
    add_bert("BERT-SST2", 2, 22);
    add_bert("BERT-MRPC", 2, 23);
  }

  TextTable table({"model", "FP32", "INT8", "DRQ", "Drift", "Drift 4-bit %",
                   "DRQ 4-bit %", "budget"});
  CsvWriter csv("fig6_accuracy.csv",
                {"model", "fp32", "int8", "drq", "drift", "drift_low",
                 "drq_low", "budget"});

  for (const auto& model : models) {
    // CNN proxies evaluate Drift with static weights; the random-
    // feature proxies lack trained redundancy in their few conv
    // kernels (see EXPERIMENTS.md).
    const bool dynamic_weights = model.family != "cnn";

    auto fp32 = make_engine(nn::QuantMode::kFloat32, 0, dynamic_weights);
    auto int8 = make_engine(nn::QuantMode::kStaticInt8, 0, dynamic_weights);
    auto drq = make_engine(nn::QuantMode::kDrq, 0, dynamic_weights);
    const auto r_fp32 = model.evaluate(fp32);
    const auto r_int8 = model.evaluate(int8);
    const auto r_drq = model.evaluate(drq);

    // Paper-style threshold selection: the largest (most aggressive)
    // budget whose accuracy stays within 2 points of INT8.
    const nn::BudgetChoice choice = nn::search_budget(
        {0.002, 0.005, 0.01, 0.02, 0.04},
        [&](double budget) {
          auto drift =
              make_engine(nn::QuantMode::kDrift, budget, dynamic_weights);
          return model.evaluate(drift);
        },
        [&](const nn::ProxyResult& r) {
          return r.metric >= r_int8.metric - 0.02;
        });
    const double budget = choice.budget;
    const nn::ProxyResult& r_drift = choice.result;

    table.add_row({model.name, TextTable::pct(r_fp32.metric),
                   TextTable::pct(r_int8.metric),
                   TextTable::pct(r_drq.metric),
                   TextTable::pct(r_drift.metric),
                   TextTable::pct(r_drift.act_low_fraction),
                   TextTable::pct(r_drq.act_low_fraction),
                   TextTable::fmt(budget, 3)});
    csv.row_values(model.name, r_fp32.metric, r_int8.metric, r_drq.metric,
                   r_drift.metric, r_drift.act_low_fraction,
                   r_drq.act_low_fraction, budget);
    std::printf("%-10s done\n", model.name.c_str());
  }

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "paper claim check: DRQ tracks INT8 on the CNN rows but collapses on\n"
      "the ViT/BERT rows (paper: >12%% drop); Drift stays near INT8 on all\n"
      "rows while executing a large 4-bit share.\n");
  return artifacts->write() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig6_accuracy: %s\n", e.what());
  return 1;
}
