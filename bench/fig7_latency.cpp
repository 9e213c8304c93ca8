// Figure 7 reproduction: normalized latency speedup of BitFusion, DRQ
// and Drift over Eyeriss across the seven evaluation models.
//
// Workloads are the full-size layer shapes of the real architectures;
// per-layer precision mixes come from running each design's own
// algorithm (static INT8 / DRQ regions / Drift Eq. 5-6) on sub-tensor
// statistics sampled from the model's activation profile.
#include <cmath>
#include <cstdio>

#include "accel/compare.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace drift;

int main(int argc, char** argv) try {
  // --metrics-out / --trace-out artifact surface (README "Observability").
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;

  std::printf("=== Figure 7: latency speedup over Eyeriss ===\n\n");

  accel::CompareConfig cfg;
  cfg.noise_budget = 0.05;  // full-size model tolerance (see DESIGN.md)

  TextTable table({"model", "Eyeriss", "BitFusion", "DRQ", "Drift",
                   "Drift/BitFusion", "Drift/DRQ"});
  CsvWriter csv("fig7_latency.csv",
                {"model", "bitfusion", "drq", "drift", "drift_over_bf",
                 "drift_over_drq"});

  double geo_bf = 1.0, geo_drq = 1.0, geo_drift = 1.0;
  double geo_drift_bf = 1.0, geo_drift_drq = 1.0;
  int n = 0;
  for (const auto& spec : nn::paper_workloads()) {
    const auto cmp = accel::compare_workload(spec, cfg);
    const double s_bf = cmp.speedup_bitfusion();
    const double s_drq = cmp.speedup_drq();
    const double s_drift = cmp.speedup_drift();
    table.add_row({spec.model, "1.00x", TextTable::ratio(s_bf),
                   TextTable::ratio(s_drq), TextTable::ratio(s_drift),
                   TextTable::ratio(s_drift / s_bf),
                   TextTable::ratio(s_drift / s_drq)});
    csv.row_values(spec.model, s_bf, s_drq, s_drift, s_drift / s_bf,
                   s_drift / s_drq);
    geo_bf *= s_bf;
    geo_drq *= s_drq;
    geo_drift *= s_drift;
    geo_drift_bf *= s_drift / s_bf;
    geo_drift_drq *= s_drift / s_drq;
    ++n;
    std::printf("%-10s done\n", spec.model.c_str());
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  table.add_separator();
  table.add_row({"geomean", "1.00x", TextTable::ratio(std::pow(geo_bf, inv_n)),
                 TextTable::ratio(std::pow(geo_drq, inv_n)),
                 TextTable::ratio(std::pow(geo_drift, inv_n)),
                 TextTable::ratio(std::pow(geo_drift_bf, inv_n)),
                 TextTable::ratio(std::pow(geo_drift_drq, inv_n))});

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "paper claim check (shape): Drift ~9.57x over Eyeriss, ~2.85x over\n"
      "BitFusion, ~1.64x over DRQ on average; DRQ nearly flat vs BitFusion\n"
      "on ViT-B (1.07x in the paper) but clearly ahead on the CNNs.\n");
  return artifacts->write() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig7_latency: %s\n", e.what());
  return 1;
}
