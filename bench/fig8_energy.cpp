// Figure 8 reproduction: normalized energy and its breakdown (static /
// DRAM / on-chip buffer / core) for the four accelerator designs.
#include <cmath>
#include <cstdio>

#include "accel/compare.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace drift;

namespace {

void add_breakdown_row(TextTable& table, CsvWriter& csv,
                       const std::string& model,
                       const accel::RunResult& run, double normalizer) {
  const auto& e = run.energy;
  const double total = e.total_pj();
  table.add_row({model, run.accelerator,
                 TextTable::fmt(total / normalizer, 4),
                 TextTable::pct(e.static_pj / total),
                 TextTable::pct(e.dram_pj / total),
                 TextTable::pct(e.buffer_pj / total),
                 TextTable::pct(e.core_pj / total)});
  csv.row_values(model, run.accelerator, total / normalizer,
                 e.static_pj / total, e.dram_pj / total, e.buffer_pj / total,
                 e.core_pj / total);
}

}  // namespace

int main(int argc, char** argv) try {
  // --metrics-out / --trace-out artifact surface (README "Observability").
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;

  std::printf("=== Figure 8: normalized energy and breakdown ===\n\n");

  accel::CompareConfig cfg;
  cfg.noise_budget = 0.05;

  TextTable table({"model", "design", "normalized energy", "static", "DRAM",
                   "buffer", "core"});
  CsvWriter csv("fig8_energy.csv",
                {"model", "design", "normalized", "static", "dram", "buffer",
                 "core"});

  double geo_bf = 1.0, geo_drq = 1.0, geo_drift = 1.0;
  double drq_static = 0.0, drift_static = 0.0;
  int n = 0;
  for (const auto& spec : nn::paper_workloads()) {
    const auto cmp = accel::compare_workload(spec, cfg);
    const double normalizer = cmp.eyeriss.energy.total_pj();
    add_breakdown_row(table, csv, spec.model, cmp.eyeriss, normalizer);
    add_breakdown_row(table, csv, spec.model, cmp.bitfusion, normalizer);
    add_breakdown_row(table, csv, spec.model, cmp.drq, normalizer);
    add_breakdown_row(table, csv, spec.model, cmp.drift, normalizer);
    table.add_separator();
    geo_bf *= cmp.energy_bitfusion();
    geo_drq *= cmp.energy_drq();
    geo_drift *= cmp.energy_drift();
    drq_static += cmp.drq.energy.static_pj / cmp.drq.energy.total_pj();
    drift_static +=
        cmp.drift.energy.static_pj / cmp.drift.energy.total_pj();
    ++n;
    std::printf("%-10s done\n", spec.model.c_str());
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("geomean energy reduction vs Eyeriss: BitFusion %.2fx, "
              "DRQ %.2fx, Drift %.2fx\n",
              1.0 / std::pow(geo_bf, inv_n), 1.0 / std::pow(geo_drq, inv_n),
              1.0 / std::pow(geo_drift, inv_n));
  std::printf("geomean energy reduction of Drift vs BitFusion: %.2fx, "
              "vs DRQ: %.2fx\n",
              std::pow(geo_bf, inv_n) / std::pow(geo_drift, inv_n),
              std::pow(geo_drq, inv_n) / std::pow(geo_drift, inv_n));
  std::printf("mean static share: DRQ %.1f%%, Drift %.1f%% (paper: 51.9%% "
              "vs 41.2%%)\n",
              100.0 * drq_static / n, 100.0 * drift_static / n);
  std::printf(
      "\npaper claim check (shape): energy ordering Drift < DRQ < BitFusion\n"
      "< Eyeriss, with Drift's static share below DRQ's.\n");
  return artifacts->write() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fig8_energy: %s\n", e.what());
  return 1;
}
