// driftsim — the command-line driver for the Drift simulation stack.
//
// Runs any of the paper's workloads (or a custom GEMM) on any of the
// four accelerator models, with the quantization algorithm, scheduler
// policy, array geometry, and noise budget all selectable from flags.
//
//   driftsim --model=bert --accel=all
//   driftsim --model=gpt2_xl --accel=drift --policy=exhaustive
//   driftsim --gemm=1024x768x3072 --accel=drift --budget=0.02
//   driftsim --model=vit_b --accel=drift --rows=32 --cols=32 --csv=out.csv
#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/compare.hpp"
#include "accel/controller.hpp"
#include "accel/timeline.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace drift;

namespace {

constexpr const char* kUsage = R"(driftsim — Drift accelerator simulator

flags:
  --model=NAME     resnet18|resnet50|vit_b|deit_s|bert|gpt2_xl|bloom_7b1|
                   opt_6p7b  (default: resnet18)
  --gemm=MxKxN     run a single custom GEMM instead of a model
  --accel=NAME     eyeriss|bitfusion|drq|drift|all  (default: all)
  --policy=NAME    drift scheduler: greedy|exhaustive|fixed (default greedy)
  --budget=F       excess-noise budget for the Drift selector (default 0.05)
  --rows=N --cols=N  BitGroup grid geometry (default 24x33 = 792 units)
  --no-dynamic-weights  keep weights static INT8 under Drift
  --csv=PATH       also write per-layer results as CSV
  --layers         print per-layer detail
  --controller     print controller (index buffer / overlap) report
  --timeline       print the double-buffered execution timeline (Gantt)
  --help           this text
)";

struct NamedModel {
  const char* name;
  nn::WorkloadSpec (*make)();
};

constexpr NamedModel kModels[] = {
    {"resnet18", [] { return nn::make_resnet18(); }},
    {"resnet50", [] { return nn::make_resnet50(); }},
    {"vit_b", [] { return nn::make_vit_b16(); }},
    {"deit_s", [] { return nn::make_deit_s(); }},
    {"bert", [] { return nn::make_bert_base(); }},
    {"gpt2_xl", [] { return nn::make_gpt2_xl(); }},
    {"bloom_7b1", [] { return nn::make_bloom_7b1(); }},
    {"opt_6p7b", [] { return nn::make_opt_6p7b(); }},
};

nn::WorkloadSpec pick_model(const std::string& name) {
  std::string valid;
  for (const NamedModel& model : kModels) {
    if (name == model.name) return model.make();
    valid += (valid.empty() ? "" : ", ") + std::string(model.name);
  }
  std::fprintf(stderr, "unknown --model '%s' (valid: %s)\n", name.c_str(),
               valid.c_str());
  std::exit(2);
}

nn::WorkloadSpec custom_gemm(const std::string& spec_str) {
  long long m = 0, k = 0, n = 0;
  if (std::sscanf(spec_str.c_str(), "%lldx%lldx%lld", &m, &k, &n) != 3 ||
      m <= 0 || k <= 0 || n <= 0) {
    std::fprintf(stderr, "bad --gemm spec '%s' (want MxKxN)\n",
                 spec_str.c_str());
    std::exit(2);
  }
  nn::WorkloadSpec spec;
  spec.model = "custom-" + spec_str;
  spec.family = nn::ModelFamily::kBert;
  spec.act_profile = nn::bert_profile();
  spec.weight_profile = nn::weight_profile();
  spec.layers.push_back(
      nn::LayerGemm{"gemm", nn::LayerKind::kFc, core::GemmDims{m, k, n}});
  return spec;
}

void print_run(const accel::RunResult& r, bool layers) {
  std::printf("%-10s cycles=%-12lld stalls=%-10lld dram=%.1f MB "
              "energy=%.3f mJ (static %.1f%% dram %.1f%% buffer %.1f%% "
              "core %.1f%%)\n",
              r.accelerator.c_str(), static_cast<long long>(r.cycles),
              static_cast<long long>(r.stall_cycles),
              static_cast<double>(r.dram_bytes) / 1e6,
              r.energy.total_pj() / 1e9,
              100.0 * r.energy.static_pj / r.energy.total_pj(),
              100.0 * r.energy.dram_pj / r.energy.total_pj(),
              100.0 * r.energy.buffer_pj / r.energy.total_pj(),
              100.0 * r.energy.core_pj / r.energy.total_pj());
  if (!layers) return;
  TextTable t({"layer", "compute", "dram", "cycles", "util"});
  for (const auto& l : r.layers) {
    t.add_row({l.layer, std::to_string(l.compute_cycles),
               std::to_string(l.dram_cycles), std::to_string(l.cycles),
               TextTable::pct(l.utilization)});
  }
  std::printf("%s", t.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  if (args.get_bool("help")) {
    std::printf("%s", kUsage);
    return 0;
  }

  const nn::WorkloadSpec spec =
      args.has("gemm") ? custom_gemm(args.get_string("gemm", ""))
                       : pick_model(args.get_string("model", "resnet18"));

  accel::CompareConfig cfg;
  cfg.noise_budget = args.get_double("budget", 0.05);
  cfg.drift_dynamic_weights = !args.get_bool("no-dynamic-weights");
  const std::string policy = args.get_string("policy", "greedy");
  const auto parsed_policy = accel::parse_scheduler_policy(policy);
  if (!parsed_policy) {
    std::fprintf(stderr, "unknown --policy '%s' "
                 "(valid: greedy, exhaustive, fixed)\n", policy.c_str());
    return 2;
  }
  cfg.drift_policy = *parsed_policy;
  cfg.hw.array.rows = args.get_int("rows", 24);
  cfg.hw.array.cols = args.get_int("cols", 33);

  const std::string which = args.get_string("accel", "all");
  const bool layers = args.get_bool("layers");
  const bool controller = args.get_bool("controller");
  const auto csv_path = args.get("csv");

  for (const std::string& flag : args.unqueried()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }

  std::printf("workload %s: %lld GEMMs, %.2f GMACs, array %lldx%lld "
              "(%lld units), budget %.3f\n\n",
              spec.model.c_str(),
              static_cast<long long>(spec.total_gemms()),
              static_cast<double>(spec.total_macs()) / 1e9,
              static_cast<long long>(cfg.hw.array.rows),
              static_cast<long long>(cfg.hw.array.cols),
              static_cast<long long>(cfg.hw.array.units()),
              cfg.noise_budget);

  const auto cmp = accel::compare_workload(spec, cfg);
  if (which == "all" || which == "eyeriss") print_run(cmp.eyeriss, layers);
  if (which == "all" || which == "bitfusion") {
    print_run(cmp.bitfusion, layers);
  }
  if (which == "all" || which == "drq") print_run(cmp.drq, layers);
  if (which == "all" || which == "drift") print_run(cmp.drift, layers);

  if (which == "all") {
    std::printf("\nspeedup over Eyeriss: BitFusion %.2fx, DRQ %.2fx, "
                "Drift %.2fx\n",
                cmp.speedup_bitfusion(), cmp.speedup_drq(),
                cmp.speedup_drift());
  }

  if (args.get_bool("timeline")) {
    std::vector<accel::TimelineLayer> tl;
    for (const auto& l : cmp.drift.layers) {
      tl.push_back({l.layer, l.compute_cycles, l.dram_cycles});
    }
    const auto timeline = accel::build_timeline(tl);
    std::printf("\nDrift double-buffered timeline (unique layers, repeats "
                "collapsed): %lld cycles, %.1f%% of DRAM hidden under "
                "compute\n",
                static_cast<long long>(timeline.total_cycles),
                100.0 * timeline.overlap_fraction);
    if (timeline.entries.size() <= 24) {
      std::printf("%s", timeline.gantt().c_str());
    }
  }

  if (controller) {
    // The mixes of the Drift run reported above.
    const auto mixes = nn::build_mixes(
        spec, cfg.mix_config(nn::MixAlgorithm::kDrift, cfg.seed));
    const auto report = accel::evaluate_controller(mixes, cfg.hw.array);
    std::printf("\ncontroller: peak index buffer %lld bytes (%s), "
                "control work hidden under compute for %.1f%% of layers\n",
                static_cast<long long>(report.peak_index_bytes),
                report.fits_index_buffer ? "fits" : "OVERFLOWS",
                100.0 * report.overlapped_fraction);
  }

  if (csv_path) {
    CsvWriter csv(*csv_path, {"design", "layer", "compute_cycles",
                              "dram_cycles", "cycles", "utilization"});
    for (const accel::RunResult* r :
         {&cmp.eyeriss, &cmp.bitfusion, &cmp.drq, &cmp.drift}) {
      for (const auto& l : r->layers) {
        csv.row_values(r->accelerator, l.layer, l.compute_cycles,
                       l.dram_cycles, l.cycles, l.utilization);
      }
    }
    std::printf("\nper-layer CSV written to %s\n", csv_path->c_str());
  }
  return 0;
}
