// Quickstart: the Drift algorithm on one tensor, end to end.
//
//   1. Build a synthetic activation matrix whose rows (tokens) are
//      zero-mean Laplace with very different scales (Figure 1).
//   2. Quantize to INT8 (Equation 1).
//   3. Run dynamic precision selection per row (Equations 5-6) and
//      inspect the chosen conversions.
//   4. Hand the resulting class split to the balanced online scheduler
//      (Equations 7-8) and read off the split-array latency.
#include <cstdio>

#include "core/analytical_model.hpp"
#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "nn/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "tensor/subtensor.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace drift;

int main(int argc, char** argv) {
  // --metrics-out / --trace-out artifact surface (README "Observability").
  const Args args = Args::parse(argc, argv);
  const auto artifacts = obs::ReportOptions::from_args(args);
  if (!artifacts) return 2;
  DRIFT_OBS_LAYER_SCOPE("quickstart.encoder");

  // 1. A [tokens x hidden] activation matrix with BERT-like statistics.
  Rng rng(42);
  const std::int64_t tokens = 128, hidden = 768;
  const TensorF x = nn::synth_rows(rng, tokens, hidden, nn::bert_profile());

  // 2. Initial INT8 quantization (Equation 1).
  const core::QuantParams params =
      core::compute_quant_params(x.data(), core::kInt8);
  std::printf("Eq.1 calibration: delta = %.5f, representation range = %.3f\n",
              params.delta, params.representation_range());

  // 3. Dynamic precision selection per token row.
  const auto views = partition_rows(x.shape());
  const auto stats = core::compute_stats(views, x.data());
  std::vector<std::int64_t> sizes(views.size(), hidden);
  const core::SelectorConfig selector;  // INT8 -> INT4
  const core::StatsView view(stats, sizes);
  std::vector<bool> low;
  core::select_drift(view, params, selector, /*budget=*/0.05, low);
  const auto selection =
      core::summarize_selection(view, params, selector, low);

  TextTable table({"token", "max|Y|", "avg|Y|", "precision", "hc", "lc"});
  for (std::size_t t = 0; t < 8; ++t) {
    // Eq. 5's conversion, which does not depend on the selected δ.
    const core::ConversionChoice choice =
        core::conversion_choice(stats[t].max_abs, params, selector);
    table.add_row({std::to_string(t), TextTable::fmt(stats[t].max_abs),
                   TextTable::fmt(stats[t].mean_abs),
                   low[t] ? "INT4" : "INT8", std::to_string(choice.hc),
                   std::to_string(choice.lc)});
  }
  std::printf("\nfirst 8 token decisions:\n%s\n", table.to_string().c_str());
  std::printf("4-bit coverage: %.1f%% of elements (implied delta = %.3g, "
              "excess noise = %.4f%% of signal)\n\n",
              100.0 * selection.low_fraction_by_elements,
              selection.delta_threshold,
              100.0 * selection.excess_relative_mse);

  // 4. Schedule the split GEMM (this layer times a 3072-wide FFN,
  //    weights 20% high / 80% low) on the 24x33 BitGroup grid.
  core::LayerWork work;
  for (const bool is_low : low) (is_low ? work.m_low : work.m_high) += 1;
  work.n_high = 614;
  work.n_low = 2458;
  work.k = hidden;
  const core::ArrayDims array{24, 33};
  const auto split = core::schedule_greedy(work, array);
  const auto baseline = core::ws_latency_cycles(
      {tokens, hidden, work.n_high + work.n_low}, 8, 8, array);

  std::printf("scheduler split: r = %lld (activation cut), c = %lld "
              "(weight cut)\n",
              static_cast<long long>(split.r),
              static_cast<long long>(split.c));
  std::printf("quadrant latencies (hh/hl/lh/ll): %lld / %lld / %lld / %lld "
              "cycles\n",
              static_cast<long long>(split.latency[0]),
              static_cast<long long>(split.latency[1]),
              static_cast<long long>(split.latency[2]),
              static_cast<long long>(split.latency[3]));
  std::printf("makespan %lld cycles vs static INT8 %lld cycles: %.2fx "
              "speedup\n",
              static_cast<long long>(split.makespan),
              static_cast<long long>(baseline),
              static_cast<double>(baseline) /
                  static_cast<double>(split.makespan));
  return artifacts->write() ? 0 : 1;
}
