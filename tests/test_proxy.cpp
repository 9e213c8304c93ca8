// Tests for the accuracy/perplexity proxies — the Figure 6 / Table 1
// mechanisms.
#include <gtest/gtest.h>

#include <vector>

#include "nn/proxy.hpp"
#include "util/assert.hpp"

namespace drift::nn {
namespace {

QuantEngine engine_for(QuantMode mode, double noise_budget = 0.01,
                       bool dynamic_weights = true) {
  QuantEngine::Config cfg;
  cfg.mode = mode;
  cfg.noise_budget = noise_budget;
  cfg.dynamic_weights = dynamic_weights;
  return QuantEngine(cfg);
}

// CNN proxies evaluate Drift with static-INT8 weights: the random-
// feature extractor lacks the trained redundancy that lets real CNNs
// absorb coarse per-channel weight quantization (see EXPERIMENTS.md).
QuantEngine cnn_drift_engine(double noise_budget = 0.01) {
  return engine_for(QuantMode::kDrift, noise_budget,
                    /*dynamic_weights=*/false);
}

TEST(CnnProxy, Fp32AccuracyIsHighButNotPerfect) {
  CnnProxy::Config cfg;
  cfg.samples = 96;
  const CnnProxy proxy(cfg);
  auto engine = engine_for(QuantMode::kFloat32);
  const ProxyResult r = proxy.evaluate(engine);
  EXPECT_GT(r.metric, 0.6);
  EXPECT_LT(r.metric, 1.0);
}

TEST(CnnProxy, Int8CloseToFp32) {
  CnnProxy::Config cfg;
  cfg.samples = 96;
  const CnnProxy proxy(cfg);
  auto fp32 = engine_for(QuantMode::kFloat32);
  auto int8 = engine_for(QuantMode::kStaticInt8);
  const double acc_fp32 = proxy.evaluate(fp32).metric;
  const double acc_int8 = proxy.evaluate(int8).metric;
  EXPECT_GT(acc_int8, acc_fp32 - 0.05);
}

TEST(CnnProxy, DrqAndDriftBothFineOnCnns) {
  // Figure 6: on CNN-style data DRQ matches Drift (its home turf).
  CnnProxy::Config cfg;
  cfg.samples = 96;
  const CnnProxy proxy(cfg);
  auto int8 = engine_for(QuantMode::kStaticInt8);
  auto drq = engine_for(QuantMode::kDrq);
  auto drift = cnn_drift_engine();
  const double acc_int8 = proxy.evaluate(int8).metric;
  const double acc_drq = proxy.evaluate(drq).metric;
  const double acc_drift = proxy.evaluate(drift).metric;
  EXPECT_GT(acc_drq, acc_int8 - 0.08);
  EXPECT_GT(acc_drift, acc_int8 - 0.05);
}

TEST(CnnProxy, DriftUsesSubstantialLowPrecision) {
  CnnProxy::Config cfg;
  cfg.samples = 32;
  const CnnProxy proxy(cfg);
  auto drift = cnn_drift_engine(0.03);
  const ProxyResult r = proxy.evaluate(drift);
  EXPECT_GT(r.act_low_fraction, 0.3);
}

TEST(TransformerProxy, DrqCollapsesDriftSurvives) {
  // The Figure 6 headline: DRQ loses double-digit accuracy on
  // transformer-style activations while Drift stays near INT8.
  TransformerProxy::Config cfg;
  cfg.samples = 96;
  const TransformerProxy proxy(cfg);
  auto int8 = engine_for(QuantMode::kStaticInt8);
  auto drq = engine_for(QuantMode::kDrq);
  auto drift = engine_for(QuantMode::kDrift);
  const double acc_int8 = proxy.evaluate(int8).metric;
  const double acc_drq = proxy.evaluate(drq).metric;
  const double acc_drift = proxy.evaluate(drift).metric;
  EXPECT_GT(acc_int8, 0.6);
  EXPECT_LT(acc_drq, acc_int8 - 0.10);   // >10 point collapse
  EXPECT_GT(acc_drift, acc_int8 - 0.09); // Drift stays close
}

TEST(TransformerProxy, DriftKeepsHighLowBitShare) {
  TransformerProxy::Config cfg;
  cfg.samples = 32;
  const TransformerProxy proxy(cfg);
  auto drift = engine_for(QuantMode::kDrift);
  const ProxyResult r = proxy.evaluate(drift);
  EXPECT_GT(r.act_low_fraction, 0.4);
}

TEST(LmProxy, TeacherPerplexityIsBaseline) {
  LmProxy::Config cfg;
  cfg.samples = 16;
  const LmProxy proxy(cfg);
  auto fp32 = engine_for(QuantMode::kFloat32);
  const double ppl_fp32 = proxy.evaluate(fp32).metric;
  // The FP32 model scored against its own distribution: perplexity is
  // the teacher entropy exponential — finite, above 1, below vocab.
  EXPECT_GT(ppl_fp32, 1.0);
  EXPECT_LT(ppl_fp32, 64.0);
}

TEST(LmProxy, QuantizedPerplexityDegradesGently) {
  LmProxy::Config cfg;
  cfg.samples = 16;
  const LmProxy proxy(cfg);
  auto fp32 = engine_for(QuantMode::kFloat32);
  auto int8 = engine_for(QuantMode::kStaticInt8);
  auto drift = engine_for(QuantMode::kDrift);
  const double ppl_fp32 = proxy.evaluate(fp32).metric;
  const double ppl_int8 = proxy.evaluate(int8).metric;
  const double ppl_drift = proxy.evaluate(drift).metric;
  // Scoring against the FP32 teacher: quantized models cannot beat it.
  EXPECT_GE(ppl_int8, ppl_fp32 - 1e-6);
  EXPECT_GE(ppl_drift, ppl_fp32 - 1e-6);
  // Table 1 shape: Drift stays within a modest factor of INT8.
  EXPECT_LT(ppl_drift, ppl_int8 * 1.35);
}

TEST(LmProxy, DriftLowBitShareIsHigh) {
  LmProxy::Config cfg;
  cfg.samples = 8;
  const LmProxy proxy(cfg);
  auto drift = engine_for(QuantMode::kDrift, /*noise_budget=*/0.03);
  const ProxyResult r = proxy.evaluate(drift);
  EXPECT_GT(r.act_low_fraction, 0.5);
}

TEST(LmProxy, CorpusProfilesDiffer) {
  const auto wiki = wiki_stream_profile();
  const auto c4 = c4_stream_profile();
  EXPECT_LT(wiki.log_sigma, c4.log_sigma);
  EXPECT_LT(wiki.outlier_fraction, c4.outlier_fraction);
}

TEST(Proxy, EvaluationIsDeterministic) {
  TransformerProxy::Config cfg;
  cfg.samples = 24;
  const TransformerProxy proxy(cfg);
  auto e1 = engine_for(QuantMode::kDrift);
  auto e2 = engine_for(QuantMode::kDrift);
  EXPECT_DOUBLE_EQ(proxy.evaluate(e1).metric, proxy.evaluate(e2).metric);
}

TEST(Proxy, SearchBudgetTakesLargestPassingElseSmallest) {
  // Stub evaluation: the metric is the budget itself, and every call
  // is logged, so the test sees both the choice and the walk.
  const std::vector<double> grid = {0.002, 0.005, 0.01, 0.02, 0.04};
  std::vector<double> evaluated;
  const auto evaluate = [&](double budget) {
    evaluated.push_back(budget);
    ProxyResult r;
    r.metric = budget;
    return r;
  };
  const auto below = [](double limit) {
    return [limit](const ProxyResult& r) { return r.metric <= limit; };
  };

  BudgetChoice c = search_budget(grid, evaluate, below(0.015));
  EXPECT_EQ(c.budget, 0.01);
  EXPECT_EQ(c.result.metric, 0.01);
  EXPECT_EQ(evaluated, (std::vector<double>{0.04, 0.02, 0.01}));

  evaluated.clear();
  c = search_budget(grid, evaluate, below(1.0));
  EXPECT_EQ(c.budget, 0.04);
  EXPECT_EQ(evaluated, (std::vector<double>{0.04}));

  // Nothing passes: the smallest budget, evaluated once.
  evaluated.clear();
  c = search_budget(grid, evaluate, below(0.0));
  EXPECT_EQ(c.budget, 0.002);
  EXPECT_EQ(c.result.metric, 0.002);
  EXPECT_EQ(evaluated.size(), grid.size());

  EXPECT_THROW(search_budget({0.02, 0.01}, evaluate, below(1.0)),
               check_error);
}

}  // namespace
}  // namespace drift::nn
