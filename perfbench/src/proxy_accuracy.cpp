// proxy_accuracy: the reduced-scale forward-pass path of Fig. 6 and
// Table 1.  Three proxies, each evaluated under FP32, INT8, DRQ and
// Drift; no accelerator or DRAM model runs here.
#include <array>
#include <cmath>

#include "bench.hpp"
#include "nn/proxy.hpp"

namespace perfbench {
namespace {

using namespace drift;

struct Mode {
  const char* name;
  nn::QuantMode mode;
};
constexpr Mode kModes[] = {{"fp32", nn::QuantMode::kFloat32},
                           {"int8", nn::QuantMode::kStaticInt8},
                           {"drq", nn::QuantMode::kDrq},
                           {"drift", nn::QuantMode::kDrift}};
constexpr std::size_t kNumModes = std::size(kModes);

/// One proxy as its artifact configures it.
struct ProxySpec {
  const char* family;    ///< cnn | vit | lm (the per-layer metric suffix)
  const char* artifact;  ///< committed CSV the reference seed reproduces
  const char* row;       ///< that CSV's row
  bool dynamic_weights;
  double other_budget;   ///< noise budget passed to the non-Drift engines
  double drift_budget;
  bool is_lm;            ///< metric is perplexity, not accuracy
};
// fig6 evaluates CNNs with static weights and chooses budget 0.04 for
// both ResNet18 and ViT-B; table1 passes 0.02 to every engine.
constexpr ProxySpec kProxies[] = {
    {"cnn", "fig6_accuracy.csv", "ResNet18", false, 0.0, 0.04, false},
    {"vit", "fig6_accuracy.csv", "ViT-B", true, 0.0, 0.04, false},
    {"lm", "table1_llm.csv", "GPT2-XL,Wiki", true, 0.02, 0.02, true},
};
constexpr std::size_t kNumProxies = std::size(kProxies);

/// fig6/table1 columns each (proxy, mode) result must reproduce.
struct ArtifactColumn {
  std::size_t proxy, mode;
  const char* column;
  bool low_fraction;  ///< act_low_fraction rather than metric
};
constexpr ArtifactColumn kArtifactColumns[] = {
    {0, 0, "fp32", false},  {0, 1, "int8", false},     {0, 2, "drq", false},
    {0, 3, "drift", false}, {0, 3, "drift_low", true}, {0, 2, "drq_low", true},
    {1, 0, "fp32", false},  {1, 1, "int8", false},     {1, 2, "drq", false},
    {1, 3, "drift", false}, {1, 3, "drift_low", true}, {1, 2, "drq_low", true},
    {2, 1, "int8", false},
};

using Results =
    std::array<std::array<nn::ProxyResult, kNumModes>, kNumProxies>;

class ProxyAccuracy final : public Workload {
 public:
  explicit ProxyAccuracy(std::uint64_t seed) : seed_(seed) {
    if (seed != kReferenceSeed) return;
    for (const ArtifactColumn& col : kArtifactColumns) {
      const ProxySpec& p = kProxies[col.proxy];
      cells_.push_back(artifact_cell(p.artifact, p.row, col.column));
    }
    budget_cells_ = {artifact_cell("fig6_accuracy.csv", "ResNet18", "budget"),
                     artifact_cell("fig6_accuracy.csv", "ViT-B", "budget")};
  }

  int setups_per_pass() const override { return 1; }

  LayerValues setup() override {
    cnn_.reset();
    vit_.reset();
    lm_.reset();
    nn::CnnProxy::Config cnn;  // fig6 ResNet18
    cnn.seed = shifted_seed(18, seed_);
    cnn.samples = 96;
    cnn_ = std::make_unique<nn::CnnProxy>(cnn);
    nn::TransformerProxy::Config vit;  // fig6 ViT-B
    vit.model_dim = 32;
    vit.ffn_dim = 64;
    vit.seed = shifted_seed(7, seed_);
    vit.samples = 96;
    vit_ = std::make_unique<nn::TransformerProxy>(vit);
    nn::LmProxy::Config lm;  // table1 GPT2-XL on the wiki-like stream
    lm.model_dim = 32;
    lm.ffn_dim = 64;
    lm.seed = shifted_seed(31, seed_);
    lm.stream = nn::wiki_stream_profile();
    lm.samples = 24;
    lm_ = std::make_unique<nn::LmProxy>(lm);
    return {};
  }

  void run() override {
    for (std::size_t p = 0; p < kNumProxies; ++p) {
      for (std::size_t m = 0; m < kNumModes; ++m) {
        results_[p][m] = evaluate(p, m);
      }
    }
  }

  void check(Checks& checks) override;

  TracedPass traced(Checks& checks) override {
    TracedPass pass;
    const Clock::time_point start = Clock::now();
    for (std::size_t p = 0; p < kNumProxies; ++p) {
      for (std::size_t m = 0; m < kNumModes; ++m) {
        const Clock::time_point t0 = Clock::now();
        results_[p][m] = evaluate(p, m);
        const double s = seconds_since(t0);
        pass.layers[std::string("nn.proxy.") + kModes[m].name + "_s"] += s;
        pass.layers[std::string("nn.proxy.") + kProxies[p].family + "_s"] += s;
        pass.covered_s += s;
      }
    }
    pass.wall_s = seconds_since(start);
    check(checks);
    return pass;
  }

 private:
  nn::ProxyResult evaluate(std::size_t proxy, std::size_t mode) const {
    const ProxySpec& p = kProxies[proxy];
    nn::QuantEngine::Config cfg;
    cfg.mode = kModes[mode].mode;
    cfg.noise_budget = cfg.mode == nn::QuantMode::kDrift ? p.drift_budget
                                                         : p.other_budget;
    cfg.dynamic_weights = p.dynamic_weights;
    nn::QuantEngine engine(cfg);
    switch (proxy) {
      case 0: return cnn_->evaluate(engine);
      case 1: return vit_->evaluate(engine);
      default: return lm_->evaluate(engine);
    }
  }

  std::uint64_t seed_;
  std::vector<std::string> cells_;         ///< per kArtifactColumns entry
  std::vector<std::string> budget_cells_;  ///< fig6 budgets, cnn and vit
  std::unique_ptr<nn::CnnProxy> cnn_;
  std::unique_ptr<nn::TransformerProxy> vit_;
  std::unique_ptr<nn::LmProxy> lm_;
  Results results_{};
  bool have_first_ = false;
  Results first_{};  ///< every later pass must repeat these bitwise
};

void ProxyAccuracy::check(Checks& checks) {
  if (!have_first_) {
    first_ = results_;
    have_first_ = true;
  }
  for (std::size_t p = 0; p < kNumProxies; ++p) {
    const ProxySpec& spec = kProxies[p];
    for (std::size_t m = 0; m < kNumModes; ++m) {
      const nn::ProxyResult& r = results_[p][m];
      const std::string key = std::string("proxy_accuracy/") + spec.family +
                              "/" + kModes[m].name;
      checks.operation(key);
      checks.expect(std::isfinite(r.metric), "metric is finite");
      checks.expect(spec.is_lm ? r.metric >= 1.0
                               : r.metric >= 0.0 && r.metric <= 1.0,
                    spec.is_lm ? "perplexity >= 1" : "accuracy in [0, 1]");
      checks.expect(r.act_low_fraction >= 0.0 && r.act_low_fraction <= 1.0,
                    "act_low_fraction in [0, 1]");
      if (kModes[m].mode == nn::QuantMode::kFloat32 ||
          kModes[m].mode == nn::QuantMode::kStaticInt8) {
        checks.exact(r.act_low_fraction, 0.0, "no 4-bit data");
      }
      checks.exact(r.metric, first_[p][m].metric, "metric repeats");
      checks.exact(r.act_low_fraction, first_[p][m].act_low_fraction,
                   "act_low_fraction repeats");
      if (seed_ != kReferenceSeed) continue;
      checks.reference(key + "/metric", r.metric);
      checks.reference(key + "/act_low_fraction", r.act_low_fraction);
      for (std::size_t i = 0; i < std::size(kArtifactColumns); ++i) {
        const ArtifactColumn& col = kArtifactColumns[i];
        if (col.proxy != p || col.mode != m) continue;
        checks.artifact(cells_[i], col.low_fraction ? r.act_low_fraction
                                                    : r.metric,
                        std::string(spec.artifact) + " " + spec.row + " " +
                            col.column);
      }
      if (m == 3 && p < budget_cells_.size()) {
        checks.artifact(budget_cells_[p], spec.drift_budget,
                        std::string("fig6_accuracy.csv ") + spec.row +
                            " budget");
      }
    }
  }
}

}  // namespace

std::unique_ptr<Workload> make_proxy_accuracy(std::uint64_t seed) {
  return std::make_unique<ProxyAccuracy>(seed);
}

}  // namespace perfbench
