// Reduced-scale accuracy/perplexity proxies (the checkpoint/dataset
// substitution — see DESIGN.md).
//
// Each proxy is a *real network* evaluated on a *synthetic task* whose
// statistical structure matches the paper's observation about the
// corresponding model family:
//
//   - CnnProxy: spatially smooth feature maps; class-discriminative
//     signal lives in high-activation regions (DRQ's home assumption).
//   - TransformerProxy: token streams with a few huge, class-
//     *irrelevant* outlier tokens (separator/position artifacts) while
//     the class signal lives in moderate-magnitude tokens.  Tensor-wide
//     low-bit truncation (DRQ) erases the signal tokens; per-sub-tensor
//     range adaptation (Drift) preserves them.
//   - LmProxy: a decoder scored against its own FP32 teacher
//     distribution, so perplexity degradation is exactly the KL cost of
//     the quantization rendering.
//
// Networks are built discriminative without training: the classifier's
// weight rows are the FP32 feature embeddings of the class prototypes
// (random-feature + prototype-matching construction), so FP32 accuracy
// is high but below 100% due to injected task noise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/model.hpp"
#include "nn/quant_engine.hpp"
#include "nn/synthetic.hpp"
#include "util/rng.hpp"

namespace drift::nn {

/// Outcome of one proxy evaluation.
struct ProxyResult {
  double metric = 0.0;            ///< accuracy in [0,1], or perplexity
  double act_low_fraction = 0.0;  ///< MAC-weighted 4-bit activation share
};

/// CNN image-classification proxy (stands in for ResNet18/50-class
/// experiments).
class CnnProxy {
 public:
  /// The task itself (10 classes of 24 x 24 images) is fixed.
  struct Config {
    std::int64_t samples = 128;
    std::uint64_t seed = 7;
  };

  explicit CnnProxy(const Config& config);

  ProxyResult evaluate(QuantEngine& engine) const;

 private:
  std::unique_ptr<Sequential> features_;
  /// Per-class calibration inputs (noisy, like the evaluation set) for
  /// building the template head under each execution mode.
  std::vector<std::vector<TensorF>> calibration_;
  std::vector<TensorF> images_;      ///< evaluation inputs [3, S, S]
  std::vector<std::int64_t> labels_;
};

/// Transformer (ViT/BERT-style) classification proxy.
class TransformerProxy {
 public:
  /// The token-stream shape (LmProxy's too) and outliers are fixed.
  struct Config {
    std::int64_t classes = 8;
    std::int64_t model_dim = 32;
    std::int64_t ffn_dim = 64;
    std::int64_t samples = 128;
    std::uint64_t seed = 11;
  };

  explicit TransformerProxy(const Config& config);

  ProxyResult evaluate(QuantEngine& engine) const;

 private:
  TensorF embed_tokens(const TensorF& raw, QuantEngine& engine) const;

  std::unique_ptr<Linear> embed_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<LayerNorm> ln_final_;  ///< pre-head LN (as in ViT/BERT)
  /// Per-class calibration inputs (noisy, outliers injected).
  std::vector<std::vector<TensorF>> calibration_;
  std::vector<TensorF> inputs_;      ///< [T, input_dim] token matrices
  std::vector<std::int64_t> labels_;
};

/// Decoder language-model proxy scored against its FP32 teacher.
class LmProxy {
 public:
  /// The token-stream shape, vocab and teacher perplexity are fixed.
  struct Config {
    std::int64_t model_dim = 32;
    std::int64_t ffn_dim = 64;
    std::int64_t samples = 48;
    SubTensorScaleProfile stream = llm_profile();  ///< corpus profile
    std::uint64_t seed = 13;
  };

  explicit LmProxy(const Config& config);

  /// Returns perplexity (exp of mean cross-entropy against the FP32
  /// teacher distribution) plus the 4-bit fraction.
  ProxyResult evaluate(QuantEngine& engine) const;

 private:
  TensorF logits_for(const TensorF& input, QuantEngine& engine) const;

  double calibrated_scale_ = 1.0;
  std::unique_ptr<Linear> embed_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::unique_ptr<Linear> lm_head_;
  std::vector<TensorF> inputs_;                ///< token streams
  std::vector<std::vector<float>> teacher_;    ///< per-sample, flattened
                                               ///< [T, vocab] FP32 probs
};

/// Corpus profile helpers for Table 1 (wiki-like vs c4-like streams).
SubTensorScaleProfile wiki_stream_profile();
SubTensorScaleProfile c4_stream_profile();

/// A noise budget chosen by search_budget, with its evaluation.
struct BudgetChoice {
  double budget = 0.0;
  ProxyResult result;
};

/// Paper-style threshold selection (Section 3.3), shared by Figure 6 and
/// Table 1: the largest budget of the ascending `grid` whose evaluation
/// `passes`, or the smallest budget if none does.  Walks the grid from
/// the largest budget down and stops at the first that passes, so it
/// evaluates only as far as it must.
BudgetChoice search_budget(
    const std::vector<double>& grid,
    const std::function<ProxyResult(double)>& evaluate,
    const std::function<bool(const ProxyResult&)>& passes);

}  // namespace drift::nn
