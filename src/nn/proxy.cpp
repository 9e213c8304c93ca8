#include "nn/proxy.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace drift::nn {
namespace {

/// Argmax over a [1, N] logit row.
std::int64_t argmax_row(const TensorF& logits) {
  DRIFT_CHECK(logits.shape().rank() == 2 && logits.shape().dim(0) == 1,
              "expected a [1, N] logit row");
  auto d = logits.data();
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < logits.shape().dim(1); ++j) {
    if (d[static_cast<std::size_t>(j)] > d[static_cast<std::size_t>(best)]) {
      best = j;
    }
  }
  return best;
}

/// Builds a classifier whose weight rows are the (L2-normalized) FP32
/// feature embeddings of the class prototypes.
std::unique_ptr<Linear> make_template_classifier(
    const std::string& name, const std::vector<TensorF>& prototype_features) {
  DRIFT_CHECK(!prototype_features.empty(), "need at least one class");
  const std::int64_t dim = prototype_features.front().shape().dim(1);
  const auto classes = static_cast<std::int64_t>(prototype_features.size());
  TensorF weight(Shape{classes, dim});
  for (std::int64_t k = 0; k < classes; ++k) {
    const auto& f = prototype_features[static_cast<std::size_t>(k)];
    DRIFT_CHECK(f.shape().rank() == 2 && f.shape().dim(0) == 1 &&
                    f.shape().dim(1) == dim,
                "prototype feature shape mismatch");
    double norm = 0.0;
    for (float v : f.data()) norm += static_cast<double>(v) * v;
    norm = std::sqrt(std::max(norm, 1e-12));
    for (std::int64_t j = 0; j < dim; ++j) {
      weight(k, j) = static_cast<float>(f(0, j) / norm);
    }
  }
  return std::make_unique<Linear>(name, std::move(weight),
                                  TensorF(Shape{classes}, 0.0f));
}

/// Runs `fn(s, engine_s)` for every sample s in [0, n) and returns the
/// results in sample order.  This is the one per-sample loop of the
/// proxies.  Samples go to the pool one per chunk, each with its own
/// engine of `engine`'s config; their GEMM records are then appended to
/// `engine` in sample order, so the log, and every statistic over it,
/// is the one a serial loop leaves.  Kernels that `fn` calls run inline
/// on the sample's thread (the pool does not nest), and their chunk
/// decompositions are fixed by their grains, so every output bit is
/// independent of the pool size.  Callers reduce the results serially,
/// in sample order.  At one pool thread this is the serial loop.
template <typename Fn>
auto map_samples(std::size_t n, QuantEngine& engine, const Fn& fn) {
  using Out = std::invoke_result_t<const Fn&, std::size_t, QuantEngine&>;
  std::vector<Out> outs(n);
  std::vector<QuantEngine> engines(n, QuantEngine(engine.config()));
  util::parallel_for(0, static_cast<std::int64_t>(n), 1,
                     [&](std::int64_t lo, std::int64_t hi) {
    for (auto s = static_cast<std::size_t>(lo);
         s < static_cast<std::size_t>(hi); ++s) {
      outs[s] = fn(s, engines[s]);
    }
  });
  for (const QuantEngine& sample : engines) {
    for (const GemmRecord& r : sample.records()) {
      engine.record(r.layer, r.m, r.k, r.n, r.act_low_fraction,
                    r.weight_low_fraction);
    }
  }
  return outs;
}

/// The classification protocol of CnnProxy and TransformerProxy.
/// `features(x, engine)` maps one input to its [1, D] feature row.
/// The template head is calibrated *through the same execution mode* on
/// the noisy per-class calibration samples (standard post-training-
/// quantization calibration): the head lives in whatever feature space
/// the quantized network produces, under the same dynamic precision
/// decisions the evaluation inputs trigger.
template <typename Features>
ProxyResult evaluate_classifier(
    const Features& features,
    const std::vector<std::vector<TensorF>>& calibration,
    const std::vector<TensorF>& inputs,
    const std::vector<std::int64_t>& labels, QuantEngine& engine) {
  // Every calibration sample in one pass, class-major.
  std::vector<const TensorF*> calib_inputs;
  for (const auto& class_samples : calibration) {
    DRIFT_CHECK(!class_samples.empty(), "a class needs calibration samples");
    for (const TensorF& x : class_samples) calib_inputs.push_back(&x);
  }
  QuantEngine calib(engine.config());
  std::vector<TensorF> calib_features = map_samples(
      calib_inputs.size(), calib, [&](std::size_t i, QuantEngine& e) {
        return features(*calib_inputs[i], e);
      });

  // Class means, summed in sample order.
  std::vector<TensorF> proto_features;
  proto_features.reserve(calibration.size());
  auto next = calib_features.begin();
  for (const auto& class_samples : calibration) {
    TensorF mean_feat = std::move(*next++);
    auto md = mean_feat.data();
    for (std::size_t i = 1; i < class_samples.size(); ++i) {
      auto fd = (next++)->data();
      for (std::size_t j = 0; j < md.size(); ++j) md[j] += fd[j];
    }
    for (float& v : md) v /= static_cast<float>(class_samples.size());
    proto_features.push_back(std::move(mean_feat));
  }
  const auto classifier =
      make_template_classifier("classifier", proto_features);

  engine.clear_records();
  const std::vector<std::int64_t> predicted = map_samples(
      inputs.size(), engine, [&](std::size_t s, QuantEngine& e) {
        return argmax_row(classifier->forward(features(inputs[s], e), e));
      });
  std::int64_t correct = 0;
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    if (predicted[s] == labels[s]) ++correct;
  }
  ProxyResult r;
  r.metric = static_cast<double>(correct) / static_cast<double>(inputs.size());
  r.act_low_fraction = engine.overall_act_low_fraction();
  return r;
}

}  // namespace

BudgetChoice search_budget(
    const std::vector<double>& grid,
    const std::function<ProxyResult(double)>& evaluate,
    const std::function<bool(const ProxyResult&)>& passes) {
  DRIFT_CHECK(!grid.empty(), "empty budget grid");
  DRIFT_CHECK(std::is_sorted(grid.begin(), grid.end()),
              "budget grid must be ascending");
  // Equivalent to scanning the whole grid upward, keeping the last
  // budget that passes (else the first), and evaluating it once more:
  // walking down from the largest, the first budget that passes is the
  // largest that passes, and a walk that finds none ends on the
  // smallest.  `evaluate` is deterministic (a proxy result is
  // bit-identical for a given config at any pool size), so the
  // evaluation the walk stops on is the one a repeat would return.
  BudgetChoice choice;
  for (auto it = grid.rbegin(); it != grid.rend(); ++it) {
    choice.budget = *it;
    choice.result = evaluate(*it);
    if (passes(choice.result)) break;
  }
  return choice;
}

// ---------------------------------------------------------------- CNN

CnnProxy::CnnProxy(const Config& config) : config_(config) {
  DRIFT_CHECK(config.classes > 1 && config.samples > 0, "invalid proxy");
  Rng rng(config.seed);

  features_ = std::make_unique<Sequential>("cnn_features");
  // Channel widths chosen for redundancy: real CNNs tolerate coarse
  // per-channel weight quantization because no single kernel is
  // irreplaceable; a too-narrow extractor would be artificially
  // fragile.
  features_->emplace<Conv2d>("conv1", std::int64_t{3}, std::int64_t{16},
                             std::int64_t{3}, std::int64_t{1},
                             std::int64_t{1}, rng);
  features_->emplace<ReLU>("relu1");
  features_->emplace<MaxPool2d>("pool1", std::int64_t{2}, std::int64_t{2});
  features_->emplace<ResidualBlock>("block1", std::int64_t{16},
                                    std::int64_t{32}, std::int64_t{2}, rng);
  features_->emplace<GlobalAvgPool>("gap");

  // Class prototypes: *localized* objects — a class-specific texture
  // under a smooth spatial bump — over a quiet background.  This is
  // the CNN regime both DRQ and Drift assume (Section 2.2): the
  // class-discriminative signal lives in loud salient regions, the
  // background is low-magnitude and uninformative.
  const std::int64_t S = config.image_size;
  // All classes share one object location/texture base and differ by a
  // class_separation-weighted texture delta, so the task is genuinely
  // confusable rather than trivially separable.
  const double ch = rng.uniform(0.25, 0.75) * static_cast<double>(S);
  const double cw = rng.uniform(0.25, 0.75) * static_cast<double>(S);
  const double radius = static_cast<double>(S) * 0.14;
  auto make_texture = [&](double amp_scale) {
    TensorF tex(Shape{3, S, S}, 0.0f);
    for (std::int64_t c = 0; c < 3; ++c) {
      const double fx = rng.uniform(1.0, 4.0), fy = rng.uniform(1.0, 4.0);
      const double px = rng.uniform(0.0, 6.28), py = rng.uniform(0.0, 6.28);
      for (std::int64_t h = 0; h < S; ++h) {
        for (std::int64_t w = 0; w < S; ++w) {
          tex(c, h, w) = static_cast<float>(
              amp_scale * std::cos(fx * h / S * 6.28 + px) *
              std::cos(fy * w / S * 6.28 + py));
        }
      }
    }
    return tex;
  };
  const TensorF common = make_texture(2.0);
  std::vector<TensorF> prototypes;
  prototypes.reserve(static_cast<std::size_t>(config.classes));
  for (std::int64_t k = 0; k < config.classes; ++k) {
    const TensorF unique = make_texture(2.0 * config.class_separation);
    TensorF proto(Shape{3, S, S}, 0.0f);
    for (std::int64_t c = 0; c < 3; ++c) {
      for (std::int64_t h = 0; h < S; ++h) {
        for (std::int64_t w = 0; w < S; ++w) {
          const double dh = (static_cast<double>(h) - ch) / radius;
          const double dw = (static_cast<double>(w) - cw) / radius;
          const double d2 = dh * dh + dw * dw;
          // Compact support: outside ~2.2 sigma the object is exactly
          // absent, so background regions are genuinely quiet.
          const double bump = d2 < 4.8 ? std::exp(-0.5 * d2) : 0.0;
          proto(c, h, w) = static_cast<float>(
              bump * (common(c, h, w) + unique(c, h, w)));
        }
      }
    }
    prototypes.push_back(std::move(proto));
  }

  // Noisy sample generator shared by the calibration and evaluation
  // sets: localized prototype + quiet region-structured Laplace
  // background (class-irrelevant clutter).
  auto noise_profile = cnn_profile();
  noise_profile.log_mean = -2.0;      // background well below object scale
  noise_profile.log_sigma = 0.6;      // keep clutter uniformly quiet
  noise_profile.outlier_fraction = 0.0;  // no loud non-object clutter
  auto make_sample = [&](std::int64_t cls) {
    TensorF noise = synth_chw(rng, 3, S, S, 4, noise_profile);
    TensorF img = prototypes[static_cast<std::size_t>(cls)];
    auto id = img.data();
    auto nd = noise.data();
    for (std::size_t i = 0; i < id.size(); ++i) {
      id[i] = static_cast<float>(config.signal * id[i] +
                                 config.noise * nd[i]);
    }
    return img;
  };

  // Calibration inputs: a few noisy samples per class, so the template
  // head is built under the same input distribution (and thus the same
  // dynamic precision decisions) the evaluation set triggers.
  calibration_.resize(static_cast<std::size_t>(config.classes));
  for (std::int64_t k = 0; k < config.classes; ++k) {
    for (int rep = 0; rep < 4; ++rep) {
      calibration_[static_cast<std::size_t>(k)].push_back(make_sample(k));
    }
  }

  for (std::int64_t s = 0; s < config.samples; ++s) {
    const std::int64_t true_class = rng.uniform_int(0, config.classes - 1);
    images_.push_back(make_sample(true_class));
    // Label noise: the recorded label may disagree with the content.
    labels_.push_back(rng.bernoulli(config.label_noise)
                          ? rng.uniform_int(0, config.classes - 1)
                          : true_class);
  }
}

ProxyResult CnnProxy::evaluate(QuantEngine& engine) const {
  return evaluate_classifier(
      [this](const TensorF& x, QuantEngine& e) {
        return features_->forward(x, e);
      },
      calibration_, images_, labels_, engine);
}

// -------------------------------------------------------- Transformer

TransformerProxy::TransformerProxy(const Config& config) : config_(config) {
  DRIFT_CHECK(config.classes > 1 && config.samples > 0, "invalid proxy");
  DRIFT_CHECK(config.outlier_tokens < config.tokens,
              "too many outlier tokens");
  Rng rng(config.seed);

  embed_ = std::make_unique<Linear>("embed", config.input_dim,
                                    config.model_dim, rng);
  for (std::int64_t b = 0; b < config.blocks; ++b) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        "block" + std::to_string(b), config.model_dim, config.heads,
        config.ffn_dim, rng));
  }
  ln_final_ = std::make_unique<LayerNorm>("ln_final", config.model_dim);

  // Class prototypes: per class, a direction for every token position.
  std::vector<TensorF> prototypes;
  for (std::int64_t k = 0; k < config.classes; ++k) {
    TensorF proto(Shape{config.tokens, config.input_dim});
    for (std::int64_t t = 0; t < config.tokens; ++t) {
      for (std::int64_t d = 0; d < config.input_dim; ++d) {
        // Token magnitudes kept well under the outlier scale so the
        // informative tokens fit a 4-bit rendering losslessly (the
        // regime the paper's BERT/ViT measurements show).
        proto(t, d) = static_cast<float>(rng.normal(0.0, 0.3));
      }
    }
    prototypes.push_back(std::move(proto));
  }

  // Fixed outlier positions shared by every sample (separator-token
  // analogue): huge magnitude, identical across classes => carries no
  // class signal but dominates the tensor-wide quantization scale.
  std::vector<std::int64_t> outlier_pos;
  TensorF outlier_dir(Shape{config.outlier_tokens, config.input_dim});
  for (std::int64_t o = 0; o < config.outlier_tokens; ++o) {
    outlier_pos.push_back(rng.uniform_int(0, config.tokens - 1));
    double norm = 0.0;
    std::vector<double> v(static_cast<std::size_t>(config.input_dim));
    for (auto& vi : v) {
      vi = rng.normal();
      norm += vi * vi;
    }
    norm = std::sqrt(norm);
    for (std::int64_t d = 0; d < config.input_dim; ++d) {
      outlier_dir(o, d) = static_cast<float>(
          v[static_cast<std::size_t>(d)] / norm * config.outlier_norm);
    }
  }
  auto inject_outliers = [&](TensorF& x) {
    for (std::int64_t o = 0; o < config_.outlier_tokens; ++o) {
      const std::int64_t t = outlier_pos[static_cast<std::size_t>(o)];
      for (std::int64_t d = 0; d < config_.input_dim; ++d) {
        x(t, d) = outlier_dir(o, d);
      }
    }
  };

  // Noisy sample generator shared by calibration and evaluation.
  auto make_sample = [&](std::int64_t cls) {
    TensorF x = prototypes[static_cast<std::size_t>(cls)];
    for (float& v : x.data()) {
      v = static_cast<float>(config_.signal * v +
                             config_.noise * rng.laplace(0.3));
    }
    inject_outliers(x);
    return x;
  };

  // Calibration inputs (see CnnProxy): a few noisy samples per class.
  calibration_.resize(static_cast<std::size_t>(config.classes));
  for (std::int64_t k = 0; k < config.classes; ++k) {
    for (int rep = 0; rep < 4; ++rep) {
      calibration_[static_cast<std::size_t>(k)].push_back(make_sample(k));
    }
  }

  // Evaluation set (with label noise, see CnnProxy::Config).
  for (std::int64_t s = 0; s < config.samples; ++s) {
    const std::int64_t true_class = rng.uniform_int(0, config.classes - 1);
    inputs_.push_back(make_sample(true_class));
    labels_.push_back(rng.bernoulli(config.label_noise)
                          ? rng.uniform_int(0, config.classes - 1)
                          : true_class);
  }
}

TensorF TransformerProxy::embed_tokens(const TensorF& raw,
                                       QuantEngine& engine) const {
  TensorF x = embed_->forward(raw, engine);
  for (const auto& block : blocks_) {
    x = block->forward(x, engine);
  }
  // Final LayerNorm before the head (as in ViT/BERT): equalizes token
  // scales so outlier tokens do not dominate the pooled feature.
  x = ln_final_->forward(x, engine);
  MeanPoolTokens pool("pool");
  return pool.forward(x, engine);
}

ProxyResult TransformerProxy::evaluate(QuantEngine& engine) const {
  return evaluate_classifier(
      [this](const TensorF& x, QuantEngine& e) {
        return embed_tokens(x, e);
      },
      calibration_, inputs_, labels_, engine);
}

// ----------------------------------------------------------------- LM

SubTensorScaleProfile wiki_stream_profile() {
  SubTensorScaleProfile p = llm_profile();
  p.log_sigma = 0.6;  // curated text: tamer token-scale spread
  p.outlier_fraction = 0.03;
  return p;
}

SubTensorScaleProfile c4_stream_profile() {
  SubTensorScaleProfile p = llm_profile();
  p.log_sigma = 0.9;  // web crawl: wilder spread, more outliers
  p.outlier_fraction = 0.05;
  return p;
}

LmProxy::LmProxy(const Config& config) : config_(config) {
  DRIFT_CHECK(config.vocab > 1 && config.samples > 0, "invalid proxy");
  Rng rng(config.seed);

  embed_ = std::make_unique<Linear>("embed", config.input_dim,
                                    config.model_dim, rng);
  for (std::int64_t b = 0; b < config.blocks; ++b) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        "block" + std::to_string(b), config.model_dim, config.heads,
        config.ffn_dim, rng));
  }
  lm_head_ = std::make_unique<Linear>("lm_head", config.model_dim,
                                      config.vocab, rng);

  // Token streams from the corpus profile.
  for (std::int64_t s = 0; s < config.samples; ++s) {
    inputs_.push_back(
        synth_rows(rng, config.tokens, config.input_dim, config.stream));
  }

  // FP32 teacher logits.
  QuantEngine fp32(QuantEngine::Config{});
  const std::vector<TensorF> fp32_logits = map_samples(
      inputs_.size(), fp32, [&](std::size_t s, QuantEngine& e) {
        return logits_for(inputs_[s], e);
      });

  // Calibrate the teacher temperature so the FP32 model's own
  // perplexity (exp of mean teacher entropy) hits target_base_ppl.
  auto mean_entropy = [&](double scale) {
    double acc = 0.0;
    std::int64_t positions = 0;
    for (const auto& logits : fp32_logits) {
      const std::int64_t T = logits.shape().dim(0);
      const std::int64_t V = logits.shape().dim(1);
      for (std::int64_t t = 0; t < T; ++t) {
        auto row = logits.row(t);
        double peak = row[0];
        for (float v : row) peak = std::max<double>(peak, v);
        double denom = 0.0, weighted = 0.0;
        for (std::int64_t j = 0; j < V; ++j) {
          const double z =
              (static_cast<double>(row[static_cast<std::size_t>(j)]) - peak) *
              scale;
          const double e = std::exp(z);
          denom += e;
          weighted += e * z;
        }
        acc += std::log(denom) - weighted / denom;
        ++positions;
      }
    }
    return acc / static_cast<double>(positions);
  };
  const double target_entropy = std::log(config.target_base_ppl);
  double lo = 1e-4, hi = 64.0;  // entropy decreases in scale
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (mean_entropy(mid) > target_entropy ? lo : hi) = mid;
  }
  calibrated_scale_ = 0.5 * (lo + hi);

  // Teacher distributions at the calibrated temperature.
  for (const auto& logits : fp32_logits) {
    std::vector<float> probs(static_cast<std::size_t>(logits.numel()));
    const std::int64_t T = logits.shape().dim(0);
    const std::int64_t V = logits.shape().dim(1);
    for (std::int64_t t = 0; t < T; ++t) {
      auto row = logits.row(t);
      double peak = row[0];
      for (float v : row) peak = std::max<double>(peak, v);
      double denom = 0.0;
      for (std::int64_t j = 0; j < V; ++j) {
        const double e = std::exp(
            (static_cast<double>(row[static_cast<std::size_t>(j)]) - peak) *
            calibrated_scale_);
        probs[static_cast<std::size_t>(t * V + j)] = static_cast<float>(e);
        denom += e;
      }
      for (std::int64_t j = 0; j < V; ++j) {
        probs[static_cast<std::size_t>(t * V + j)] =
            static_cast<float>(probs[static_cast<std::size_t>(t * V + j)] /
                               denom);
      }
    }
    teacher_.push_back(std::move(probs));
  }
}

TensorF LmProxy::logits_for(const TensorF& input, QuantEngine& engine) const {
  TensorF x = embed_->forward(input, engine);
  for (const auto& block : blocks_) {
    x = block->forward(x, engine);
  }
  return lm_head_->forward(x, engine);
}

ProxyResult LmProxy::evaluate(QuantEngine& engine) const {
  engine.clear_records();
  // Per sample, the cross-entropy of each position against the teacher;
  // summed below in (sample, position) order.
  const std::vector<std::vector<double>> position_ce = map_samples(
      inputs_.size(), engine, [&](std::size_t s, QuantEngine& e) {
        const TensorF logits = logits_for(inputs_[s], e);
        const std::int64_t T = logits.shape().dim(0);
        const std::int64_t V = logits.shape().dim(1);
        const auto& teacher = teacher_[s];
        std::vector<double> ce_t(static_cast<std::size_t>(T));
        std::vector<double> e_row(static_cast<std::size_t>(V));
        for (std::int64_t t = 0; t < T; ++t) {
          auto row = logits.row(t);
          double peak = row[0];
          for (float v : row) peak = std::max<double>(peak, v);
          double denom = 0.0;
          for (std::int64_t j = 0; j < V; ++j) {
            e_row[static_cast<std::size_t>(j)] = std::exp(
                (static_cast<double>(row[static_cast<std::size_t>(j)]) -
                 peak) *
                calibrated_scale_);
            denom += e_row[static_cast<std::size_t>(j)];
          }
          double ce = 0.0;
          for (std::int64_t j = 0; j < V; ++j) {
            const double p = teacher[static_cast<std::size_t>(t * V + j)];
            if (p <= 0.0) continue;
            const double q =
                std::max(e_row[static_cast<std::size_t>(j)] / denom, 1e-12);
            ce -= p * std::log(q);
          }
          ce_t[static_cast<std::size_t>(t)] = ce;
        }
        return ce_t;
      });
  double ce_sum = 0.0;
  std::int64_t positions = 0;
  for (const auto& sample : position_ce) {
    for (const double ce : sample) {
      ce_sum += ce;
      ++positions;
    }
  }
  ProxyResult r;
  r.metric = std::exp(ce_sum / static_cast<double>(positions));
  r.act_low_fraction = engine.overall_act_low_fraction();
  return r;
}

}  // namespace drift::nn
