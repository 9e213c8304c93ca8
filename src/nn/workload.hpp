// Hardware workload extraction: the full-size layer GEMM shapes of the
// models the paper evaluates (Section 5.1), plus the activation
// distribution profile each model's tensors follow, and the one
// name -> workload registry the drivers look them up in.
//
// The performance/energy benches (Figures 7 and 8) consume these
// shapes through the analytical/cycle models; the *values* flowing
// through the full-size networks never need to be materialized — only
// the per-sub-tensor statistics, which nn/synthetic.hpp samples from
// the model's profile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analytical_model.hpp"
#include "nn/synthetic.hpp"

namespace drift::nn {

/// What produced a GEMM (affects which operands are dynamic).
enum class LayerKind {
  kConv,         ///< im2col'ed convolution
  kFc,           ///< classifier / logits projection
  kQkvProj,      ///< fused QKV projection
  kAttnScore,    ///< Q @ K^T (both operands are activations)
  kAttnContext,  ///< softmax(scores) @ V (both operands are activations)
  kOutProj,      ///< attention output projection
  kFfn,          ///< feed-forward projection (either half)
  kEmbed,        ///< patch / token embedding projection
};

std::string to_string(LayerKind kind);

/// One GEMM of a model, possibly repeated (identical blocks / heads).
struct LayerGemm {
  std::string name;
  LayerKind kind = LayerKind::kFc;
  core::GemmDims dims;
  std::int64_t repeat = 1;  ///< identical instances (blocks x heads)
  std::int64_t kernel = 1;  ///< conv kernel edge (row-stationary mapping)

  std::int64_t total_macs() const { return dims.macs() * repeat; }
};

/// Model family tag (drives granularity and profile choices).
enum class ModelFamily { kCnn, kVit, kBert, kLlm };

std::string to_string(ModelFamily family);

/// A complete model workload.
struct WorkloadSpec {
  std::string model;
  ModelFamily family = ModelFamily::kCnn;
  std::vector<LayerGemm> layers;
  SubTensorScaleProfile act_profile;
  SubTensorScaleProfile weight_profile;

  std::int64_t total_macs() const;
  std::int64_t total_gemms() const;  ///< counting repeats
};

/// Full-size shape generators for the paper's evaluation set.
WorkloadSpec make_resnet18();
WorkloadSpec make_resnet50();
WorkloadSpec make_vit_b16();
WorkloadSpec make_deit_s();
WorkloadSpec make_bert_base(std::int64_t seq_len = 128);
WorkloadSpec make_gpt2_xl(std::int64_t seq_len = 1024);
WorkloadSpec make_opt_6p7b(std::int64_t seq_len = 1024);

/// The seven workloads of Figures 7/8, in the paper's order:
/// ResNet18, ResNet50, ViT-B, DeiT-S, BERT, GPT2-XL, OPT-6.7B.
std::vector<WorkloadSpec> paper_workloads();

/// Every name make_workload accepts, in registry order: the two tiny
/// serving workloads ("tiny-bert", "tiny-cnn"), then the paper's eight
/// models (the seven of paper_workloads() plus BLOOM-7B1).  A workload
/// is named by the `model` it prints, so make_workload(n).model == n.
/// The tiny workloads have real layer-kind variety (conv / fc /
/// attention / ffn) but dimensions that keep a per-batch accelerator
/// run in the microsecond range, so serving soak tests can push tens
/// of thousands of requests.
std::vector<std::string> workload_names();

/// Builds the named workload, and only that one; an unknown name
/// throws check_error listing every name.
WorkloadSpec make_workload(const std::string& name);

}  // namespace drift::nn
