#include "nn/workload.hpp"

#include "util/assert.hpp"

namespace drift::nn {
namespace {

/// Conv-shape helper: appends the im2col GEMM of a convolution.
void add_conv(std::vector<LayerGemm>& layers, const std::string& name,
              std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
              std::int64_t stride, std::int64_t pad, std::int64_t in_size,
              std::int64_t* out_size, std::int64_t repeat = 1) {
  const std::int64_t os = (in_size + 2 * pad - kernel) / stride + 1;
  DRIFT_CHECK(os > 0, "conv shrinks input away");
  layers.push_back(LayerGemm{
      name, LayerKind::kConv,
      core::GemmDims{os * os, in_ch * kernel * kernel, out_ch}, repeat,
      kernel});
  if (out_size != nullptr) *out_size = os;
}

/// Appends the four GEMM groups of one transformer encoder block and
/// its per-head attention products.  `batch` fuses the token matrices
/// of several inputs into one GEMM (standard server-side batching);
/// the attention products stay per-input, so they repeat batch x heads
/// times.
void add_transformer_block(std::vector<LayerGemm>& layers,
                           const std::string& prefix, std::int64_t tokens,
                           std::int64_t dim, std::int64_t heads,
                           std::int64_t ffn_dim, std::int64_t repeat,
                           std::int64_t batch) {
  const std::int64_t head_dim = dim / heads;
  const std::int64_t rows = batch * tokens;
  layers.push_back(LayerGemm{prefix + ".qkv", LayerKind::kQkvProj,
                             core::GemmDims{rows, dim, 3 * dim}, repeat});
  layers.push_back(LayerGemm{prefix + ".score", LayerKind::kAttnScore,
                             core::GemmDims{tokens, head_dim, tokens},
                             repeat * heads * batch});
  layers.push_back(LayerGemm{prefix + ".context", LayerKind::kAttnContext,
                             core::GemmDims{tokens, tokens, head_dim},
                             repeat * heads * batch});
  layers.push_back(LayerGemm{prefix + ".proj", LayerKind::kOutProj,
                             core::GemmDims{rows, dim, dim}, repeat});
  layers.push_back(LayerGemm{prefix + ".ffn1", LayerKind::kFfn,
                             core::GemmDims{rows, dim, ffn_dim}, repeat});
  layers.push_back(LayerGemm{prefix + ".ffn2", LayerKind::kFfn,
                             core::GemmDims{rows, ffn_dim, dim}, repeat});
}

/// Inference batch for the encoder-style models (ViT / DeiT / BERT).
/// CNNs run at batch 1 (their GEMM rows are already in the thousands);
/// decoder LLMs process long prompts, which plays the same role.
constexpr std::int64_t kEncoderBatch = 8;

}  // namespace

std::string to_string(ModelFamily family) {
  switch (family) {
    case ModelFamily::kCnn: return "cnn";
    case ModelFamily::kVit: return "vit";
    case ModelFamily::kBert: return "bert";
    case ModelFamily::kLlm: return "llm";
  }
  return "?";
}

std::int64_t WorkloadSpec::total_macs() const {
  std::int64_t acc = 0;
  for (const auto& l : layers) acc += l.total_macs();
  return acc;
}

std::int64_t WorkloadSpec::total_gemms() const {
  std::int64_t acc = 0;
  for (const auto& l : layers) acc += l.repeat;
  return acc;
}

WorkloadSpec make_resnet18() {
  WorkloadSpec spec;
  spec.model = "ResNet18";
  spec.family = ModelFamily::kCnn;
  spec.act_profile = cnn_profile();
  spec.weight_profile = weight_profile();
  auto& L = spec.layers;

  std::int64_t size = 224;
  add_conv(L, "conv1", 3, 64, 7, 2, 3, size, &size);  // 112
  size /= 2;                                          // maxpool -> 56
  // Stage template: {channels, blocks, first stride}.
  struct Stage { std::int64_t ch, blocks, stride; };
  const Stage stages[] = {{64, 2, 1}, {128, 2, 2}, {256, 2, 2}, {512, 2, 2}};
  std::int64_t in_ch = 64;
  int stage_idx = 1;
  for (const Stage& st : stages) {
    const std::string p = "layer" + std::to_string(stage_idx++);
    for (std::int64_t b = 0; b < st.blocks; ++b) {
      const std::int64_t stride = b == 0 ? st.stride : 1;
      const std::string bp = p + ".b" + std::to_string(b);
      if (stride != 1 || in_ch != st.ch) {
        std::int64_t dummy = size;
        add_conv(L, bp + ".down", in_ch, st.ch, 1, stride, 0, size, &dummy);
      }
      add_conv(L, bp + ".conv1", in_ch, st.ch, 3, stride, 1, size, &size);
      add_conv(L, bp + ".conv2", st.ch, st.ch, 3, 1, 1, size, &size);
      in_ch = st.ch;
    }
  }
  L.push_back(LayerGemm{"fc", LayerKind::kFc, core::GemmDims{1, 512, 1000}});
  return spec;
}

WorkloadSpec make_resnet50() {
  WorkloadSpec spec;
  spec.model = "ResNet50";
  spec.family = ModelFamily::kCnn;
  spec.act_profile = cnn_profile();
  spec.weight_profile = weight_profile();
  auto& L = spec.layers;

  std::int64_t size = 224;
  add_conv(L, "conv1", 3, 64, 7, 2, 3, size, &size);  // 112
  size /= 2;                                          // maxpool -> 56
  struct Stage { std::int64_t ch, blocks, stride; };
  const Stage stages[] = {{64, 3, 1}, {128, 4, 2}, {256, 6, 2}, {512, 3, 2}};
  std::int64_t in_ch = 64;
  int stage_idx = 1;
  for (const Stage& st : stages) {
    const std::string p = "layer" + std::to_string(stage_idx++);
    const std::int64_t out_ch = st.ch * 4;  // bottleneck expansion
    for (std::int64_t b = 0; b < st.blocks; ++b) {
      const std::int64_t stride = b == 0 ? st.stride : 1;
      const std::string bp = p + ".b" + std::to_string(b);
      if (stride != 1 || in_ch != out_ch) {
        std::int64_t dummy = size;
        add_conv(L, bp + ".down", in_ch, out_ch, 1, stride, 0, size, &dummy);
      }
      std::int64_t dummy = size;
      add_conv(L, bp + ".conv1", in_ch, st.ch, 1, 1, 0, size, &dummy);
      add_conv(L, bp + ".conv2", st.ch, st.ch, 3, stride, 1, size, &size);
      add_conv(L, bp + ".conv3", st.ch, out_ch, 1, 1, 0, size, &dummy);
      in_ch = out_ch;
    }
  }
  L.push_back(LayerGemm{"fc", LayerKind::kFc, core::GemmDims{1, 2048, 1000}});
  return spec;
}

namespace {

WorkloadSpec make_vit_like(const std::string& model, std::int64_t dim,
                           std::int64_t heads, std::int64_t ffn_dim,
                           std::int64_t depth) {
  WorkloadSpec spec;
  spec.model = model;
  spec.family = ModelFamily::kVit;
  spec.act_profile = vit_profile();
  spec.weight_profile = weight_profile();
  const std::int64_t tokens = 197;  // 14x14 patches + [CLS]
  spec.layers.push_back(
      LayerGemm{"patch_embed", LayerKind::kEmbed,
                core::GemmDims{kEncoderBatch * 196, 3 * 16 * 16, dim}});
  add_transformer_block(spec.layers, "block", tokens, dim, heads, ffn_dim,
                        depth, kEncoderBatch);
  spec.layers.push_back(
      LayerGemm{"head", LayerKind::kFc, core::GemmDims{1, dim, 1000}});
  return spec;
}

WorkloadSpec make_decoder_lm(const std::string& model, std::int64_t dim,
                             std::int64_t heads, std::int64_t ffn_dim,
                             std::int64_t depth, std::int64_t seq_len,
                             std::int64_t vocab) {
  WorkloadSpec spec;
  spec.model = model;
  spec.family = ModelFamily::kLlm;
  spec.act_profile = llm_profile();
  spec.weight_profile = weight_profile();
  add_transformer_block(spec.layers, "block", seq_len, dim, heads, ffn_dim,
                        depth, /*batch=*/1);
  spec.layers.push_back(LayerGemm{"lm_head", LayerKind::kFc,
                                  core::GemmDims{seq_len, dim, vocab}});
  return spec;
}

}  // namespace

WorkloadSpec make_vit_b16() { return make_vit_like("ViT-B", 768, 12, 3072, 12); }

WorkloadSpec make_deit_s() { return make_vit_like("DeiT-S", 384, 6, 1536, 12); }

WorkloadSpec make_bert_base(std::int64_t seq_len) {
  WorkloadSpec spec;
  spec.model = "BERT";
  spec.family = ModelFamily::kBert;
  spec.act_profile = bert_profile();
  spec.weight_profile = weight_profile();
  add_transformer_block(spec.layers, "block", seq_len, 768, 12, 3072, 12,
                        kEncoderBatch);
  spec.layers.push_back(LayerGemm{"pooler", LayerKind::kFc,
                                  core::GemmDims{kEncoderBatch, 768, 768}});
  return spec;
}

WorkloadSpec make_gpt2_xl(std::int64_t seq_len) {
  return make_decoder_lm("GPT2-XL", 1600, 25, 6400, 48, seq_len, 50257);
}

namespace {

/// Reached only by name, through make_workload("BLOOM-7B1").
WorkloadSpec make_bloom_7b1() {
  return make_decoder_lm("BLOOM-7B1", 4096, 32, 16384, 30, 1024, 250880);
}

}  // namespace

WorkloadSpec make_opt_6p7b(std::int64_t seq_len) {
  return make_decoder_lm("OPT-6.7B", 4096, 32, 16384, 32, seq_len, 50272);
}

std::vector<WorkloadSpec> paper_workloads() {
  return {make_resnet18(), make_resnet50(), make_vit_b16(), make_deit_s(),
          make_bert_base(), make_gpt2_xl(),  make_opt_6p7b()};
}

namespace {

WorkloadSpec tiny_cnn() {
  WorkloadSpec spec;
  spec.model = "tiny-cnn";
  spec.family = ModelFamily::kCnn;
  spec.act_profile = cnn_profile();
  spec.weight_profile = weight_profile();
  spec.layers = {
      {"conv1", LayerKind::kConv, {64, 72, 48}, 1, 3},
      {"conv2", LayerKind::kConv, {48, 96, 64}, 1, 3},
      {"fc", LayerKind::kFc, {8, 64, 40}, 1, 1},
  };
  return spec;
}

WorkloadSpec tiny_bert() {
  WorkloadSpec spec;
  spec.model = "tiny-bert";
  spec.family = ModelFamily::kBert;
  spec.act_profile = bert_profile();
  spec.weight_profile = weight_profile();
  const std::int64_t seq = 32, d = 64;
  spec.layers = {
      {"qkv", LayerKind::kQkvProj, {seq, d, 3 * d}, 1, 1},
      {"score", LayerKind::kAttnScore, {seq, d, seq}, 1, 1},
      {"context", LayerKind::kAttnContext, {seq, seq, d}, 1, 1},
      {"ffn", LayerKind::kFfn, {seq, d, 2 * d}, 1, 1},
  };
  return spec;
}

struct NamedWorkload {
  const char* name;
  WorkloadSpec (*make)();
};

constexpr NamedWorkload kWorkloads[] = {
    {"tiny-bert", tiny_bert},
    {"tiny-cnn", tiny_cnn},
    {"ResNet18", make_resnet18},
    {"ResNet50", make_resnet50},
    {"ViT-B", make_vit_b16},
    {"DeiT-S", make_deit_s},
    {"BERT", [] { return make_bert_base(); }},
    {"GPT2-XL", [] { return make_gpt2_xl(); }},
    {"OPT-6.7B", [] { return make_opt_6p7b(); }},
    {"BLOOM-7B1", make_bloom_7b1},
};

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const NamedWorkload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

WorkloadSpec make_workload(const std::string& name) {
  std::string known;
  for (const NamedWorkload& w : kWorkloads) {
    if (name == w.name) return w.make();
    known += (known.empty() ? "" : ", ") + std::string(w.name);
  }
  throw check_error("unknown workload '" + name + "' (known: " + known + ")");
}

}  // namespace drift::nn
