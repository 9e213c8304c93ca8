#include "graph/ops.hpp"

#include <algorithm>
#include <memory>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/pooling.hpp"
#include "util/assert.hpp"

namespace drift::graph {

std::string dims_to_string(const Dims& dims) {
  std::string out = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(dims[i]);
  }
  out += "]";
  return out;
}

std::string broadcast_dims(const Dims& a, const Dims& b, Dims& out) {
  const std::size_t rank = std::max(a.size(), b.size());
  out.assign(rank, 1);
  for (std::size_t r = 0; r < rank; ++r) {
    // Right-aligned: axis r counted from the trailing end.
    const std::int64_t da =
        r < a.size() ? a[a.size() - 1 - r] : 1;
    const std::int64_t db =
        r < b.size() ? b[b.size() - 1 - r] : 1;
    if (da != db && da != 1 && db != 1) {
      out.clear();
      return "shapes " + dims_to_string(a) + " and " + dims_to_string(b) +
             " do not broadcast (axis " +
             std::to_string(rank - 1 - r) + ": " + std::to_string(da) +
             " vs " + std::to_string(db) + ")";
    }
    out[rank - 1 - r] = std::max(da, db);
  }
  return "";
}

namespace {

std::int64_t conv_out(std::int64_t in, std::int64_t k, std::int64_t s,
                      std::int64_t p) {
  // Guard the no-fit case explicitly: C++ division truncates toward
  // zero, so e.g. (1 - 3) / 3 + 1 would wrongly yield one position.
  const std::int64_t span = in + 2 * p - k;
  return span < 0 ? 0 : span / s + 1;
}

/// Fetches a required positive integer attribute; returns "" and fills
/// `value` on success.
std::string positive_attr(const Node& node, const std::string& key,
                          std::int64_t& value) {
  if (!node.has_attr(key)) {
    return "missing required attribute '" + key + "'";
  }
  value = node.attr_int(key, 0);
  if (value <= 0) {
    return "attribute '" + key + "' must be positive, got " +
           std::to_string(value);
  }
  return "";
}

// ---------------------------------------------------------------------
// Shape rules.
// ---------------------------------------------------------------------

std::string infer_conv2d(const Node& node, const std::vector<Dims>& in,
                         Dims& out) {
  if (in[0].size() != 3) {
    return "conv2d expects a [C, H, W] input, got " + dims_to_string(in[0]);
  }
  std::int64_t oc = 0, k = 0;
  std::string err = positive_attr(node, "out_channels", oc);
  if (err.empty()) err = positive_attr(node, "kernel", k);
  if (!err.empty()) return err;
  const std::int64_t s = node.attr_int("stride", 1);
  const std::int64_t p = node.attr_int("pad", 0);
  if (s <= 0) return "attribute 'stride' must be positive";
  if (p < 0) return "attribute 'pad' must be non-negative";
  const std::int64_t oh = conv_out(in[0][1], k, s, p);
  const std::int64_t ow = conv_out(in[0][2], k, s, p);
  if (oh <= 0 || ow <= 0) {
    return "kernel " + std::to_string(k) + " (stride " + std::to_string(s) +
           ", pad " + std::to_string(p) + ") does not fit input " +
           dims_to_string(in[0]);
  }
  out = {oc, oh, ow};
  return "";
}

std::string infer_depthwise_conv2d(const Node& node,
                                   const std::vector<Dims>& in, Dims& out) {
  if (in[0].size() != 3) {
    return "depthwise_conv2d expects a [C, H, W] input, got " +
           dims_to_string(in[0]);
  }
  std::int64_t k = 0;
  const std::string err = positive_attr(node, "kernel", k);
  if (!err.empty()) return err;
  const std::int64_t s = node.attr_int("stride", 1);
  const std::int64_t p = node.attr_int("pad", 0);
  if (s <= 0) return "attribute 'stride' must be positive";
  if (p < 0) return "attribute 'pad' must be non-negative";
  const std::int64_t oh = conv_out(in[0][1], k, s, p);
  const std::int64_t ow = conv_out(in[0][2], k, s, p);
  if (oh <= 0 || ow <= 0) {
    return "kernel " + std::to_string(k) + " (stride " + std::to_string(s) +
           ", pad " + std::to_string(p) + ") does not fit input " +
           dims_to_string(in[0]);
  }
  out = {in[0][0], oh, ow};
  return "";
}

std::string infer_pool2d(const Node& node, const std::vector<Dims>& in,
                         Dims& out) {
  if (in[0].size() != 3) {
    return node.op + " expects a [C, H, W] input, got " +
           dims_to_string(in[0]);
  }
  std::int64_t k = 0;
  const std::string err = positive_attr(node, "kernel", k);
  if (!err.empty()) return err;
  const std::int64_t s = node.attr_int("stride", k);
  if (s <= 0) return "attribute 'stride' must be positive";
  // Pooling layers take no padding (matching nn::MaxPool2d/AvgPool2d).
  const std::int64_t oh = conv_out(in[0][1], k, s, 0);
  const std::int64_t ow = conv_out(in[0][2], k, s, 0);
  if (oh <= 0 || ow <= 0) {
    return "pooling kernel " + std::to_string(k) + " (stride " +
           std::to_string(s) + ") does not fit input " +
           dims_to_string(in[0]);
  }
  out = {in[0][0], oh, ow};
  return "";
}

std::string infer_global_avgpool(const Node&, const std::vector<Dims>& in,
                                 Dims& out) {
  if (in[0].size() != 3) {
    return "global_avgpool expects a [C, H, W] input, got " +
           dims_to_string(in[0]);
  }
  out = {1, in[0][0]};
  return "";
}

std::string infer_mean_pool_tokens(const Node&, const std::vector<Dims>& in,
                                   Dims& out) {
  if (in[0].size() != 2) {
    return "mean_pool_tokens expects a [T, D] input, got " +
           dims_to_string(in[0]);
  }
  out = {1, in[0][1]};
  return "";
}

std::string infer_to_tokens(const Node&, const std::vector<Dims>& in,
                            Dims& out) {
  if (in[0].size() != 3) {
    return "to_tokens expects a [C, H, W] input, got " +
           dims_to_string(in[0]);
  }
  out = {in[0][1] * in[0][2], in[0][0]};
  return "";
}

std::string infer_linear(const Node& node, const std::vector<Dims>& in,
                         Dims& out) {
  if (in[0].size() != 2) {
    return "linear expects a [M, K] input, got " + dims_to_string(in[0]);
  }
  std::int64_t n = 0;
  const std::string err = positive_attr(node, "out_features", n);
  if (!err.empty()) return err;
  out = {in[0][0], n};
  return "";
}

std::string infer_elementwise(const Node&, const std::vector<Dims>& in,
                              Dims& out) {
  out = in[0];
  return "";
}

std::string infer_rank2_same(const Node& node, const std::vector<Dims>& in,
                             Dims& out) {
  if (in[0].size() != 2) {
    return node.op + " expects a [M, N] input, got " + dims_to_string(in[0]);
  }
  out = in[0];
  return "";
}

std::string infer_batchnorm2d(const Node&, const std::vector<Dims>& in,
                              Dims& out) {
  if (in[0].size() != 3) {
    return "batchnorm2d expects a [C, H, W] input, got " +
           dims_to_string(in[0]);
  }
  out = in[0];
  return "";
}

std::string infer_attention(const Node& node, const std::vector<Dims>& in,
                            Dims& out) {
  if (in[0].size() != 2) {
    return "attention expects a [T, D] input, got " + dims_to_string(in[0]);
  }
  std::int64_t heads = 0;
  const std::string err = positive_attr(node, "heads", heads);
  if (!err.empty()) return err;
  const std::int64_t dim = in[0][1];
  if (dim % heads != 0) {
    return "attention head split " + std::to_string(dim) + " % " +
           std::to_string(heads) + " != 0";
  }
  out = in[0];
  return "";
}

std::string infer_add(const Node&, const std::vector<Dims>& in, Dims& out) {
  return broadcast_dims(in[0], in[1], out);
}

std::string infer_concat(const Node& node, const std::vector<Dims>& in,
                         Dims& out) {
  const std::int64_t axis = node.attr_int("axis", 0);
  const std::size_t rank = in[0].size();
  if (axis < 0 || static_cast<std::size_t>(axis) >= rank) {
    return "concat axis " + std::to_string(axis) +
           " out of range for rank-" + std::to_string(rank) + " input";
  }
  out = in[0];
  for (std::size_t i = 1; i < in.size(); ++i) {
    if (in[i].size() != rank) {
      return "concat rank mismatch: " + dims_to_string(in[0]) + " vs " +
             dims_to_string(in[i]);
    }
    for (std::size_t r = 0; r < rank; ++r) {
      if (static_cast<std::int64_t>(r) == axis) continue;
      if (in[i][r] != in[0][r]) {
        return "concat operands " + dims_to_string(in[0]) + " and " +
               dims_to_string(in[i]) + " differ off axis " +
               std::to_string(axis);
      }
    }
    out[static_cast<std::size_t>(axis)] += in[i][static_cast<std::size_t>(axis)];
  }
  return "";
}

// ---------------------------------------------------------------------
// Binders (construction order == rng stream order; see executor).
// ---------------------------------------------------------------------

nn::LayerPtr bind_conv2d(const Node& node, const std::vector<Dims>& in,
                         Rng& rng) {
  return std::make_unique<nn::Conv2d>(
      node.name, in[0][0], node.attr_int("out_channels", 0),
      node.attr_int("kernel", 0), node.attr_int("stride", 1),
      node.attr_int("pad", 0), rng);
}

nn::LayerPtr bind_depthwise_conv2d(const Node& node,
                                   const std::vector<Dims>& in, Rng& rng) {
  return std::make_unique<nn::DepthwiseConv2d>(
      node.name, in[0][0], node.attr_int("kernel", 0),
      node.attr_int("stride", 1), node.attr_int("pad", 0), rng);
}

nn::LayerPtr bind_maxpool2d(const Node& node, const std::vector<Dims>&,
                            Rng&) {
  const std::int64_t k = node.attr_int("kernel", 0);
  return std::make_unique<nn::MaxPool2d>(node.name, k,
                                         node.attr_int("stride", k));
}

nn::LayerPtr bind_avgpool2d(const Node& node, const std::vector<Dims>&,
                            Rng&) {
  const std::int64_t k = node.attr_int("kernel", 0);
  return std::make_unique<nn::AvgPool2d>(node.name, k,
                                         node.attr_int("stride", k));
}

nn::LayerPtr bind_global_avgpool(const Node& node, const std::vector<Dims>&,
                                 Rng&) {
  return std::make_unique<nn::GlobalAvgPool>(node.name);
}

nn::LayerPtr bind_mean_pool_tokens(const Node& node,
                                   const std::vector<Dims>&, Rng&) {
  return std::make_unique<nn::MeanPoolTokens>(node.name);
}

nn::LayerPtr bind_linear(const Node& node, const std::vector<Dims>& in,
                         Rng& rng) {
  return std::make_unique<nn::Linear>(
      node.name, in[0][1], node.attr_int("out_features", 0), rng);
}

nn::LayerPtr bind_relu(const Node& node, const std::vector<Dims>&, Rng&) {
  return std::make_unique<nn::ReLU>(node.name);
}

nn::LayerPtr bind_gelu(const Node& node, const std::vector<Dims>&, Rng&) {
  return std::make_unique<nn::GELU>(node.name);
}

nn::LayerPtr bind_softmax(const Node& node, const std::vector<Dims>&, Rng&) {
  return std::make_unique<nn::Softmax>(node.name);
}

nn::LayerPtr bind_layernorm(const Node& node, const std::vector<Dims>& in,
                            Rng&) {
  return std::make_unique<nn::LayerNorm>(node.name, in[0][1]);
}

nn::LayerPtr bind_batchnorm2d(const Node& node, const std::vector<Dims>& in,
                              Rng&) {
  return std::make_unique<nn::BatchNorm2d>(node.name, in[0][0]);
}

nn::LayerPtr bind_attention(const Node& node, const std::vector<Dims>& in,
                            Rng& rng) {
  return std::make_unique<nn::MultiHeadAttention>(
      node.name, in[0][1], node.attr_int("heads", 0), rng);
}

// ---------------------------------------------------------------------
// Graph-level evaluators.
// ---------------------------------------------------------------------

TensorF run_add(const Node&, const std::vector<const TensorF*>& in) {
  const TensorF& a = *in[0];
  const TensorF& b = *in[1];
  Dims out_dims;
  const std::string err =
      broadcast_dims(a.shape().dims(), b.shape().dims(), out_dims);
  DRIFT_CHECK(err.empty(), "add operands do not broadcast");

  // Per-operand strides over the output index space: 0 on broadcast
  // axes, the operand's own row-major stride elsewhere.
  const auto operand_strides = [&out_dims](const Shape& s) {
    const std::vector<std::int64_t> own = s.strides();
    std::vector<std::int64_t> mapped(out_dims.size(), 0);
    const std::size_t offset = out_dims.size() -
                               static_cast<std::size_t>(s.rank());
    for (std::size_t r = 0; r < static_cast<std::size_t>(s.rank()); ++r) {
      if (s.dim(static_cast<std::int64_t>(r)) ==
          out_dims[offset + r]) {
        mapped[offset + r] = own[r];
      }
    }
    return mapped;
  };
  const std::vector<std::int64_t> sa = operand_strides(a.shape());
  const std::vector<std::int64_t> sb = operand_strides(b.shape());

  TensorF out(Shape{out_dims});
  auto ad = a.data();
  auto bd = b.data();
  auto od = out.data();
  std::vector<std::int64_t> index(out_dims.size(), 0);
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    std::int64_t oa = 0, ob = 0;
    for (std::size_t r = 0; r < out_dims.size(); ++r) {
      oa += index[r] * sa[r];
      ob += index[r] * sb[r];
    }
    od[static_cast<std::size_t>(flat)] = ad[static_cast<std::size_t>(oa)] +
                                         bd[static_cast<std::size_t>(ob)];
    // Odometer increment over the output multi-index.
    for (std::size_t r = out_dims.size(); r-- > 0;) {
      if (++index[r] < out_dims[r]) break;
      index[r] = 0;
    }
  }
  return out;
}

TensorF run_concat(const Node& node, const std::vector<const TensorF*>& in) {
  const std::int64_t axis = node.attr_int("axis", 0);
  const std::int64_t rank = in[0]->shape().rank();
  DRIFT_CHECK(axis >= 0 && axis < rank, "concat axis out of range");

  Dims out_dims = in[0]->shape().dims();
  for (std::size_t i = 1; i < in.size(); ++i) {
    out_dims[static_cast<std::size_t>(axis)] +=
        in[i]->shape().dim(axis);
  }
  TensorF out(Shape{out_dims});

  // Row-major concat: every operand contributes contiguous runs of
  // `inner * its-axis-extent` elements, repeated `outer` times.
  std::int64_t outer = 1;
  for (std::int64_t r = 0; r < axis; ++r) outer *= out_dims[static_cast<std::size_t>(r)];
  std::int64_t inner = 1;
  for (std::int64_t r = axis + 1; r < rank; ++r) {
    inner *= out_dims[static_cast<std::size_t>(r)];
  }
  auto od = out.data();
  std::int64_t out_run = 0;
  for (const TensorF* t : in) out_run += t->shape().dim(axis) * inner;
  std::int64_t base = 0;
  for (const TensorF* t : in) {
    const std::int64_t run = t->shape().dim(axis) * inner;
    auto td = t->data();
    for (std::int64_t o = 0; o < outer; ++o) {
      for (std::int64_t e = 0; e < run; ++e) {
        od[static_cast<std::size_t>(o * out_run + base + e)] =
            td[static_cast<std::size_t>(o * run + e)];
      }
    }
    base += run;
  }
  return out;
}

TensorF run_to_tokens(const Node&, const std::vector<const TensorF*>& in) {
  const TensorF& x = *in[0];
  DRIFT_CHECK(x.shape().rank() == 3, "to_tokens expects [C, H, W]");
  const std::int64_t C = x.shape().dim(0);
  const std::int64_t HW = x.shape().dim(1) * x.shape().dim(2);
  TensorF out(Shape{HW, C});
  for (std::int64_t p = 0; p < HW; ++p) {
    for (std::int64_t c = 0; c < C; ++c) {
      out(p, c) = x.at(c * HW + p);
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Workload exporters.
// ---------------------------------------------------------------------

void export_conv2d(const Node& node, const std::vector<Dims>& in,
                   const Dims& out, std::vector<nn::LayerGemm>& gemms) {
  const std::int64_t k = node.attr_int("kernel", 0);
  const nn::LayerKind kind = node.attr_string("kind", "conv") == "embed"
                                 ? nn::LayerKind::kEmbed
                                 : nn::LayerKind::kConv;
  gemms.push_back(nn::LayerGemm{
      node.name, kind,
      core::GemmDims{out[1] * out[2], in[0][0] * k * k, out[0]},
      /*repeat=*/1, /*kernel=*/k});
}

void export_depthwise_conv2d(const Node& node, const std::vector<Dims>& in,
                             const Dims& out,
                             std::vector<nn::LayerGemm>& gemms) {
  const std::int64_t k = node.attr_int("kernel", 0);
  // M*K*N == OH*OW * k^2 * C: exactly the depthwise MAC count.
  gemms.push_back(nn::LayerGemm{
      node.name, nn::LayerKind::kConv,
      core::GemmDims{out[1] * out[2], k * k, in[0][0]},
      /*repeat=*/1, /*kernel=*/k});
}

void export_linear(const Node& node, const std::vector<Dims>& in,
                   const Dims& out, std::vector<nn::LayerGemm>& gemms) {
  const std::string kind_name = node.attr_string("kind", "fc");
  nn::LayerKind kind = nn::LayerKind::kFc;
  if (kind_name == "ffn") kind = nn::LayerKind::kFfn;
  if (kind_name == "proj") kind = nn::LayerKind::kOutProj;
  if (kind_name == "qkv") kind = nn::LayerKind::kQkvProj;
  if (kind_name == "embed") kind = nn::LayerKind::kEmbed;
  gemms.push_back(nn::LayerGemm{node.name, kind,
                                core::GemmDims{in[0][0], in[0][1], out[1]}});
}

void export_attention(const Node& node, const std::vector<Dims>& in,
                      const Dims&, std::vector<nn::LayerGemm>& gemms) {
  const std::int64_t T = in[0][0];
  const std::int64_t dim = in[0][1];
  const std::int64_t heads = node.attr_int("heads", 1);
  const std::int64_t head_dim = dim / heads;
  // Mirrors nn::add_transformer_block at batch=1, repeat=1 — the same
  // four GEMM shapes under the same name suffixes.
  gemms.push_back(nn::LayerGemm{node.name + ".qkv",
                                nn::LayerKind::kQkvProj,
                                core::GemmDims{T, dim, 3 * dim}});
  gemms.push_back(nn::LayerGemm{node.name + ".score",
                                nn::LayerKind::kAttnScore,
                                core::GemmDims{T, head_dim, T}, heads});
  gemms.push_back(nn::LayerGemm{node.name + ".context",
                                nn::LayerKind::kAttnContext,
                                core::GemmDims{T, T, head_dim}, heads});
  gemms.push_back(nn::LayerGemm{node.name + ".proj",
                                nn::LayerKind::kOutProj,
                                core::GemmDims{T, dim, dim}});
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

const std::map<std::string, OpSpec>& registry() {
  static const std::map<std::string, OpSpec> kOps = {
      {"conv2d",
       {1, 1, infer_conv2d, bind_conv2d, nullptr, export_conv2d}},
      {"depthwise_conv2d",
       {1, 1, infer_depthwise_conv2d, bind_depthwise_conv2d, nullptr,
        export_depthwise_conv2d}},
      {"maxpool2d", {1, 1, infer_pool2d, bind_maxpool2d, nullptr, nullptr}},
      {"avgpool2d", {1, 1, infer_pool2d, bind_avgpool2d, nullptr, nullptr}},
      {"global_avgpool",
       {1, 1, infer_global_avgpool, bind_global_avgpool, nullptr, nullptr}},
      {"mean_pool_tokens",
       {1, 1, infer_mean_pool_tokens, bind_mean_pool_tokens, nullptr,
        nullptr}},
      {"to_tokens",
       {1, 1, infer_to_tokens, nullptr, run_to_tokens, nullptr}},
      {"linear", {1, 1, infer_linear, bind_linear, nullptr, export_linear}},
      {"relu", {1, 1, infer_elementwise, bind_relu, nullptr, nullptr}},
      {"gelu", {1, 1, infer_elementwise, bind_gelu, nullptr, nullptr}},
      {"softmax",
       {1, 1, infer_rank2_same, bind_softmax, nullptr, nullptr}},
      {"layernorm",
       {1, 1, infer_rank2_same, bind_layernorm, nullptr, nullptr}},
      {"batchnorm2d",
       {1, 1, infer_batchnorm2d, bind_batchnorm2d, nullptr, nullptr}},
      {"attention",
       {1, 1, infer_attention, bind_attention, nullptr, export_attention}},
      {"add", {2, 2, infer_add, nullptr, run_add, nullptr}},
      {"concat", {2, -1, infer_concat, nullptr, run_concat, nullptr}},
  };
  return kOps;
}

}  // namespace

const OpSpec* find_op(const std::string& op) {
  const auto& ops = registry();
  const auto it = ops.find(op);
  return it == ops.end() ? nullptr : &it->second;
}

std::string op_names() {
  std::string names;
  for (const auto& [name, spec] : registry()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

ShapeResult infer_shapes(const Graph& g) {
  ShapeResult result;
  result.errors = validate(g);
  if (!result.errors.empty()) return result;

  for (const GraphInput& in : g.inputs) {
    result.by_name[in.name] = in.dims;
  }
  for (const int idx : topological_order(g)) {
    const Node& node = g.nodes[static_cast<std::size_t>(idx)];
    std::vector<Dims> in_dims;
    in_dims.reserve(node.inputs.size());
    bool inputs_known = true;
    for (const std::string& in_name : node.inputs) {
      const auto it = result.by_name.find(in_name);
      if (it == result.by_name.end()) {
        inputs_known = false;  // producer already reported; stay quiet
        break;
      }
      in_dims.push_back(it->second);
    }
    if (!inputs_known) continue;
    const OpSpec* spec = find_op(node.op);
    DRIFT_CHECK(spec != nullptr, "validated graph has unknown op");
    Dims out;
    const std::string err = spec->infer(node, in_dims, out);
    if (!err.empty()) {
      result.errors.push_back("node '" + node.name + "': " + err);
      continue;
    }
    result.by_name[node.name] = out;
  }
  return result;
}

}  // namespace drift::graph
