#include "graph/ops.hpp"

#include <algorithm>

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
  // Pooling takes no padding (matching nn::MaxPool2d).
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
// Workload exporters.
// ---------------------------------------------------------------------

/// The layer kind a GEMM node exports as: its `kind` attribute (the
/// op's default when absent) mapped through the op's table, the one
/// validation checks the value against.
nn::LayerKind layer_kind(const Node& node) {
  const std::vector<KindName>& kinds = find_op(node.op)->kinds;
  const std::string name = node.attr_string("kind", kinds.front().name);
  for (const KindName& k : kinds) {
    if (name == k.name) return k.kind;
  }
  throw check_error("validated node '" + node.name + "' has unknown kind '" +
                    name + "'");
}

void export_conv2d(const Node& node, const std::vector<Dims>& in,
                   const Dims& out, std::vector<nn::LayerGemm>& gemms) {
  const std::int64_t k = node.attr_int("kernel", 0);
  gemms.push_back(nn::LayerGemm{
      node.name, layer_kind(node),
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
  gemms.push_back(nn::LayerGemm{node.name, layer_kind(node),
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
  constexpr Attr::Kind kInt = Attr::Kind::kInt;
  constexpr Attr::Kind kString = Attr::Kind::kString;
  static const std::map<std::string, OpSpec> kOps = {
      {"conv2d",
       {1, 1,
        {{"kernel", kInt}, {"kind", kString}, {"out_channels", kInt},
         {"pad", kInt}, {"stride", kInt}},
        {{"conv", nn::LayerKind::kConv}, {"embed", nn::LayerKind::kEmbed}},
        infer_conv2d, export_conv2d}},
      {"depthwise_conv2d",
       {1, 1, {{"kernel", kInt}, {"pad", kInt}, {"stride", kInt}}, {},
        infer_depthwise_conv2d, export_depthwise_conv2d}},
      {"maxpool2d",
       {1, 1, {{"kernel", kInt}, {"stride", kInt}}, {}, infer_pool2d}},
      {"avgpool2d",
       {1, 1, {{"kernel", kInt}, {"stride", kInt}}, {}, infer_pool2d}},
      {"global_avgpool", {1, 1, {}, {}, infer_global_avgpool}},
      {"mean_pool_tokens", {1, 1, {}, {}, infer_mean_pool_tokens}},
      {"to_tokens", {1, 1, {}, {}, infer_to_tokens}},
      {"linear",
       {1, 1, {{"kind", kString}, {"out_features", kInt}},
        {{"fc", nn::LayerKind::kFc},
         {"ffn", nn::LayerKind::kFfn},
         {"proj", nn::LayerKind::kOutProj},
         {"qkv", nn::LayerKind::kQkvProj},
         {"embed", nn::LayerKind::kEmbed}},
        infer_linear, export_linear}},
      {"relu", {1, 1, {}, {}, infer_elementwise}},
      {"gelu", {1, 1, {}, {}, infer_elementwise}},
      {"softmax", {1, 1, {}, {}, infer_rank2_same}},
      {"layernorm", {1, 1, {}, {}, infer_rank2_same}},
      {"batchnorm2d", {1, 1, {}, {}, infer_batchnorm2d}},
      {"attention",
       {1, 1, {{"heads", kInt}}, {}, infer_attention, export_attention}},
      {"add", {2, 2, {}, {}, infer_add}},
      {"concat", {2, -1, {{"axis", kInt}}, {}, infer_concat}},
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
