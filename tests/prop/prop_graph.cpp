// Differential suite for the graph runtime (src/graph):
//
//   1. Random straight-line graphs are bitwise-identical to the
//      equivalent nn::Sequential — at 1, 2, and 8 threads and under
//      the forced-scalar kernel backend — because the executor binds
//      layers in insertion order (same rng stream) and runs the same
//      kernels.
//   2. Random DAGs with residual adds and concats match the naive
//      recursive-evaluation oracle in src/ref/ref_graph bit for bit,
//      and every valid topological order produces the same bytes.
//   3. Per-op shape rules are pinned against independent closed forms
//      (position-counting conv/pool arithmetic, left-padded broadcast,
//      head-split divisibility).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/norm.hpp"
#include "nn/pooling.hpp"
#include "nn/quant_engine.hpp"
#include "nn/simd/kernel_dispatch.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_graph.hpp"
#include "util/thread_pool.hpp"

namespace drift {
namespace {

using graph::Attr;
using graph::AttrMap;
using graph::Dims;

constexpr int kThreadCounts[] = {1, 2, 8};

/// Restores the process-wide pool and the kernel backend on scope exit
/// so a failing property cannot leak state into later tests.
struct BackendGuard {
  bool scalar_before = nn::simd::force_scalar();
  ~BackendGuard() {
    util::ThreadPool::instance().resize(0);
    nn::simd::set_force_scalar(scalar_before);
  }
};

TensorF gen_tensor(Rng& rng, const Dims& dims) {
  std::int64_t n = 1;
  for (const std::int64_t d : dims) n *= d;
  TensorF t(Shape(std::vector<std::int64_t>(dims)),
            proptest::gen_laplace_buffer(rng, n, 0.6));
  return t;
}

proptest::Result expect_bitwise(const TensorF& got, const TensorF& want,
                                const std::string& what) {
  if (got.shape().dims() != want.shape().dims()) {
    return proptest::fail(what, ": shape ",
                          graph::dims_to_string(got.shape().dims()), " vs ",
                          graph::dims_to_string(want.shape().dims()));
  }
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    if (got.at(i) != want.at(i)) {
      return proptest::fail(what, ": differs at flat ", i, ": ", got.at(i),
                            " vs ", want.at(i));
    }
  }
  return proptest::pass();
}

nn::QuantEngine::Config gen_engine_config(Rng& rng) {
  nn::QuantEngine::Config cfg;
  const std::int64_t mode = rng.uniform_int(0, 3);
  cfg.mode = mode == 0   ? nn::QuantMode::kFloat32
             : mode == 1 ? nn::QuantMode::kStaticInt8
             : mode == 2 ? nn::QuantMode::kDrq
                         : nn::QuantMode::kDrift;
  return cfg;
}

// ---------------------------------------------------------------------
// Straight-line chains vs Sequential.
// ---------------------------------------------------------------------

/// One chain step: the graph node to add and the matching hand-built
/// nn layer (constructed later, against a second rng with the same
/// seed, in the same order — the Sequential arm).
struct ChainStep {
  std::string op;
  AttrMap attrs;
};

nn::LayerPtr build_step_layer(const ChainStep& step, const std::string& name,
                              const Dims& in, Rng& rng) {
  const auto attr = [&](const char* key, std::int64_t fallback) {
    const auto it = step.attrs.find(key);
    return it == step.attrs.end() ? fallback : it->second.i;
  };
  if (step.op == "linear") {
    return std::make_unique<nn::Linear>(name, in[1],
                                        attr("out_features", 0), rng);
  }
  if (step.op == "relu") return std::make_unique<nn::ReLU>(name);
  if (step.op == "gelu") return std::make_unique<nn::GELU>(name);
  if (step.op == "softmax") return std::make_unique<nn::Softmax>(name);
  if (step.op == "layernorm") {
    return std::make_unique<nn::LayerNorm>(name, in[1]);
  }
  if (step.op == "attention") {
    return std::make_unique<nn::MultiHeadAttention>(name, in[1],
                                                    attr("heads", 1), rng);
  }
  if (step.op == "conv2d") {
    return std::make_unique<nn::Conv2d>(name, in[0], attr("out_channels", 0),
                                        attr("kernel", 0), attr("stride", 1),
                                        attr("pad", 0), rng);
  }
  if (step.op == "depthwise_conv2d") {
    return std::make_unique<nn::DepthwiseConv2d>(
        name, in[0], attr("kernel", 0), attr("stride", 1), attr("pad", 0),
        rng);
  }
  if (step.op == "maxpool2d") {
    return std::make_unique<nn::MaxPool2d>(name, attr("kernel", 0),
                                           attr("stride", attr("kernel", 0)));
  }
  if (step.op == "avgpool2d") {
    return std::make_unique<nn::AvgPool2d>(name, attr("kernel", 0),
                                           attr("stride", attr("kernel", 0)));
  }
  if (step.op == "batchnorm2d") {
    return std::make_unique<nn::BatchNorm2d>(name, in[0]);
  }
  if (step.op == "global_avgpool") {
    return std::make_unique<nn::GlobalAvgPool>(name);
  }
  if (step.op == "mean_pool_tokens") {
    return std::make_unique<nn::MeanPoolTokens>(name);
  }
  return nullptr;
}

/// Runs the chain through both arms under every thread count (and once
/// forced-scalar), comparing bitwise.  The two arms consume two rng
/// streams seeded identically, in the same construction order.
proptest::Result check_chain(const std::vector<ChainStep>& steps,
                             const Dims& input_dims,
                             const nn::QuantEngine::Config& engine_cfg,
                             std::uint64_t model_seed, Rng& data_rng) {
  graph::GraphBuilder builder("chain", "vit");
  builder.input("x", std::vector<std::int64_t>(input_dims));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    builder.then("n" + std::to_string(i), steps[i].op, steps[i].attrs);
  }
  Rng graph_rng(model_seed);
  graph::GraphExecutor executor(builder.build(), graph_rng);

  Rng seq_rng(model_seed);
  nn::Sequential sequential("seq");
  Dims cur = input_dims;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::string name = "n" + std::to_string(i);
    auto layer = build_step_layer(steps[i], name, cur, seq_rng);
    if (layer == nullptr) {
      return proptest::fail("unhandled chain op ", steps[i].op);
    }
    sequential.add(std::move(layer));
    cur = executor.shapes().by_name.at(name);
  }

  const TensorF input = gen_tensor(data_rng, input_dims);
  BackendGuard guard;
  TensorF first_graph_out(Shape{1});
  bool have_first = false;
  for (const int threads : kThreadCounts) {
    util::ThreadPool::instance().resize(threads);
    nn::QuantEngine graph_engine(engine_cfg);
    nn::QuantEngine seq_engine(engine_cfg);
    const TensorF want = sequential.forward(input, seq_engine);
    const TensorF got = executor.run({input}, graph_engine).front();
    auto r = expect_bitwise(got, want,
                            "graph vs Sequential at " +
                                std::to_string(threads) + " thread(s)");
    if (r.has_value()) return r;
    if (have_first) {
      r = expect_bitwise(got, first_graph_out, "graph thread invariance");
      if (r.has_value()) return r;
    } else {
      first_graph_out = got;
      have_first = true;
    }
  }
  util::ThreadPool::instance().resize(0);
  nn::simd::set_force_scalar(true);
  nn::QuantEngine graph_engine(engine_cfg);
  nn::QuantEngine seq_engine(engine_cfg);
  const TensorF want = sequential.forward(input, seq_engine);
  const TensorF got = executor.run({input}, graph_engine).front();
  return expect_bitwise(got, want, "graph vs Sequential forced-scalar");
}

TEST(PropGraph, TokenChainBitwiseEqualsSequentialAcrossThreads) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t tokens = proptest::gen_dim(rng, size);
    std::int64_t dim = proptest::gen_dim(rng, size, 2);
    std::vector<ChainStep> steps;
    const std::int64_t len = rng.uniform_int(1, 2 + size / 3);
    Dims cur = {tokens, dim};
    for (std::int64_t i = 0; i < len; ++i) {
      const std::int64_t pick = rng.uniform_int(0, 5);
      ChainStep step;
      if (pick == 0) {
        step.op = "linear";
        const std::int64_t out = proptest::gen_dim(rng, size);
        step.attrs.emplace("out_features", Attr::of_int(out));
        step.attrs.emplace("kind", Attr::of_string("ffn"));
        cur[1] = out;
      } else if (pick == 1) {
        step.op = "relu";
      } else if (pick == 2) {
        step.op = "gelu";
      } else if (pick == 3) {
        step.op = "softmax";
      } else if (pick == 4) {
        step.op = "layernorm";
      } else {
        // Attention needs dim % heads == 0; pick a divisor.
        std::vector<std::int64_t> divisors;
        for (std::int64_t h = 1; h <= cur[1] && h <= 4; ++h) {
          if (cur[1] % h == 0) divisors.push_back(h);
        }
        step.op = "attention";
        step.attrs.emplace(
            "heads",
            Attr::of_int(divisors[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(divisors.size()) - 1))]));
      }
      steps.push_back(std::move(step));
    }
    return check_chain(steps, {tokens, dim}, gen_engine_config(rng),
                       rng.uniform_int(1, 1 << 20), rng);
  });
}

TEST(PropGraph, CnnChainBitwiseEqualsSequentialAcrossThreads) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const Dims input_dims = {rng.uniform_int(1, 3),
                             rng.uniform_int(3, 4 + size),
                             rng.uniform_int(3, 4 + size)};
    Dims cur = input_dims;
    std::vector<ChainStep> steps;
    const std::int64_t len = rng.uniform_int(1, 2 + size / 4);
    for (std::int64_t i = 0; i < len; ++i) {
      const std::int64_t pick = rng.uniform_int(0, 5);
      ChainStep step;
      if (pick == 0 || pick == 1) {
        const std::int64_t k = rng.uniform_int(1, 3);
        const std::int64_t s = rng.uniform_int(1, 2);
        const std::int64_t p = rng.uniform_int(0, 1);
        const std::int64_t oh = ref::conv_positions(cur[1], k, s, p);
        const std::int64_t ow = ref::conv_positions(cur[2], k, s, p);
        if (oh <= 0 || ow <= 0) continue;
        if (pick == 0) {
          step.op = "conv2d";
          const std::int64_t out_ch = rng.uniform_int(1, 4);
          step.attrs.emplace("out_channels", Attr::of_int(out_ch));
          cur[0] = out_ch;
        } else {
          step.op = "depthwise_conv2d";
        }
        step.attrs.emplace("kernel", Attr::of_int(k));
        if (s != 1) step.attrs.emplace("stride", Attr::of_int(s));
        if (p != 0) step.attrs.emplace("pad", Attr::of_int(p));
        cur[1] = oh;
        cur[2] = ow;
      } else if (pick == 2 || pick == 3) {
        const std::int64_t k =
            rng.uniform_int(1, std::min<std::int64_t>(3, cur[1]));
        const std::int64_t s = rng.uniform_int(1, 2);
        const std::int64_t oh = ref::pool_positions(cur[1], k, s);
        const std::int64_t ow = ref::pool_positions(cur[2], k, s);
        if (oh <= 0 || ow <= 0) continue;
        step.op = pick == 2 ? "maxpool2d" : "avgpool2d";
        step.attrs.emplace("kernel", Attr::of_int(k));
        step.attrs.emplace("stride", Attr::of_int(s));
        cur[1] = oh;
        cur[2] = ow;
      } else if (pick == 4) {
        step.op = "batchnorm2d";
      } else {
        step.op = "relu";
      }
      steps.push_back(std::move(step));
    }
    if (steps.empty()) steps.push_back(ChainStep{"relu", {}});
    return check_chain(steps, input_dims, gen_engine_config(rng),
                       rng.uniform_int(1, 1 << 20), rng);
  });
}

// ---------------------------------------------------------------------
// Random DAGs vs the recursive oracle; order invariance.
// ---------------------------------------------------------------------

/// One DAG value in the oracle's plain-vector representation.
struct RefVal {
  std::vector<float> data;
  Dims dims;
};

/// Node shape in the generated DAG.
struct DagNode {
  std::string op;
  std::vector<int> operands;  ///< value ids: inputs first, then nodes
  std::int64_t axis = 0;      ///< concat only
};

RefVal eval_ref_node(const DagNode& node,
                     const std::vector<const RefVal*>& args) {
  RefVal out;
  if (node.op == "relu" || node.op == "gelu") {
    out.dims = args[0]->dims;
    out.data.reserve(args[0]->data.size());
    for (const float v : args[0]->data) {
      out.data.push_back(node.op == "relu" ? ref::ref_relu(v)
                                           : ref::ref_gelu(v));
    }
    return out;
  }
  if (node.op == "softmax") {
    out.dims = args[0]->dims;
    const std::int64_t cols = out.dims[1];
    for (std::int64_t r = 0; r * cols <
         static_cast<std::int64_t>(args[0]->data.size()); ++r) {
      const auto row = ref::ref_softmax_row(
          std::span<const float>(args[0]->data)
              .subspan(static_cast<std::size_t>(r * cols),
                       static_cast<std::size_t>(cols)));
      out.data.insert(out.data.end(), row.begin(), row.end());
    }
    return out;
  }
  if (node.op == "add") {
    out.dims = ref::broadcast_shape(args[0]->dims, args[1]->dims);
    out.data = ref::ref_broadcast_add(args[0]->data, args[0]->dims,
                                      args[1]->data, args[1]->dims);
    return out;
  }
  // concat
  std::vector<std::vector<float>> parts;
  std::vector<Dims> dims;
  for (const RefVal* a : args) {
    parts.push_back(a->data);
    dims.push_back(a->dims);
  }
  out.data = ref::ref_concat(parts, dims, node.axis);
  out.dims = dims[0];
  for (std::size_t i = 1; i < dims.size(); ++i) {
    out.dims[static_cast<std::size_t>(node.axis)] +=
        dims[i][static_cast<std::size_t>(node.axis)];
  }
  return out;
}

/// Every valid topological order of `g`, capped at `limit`
/// (enumeration is factorial; the DAGs here are small).  Depth first,
/// branching over the ready nodes in index order.
std::vector<std::vector<int>> all_topological_orders(const graph::Graph& g,
                                                     std::size_t limit) {
  const std::size_t total = g.nodes.size();
  std::vector<std::vector<int>> consumers(total);
  std::vector<int> indegree(total, 0);
  for (std::size_t n = 0; n < total; ++n) {
    for (const std::string& in : g.nodes[n].inputs) {
      const int p = g.node_index(in);
      if (p < 0) continue;  // a graph input
      consumers[static_cast<std::size_t>(p)].push_back(static_cast<int>(n));
      ++indegree[n];
    }
  }
  std::vector<std::vector<int>> out;
  std::vector<int> prefix;
  const std::function<void()> extend = [&] {
    if (prefix.size() == total) {
      out.push_back(prefix);
      return;
    }
    for (std::size_t n = 0; n < total && out.size() < limit; ++n) {
      if (indegree[n] != 0) continue;
      indegree[n] = -1;  // placed
      prefix.push_back(static_cast<int>(n));
      for (const int c : consumers[n]) --indegree[static_cast<std::size_t>(c)];
      extend();
      for (const int c : consumers[n]) ++indegree[static_cast<std::size_t>(c)];
      prefix.pop_back();
      indegree[n] = 0;
    }
  };
  extend();
  return out;
}

TEST(PropGraph, DagBitwiseMatchesRecursiveOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t rows = proptest::gen_dim(rng, size);
    const std::int64_t cols = proptest::gen_dim(rng, size);
    // Two graph inputs: a matrix and a broadcastable bias row.
    std::vector<Dims> shapes = {{rows, cols}, {cols}};
    const int num_inputs = 2;
    std::vector<DagNode> nodes;
    const std::int64_t count = rng.uniform_int(2, 3 + size / 2);
    for (std::int64_t i = 0; i < count; ++i) {
      const int total = num_inputs + static_cast<int>(nodes.size());
      const auto pick_value = [&](auto&& keep) {
        std::vector<int> candidates;
        for (int v = 0; v < total; ++v) {
          if (keep(shapes[static_cast<std::size_t>(v)])) {
            candidates.push_back(v);
          }
        }
        return candidates;
      };
      const auto any_rank2 =
          pick_value([](const Dims& d) { return d.size() == 2; });
      DagNode node;
      const std::int64_t pick = rng.uniform_int(0, 4);
      if (pick <= 1) {
        node.op = pick == 0 ? "relu" : "gelu";
        node.operands = {static_cast<int>(rng.uniform_int(0, total - 1))};
      } else if (pick == 2) {
        node.op = "softmax";
        node.operands = {any_rank2[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(any_rank2.size()) - 1))]};
      } else if (pick == 3) {
        // add: a rank-2 value plus either a same-shape rank-2 value or
        // the broadcastable row.
        const int a = any_rank2[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(any_rank2.size()) - 1))];
        const Dims& da = shapes[static_cast<std::size_t>(a)];
        const auto same = pick_value([&](const Dims& d) { return d == da; });
        int b;
        if (rng.bernoulli(0.3) && da[1] == cols) {
          b = 1;  // the [cols] bias input
        } else {
          b = same[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(same.size()) - 1))];
        }
        node.op = "add";
        node.operands = rng.bernoulli(0.5) ? std::vector<int>{a, b}
                                           : std::vector<int>{b, a};
      } else {
        // concat 2..3 same-shape rank-2 values along a random axis.
        const int a = any_rank2[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(any_rank2.size()) - 1))];
        const Dims& da = shapes[static_cast<std::size_t>(a)];
        const auto same = pick_value([&](const Dims& d) { return d == da; });
        const std::int64_t parts = rng.uniform_int(2, 3);
        node.op = "concat";
        node.axis = rng.uniform_int(0, 1);
        for (std::int64_t p = 0; p < parts; ++p) {
          node.operands.push_back(same[static_cast<std::size_t>(
              rng.uniform_int(0,
                              static_cast<std::int64_t>(same.size()) - 1))]);
        }
      }
      // Compute the node's shape for the tracking table.
      Dims out_dims;
      if (node.op == "add") {
        out_dims = ref::broadcast_shape(
            shapes[static_cast<std::size_t>(node.operands[0])],
            shapes[static_cast<std::size_t>(node.operands[1])]);
      } else if (node.op == "concat") {
        out_dims = shapes[static_cast<std::size_t>(node.operands[0])];
        for (std::size_t p = 1; p < node.operands.size(); ++p) {
          out_dims[static_cast<std::size_t>(node.axis)] +=
              shapes[static_cast<std::size_t>(node.operands[p])]
                    [static_cast<std::size_t>(node.axis)];
        }
      } else {
        out_dims = shapes[static_cast<std::size_t>(node.operands[0])];
      }
      shapes.push_back(out_dims);
      nodes.push_back(std::move(node));
    }

    // Build the graph: every node is also a graph output so the oracle
    // comparison covers every intermediate.
    graph::Graph g;
    g.name = "dag";
    g.family = "bert";
    g.inputs.push_back(graph::GraphInput{"x", {rows, cols}});
    g.inputs.push_back(graph::GraphInput{"bias", {cols}});
    const auto value_name = [&](int id) {
      if (id == 0) return std::string("x");
      if (id == 1) return std::string("bias");
      return "v" + std::to_string(id - num_inputs);
    };
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      graph::Node gn;
      gn.name = "v" + std::to_string(n);
      gn.op = nodes[n].op;
      for (const int id : nodes[n].operands) gn.inputs.push_back(value_name(id));
      if (nodes[n].op == "concat" && nodes[n].axis != 0) {
        gn.attrs.emplace("axis", Attr::of_int(nodes[n].axis));
      }
      g.nodes.push_back(std::move(gn));
      g.outputs.push_back("v" + std::to_string(n));
    }

    Rng bind_rng(1);
    graph::GraphExecutor executor(g, bind_rng);
    const TensorF x = gen_tensor(rng, {rows, cols});
    const TensorF bias = gen_tensor(rng, {cols});
    nn::QuantEngine engine(nn::QuantEngine::Config{});
    const auto got = executor.run({x, bias}, engine);

    // Oracle: demand-driven recursive evaluation over plain vectors.
    std::vector<std::vector<int>> producers;
    for (const DagNode& n : nodes) producers.push_back(n.operands);
    std::vector<RefVal> inputs(2);
    inputs[0].dims = {rows, cols};
    inputs[0].data.assign(x.data().begin(), x.data().end());
    inputs[1].dims = {cols};
    inputs[1].data.assign(bias.data().begin(), bias.data().end());
    const auto values = ref::recursive_eval<RefVal>(
        producers, inputs,
        [&](std::size_t n, const std::vector<const RefVal*>& args) {
          return eval_ref_node(nodes[n], args);
        });

    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const RefVal& want = values[static_cast<std::size_t>(num_inputs) + n];
      const TensorF& have = got[n];
      if (have.shape().dims() != want.dims) {
        return proptest::fail("node v", n, " shape mismatch vs oracle");
      }
      for (std::int64_t i = 0; i < have.numel(); ++i) {
        if (have.at(i) != want.data[static_cast<std::size_t>(i)]) {
          return proptest::fail("node v", n, " (", nodes[n].op,
                                ") differs from recursive oracle at flat ",
                                i, ": ", have.at(i), " vs ",
                                want.data[static_cast<std::size_t>(i)]);
        }
      }
    }

    // Order invariance: every valid topological order (capped) must
    // produce the same bytes.
    const auto orders = all_topological_orders(g, 24);
    for (const auto& order : orders) {
      const auto reordered = executor.run_with_order({x, bias}, engine, order);
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        auto r = expect_bitwise(reordered[n], got[n],
                                "topological-order invariance, node v" +
                                    std::to_string(n));
        if (r.has_value()) return r;
      }
    }
    return proptest::pass();
  });
}

// ---------------------------------------------------------------------
// Shape rules vs independent closed forms.
// ---------------------------------------------------------------------

TEST(PropGraph, ConvAndPoolShapesMatchPositionCountingOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t in_h = rng.uniform_int(1, 4 + size);
    const std::int64_t in_w = rng.uniform_int(1, 4 + size);
    const std::int64_t k = rng.uniform_int(1, 6);
    const std::int64_t s = rng.uniform_int(1, 4);
    const std::int64_t p = rng.uniform_int(0, 3);

    // conv2d.
    {
      graph::Node node;
      node.name = "c";
      node.op = "conv2d";
      node.attrs.emplace("out_channels", Attr::of_int(5));
      node.attrs.emplace("kernel", Attr::of_int(k));
      node.attrs.emplace("stride", Attr::of_int(s));
      node.attrs.emplace("pad", Attr::of_int(p));
      Dims out;
      const std::string err =
          graph::find_op("conv2d")->infer(node, {{3, in_h, in_w}}, out);
      const std::int64_t oh = ref::conv_positions(in_h, k, s, p);
      const std::int64_t ow = ref::conv_positions(in_w, k, s, p);
      if (oh <= 0 || ow <= 0) {
        if (err.empty()) {
          return proptest::fail("conv2d accepted a shape the oracle "
                                "rejects: in=", in_h, "x", in_w, " k=", k,
                                " s=", s, " p=", p);
        }
      } else {
        if (!err.empty()) {
          return proptest::fail("conv2d rejected a valid shape: ", err);
        }
        if (out != Dims{5, oh, ow}) {
          return proptest::fail("conv2d shape ", graph::dims_to_string(out),
                                " vs oracle [5, ", oh, ", ", ow, "]");
        }
      }
    }

    // pool (stride defaults to kernel when the attr is absent).
    {
      const bool explicit_stride = rng.bernoulli(0.5);
      graph::Node node;
      node.name = "p";
      node.op = rng.bernoulli(0.5) ? "maxpool2d" : "avgpool2d";
      node.attrs.emplace("kernel", Attr::of_int(k));
      if (explicit_stride) node.attrs.emplace("stride", Attr::of_int(s));
      Dims out;
      const std::string err =
          graph::find_op(node.op)->infer(node, {{3, in_h, in_w}}, out);
      const std::int64_t eff_s = explicit_stride ? s : k;
      const std::int64_t oh = ref::pool_positions(in_h, k, eff_s);
      const std::int64_t ow = ref::pool_positions(in_w, k, eff_s);
      if (oh <= 0 || ow <= 0) {
        if (err.empty()) {
          return proptest::fail(node.op, " accepted a shape the oracle "
                                "rejects");
        }
      } else if (!err.empty()) {
        return proptest::fail(node.op, " rejected a valid shape: ", err);
      } else if (out != Dims{3, oh, ow}) {
        return proptest::fail(node.op, " shape ",
                              graph::dims_to_string(out), " vs oracle [3, ",
                              oh, ", ", ow, "]");
      }
    }
    return proptest::pass();
  });
}

TEST(PropGraph, BroadcastRuleMatchesLeftPaddedOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    (void)size;
    const auto gen_shape = [&rng]() {
      Dims d(static_cast<std::size_t>(rng.uniform_int(1, 4)));
      for (auto& v : d) {
        v = rng.bernoulli(0.4) ? 1 : rng.uniform_int(2, 5);
      }
      return d;
    };
    const Dims a = gen_shape();
    const Dims b = gen_shape();
    Dims got;
    const std::string err = graph::broadcast_dims(a, b, got);
    const Dims want = ref::broadcast_shape(a, b);
    if (want.empty()) {
      if (err.empty()) {
        return proptest::fail("broadcast_dims accepted ",
                              graph::dims_to_string(a), " + ",
                              graph::dims_to_string(b),
                              " which the oracle rejects");
      }
      return proptest::pass();
    }
    if (!err.empty()) {
      return proptest::fail("broadcast_dims rejected ",
                            graph::dims_to_string(a), " + ",
                            graph::dims_to_string(b), ": ", err);
    }
    if (got != want) {
      return proptest::fail("broadcast ", graph::dims_to_string(got),
                            " vs oracle ", graph::dims_to_string(want));
    }
    return proptest::pass();
  });
}

TEST(PropGraph, AttentionHeadSplitMatchesDivisibilityOracle) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::int64_t tokens = proptest::gen_dim(rng, size);
    const std::int64_t dim = proptest::gen_dim(rng, size);
    const std::int64_t heads = rng.uniform_int(1, 5);
    graph::Node node;
    node.name = "a";
    node.op = "attention";
    node.attrs.emplace("heads", Attr::of_int(heads));
    Dims out;
    const std::string err =
        graph::find_op("attention")->infer(node, {{tokens, dim}}, out);
    if (ref::head_split_ok(dim, heads)) {
      if (!err.empty()) {
        return proptest::fail("attention rejected dim=", dim,
                              " heads=", heads, ": ", err);
      }
      if (out != Dims{tokens, dim}) {
        return proptest::fail("attention shape ",
                              graph::dims_to_string(out));
      }
    } else if (err.empty()) {
      return proptest::fail("attention accepted dim=", dim,
                            " heads=", heads,
                            " which does not split evenly");
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
