// Differential suite for the graph runtime's shape rules (src/graph):
// per-op shape rules are pinned against independent closed forms in
// src/ref/ref_graph (position-counting conv/pool arithmetic,
// left-padded broadcast, head-split divisibility).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "proptest/proptest_gtest.hpp"
#include "ref/ref_graph.hpp"

namespace drift {
namespace {

using graph::Attr;
using graph::Dims;

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
