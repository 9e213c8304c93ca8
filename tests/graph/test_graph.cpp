// Graph-runtime structural tests (label: graph):
//   - every malformed-graph class fails validation with the offending
//     node named in the message (the CLI surfaces these verbatim): a
//     mistyped or unknown attribute and an unknown `kind` value name
//     the node, the attribute and the op's valid choices, an unknown
//     family names the graph, and every committed
//     examples/model_zoo/*.json file validates clean;
//   - JSON topology schema errors name the node; deep nesting is a
//     byte-offset parse error and \u escapes parse;
//   - the resnet18 zoo file exports exactly the GEMM list the
//     hand-written nn::make_resnet18() emits, index for index, and the
//     transformer zoo files share their twins' per-token GEMM shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "builder.hpp"
#include "graph/graph.hpp"
#include "graph/json_topology.hpp"
#include "graph/ops.hpp"
#include "graph/workload_export.hpp"
#include "nn/workload.hpp"
#include "pipeline.hpp"
#include "zoo_files.hpp"

namespace drift {
namespace {

using graph::AttrMap;
using graph::Attr;
using graph::Graph;
using graph::GraphBuilder;

/// True when some validation error mentions both fragments (the node
/// name and the reason) — the tests pin that failures are actionable.
bool has_error_mentioning(const std::vector<std::string>& errors,
                          const std::string& node,
                          const std::string& reason) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const std::string& e) {
                       return e.find("'" + node + "'") != std::string::npos &&
                              e.find(reason) != std::string::npos;
                     });
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += s + "\n";
  return out;
}

// --------------------------------------------------------------------
// Negative validation: each malformed-graph class names its node.
// --------------------------------------------------------------------

TEST(GraphValidate, DuplicateNodeNameIsNamed) {
  Graph g = GraphBuilder("dup")
                .input("x", {4, 4})
                .then("a", "relu")
                .then("a", "relu")
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "duplicate name"))
      << join(errors);
}

TEST(GraphValidate, UnknownOpIsNamedAndListsKnownOps) {
  Graph g = GraphBuilder("unknown")
                .input("x", {4, 4})
                .then("a", "conv3d")
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "unknown op 'conv3d'"))
      << join(errors);
  // The message enumerates the registry so typos are self-correcting.
  EXPECT_TRUE(has_error_mentioning(errors, "a", "conv2d")) << join(errors);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "softmax")) << join(errors);
}

TEST(GraphValidate, DanglingInputIsNamed) {
  Graph g = GraphBuilder("dangling")
                .input("x", {4, 4})
                .node("a", "add", {"x", "ghost"})
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(
      errors, "a", "input 'ghost' is neither a graph input nor a node"))
      << join(errors);
}

TEST(GraphValidate, CycleIsNamed) {
  Graph g = GraphBuilder("cycle")
                .input("x", {4, 4})
                .node("a", "add", {"x", "b"})
                .node("b", "relu", {"a"})
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "dependency cycle"))
      << join(errors);
}

TEST(GraphValidate, ArityMismatchIsNamed) {
  Graph g = GraphBuilder("arity")
                .input("x", {4, 4})
                .node("a", "add", {"x"})
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(errors, "a", "expects 2 input(s), got 1"))
      << join(errors);
}

TEST(GraphValidate, UndefinedOutputIsNamed) {
  Graph g = GraphBuilder("badout")
                .input("x", {4, 4})
                .then("a", "relu")
                .output("nowhere")
                .build();
  const auto errors = graph::validate(g);
  EXPECT_TRUE(has_error_mentioning(
      errors, "nowhere", "declared as graph output but never defined"))
      << join(errors);
}

TEST(GraphValidate, ShapeMismatchIsNamedByInference) {
  // Structurally valid, shape-invalid: conv2d needs a rank-3 [C, H, W]
  // input but gets the rank-2 matrix.
  Graph g = GraphBuilder("badshape")
                .input("x", {4, 4})
                .then("a", "conv2d",
                      AttrMap{{"out_channels", Attr::of_int(8)},
                              {"kernel", Attr::of_int(3)}})
                .build();
  ASSERT_TRUE(graph::validate(g).empty());
  const auto shapes = graph::infer_shapes(g);
  ASSERT_FALSE(shapes.ok());
  EXPECT_TRUE(has_error_mentioning(shapes.errors, "a", "")) <<
      join(shapes.errors);
}

TEST(GraphValidate, ZooGraphsAreClean) {
  // Every committed file, so a new one is covered without code.
  const std::vector<std::string> stems = zoo_files::stems();
  ASSERT_FALSE(stems.empty());
  for (const std::string& stem : stems) {
    const Graph g = zoo_files::load(stem);
    EXPECT_EQ(g.name, stem);
    EXPECT_TRUE(graph::validate(g).empty()) << stem;
    EXPECT_TRUE(graph::infer_shapes(g).ok()) << stem;
  }
}

/// The committed zoo file `stem` with its first `from` replaced by `to`.
std::string edited_zoo_text(const std::string& stem, const std::string& from,
                            const std::string& to) {
  std::ifstream in(zoo_files::path(stem), std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  std::string text = os.str();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Validation and shape inference of an edited zoo file: both return
/// the same errors (inference validates first), and neither throws.
std::vector<std::string> edited_zoo_errors(const std::string& stem,
                                           const std::string& from,
                                           const std::string& to) {
  const auto parsed =
      graph::parse_topology(edited_zoo_text(stem, from, to));
  EXPECT_TRUE(parsed.ok()) << join(parsed.errors);
  const std::vector<std::string> errors = graph::validate(parsed.graph);
  EXPECT_EQ(graph::infer_shapes(parsed.graph).errors, errors);
  return errors;
}

TEST(GraphValidate, MistypedAttributeNamesNodeAndAttribute) {
  // The first two once passed validation and then threw "attribute is
  // not an integer" (or a string) naming neither, from shape inference
  // or the export.  The others once passed validation and ran on the
  // op's default: a stride of 1 (conv1 came out [64, 224, 224]), the
  // fc and conv layer kinds, and nothing for relu, which reads no
  // attribute.
  EXPECT_EQ(edited_zoo_errors("resnet18", "\"kernel\": 7,",
                              "\"kernel\": \"7\","),
            std::vector<std::string>{
                "node 'conv1': attribute 'kernel' must be an integer"});
  EXPECT_EQ(edited_zoo_errors("resnet18", "\"kind\": \"fc\"", "\"kind\": 3"),
            std::vector<std::string>{
                "node 'fc': attribute 'kind' must be a string"});
  EXPECT_EQ(edited_zoo_errors("resnet18", "\"stride\": 2}", "\"strid\": 2}"),
            std::vector<std::string>{
                "node 'conv1': unknown attribute 'strid' (valid for conv2d: "
                "kernel, kind, out_channels, pad, stride)"});
  EXPECT_EQ(edited_zoo_errors("resnet18", "\"kind\": \"fc\"",
                              "\"kind\": \"fcx\""),
            std::vector<std::string>{
                "node 'fc': attribute 'kind' has unknown value 'fcx' "
                "(valid for linear: fc, ffn, proj, qkv, embed)"});
  EXPECT_EQ(edited_zoo_errors("resnet18", "\"kernel\": 7,",
                              "\"kind\": \"ffn\", \"kernel\": 7,"),
            std::vector<std::string>{
                "node 'conv1': attribute 'kind' has unknown value 'ffn' "
                "(valid for conv2d: conv, embed)"});
  EXPECT_EQ(edited_zoo_errors(
                "resnet18", "\"inputs\": [\"bn1\"]}",
                "\"inputs\": [\"bn1\"], \"attrs\": {\"axis\": 0}}"),
            std::vector<std::string>{"node 'relu1': unknown attribute "
                                     "'axis' (valid for relu: none)"});
}

TEST(GraphValidate, FractionalAttributeIsAParseErrorNamingIt) {
  for (const auto& [stem, from, to, node, attr] :
       {std::tuple{"resnet18", "\"kernel\": 7,", "\"kernel\": 7.5,", "conv1",
                   "kernel"},
        std::tuple{"vit_b16", "\"heads\": 12}", "\"heads\": 12.0}",
                   "block0.attn", "heads"}}) {
    const auto parsed = graph::parse_topology(edited_zoo_text(stem, from, to));
    EXPECT_EQ(parsed.errors,
              std::vector<std::string>{std::string("node '") + node +
                                       "': attribute '" + attr +
                                       "' must be an integer"})
        << stem;
  }
}

TEST(GraphValidate, UnknownFamilyIsNamed) {
  // This once passed validation, and the export threw.
  EXPECT_EQ(edited_zoo_errors("resnet18", "\"family\": \"cnn\"",
                              "\"family\": \"cnnx\""),
            std::vector<std::string>{
                "graph 'resnet18': unknown family 'cnnx' "
                "(valid: cnn, vit, bert, llm)"});
}

// --------------------------------------------------------------------
// JSON topology: schema and syntax errors.
// --------------------------------------------------------------------

TEST(GraphJson, ParseErrorsNameTheNode) {
  const auto parsed = graph::parse_topology(
      R"({"name": "t", "family": "cnn",
          "inputs": [{"name": "x", "shape": [4, 4]}],
          "nodes": [{"name": "a", "op": "relu", "inputs": 3}],
          "outputs": ["a"]})");
  // Schema errors are node-named.
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(has_error_mentioning(parsed.errors, "a",
                                   "'inputs' must be an array"))
      << join(parsed.errors);
}

TEST(GraphJson, DeepNestingIsAParseErrorWithAByteOffset) {
  // 200k open brackets once overflowed the stack of a reader without a
  // depth cap; the cap turns them into an error at the 65th bracket.
  const auto parsed = graph::parse_topology(std::string(200000, '['));
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_EQ(parsed.errors[0],
            "JSON error at byte 64: nesting deeper than 64 levels");
}

TEST(GraphJson, UnicodeEscapeIsAccepted) {
  const auto parsed = graph::parse_topology(
      "{\"name\": \"t\\u0041\", \"inputs\": [{\"name\": \"x\", \"shape\": "
      "[4]}], \"nodes\": [{\"name\": \"a\", \"op\": \"relu\", \"inputs\": "
      "[\"x\"]}], \"outputs\": [\"a\"]}");
  ASSERT_TRUE(parsed.ok()) << join(parsed.errors);
  EXPECT_EQ(parsed.graph.name, "tA");
}

// --------------------------------------------------------------------
// Workload export: the zoo resnet18 file reproduces make_resnet18().
// --------------------------------------------------------------------

TEST(GraphExport, Resnet18MatchesHandWrittenWorkload) {
  const Graph g = zoo_files::load("resnet18");
  const auto shapes = graph::infer_shapes(g);
  ASSERT_TRUE(shapes.ok());
  const nn::WorkloadSpec got = graph::to_workload(g, shapes);
  const nn::WorkloadSpec want = nn::make_resnet18();

  EXPECT_EQ(got.family, want.family);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    const nn::LayerGemm& a = got.layers[i];
    const nn::LayerGemm& b = want.layers[i];
    EXPECT_EQ(a.name, b.name) << "layer " << i;
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.dims.M, b.dims.M) << a.name;
    EXPECT_EQ(a.dims.K, b.dims.K) << a.name;
    EXPECT_EQ(a.dims.N, b.dims.N) << a.name;
    EXPECT_EQ(a.repeat, b.repeat) << a.name;
    EXPECT_EQ(a.kernel, b.kernel) << a.name;
  }
  EXPECT_EQ(got.total_macs(), want.total_macs());
}

/// Same GEMM kind, K and N (the weight shape of a projection).
void expect_same_kind_k_n(const nn::LayerGemm& zoo,
                          const nn::LayerGemm& paper) {
  EXPECT_EQ(zoo.kind, paper.kind) << zoo.name << " vs " << paper.name;
  EXPECT_EQ(zoo.dims.K, paper.dims.K) << zoo.name;
  EXPECT_EQ(zoo.dims.N, paper.dims.N) << zoo.name;
}

// The transformer zoo files against their nn::make_* twins.  An exact
// GEMM-for-GEMM match like ResNet18's is impossible for the encoders:
// the paper runs them at batch 8 over 197 tokens (196 patches + CLS)
// with one block entry repeated once per block, the zoo at batch 1 over
// 196 tokens with the blocks unrolled.  So M and the repeats differ,
// and the pin covers what the two sources share: the family, the block
// count, the six GEMM kinds of every block in order, the K and N of the
// weight GEMMs, the head dim of the attention products (score's K,
// context's N), and the patch embedding and head.  The decoder block
// needs no such caveat: both sides run batch 1 over 1024 tokens.
TEST(GraphExport, TransformerZooGraphsShareThePaperShapes) {
  constexpr std::size_t kBlockGemms = 6;  // qkv score context proj ffn1 ffn2
  {
    const nn::WorkloadSpec zoo =
        graphcli::export_workload(zoo_files::load("gpt2_layer"));
    const nn::WorkloadSpec paper = nn::make_gpt2_xl();
    EXPECT_EQ(zoo.family, paper.family);
    ASSERT_EQ(zoo.layers.size(), kBlockGemms);
    ASSERT_GT(paper.layers.size(), kBlockGemms);  // + lm_head
    for (std::size_t i = 0; i < kBlockGemms; ++i) {
      const nn::LayerGemm& z = zoo.layers[i];
      const nn::LayerGemm& p = paper.layers[i];
      EXPECT_EQ(z.kind, p.kind) << z.name;
      EXPECT_EQ(z.dims.M, p.dims.M) << z.name;
      EXPECT_EQ(z.dims.K, p.dims.K) << z.name;
      EXPECT_EQ(z.dims.N, p.dims.N) << z.name;
      EXPECT_EQ(p.repeat, 48 * z.repeat) << z.name;  // GPT2-XL's 48 blocks
    }
  }

  struct Twin {
    const char* zoo;
    nn::WorkloadSpec paper;
    std::size_t lead;  ///< GEMMs before the first block (patch_embed)
  };
  for (const Twin& twin : {Twin{"vit_b16", nn::make_vit_b16(), 1},
                           Twin{"deit_s", nn::make_deit_s(), 1},
                           Twin{"bert_base", nn::make_bert_base(), 0}}) {
    SCOPED_TRACE(twin.zoo);
    const nn::WorkloadSpec zoo =
        graphcli::export_workload(zoo_files::load(twin.zoo));
    const nn::WorkloadSpec& paper = twin.paper;
    EXPECT_EQ(zoo.family, paper.family);
    // Paper: lead + one block entry + head; zoo: lead + the unrolled
    // blocks + head.
    ASSERT_EQ(paper.layers.size(), twin.lead + kBlockGemms + 1);
    const std::int64_t blocks = paper.layers[twin.lead].repeat;
    ASSERT_EQ(zoo.layers.size(),
              twin.lead + kBlockGemms * static_cast<std::size_t>(blocks) + 1);
    if (twin.lead == 1) {
      expect_same_kind_k_n(zoo.layers.front(), paper.layers.front());
    }
    expect_same_kind_k_n(zoo.layers.back(), paper.layers.back());
    for (std::int64_t b = 0; b < blocks; ++b) {
      for (std::size_t j = 0; j < kBlockGemms; ++j) {
        const nn::LayerGemm& z = zoo.layers[
            twin.lead + kBlockGemms * static_cast<std::size_t>(b) + j];
        const nn::LayerGemm& p = paper.layers[twin.lead + j];
        EXPECT_EQ(z.kind, p.kind) << z.name << " vs " << p.name;
        if (p.kind == nn::LayerKind::kAttnScore) {
          EXPECT_EQ(z.dims.K, p.dims.K) << z.name;
        } else if (p.kind == nn::LayerKind::kAttnContext) {
          EXPECT_EQ(z.dims.N, p.dims.N) << z.name;
        } else {
          expect_same_kind_k_n(z, p);
        }
      }
    }
  }
}

}  // namespace
}  // namespace drift
