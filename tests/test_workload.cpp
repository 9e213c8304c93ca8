// Tests for the model zoo workload extraction, the name -> workload
// registry and precision-mix generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "nn/precision_mix.hpp"
#include "nn/workload.hpp"
#include "util/assert.hpp"

namespace drift::nn {
namespace {

TEST(Workload, ResNet18ShapesAndMacs) {
  const WorkloadSpec spec = make_resnet18();
  EXPECT_EQ(spec.model, "ResNet18");
  // conv1: 112^2 x (3*49) x 64.
  const LayerGemm& conv1 = spec.layers.front();
  EXPECT_EQ(conv1.dims.M, 112 * 112);
  EXPECT_EQ(conv1.dims.K, 147);
  EXPECT_EQ(conv1.dims.N, 64);
  EXPECT_EQ(conv1.kernel, 7);
  // ImageNet ResNet18 is ~1.8 GMACs.
  const double gmacs = static_cast<double>(spec.total_macs()) / 1e9;
  EXPECT_GT(gmacs, 1.5);
  EXPECT_LT(gmacs, 2.2);
}

TEST(Workload, ResNet50Macs) {
  const WorkloadSpec spec = make_resnet50();
  // ~4.1 GMACs for ResNet50.
  const double gmacs = static_cast<double>(spec.total_macs()) / 1e9;
  EXPECT_GT(gmacs, 3.5);
  EXPECT_LT(gmacs, 4.7);
}

TEST(Workload, VitBMacs) {
  const WorkloadSpec spec = make_vit_b16();
  // ViT-B/16 at 224: ~17.6 GMACs per image (counting attention
  // products); the workload runs the encoder at batch 8.
  const double gmacs = static_cast<double>(spec.total_macs()) / 8.0 / 1e9;
  EXPECT_GT(gmacs, 15.0);
  EXPECT_LT(gmacs, 20.0);
}

TEST(Workload, DeitSIsSmallerThanVitB) {
  EXPECT_LT(make_deit_s().total_macs(), make_vit_b16().total_macs() / 3);
}

TEST(Workload, BertLayersHaveBatchedSeqRows) {
  const WorkloadSpec spec = make_bert_base(128);
  for (const auto& l : spec.layers) {
    if (l.kind == LayerKind::kQkvProj) {
      EXPECT_EQ(l.dims.M, 8 * 128);  // batch 8 x sequence 128
      EXPECT_EQ(l.dims.K, 768);
      EXPECT_EQ(l.dims.N, 3 * 768);
    }
  }
}

TEST(Workload, Gpt2XlDimensions) {
  const WorkloadSpec spec = make_gpt2_xl(1024);
  bool saw_ffn = false;
  for (const auto& l : spec.layers) {
    if (l.kind == LayerKind::kFfn && l.dims.N == 6400) {
      saw_ffn = true;
      EXPECT_EQ(l.dims.K, 1600);
      EXPECT_EQ(l.repeat, 48);
    }
  }
  EXPECT_TRUE(saw_ffn);
}

TEST(Workload, AttentionScoreRepeatsPerHead) {
  const WorkloadSpec spec = make_vit_b16();
  for (const auto& l : spec.layers) {
    if (l.kind == LayerKind::kAttnScore) {
      EXPECT_EQ(l.dims.M, 197);
      EXPECT_EQ(l.dims.N, 197);
      EXPECT_EQ(l.dims.K, 64);
      EXPECT_EQ(l.repeat, 12 * 12 * 8);  // blocks x heads x batch
    }
  }
}

TEST(Workload, PaperSetHasSevenModels) {
  const auto workloads = paper_workloads();
  ASSERT_EQ(workloads.size(), 7u);
  EXPECT_EQ(workloads[0].model, "ResNet18");
  EXPECT_EQ(workloads[6].model, "OPT-6.7B");
}

TEST(Workload, RegistryNamesEachWorkloadByItsModel) {
  const std::vector<std::string> names = workload_names();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "tiny-bert", "tiny-cnn", "ResNet18", "ResNet50",
                       "ViT-B", "DeiT-S", "BERT", "GPT2-XL", "OPT-6.7B",
                       "BLOOM-7B1"}));
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(make_workload(name).model, name);
  }
  for (const WorkloadSpec& spec : paper_workloads()) {
    EXPECT_NE(std::find(names.begin(), names.end(), spec.model), names.end())
        << spec.model;
  }
  try {
    make_workload("nosuch");
    FAIL() << "unknown workload name accepted";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nosuch"), std::string::npos) << what;
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(Workload, FamilyProfilesDiffer) {
  const auto cnn = make_resnet18();
  const auto llm = make_opt_6p7b();
  EXPECT_GT(cnn.act_profile.correlation, llm.act_profile.correlation);
  EXPECT_GT(llm.act_profile.outlier_scale, cnn.act_profile.outlier_scale);
}

TEST(Mix, Int8MixIsAllHigh) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kStaticInt8;
  const auto mixes = build_mixes(make_deit_s(), cfg);
  for (const auto& m : mixes) {
    EXPECT_EQ(m.work.m_low, 0);
    EXPECT_EQ(m.work.n_low, 0);
    EXPECT_DOUBLE_EQ(m.act_low_fraction, 0.0);
  }
}

TEST(Mix, DriftProducesHighLowFractionOnLaplaceProfiles) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kDrift;
  cfg.drift.density_threshold = 0.5;
  const auto mixes = build_mixes(make_bert_base(128), cfg);
  const double low = overall_act_low_fraction(mixes);
  EXPECT_GT(low, 0.55);
  EXPECT_LE(low, 1.0);
}

TEST(Mix, DrqWeightsStayHigh) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kDrq;
  const auto mixes = build_mixes(make_resnet18(), cfg);
  for (const auto& m : mixes) {
    EXPECT_EQ(m.work.n_low, 0) << m.layer.name;
  }
}

TEST(Mix, RowPatternLengthMatchesM) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kDrift;
  const auto mixes = build_mixes(make_deit_s(), cfg);
  for (const auto& m : mixes) {
    EXPECT_EQ(static_cast<std::int64_t>(m.row_is_low.size()), m.layer.dims.M);
    EXPECT_EQ(m.work.m_low + m.work.m_high, m.layer.dims.M);
    EXPECT_EQ(m.work.n_low + m.work.n_high, m.layer.dims.N);
  }
}

TEST(Mix, DeterministicForSameSeed) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kDrift;
  cfg.seed = 99;
  const auto a = build_mixes(make_deit_s(), cfg);
  const auto b = build_mixes(make_deit_s(), cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].work.m_low, b[i].work.m_low);
    EXPECT_EQ(a[i].row_is_low, b[i].row_is_low);
  }
}

TEST(Mix, CnnPatternsAreMoreContiguousThanLlm) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kDrift;
  auto switches_per_row = [&](const WorkloadSpec& spec) {
    const auto mixes = build_mixes(spec, cfg);
    double total_switches = 0.0, total_rows = 0.0;
    for (const auto& m : mixes) {
      for (std::size_t i = 1; i < m.row_is_low.size(); ++i) {
        if (m.row_is_low[i] != m.row_is_low[i - 1]) total_switches += 1.0;
      }
      total_rows += static_cast<double>(m.row_is_low.size());
    }
    return total_switches / total_rows;
  };
  EXPECT_LT(switches_per_row(make_resnet18()),
            switches_per_row(make_bert_base(512)));
}

TEST(Mix, DriftDynamicWeightsToggle) {
  MixConfig cfg;
  cfg.algo = MixAlgorithm::kDrift;
  cfg.dynamic_weights = false;
  const auto mixes = build_mixes(make_deit_s(), cfg);
  for (const auto& m : mixes) {
    const bool attn = m.layer.kind == LayerKind::kAttnScore ||
                      m.layer.kind == LayerKind::kAttnContext;
    if (!attn) {
      EXPECT_EQ(m.work.n_low, 0) << m.layer.name;
    }
  }
}

}  // namespace
}  // namespace drift::nn
