// ThreadPool semantics (chunking, exceptions, nesting) and the
// determinism guarantee of the parallel kernels: outputs must be
// bit-identical to the serial (1-thread) path at every thread count,
// because chunk boundaries are fixed by the grain, never by the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/proxy.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace drift;
using util::ThreadPool;

namespace {

/// Restores the global pool's thread count on scope exit.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : saved_(ThreadPool::instance().num_threads()) {}
  ~PoolSizeGuard() { ThreadPool::instance().resize(saved_); }

 private:
  int saved_;
};

TensorF laplace_tensor(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed) {
  Rng rng(seed);
  TensorF t(Shape{rows, cols});
  auto d = t.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    // Heavy-tailed per-row scale spread, as the paper's Figure 1 shows.
    const double b = 0.02 * std::exp(rng.normal(0.0, 0.8));
    for (std::int64_t c = 0; c < cols; ++c) {
      d[static_cast<std::size_t>(r * cols + c)] =
          static_cast<float>(rng.laplace(b));
    }
  }
  return t;
}

bool bit_identical(const TensorF& a, const TensorF& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  util::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  util::parallel_for(7, 3, 2, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeIsOneChunk) {
  std::atomic<int> calls{0};
  std::int64_t lo = -1, hi = -1;
  util::parallel_for(2, 9, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    lo = b;
    hi = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 9);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  PoolSizeGuard guard;
  for (int threads : {1, 2, 8}) {
    ThreadPool::instance().resize(threads);
    const std::int64_t n = 1000;
    std::vector<int> touched(static_cast<std::size_t>(n), 0);
    util::parallel_for(0, n, 7, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        ++touched[static_cast<std::size_t>(i)];
      }
    });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), n)
        << "threads=" << threads;
    for (int t : touched) EXPECT_EQ(t, 1);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  PoolSizeGuard guard;
  for (int threads : {1, 4}) {
    ThreadPool::instance().resize(threads);
    EXPECT_THROW(
        util::parallel_for(0, 100, 5,
                           [&](std::int64_t b, std::int64_t) {
                             if (b >= 50) throw std::runtime_error("boom");
                           }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<std::int64_t> sum{0};
    util::parallel_for(0, 10, 2, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPoolTest, NestedSubmitRunsWithoutDeadlock) {
  PoolSizeGuard guard;
  ThreadPool::instance().resize(4);
  const std::int64_t outer = 16, inner = 64;
  std::vector<std::int64_t> row_sums(static_cast<std::size_t>(outer), 0);
  util::parallel_for(0, outer, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      std::int64_t local = 0;
      util::parallel_for(0, inner, 8, [&](std::int64_t jb, std::int64_t je) {
        for (std::int64_t j = jb; j < je; ++j) local += j;
      });
      row_sums[static_cast<std::size_t>(i)] = local;
    }
  });
  for (std::int64_t s : row_sums) EXPECT_EQ(s, inner * (inner - 1) / 2);
}

TEST(ThreadPoolTest, EnvOverrideControlsDefault) {
  char* old = std::getenv("DRIFT_NUM_THREADS");
  std::string saved = old ? old : "";
  setenv("DRIFT_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_num_threads(), 3);
  setenv("DRIFT_NUM_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_num_threads(), 1);
  if (old) {
    setenv("DRIFT_NUM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("DRIFT_NUM_THREADS");
  }
}

TEST(ThreadPoolTest, ResizeChangesThreadCount) {
  PoolSizeGuard guard;
  ThreadPool::instance().resize(2);
  EXPECT_EQ(ThreadPool::instance().num_threads(), 2);
  ThreadPool::instance().resize(5);
  EXPECT_EQ(ThreadPool::instance().num_threads(), 5);
}

// ---------------------------------------------------------------------
// Determinism: parallel results are bit-identical to serial at 1/2/8
// threads on random Laplace-distributed tensors.
// ---------------------------------------------------------------------

TEST(ParallelDeterminism, MatmulBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  const TensorF a = laplace_tensor(93, 177, 11);
  TensorF b = laplace_tensor(177, 61, 12);
  ThreadPool::instance().resize(1);
  const TensorF ref = nn::matmul(a, b);
  for (int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    EXPECT_TRUE(bit_identical(ref, nn::matmul(a, b)))
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, MatmulNtBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  const TensorF a = laplace_tensor(93, 177, 21);
  const TensorF w = laplace_tensor(61, 177, 22);
  ThreadPool::instance().resize(1);
  const TensorF ref = nn::matmul_nt(a, w);
  for (int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    EXPECT_TRUE(bit_identical(ref, nn::matmul_nt(a, w)))
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, MatmulAndMatmulNtAgree) {
  // Satellite: both kernels use the same double-accumulation policy, so
  // C = A*B and C = A*(B^T)^T must agree bit-for-bit (same k order).
  const TensorF a = laplace_tensor(37, 129, 31);
  const TensorF b = laplace_tensor(129, 43, 32);
  TensorF bt(Shape{43, 129});
  for (std::int64_t i = 0; i < 129; ++i) {
    for (std::int64_t j = 0; j < 43; ++j) bt(j, i) = b(i, j);
  }
  EXPECT_TRUE(bit_identical(nn::matmul(a, b), nn::matmul_nt(a, bt)));
}

TEST(ParallelDeterminism, Im2colConvPathBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  Rng rng(61);
  TensorF input(Shape{8, 19, 17});
  for (auto& v : input.data()) v = static_cast<float>(rng.laplace(0.05));
  const TensorF w = laplace_tensor(12, 8 * 3 * 3, 62);
  ThreadPool::instance().resize(1);
  const TensorF lowered_ref = nn::im2col(input, 3, 3, 2, 1);
  const TensorF ref = nn::matmul_nt(lowered_ref, w);
  for (int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    const TensorF lowered = nn::im2col(input, 3, 3, 2, 1);
    EXPECT_TRUE(bit_identical(lowered_ref, lowered)) << "threads=" << threads;
    EXPECT_TRUE(bit_identical(ref, nn::matmul_nt(lowered, w)))
        << "threads=" << threads;
  }
}

/// One proxy evaluation: its result and the engine's record log.
struct ProxyRun {
  nn::ProxyResult result;
  std::vector<nn::GemmRecord> records;
};

/// Builds the three proxies (small sample counts) at the current pool
/// size, so LmProxy's FP32 teacher pass runs at that size too, and
/// evaluates each in all four modes.
std::vector<ProxyRun> run_every_proxy() {
  nn::CnnProxy::Config cnn_cfg;
  cnn_cfg.samples = 5;
  nn::TransformerProxy::Config vit_cfg;
  vit_cfg.classes = 3;
  vit_cfg.samples = 5;
  nn::LmProxy::Config lm_cfg;
  lm_cfg.samples = 3;
  const nn::CnnProxy cnn(cnn_cfg);
  const nn::TransformerProxy vit(vit_cfg);
  const nn::LmProxy lm(lm_cfg);
  std::vector<ProxyRun> runs;
  for (const nn::QuantMode mode :
       {nn::QuantMode::kFloat32, nn::QuantMode::kStaticInt8,
        nn::QuantMode::kDrq, nn::QuantMode::kDrift}) {
    nn::QuantEngine::Config cfg;
    cfg.mode = mode;
    for (int proxy = 0; proxy < 3; ++proxy) {
      nn::QuantEngine engine(cfg);
      ProxyRun run;
      run.result = proxy == 0   ? cnn.evaluate(engine)
                   : proxy == 1 ? vit.evaluate(engine)
                                : lm.evaluate(engine);
      run.records = engine.records();
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ParallelDeterminism, ProxyEvaluationBitIdenticalAcrossThreadCounts) {
  // The proxies hand whole samples to the pool and run each sample's
  // kernels inline; the metric, the 4-bit share and the record log
  // (in order) must still be the serial run's.
  PoolSizeGuard guard;
  ThreadPool::instance().resize(1);
  const std::vector<ProxyRun> want = run_every_proxy();
  for (int threads : {2, 8}) {
    ThreadPool::instance().resize(threads);
    const std::vector<ProxyRun> got = run_every_proxy();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " run " +
                   std::to_string(i));
      EXPECT_TRUE(same_bits(got[i].result.metric, want[i].result.metric));
      EXPECT_TRUE(same_bits(got[i].result.act_low_fraction,
                            want[i].result.act_low_fraction));
      ASSERT_EQ(got[i].records.size(), want[i].records.size());
      for (std::size_t r = 0; r < want[i].records.size(); ++r) {
        const nn::GemmRecord& g = got[i].records[r];
        const nn::GemmRecord& w = want[i].records[r];
        EXPECT_EQ(g.layer, w.layer) << "record " << r;
        EXPECT_EQ(g.m, w.m) << "record " << r;
        EXPECT_EQ(g.k, w.k) << "record " << r;
        EXPECT_EQ(g.n, w.n) << "record " << r;
        EXPECT_TRUE(same_bits(g.act_low_fraction, w.act_low_fraction))
            << "record " << r;
        EXPECT_TRUE(same_bits(g.weight_low_fraction, w.weight_low_fraction))
            << "record " << r;
      }
    }
  }
}

}  // namespace
