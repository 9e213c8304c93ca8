// Seeded property-based testing framework for the differential suites.
//
// Design goals, in order:
//   1. *Reproducibility.*  Every randomized case is derived from an
//      explicit 64-bit seed; a failure reports a one-line environment +
//      ctest command that replays exactly that case.
//   2. *Shrinking.*  Generators are parameterized by an integer `size`;
//      on failure the runner replays the failing seed at smaller sizes
//      and reports the smallest size that still fails, so the
//      counterexample a developer debugs is as small as the bug allows.
//   3. *No framework lock-in.*  This header is gtest-free (properties
//      return std::optional<std::string>), so bench/micro_benchmarks
//      can time the same differential corpus that the test suites run.
//
// Environment knobs (also see README "Testing"):
//   DRIFT_PROPTEST_ITERS  cases per property        (default 128)
//   DRIFT_PROPTEST_SEED   base seed of the run      (default 0xD21F7)
//   DRIFT_PROPTEST_SIZE   force every case to one generator size
//                         (only used when reproducing a failure)
//
// Seed schedule: case 0 uses the base seed *itself*, case i > 0 uses a
// SplitMix64 derivation.  This makes `DRIFT_PROPTEST_SEED=<failing>
// DRIFT_PROPTEST_ITERS=1` an exact single-case replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/analytical_model.hpp"
#include "core/quantizer.hpp"
#include "core/scheduler.hpp"
#include "core/selector.hpp"
#include "util/rng.hpp"

namespace drift::proptest {

/// SplitMix64 finalizer: decorrelates consecutive case indices.
inline std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Iteration/seed control, normally read from the environment.
struct Config {
  int iters = 128;               ///< randomized cases per property
  std::uint64_t seed = 0xD21F7; ///< base seed of the whole run
  int max_size = 16;             ///< generator size cap (cases ramp 1..max)
  int forced_size = 0;           ///< > 0: every case runs at exactly this size
};

inline Config config_from_env() {
  Config c;
  if (const char* v = std::getenv("DRIFT_PROPTEST_ITERS")) {
    const long long n = std::atoll(v);
    if (n > 0) c.iters = static_cast<int>(n);
  }
  if (const char* v = std::getenv("DRIFT_PROPTEST_SEED")) {
    c.seed = std::strtoull(v, nullptr, 0);
  }
  if (const char* v = std::getenv("DRIFT_PROPTEST_SIZE")) {
    const long long n = std::atoll(v);
    if (n > 0) c.forced_size = static_cast<int>(n);
  }
  return c;
}

/// Seed of case `iteration`.  Case 0 is the base seed itself so a
/// one-iteration rerun with DRIFT_PROPTEST_SEED replays a failure.
inline std::uint64_t case_seed(std::uint64_t base, int iteration) {
  return iteration == 0
             ? base
             : splitmix(base + static_cast<std::uint64_t>(iteration));
}

/// Generator size of case `iteration`: ramps linearly from 1 to
/// max_size so early cases are small (cheap, edge-heavy) and later ones
/// exercise larger shapes.
inline int size_for(const Config& cfg, int iteration) {
  if (cfg.forced_size > 0) return cfg.forced_size;
  if (cfg.iters <= 1) return cfg.max_size;
  return 1 + iteration * (cfg.max_size - 1) / (cfg.iters - 1);
}

/// A property returns std::nullopt on success or a failure description.
using Result = std::optional<std::string>;

inline Result pass() { return std::nullopt; }

/// Builds a failure message from any streamable parts.
template <typename... Ts>
Result fail(Ts&&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Outcome of running one property over the whole case schedule.
struct RunReport {
  bool passed = true;
  int cases_run = 0;
  std::uint64_t failing_seed = 0;
  int failing_size = 0;
  std::string message;  ///< failure description from the property
  std::string repro;    ///< one-line command replaying the failure
};

/// Runs `prop(rng, size)` over the case schedule.  On the first
/// failure, shrinks by replaying the failing seed at ascending smaller
/// sizes (1, 2, 4, ...) and keeps the smallest size that still fails.
template <typename Property>
RunReport run_property(std::string_view name, Property&& prop,
                       const Config& cfg = config_from_env()) {
  RunReport rep;
  for (int i = 0; i < cfg.iters; ++i) {
    const std::uint64_t seed = case_seed(cfg.seed, i);
    const int size = size_for(cfg, i);
    Rng rng(seed);
    Result r = prop(rng, size);
    ++rep.cases_run;
    if (!r) continue;

    rep.passed = false;
    rep.failing_seed = seed;
    rep.failing_size = size;
    rep.message = *r;
    for (int s = 1; s < size; s *= 2) {
      Rng shrink_rng(seed);
      if (Result sr = prop(shrink_rng, s)) {
        rep.failing_size = s;
        rep.message = *sr;
        break;
      }
    }
    std::ostringstream os;
    os << "DRIFT_PROPTEST_SEED=" << rep.failing_seed
       << " DRIFT_PROPTEST_ITERS=1 DRIFT_PROPTEST_SIZE=" << rep.failing_size
       << " ctest --test-dir build -R '" << name << "'";
    rep.repro = os.str();
    return rep;
  }
  return rep;
}

// ---------------------------------------------------------------------
// Generators.  All take the case Rng plus the current size and bias
// toward edge values (dimension 1, all-zero data, boundary magnitudes).
// ---------------------------------------------------------------------

/// Dimension in [lo, lo + 3 + 2*size], with a 10% bias to exactly `lo`.
inline std::int64_t gen_dim(Rng& rng, int size, std::int64_t lo = 1) {
  if (rng.bernoulli(0.1)) return lo;
  return rng.uniform_int(lo, lo + 3 + 2 * static_cast<std::int64_t>(size));
}

/// Laplace-distributed buffer (the distribution Section 2.1 profiles),
/// with deliberate special cases: ~5% all-zero, ~5% constant, and
/// occasional single-spike sub-tensors.
inline std::vector<float> gen_laplace_buffer(Rng& rng, std::int64_t n,
                                             double scale_b) {
  std::vector<float> out(static_cast<std::size_t>(n));
  const double kind = rng.uniform();
  if (kind < 0.05) return out;  // all zeros
  if (kind < 0.10) {            // constant value
    const float v = static_cast<float>(rng.laplace(scale_b));
    std::fill(out.begin(), out.end(), v);
    return out;
  }
  for (auto& v : out) v = static_cast<float>(rng.laplace(scale_b));
  if (kind < 0.20 && n > 0) {  // one dominant spike (heavy-tailed row)
    out[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] =
        static_cast<float>(rng.laplace(16.0 * scale_b));
  }
  return out;
}

/// Random (hp, lp, δ) selector configuration.  hp fixed to the paper's
/// INT8 storage precision; lp spans the lp-sweep of Section 5; δ is
/// log-uniform over [0.01, 10].
inline core::SelectorConfig gen_selector_config(Rng& rng) {
  core::SelectorConfig cfg;
  cfg.hp = core::kInt8;
  const int lp_bits = static_cast<int>(rng.uniform_int(3, 5));
  cfg.lp = core::Precision(lp_bits);
  cfg.density_threshold = std::exp(rng.uniform(std::log(0.01), std::log(10.0)));
  return cfg;
}

/// Eq. 1 calibration with a positive, often awkward (inexact) Δ.
inline core::QuantParams gen_quant_params(Rng& rng, core::Precision hp) {
  core::QuantParams p;
  p.bits = hp;
  p.delta = std::exp(rng.uniform(std::log(1e-3), std::log(1.0)));
  return p;
}

/// Sub-tensors of `map` that selected the low precision.
inline std::int64_t low_subtensors(const core::PrecisionMap& map) {
  std::int64_t low = 0;
  for (std::size_t i = 0; i < map.num_subtensors(); ++i) {
    low += map.decision(i).use_low ? 1 : 0;
  }
  return low;
}

/// Every (hc, lc) conversion choice of hp -> lp (Equation 2:
/// hc + lc = hp - lp), ordered by ascending hc.
inline std::vector<core::ConversionChoice> enumerate_choices(
    core::Precision hp, core::Precision lp) {
  const int clip_total = hp.bits() - lp.bits();
  std::vector<core::ConversionChoice> choices;
  for (int hc = 0; hc <= clip_total; ++hc) {
    choices.push_back({hc, clip_total - hc});
  }
  return choices;
}

/// Systolic array dimensions in BitGroups.
inline core::ArrayDims gen_array_dims(Rng& rng, int size) {
  return core::ArrayDims{gen_dim(rng, size), gen_dim(rng, size)};
}

/// GEMM problem dims, occasionally empty along one axis.
inline core::GemmDims gen_gemm_dims(Rng& rng, int size) {
  core::GemmDims g{gen_dim(rng, size), gen_dim(rng, size), gen_dim(rng, size)};
  if (rng.bernoulli(0.05)) g.M = 0;
  if (rng.bernoulli(0.05)) g.N = 0;
  return g;
}

/// One layer's precision-split workload: random class mix (including
/// degenerate all-high / all-low mixes) and precision pairs.
inline core::LayerWork gen_layer_work(Rng& rng, int size) {
  core::LayerWork w;
  const std::int64_t span = 4 + 8 * static_cast<std::int64_t>(size);
  w.m_high = rng.uniform_int(0, span);
  w.m_low = rng.uniform_int(0, span);
  w.n_high = rng.uniform_int(0, 2 * span);
  w.n_low = rng.uniform_int(0, 2 * span);
  w.k = rng.uniform_int(1, 16 * static_cast<std::int64_t>(size) + 16);
  if (rng.bernoulli(0.1)) w.m_high = 0;
  if (rng.bernoulli(0.1)) w.n_low = 0;
  w.pa_high = 8;
  w.pw_high = 8;
  w.pa_low = static_cast<int>(rng.uniform_int(2, 4));
  w.pw_low = static_cast<int>(rng.uniform_int(2, 4));
  return w;
}

}  // namespace drift::proptest
