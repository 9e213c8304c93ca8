// Deterministic random number generation.
//
// Every stochastic component in the reproduction (synthetic weights,
// activation streams, Hutchinson probes) draws from a Rng seeded
// explicitly, so simulation results are bit-stable across runs.
//
// The engine is MT19937-64, computed lazily.  It yields the
// std::mt19937_64 stream bit for bit: it runs the standard seed chain,
// twist and tempering on the same 312-word state, and computes every
// state word from the same inputs, only later.  std::mt19937_64 computes
// all 312 seed words at construction and twists a whole block at the
// first draw.  LazyMt19937_64 extends the seed chain only as far as the
// drawn words read (word k of the first block twists seed words k and
// k + 1 with seed word k + 156) and twists the first block one word per
// draw.  Once the seed chain is complete it twists each later block
// whole, as the standard engine does, so bulk draws cost no more.
//
// A fork therefore costs ~157 seed steps and one twist step (the one
// word that becomes the child's fork mix) instead of 312 + 312; each
// further draw before word 156 adds one seed step and one twist step.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

namespace drift {

/// MT19937-64 (the std::mt19937_64 stream) with a lazily extended seed
/// chain and a lazily twisted first block.  Keeps result_type, min()
/// and max() so the standard distributions take the same code paths
/// they take with std::mt19937_64.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (next_ == ready_) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr int kN = 312;  ///< state words
  static constexpr int kM = 156;  ///< twist offset

  /// The twist of one word from the old words `lo` (upper 33 bits) and
  /// `hi` (lower 31 bits), before the XOR with the word kM ahead.
  static result_type twist(result_type lo, result_type hi) {
    const result_type y = (lo & ~0x7FFFFFFFull) | (hi & 0x7FFFFFFFull);
    return (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ull : 0);
  }

  /// Makes x_[next_] a twisted word of the current block.
  void refill() {
    if (next_ == kN) next_ = ready_ = 0;
    if (seeded_ < kN) {
      // First block: word k reads seed words k, k + 1 and k + kM.
      for (int i = seeded_; i <= ready_ + kM; ++i) {
        const result_type prev = x_[i - 1];
        x_[i] = (prev ^ (prev >> 62)) * 6364136223846793005ull +
                static_cast<result_type>(i);
      }
      seeded_ = ready_ + kM + 1;
      x_[ready_] = x_[ready_ + kM] ^ twist(x_[ready_], x_[ready_ + 1]);
      ++ready_;
      return;
    }
    // Seed chain complete: twist the rest of the block at once.
    int k = ready_;
    for (; k < kN - kM; ++k) x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
    for (; k < kN - 1; ++k) {
      x_[k] = x_[k + kM - kN] ^ twist(x_[k], x_[k + 1]);
    }
    x_[kN - 1] = x_[kM - 1] ^ twist(x_[kN - 1], x_[0]);
    ready_ = kN;
  }

  result_type x_[kN] = {};
  int seeded_ = 1;  ///< x_[0, seeded_) hold seed words (first block only)
  int ready_ = 0;   ///< x_[0, ready_) hold the current block's twisted words
  int next_ = 0;    ///< next word of the block to return
};

/// Seeded pseudo-random source.  Thin wrapper over the MT19937-64
/// stream with the sampling helpers the codebase needs; copyable so
/// call sites can fork independent deterministic streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal sample.
  double normal() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  /// Normal sample with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Zero-mean Laplace sample with scale (diversity) `b`.
  /// Inverse-CDF method: X = -b * sign(u) * ln(1 - 2|u|), u ~ U(-1/2, 1/2).
  double laplace(double b) {
    double u = uniform() - 0.5;
    double mag = -b * std::log(1.0 - 2.0 * std::abs(u));
    return u < 0 ? -mag : mag;
  }

  /// Exponential sample with rate `lambda` (mean 1/lambda).
  double exponential(double lambda) {
    return std::exponential_distribution<double>(lambda)(engine_);
  }

  /// Bernoulli sample with success probability p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child generator; children with distinct
  /// `stream` ids produce decorrelated sequences.
  Rng fork(std::uint64_t stream) const {
    // SplitMix-style mix of the base seed and the stream id.
    std::uint64_t z = seed_mix_ + stream * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

 private:
  LazyMt19937_64 engine_;
  std::uint64_t seed_mix_ = engine_();
};

}  // namespace drift
