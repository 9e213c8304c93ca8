// Differential suite: the lazily seeded MT19937-64 behind util::Rng vs.
// std::mt19937_64 itself.
//
// LazyMt19937_64 computes seed words only as far as the drawn words
// read and twists its first block one word per draw; it must still
// return the std::mt19937_64 stream bit for bit.  The suite draws raw
// words at every block and seed-chain boundary (0-2, 155-158, 311-313,
// 623-625 and random counts up to 2000) from random seeds plus 0 and
// 2^64 - 1, continues copies taken at those points, and replays random
// sequences of every Rng distribution, forks of forks and forks taken
// after draws against a std::mt19937_64-backed twin of Rng.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "proptest/proptest_gtest.hpp"
#include "util/rng.hpp"

namespace drift {
namespace {

/// util::Rng as it was on std::mt19937_64: the same helpers and the same
/// fork mix over the standard engine.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}

  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double normal() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  double laplace(double b) {
    double u = uniform() - 0.5;
    double mag = -b * std::log(1.0 - 2.0 * std::abs(u));
    return u < 0 ? -mag : mag;
  }
  double exponential(double lambda) {
    return std::exponential_distribution<double>(lambda)(engine_);
  }
  double rademacher() { return uniform() < 0.5 ? -1.0 : 1.0; }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  StdRng fork(std::uint64_t stream) const {
    std::uint64_t z = seed_mix_ + stream * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return StdRng(z ^ (z >> 31));
  }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_mix_ = engine_();
};

constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::uint64_t gen_seed(Rng& rng) {
  const double kind = rng.uniform();
  if (kind < 0.1) return 0;
  if (kind < 0.2) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(rng.uniform_int(kMin64, kMax64));
}

/// Draws `count` raw words from both engines; the first mismatch.
std::optional<std::string> compare_words(LazyMt19937_64& lazy,
                                         std::mt19937_64& ref, int count,
                                         const char* what) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t got = lazy();
    const std::uint64_t want = ref();
    if (got != want) {
      return proptest::fail(what, ": word ", i, " is ", got, ", std gives ",
                            want);
    }
  }
  return std::nullopt;
}

/// Raw words: the lazy engine drawn to `count`, then it and a copy taken
/// there both continue past the next block boundary.
proptest::Result check_raw_words(std::uint64_t seed, int count) {
  LazyMt19937_64 lazy(seed);
  std::mt19937_64 ref(seed);
  const std::string where =
      "seed " + std::to_string(seed) + ", " + std::to_string(count) + " draws";
  if (auto err = compare_words(lazy, ref, count, where.c_str())) return err;
  LazyMt19937_64 copy = lazy;
  std::mt19937_64 ref_copy = ref;
  if (auto err = compare_words(lazy, ref, 700, (where + ", then").c_str())) {
    return err;
  }
  return compare_words(copy, ref_copy, 700,
                       (where + ", copy taken there").c_str());
}

/// One random Rng call on both twins; a description of the first
/// difference.
std::optional<std::string> random_call(Rng& pick, Rng& got, StdRng& want) {
  const auto differ = [](const char* call, double a, double b) {
    return proptest::fail(call, " gives ", a, ", std gives ", b);
  };
  switch (pick.uniform_int(0, 10)) {
    case 0: {
      const double a = got.uniform(), b = want.uniform();
      if (!same_bits(a, b)) return differ("uniform()", a, b);
      break;
    }
    case 1: {
      const double lo = pick.uniform(-1e3, 1e3);
      const double hi = lo + pick.uniform(1e-6, 1e3);
      const double a = got.uniform(lo, hi), b = want.uniform(lo, hi);
      if (!same_bits(a, b)) return differ("uniform(lo, hi)", a, b);
      break;
    }
    case 2: {
      // Full int64 range, a small range and one just under 2^63 wide.
      std::int64_t lo = kMin64, hi = kMax64;
      const double kind = pick.uniform();
      if (kind < 0.4) {
        lo = pick.uniform_int(-1000, 1000);
        hi = lo + pick.uniform_int(0, 1000);
      } else if (kind < 0.6) {
        lo = pick.uniform_int(-4, 4);
        hi = lo + (kMax64 >> 1) + pick.uniform_int(0, 8);
      }
      const std::int64_t a = got.uniform_int(lo, hi);
      const std::int64_t b = want.uniform_int(lo, hi);
      if (a != b) {
        return proptest::fail("uniform_int(", lo, ", ", hi, ") gives ", a,
                              ", std gives ", b);
      }
      break;
    }
    case 3: {
      const double a = got.normal(), b = want.normal();
      if (!same_bits(a, b)) return differ("normal()", a, b);
      break;
    }
    case 4: {
      const double mean = pick.uniform(-10.0, 10.0);
      const double stddev = pick.uniform(0.01, 5.0);
      const double a = got.normal(mean, stddev);
      const double b = want.normal(mean, stddev);
      if (!same_bits(a, b)) return differ("normal(mean, stddev)", a, b);
      break;
    }
    case 5: {
      const double scale = pick.uniform(0.01, 4.0);
      const double a = got.laplace(scale), b = want.laplace(scale);
      if (!same_bits(a, b)) return differ("laplace", a, b);
      break;
    }
    case 6: {
      const double rate = pick.uniform(1e-4, 10.0);
      const double a = got.exponential(rate), b = want.exponential(rate);
      if (!same_bits(a, b)) return differ("exponential", a, b);
      break;
    }
    case 7: {
      const double a = got.rademacher(), b = want.rademacher();
      if (!same_bits(a, b)) return differ("rademacher", a, b);
      break;
    }
    case 8: {
      const double p = pick.uniform();
      const bool a = got.bernoulli(p), b = want.bernoulli(p);
      if (a != b) return differ("bernoulli", a, b);
      break;
    }
    default: {
      // A run of draws that carries the stream across block boundaries.
      const std::int64_t n = pick.uniform_int(1, 400);
      for (std::int64_t i = 0; i < n; ++i) {
        const double a = got.uniform(), b = want.uniform();
        if (!same_bits(a, b)) return differ("uniform() run", a, b);
      }
      break;
    }
  }
  return std::nullopt;
}

TEST(PropRng, EngineMatchesStdMt19937_64) {
  proptest::gtest_check([](Rng& rng, int size) -> proptest::Result {
    const std::uint64_t seed = gen_seed(rng);

    // Raw words at every seed-chain and block boundary, plus random
    // counts.
    for (const int count : {0, 1, 2, 155, 156, 157, 158, 311, 312, 313, 623,
                            624, 625}) {
      if (auto err = check_raw_words(seed, count)) return err;
    }
    for (int i = 0; i < 2; ++i) {
      const int count = static_cast<int>(rng.uniform_int(0, 2000));
      if (auto err = check_raw_words(seed, count)) return err;
    }

    // Random Rng call sequences: draws of every distribution, forks of
    // forks, forks after draws, and copies of a partly drawn Rng.
    Rng got(seed);
    StdRng want(seed);
    const std::int64_t steps = 8 + 4 * static_cast<std::int64_t>(size);
    for (std::int64_t step = 0; step < steps; ++step) {
      const std::string at = "seed " + std::to_string(seed) + ", step " +
                             std::to_string(step) + ": ";
      const double kind = rng.uniform();
      if (kind < 0.15) {
        const auto stream =
            static_cast<std::uint64_t>(rng.uniform_int(kMin64, kMax64));
        got = got.fork(stream);
        want = want.fork(stream);
      } else if (kind < 0.25) {
        // A copy continues exactly where its original stands.
        Rng copy = got;
        StdRng want_copy = want;
        for (int i = 0; i < 3; ++i) {
          if (auto err = random_call(rng, copy, want_copy)) {
            return proptest::fail(at, "copy: ", *err);
          }
        }
        if (auto err = random_call(rng, got, want)) {
          return proptest::fail(at, "original after copy: ", *err);
        }
      } else if (auto err = random_call(rng, got, want)) {
        return proptest::fail(at, *err);
      }
    }
    return proptest::pass();
  });
}

}  // namespace
}  // namespace drift
