// Self-tests of the property-test framework: seed schedule, size ramp,
// shrinking, environment parsing and repro-line formatting.  Everything
// the differential suites rely on for reproducibility is pinned here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "proptest/proptest.hpp"
#include "util/rng.hpp"

namespace drift {
namespace {

/// Sets an environment variable for one scope, then restores it (or
/// unsets it) so later tests in the process see what they would have.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(PropFramework, CaseZeroUsesTheBaseSeedItself) {
  // This is what makes DRIFT_PROPTEST_SEED=<failing> ITERS=1 an exact
  // replay of a reported failure.
  EXPECT_EQ(proptest::case_seed(0xDEADBEEFull, 0), 0xDEADBEEFull);
  EXPECT_NE(proptest::case_seed(0xDEADBEEFull, 1), 0xDEADBEEFull);
  EXPECT_NE(proptest::case_seed(0xDEADBEEFull, 1),
            proptest::case_seed(0xDEADBEEFull, 2));
}

TEST(PropFramework, SizeRampsFromOneToMax) {
  proptest::Config cfg;
  cfg.iters = 10;
  cfg.max_size = 16;
  EXPECT_EQ(proptest::size_for(cfg, 0), 1);
  EXPECT_EQ(proptest::size_for(cfg, cfg.iters - 1), cfg.max_size);
  for (int i = 1; i < cfg.iters; ++i) {
    EXPECT_GE(proptest::size_for(cfg, i), proptest::size_for(cfg, i - 1));
  }
  cfg.forced_size = 7;
  EXPECT_EQ(proptest::size_for(cfg, 0), 7);
  EXPECT_EQ(proptest::size_for(cfg, cfg.iters - 1), 7);
}

TEST(PropFramework, PassingPropertyRunsEveryCase) {
  proptest::Config cfg;
  cfg.iters = 37;
  const auto rep = proptest::run_property(
      "always-pass", [](Rng&, int) { return proptest::pass(); }, cfg);
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.cases_run, 37);
  EXPECT_TRUE(rep.repro.empty());
}

TEST(PropFramework, FailureReportsSeedAndReproLine) {
  proptest::Config cfg;
  cfg.iters = 8;
  cfg.seed = 0xABCDull;
  const auto rep = proptest::run_property(
      "always-fail",
      [](Rng&, int) { return proptest::fail("broken at size"); }, cfg);
  ASSERT_FALSE(rep.passed);
  // First case fails, so the failing seed is the base seed itself.
  EXPECT_EQ(rep.failing_seed, 0xABCDull);
  EXPECT_EQ(rep.message, "broken at size");
  EXPECT_NE(rep.repro.find("DRIFT_PROPTEST_SEED=43981"),
            std::string::npos);
  EXPECT_NE(rep.repro.find("DRIFT_PROPTEST_ITERS=1"), std::string::npos);
  EXPECT_NE(rep.repro.find("always-fail"), std::string::npos);
}

TEST(PropFramework, ShrinkingFindsTheSmallestFailingSize) {
  proptest::Config cfg;
  cfg.iters = 16;
  cfg.max_size = 16;
  // Fails at every size >= 3.  With a 1..16 ramp over 16 cases the
  // first failure is already the minimal size 3, and the shrink probes
  // (1, 2) both pass, so the report must keep 3.
  const auto rep = proptest::run_property(
      "fail-above-3",
      [](Rng&, int size) {
        return size >= 3 ? proptest::fail("too big") : proptest::pass();
      },
      cfg);
  ASSERT_FALSE(rep.passed);
  EXPECT_EQ(rep.failing_size, 3);

  // A size-independent failure shrinks all the way to size 1.
  const auto rep1 = proptest::run_property(
      "fail-anywhere", [](Rng&, int) { return proptest::fail("always"); },
      cfg);
  ASSERT_FALSE(rep1.passed);
  EXPECT_EQ(rep1.failing_size, 1);
}

TEST(PropFramework, CaseStreamsAreDeterministic) {
  proptest::Config cfg;
  cfg.iters = 12;
  std::vector<std::uint64_t> first, second;
  const auto record = [](std::vector<std::uint64_t>& sink) {
    return [&sink](Rng& rng, int) {
      sink.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)));
      return proptest::pass();
    };
  };
  proptest::run_property("record-a", record(first), cfg);
  proptest::run_property("record-b", record(second), cfg);
  EXPECT_EQ(first, second);

  cfg.seed ^= 0x1234ull;
  std::vector<std::uint64_t> third;
  proptest::run_property("record-c", record(third), cfg);
  EXPECT_NE(first, third);
}

TEST(PropFramework, MalformedEnvironmentValuesThrowNamingThem) {
  // These once fell back without a word: SEED=xyz ran every property at
  // seed 0, and ITERS=abc ran the default 128 cases.
  const struct {
    const char* name;
    const char* value;
  } kBad[] = {
      {"DRIFT_PROPTEST_SEED", "xyz"},   {"DRIFT_PROPTEST_SEED", "12abc"},
      {"DRIFT_PROPTEST_SEED", ""},      {"DRIFT_PROPTEST_SEED", "-1"},
      {"DRIFT_PROPTEST_SEED", " 7"},    {"DRIFT_PROPTEST_SEED", "+7"},
      {"DRIFT_PROPTEST_SEED", "0x"},    {"DRIFT_PROPTEST_SEED", "0xC1G1"},
      {"DRIFT_PROPTEST_SEED", "18446744073709551616"},
      {"DRIFT_PROPTEST_ITERS", "abc"},  {"DRIFT_PROPTEST_ITERS", "0"},
      {"DRIFT_PROPTEST_ITERS", "-3"},   {"DRIFT_PROPTEST_ITERS", "1.5"},
      {"DRIFT_PROPTEST_ITERS", "0x10"}, {"DRIFT_PROPTEST_ITERS", "2147483648"},
      {"DRIFT_PROPTEST_SIZE", "big"},   {"DRIFT_PROPTEST_SIZE", "0"},
  };
  for (const auto& bad : kBad) {
    const std::string setting = std::string(bad.name) + "=" + bad.value;
    const ScopedEnv env(bad.name, bad.value);
    try {
      proptest::config_from_env();
      ADD_FAILURE() << setting << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(setting + " is not a ", 0), 0u)
          << e.what();
    }
  }
}

TEST(PropFramework, EnvironmentValuesParseDecimalAndHex) {
  {
    const ScopedEnv seed("DRIFT_PROPTEST_SEED", "0xC1C1");
    const ScopedEnv iters("DRIFT_PROPTEST_ITERS", "64");
    const ScopedEnv size("DRIFT_PROPTEST_SIZE", "3");
    const proptest::Config cfg = proptest::config_from_env();
    EXPECT_EQ(cfg.seed, 0xC1C1u);
    EXPECT_EQ(cfg.iters, 64);
    EXPECT_EQ(cfg.forced_size, 3);
  }
  // The repro line prints the seed in decimal; the largest fits.
  for (const auto& [text, seed] :
       {std::pair<const char*, std::uint64_t>{"43981", 0xABCDu},
        {"18446744073709551615", std::numeric_limits<std::uint64_t>::max()},
        {"0XFF", 0xFFu}}) {
    const ScopedEnv env("DRIFT_PROPTEST_SEED", text);
    EXPECT_EQ(proptest::config_from_env().seed, seed) << text;
  }
}

TEST(PropFramework, GeneratorsRespectDegenerateBiases) {
  // Over a few hundred draws the edge biases must actually fire: a
  // dimension of exactly `lo`, an all-zero buffer, and a constant one.
  Rng rng(0x5EEDull);
  bool saw_lo = false, saw_zero = false, saw_const = false;
  for (int i = 0; i < 400; ++i) {
    if (proptest::gen_dim(rng, 8) == 1) saw_lo = true;
    const auto buf = proptest::gen_laplace_buffer(rng, 16, 0.5);
    bool all_zero = true, all_same = true;
    for (float v : buf) {
      all_zero &= (v == 0.0f);
      all_same &= (v == buf[0]);
    }
    if (all_zero) saw_zero = true;
    if (all_same && !all_zero) saw_const = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_const);
}

}  // namespace
}  // namespace drift
