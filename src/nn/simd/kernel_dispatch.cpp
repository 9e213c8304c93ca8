#include "nn/simd/kernel_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>

#include "nn/simd/kernel_tables.hpp"
#include "obs/metrics.hpp"

namespace drift::nn::simd {

namespace {

bool env_force_scalar() {
  const char* v = std::getenv("DRIFT_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> flag{env_force_scalar()};
  return flag;
}

/// The best table the build and the CPU support, resolved once.
const KernelTable& best_table() {
  static const KernelTable& table = []() -> const KernelTable& {
#ifdef DRIFT_SIMD_BUILD_AVX2
    if (detect_cpu_features().avx2) {
      return kAvx2Table;
    }
#endif
#ifdef DRIFT_SIMD_BUILD_NEON
    if (detect_cpu_features().neon) {
      return kNeonTable;
    }
#endif
    return kScalarTable;
  }();
  return table;
}

// Stamps backend identity into the metrics artifact meta block (schema
// v2).  Registered from this translation unit because obs lives in
// drift_util, which cannot link back into drift_nn; every consumer of
// the nn pipeline references dispatch symbols, so this object file —
// and with it the registration — is always pulled in.  The provider
// reads live state at scrape time, so a set_force_scalar() flip during
// a differential run is reflected in the artifact it produces.
void provide_backend_metadata(std::map<std::string, std::string>& meta) {
  meta["backend"] = active().name;
  const CpuFeatures features = detect_cpu_features();
  std::string joined;
  if (features.avx2) joined += "avx2";
  if (features.neon) joined += joined.empty() ? "neon" : ",neon";
  meta["cpu_features"] = joined.empty() ? "none" : joined;
  meta["force_scalar"] = std::to_string(force_scalar() ? 1 : 0);
}

[[maybe_unused]] const bool kMetadataRegistered = [] {
  obs::register_run_metadata_provider(&provide_backend_metadata);
  return true;
}();

}  // namespace

CpuFeatures detect_cpu_features() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
  // Advanced SIMD is architecturally mandatory on AArch64.
  features.neon = true;
#endif
  return features;
}

const KernelTable& active() {
  // drift-lint: allow(atomic-order) — the force-scalar flag guards no
  // other memory; every kernel table is immutable after static init.
  if (force_scalar_flag().load(std::memory_order_relaxed)) {
    return kScalarTable;
  }
  return best_table();
}

void set_force_scalar(bool force) {
  // drift-lint: allow(atomic-order) — independent flag; the dispatch
  // tables it selects between are immutable after static init.
  force_scalar_flag().store(force, std::memory_order_relaxed);
}

bool force_scalar() {
  // drift-lint: allow(atomic-order) — same independent-flag argument
  // as the load in active(): no release/acquire pairing is needed.
  return force_scalar_flag().load(std::memory_order_relaxed);
}

}  // namespace drift::nn::simd
