#include "core/render.hpp"

#include <algorithm>
#include <array>

// drift-lint: allow(intrinsic) — both rendering passes run the table's
// quantize_convert_row; only the dispatch entry point is used here.
#include "nn/simd/kernel_dispatch.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace drift::core {

namespace {

constexpr std::int64_t kHpGrain = 4096;  ///< elements per hp-pass chunk
constexpr std::int64_t kViewGrain = 16;  ///< views per low-pass chunk
constexpr std::int64_t kBlock = 256;     ///< codes converted per kernel call

/// Renders the n floats at x into out (which may alias x): the
/// dispatched row kernel's codes, dequantized as float(code * step) —
/// dequantize_value for step = Δ, dequantize_low for step = Δ * 2^lc.
void render_run(const nn::simd::KernelTable& kt, const float* x,
                std::int64_t n, const QuantParams& params, bool use_low,
                int lc, std::int64_t lp_limit, double step, float* out) {
  // Scratch the kernel fills before any read; left uninitialized so a
  // short run does not pay for clearing the whole block.
  std::array<std::int32_t, kBlock> codes;
  for (std::int64_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::int64_t len = std::min(kBlock, n - b0);
    kt.quantize_convert_row(x + b0, len, params.delta,
                            params.bits.max_level(), use_low, lc, lp_limit,
                            codes.data());
    for (std::int64_t i = 0; i < len; ++i) {
      out[b0 + i] = static_cast<float>(
          static_cast<double>(codes[static_cast<std::size_t>(i)]) * step);
    }
  }
}

}  // namespace

std::vector<float> render_hp(std::span<const float> values,
                             const QuantParams& params) {
  std::vector<float> out(values.size());
  const nn::simd::KernelTable& kt = nn::simd::active();
  util::parallel_for(0, static_cast<std::int64_t>(values.size()), kHpGrain,
                     [&](std::int64_t i0, std::int64_t i1) {
    render_run(kt, values.data() + i0, i1 - i0, params, false, 0, 0,
               params.delta, out.data() + i0);
  });
  return out;
}

std::vector<float> render(std::span<const float> values,
                          const std::vector<SubTensorView>& views,
                          const QuantParams& params, const PrecisionMap& map,
                          Precision lp) {
  DRIFT_CHECK_EQ(views.size(), map.num_subtensors(),
                 "view/map count mismatch");
  std::vector<float> out = render_hp(values, params);
  const nn::simd::KernelTable& kt = nn::simd::active();
  const std::int64_t lp_limit = lp.max_level();
  const auto size = static_cast<std::int64_t>(out.size());
  const auto n = static_cast<std::int64_t>(views.size());
  util::parallel_for(0, n, kViewGrain, [&](std::int64_t v0, std::int64_t v1) {
    for (std::int64_t v = v0; v < v1; ++v) {
      const PrecisionDecision& d = map.decision(static_cast<std::size_t>(v));
      if (!d.use_low) continue;
      DRIFT_CHECK(d.choice.hc >= 0 && d.choice.lc >= 0,
                  "invalid conversion choice");
      const double step =
          params.delta * static_cast<double>(std::int64_t{1} << d.choice.lc);
      for (const Run& r : views[static_cast<std::size_t>(v)].runs()) {
        DRIFT_CHECK(r.offset + r.length <= size, "view run out of range");
        // The low pass reads the hp rendering, exactly as the
        // per-element loop re-quantizes its own hp output.
        float* x = out.data() + r.offset;
        render_run(kt, x, r.length, params, true, d.choice.lc, lp_limit,
                   step, x);
      }
    }
  });
  return out;
}

}  // namespace drift::core
