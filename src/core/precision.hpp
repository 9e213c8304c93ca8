// Precision (bit-width) types and conversion choices.
//
// Dynamic precision quantization (Section 3.1) converts an hp-bit
// signed integer to an lp-bit one by clipping `hc` bits from the high
// end and `lc` bits from the low end, subject to Equation (2):
//
//     hp = hc + lp + lc,   hp, lp, hc, lc >= 0.
//
// A ConversionChoice captures one (hc, lc) pair — e.g. five choices
// for 8->4.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace drift::core {

/// Signed integer bit-width in [2, 16].  Width includes the sign bit,
/// matching the symmetric quantizer's max level 2^(N-1)-1.
class Precision {
 public:
  explicit constexpr Precision(int bits) : bits_(bits) {}

  constexpr int bits() const { return bits_; }

  /// Largest representable magnitude: 2^(N-1) - 1.
  constexpr std::int64_t max_level() const {
    return (std::int64_t{1} << (bits_ - 1)) - 1;
  }

  constexpr bool operator==(const Precision&) const = default;

  std::string to_string() const { return "INT" + std::to_string(bits_); }

 private:
  int bits_;
};

/// Streams as "INT<n>" so DRIFT_CHECK_EQ failures print real widths.
inline std::ostream& operator<<(std::ostream& os, const Precision& p) {
  return os << p.to_string();
}

inline constexpr Precision kInt8{8};
inline constexpr Precision kInt4{4};
inline constexpr Precision kInt5{5};
inline constexpr Precision kInt3{3};

/// One way to convert hp-bit to lp-bit (Equation 2).
struct ConversionChoice {
  int hc = 0;  ///< bits clipped from the high (magnitude) end
  int lc = 0;  ///< bits clipped from the low (resolution) end
};

/// The precision assigned to one sub-tensor after dynamic selection.
struct PrecisionDecision {
  bool use_low = false;        ///< true: execute at lp; false: stay at hp
  ConversionChoice choice{};   ///< meaningful only when use_low
};

}  // namespace drift::core
