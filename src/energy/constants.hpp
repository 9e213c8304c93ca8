// Energy and power constants (the Synopsys-DC-at-40nm substitution —
// see DESIGN.md).
//
// The paper synthesizes its RTL on a 40 nm TSMC library at 500 MHz and
// reports *normalized* energy, so what matters for reproduction is the
// relative cost of the four breakdown components (static / DRAM /
// buffer / core).  The values below sit in the ranges published for
// the same technology class (BitFusion ISCA'18, Eyeriss ISSCC'16,
// Horowitz ISSCC'14 energy tables):
//
//   - a BitBrick operation (1b x 4b multiply + partial add) is the
//     atomic core event; an INT8 MAC spatially fuses 16 of them, an
//     INT4 MAC 4, an INT4x8 MAC 8 — this 4x core-energy spread between
//     INT8 and INT4 is precisely where dynamic precision saves energy;
//   - FP32 MACs (Eyeriss baseline) cost ~4.6 pJ vs ~0.9 pJ for INT8;
//   - on-chip SRAM costs ~1 pJ/byte, DRAM ~2 orders more per byte
//     (expressed through the dram::DramConfig event energies);
//   - static power scales with the unit count of each accelerator.
#pragma once

#include <cstdint>

namespace drift::energy {

// Per-event energies in pJ and power in mW.

// Core compute.
inline constexpr double kBitbrickOpPj = 0.055;  ///< one 1b x 4b multiply-add
inline constexpr double kPsumAddPj = 0.012;  ///< inter-BB/column accumulation
inline constexpr double kFp32MacPj = 4.6;    ///< Eyeriss-style FP32 MAC

// On-chip buffers (large SRAM macros).
inline constexpr double kBufferReadPjPerByte = 1.05;
inline constexpr double kBufferWritePjPerByte = 1.25;

/// Static (leakage + clock tree) power at 500 MHz / 40 nm, per
/// compute unit (BitGroup / fusion unit / PE) including its share of
/// buffers and NoC.  40 nm leaks heavily; the paper's Figure 8 shows
/// static energy at 41-52% of the total for the INT designs.
inline constexpr double kStaticPjPerUnitCycle = 1.1;

/// Core clock in Hz (fixed by the paper's synthesis target).
inline constexpr double kClockHz = 500e6;

/// BitBrick operations needed for one MAC at the given operand
/// precisions on a BG/fusion-unit substrate (pa, pw in bits; each BB
/// covers 1 activation bit x 4 weight bits).
inline std::int64_t bitbrick_ops_per_mac(int pa, int pw) {
  const std::int64_t weight_slices = (pw + 3) / 4;
  return static_cast<std::int64_t>(pa) * weight_slices;
}

/// Breakdown of energy into the Figure 8 components, in pJ.
struct EnergyBreakdown {
  double static_pj = 0.0;
  double dram_pj = 0.0;
  double buffer_pj = 0.0;
  double core_pj = 0.0;

  double total_pj() const {
    return static_pj + dram_pj + buffer_pj + core_pj;
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    static_pj += other.static_pj;
    dram_pj += other.dram_pj;
    buffer_pj += other.buffer_pj;
    core_pj += other.core_pj;
    return *this;
  }
};

}  // namespace drift::energy
