// Unit conventions and shared physical constants.
//
// Scalar physical quantities are plain doubles with an explicit unit suffix
// in the variable name (`vpp_v`, `t_ns`, `temp_c`). Helper constants below
// keep magic numbers out of the physics code.
#pragma once

namespace vppstudy::common {

// --- Time conversions (canonical simulation unit: nanoseconds) -------------
inline constexpr double kNsPerUs = 1e3;
inline constexpr double kNsPerMs = 1e6;
inline constexpr double kNsPerS = 1e9;

[[nodiscard]] constexpr double ms_to_ns(double ms) noexcept { return ms * kNsPerMs; }
[[nodiscard]] constexpr double s_to_ns(double s) noexcept { return s * kNsPerS; }
[[nodiscard]] constexpr double ns_to_ms(double ns) noexcept { return ns / kNsPerMs; }
[[nodiscard]] constexpr double ns_to_s(double ns) noexcept { return ns / kNsPerS; }

// --- DDR4 voltage rails (JESD79-4) ------------------------------------------
/// Nominal wordline (pumped) voltage.
inline constexpr double kNominalVppV = 2.5;
/// Nominal core supply voltage.
inline constexpr double kNominalVddV = 1.2;

// --- Characterization temperature setpoints (section 4.1) -------------------
/// RowHammer and tRCD characterization temperature.
inline constexpr double kHammerTestTempC = 50.0;
/// Retention characterization temperature (upper bound of normal range).
inline constexpr double kRetentionTestTempC = 80.0;

// --- DDR4 nominal timing anchor points used throughout the paper ------------
/// Nominal activation latency the study compares against (section 4.3).
inline constexpr double kNominalTrcdNs = 13.5;
/// SoftMC command-slot granularity: one command every 1.5 ns (section 4.3).
inline constexpr double kCommandSlotNs = 1.5;
/// Nominal refresh window (JESD79-4: 64 ms below 85C).
inline constexpr double kNominalTrefwMs = 64.0;

}  // namespace vppstudy::common
