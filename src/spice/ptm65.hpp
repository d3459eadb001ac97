// PTM-65nm-inspired behavioral device parameters.
//
// The paper simulates on the Predictive Technology Model 65 nm node. Our
// engine uses a smooth long-channel EKV model, so these are *behavioral*
// parameters chosen to match first-order PTM 65 nm characteristics:
// |Vt| ~ 0.4 V class thresholds, ~mA/um-class drive, subthreshold slope
// ~90 mV/dec, and a balanced inverter switching near VDD/2 at VDD = 1 V.
// They are not BSIM card translations.
#pragma once

#include "spice/mosfet_model.hpp"

namespace snnfi::spice::ptm65 {

inline constexpr double kMinWidth = 130e-9;   ///< 2x the 65nm drawn length
inline constexpr double kMinLength = 65e-9;

/// NMOS with W/L expressed in multiples of the minimum-size device.
MosParams nmos(double w_over_l = 2.0, double length_multiple = 1.0);
/// PMOS: mobility ratio ~2.2x lower; vt0 holds the magnitude |Vtp|.
MosParams pmos(double w_over_l = 4.4, double length_multiple = 1.0);

inline constexpr double kNmosVt0 = 0.423;
inline constexpr double kPmosVt0 = 0.365;
inline constexpr double kNmosKp = 350e-6;
inline constexpr double kPmosKp = 160e-6;
inline constexpr double kSlopeFactor = 1.25;
inline constexpr double kLambda = 0.06;

}  // namespace snnfi::spice::ptm65
