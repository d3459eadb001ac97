// Smooth long-channel MOSFET model (simplified EKV).
//
// The neuromorphic circuits studied in the paper operate from subthreshold
// (nA-scale current mirrors, leak transistors biased at Vgs < Vt) up to
// strong inversion (inverter switching). A square-law model cannot cover
// that range, so we use the EKV interpolation
//
//   Id = Is * [ sp^2((Vp - Vs)/2Ut) - sp^2((Vp - Vd)/2Ut) ] * (1 + lambda*|Vds|)
//   Vp = (Vgs - Vt0)/n,   Is = 2 n (kp W/L) Ut^2,   sp(x) = ln(1 + e^x)
//
// referenced to the source (body effect neglected, a first-order model). The
// expression is infinitely smooth across cutoff/triode/saturation, conducts
// symmetrically for Vds < 0, and yields analytic gm/gds for Newton-Raphson.
#pragma once

namespace snnfi::spice {

enum class MosType { kNmos, kPmos };

/// Technology + geometry parameters. Defaults are PTM-65nm-inspired
/// behavioral values (see ptm65.hpp for the named process corners).
struct MosParams {
    MosType type = MosType::kNmos;
    double vt0 = 0.423;     ///< threshold voltage magnitude [V]
    double kp = 350e-6;     ///< transconductance factor mu*Cox [A/V^2]
    double n = 1.25;        ///< subthreshold slope factor
    double lambda = 0.06;   ///< channel-length modulation [1/V]
    double w = 130e-9;      ///< gate width [m]
    double l = 65e-9;       ///< gate length [m]

    double beta() const { return kp * w / l; }
};

/// Drain current and small-signal derivatives at one bias point.
struct MosEval {
    double id = 0.0;   ///< drain->source current for NMOS (source->drain for PMOS sign convention handled by caller)
    double gm = 0.0;   ///< dId/dVgs
    double gds = 0.0;  ///< dId/dVds
};

/// Evaluates the NMOS equations at (vgs, vds). For PMOS devices, callers
/// evaluate at (-vgs, -vds) and negate the current (see Mosfet::stamp).
MosEval evaluate_nmos(const MosParams& params, double vgs, double vds);

/// Numerically-stable softplus ln(1+e^x) and logistic sigmoid.
double softplus(double x);
double logistic(double x);

/// Thermal voltage at room temperature [V].
inline constexpr double kThermalVoltage = 0.02585;

}  // namespace snnfi::spice
