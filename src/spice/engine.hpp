// Simulation engine: Newton-Raphson DC operating point (with gmin and
// source stepping fallbacks) and fixed-step transient analysis with
// automatic step halving on nonconvergence.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/waveform.hpp"

namespace snnfi::spice {

struct SimOptions {
    double vntol = 1e-6;        ///< absolute voltage tolerance [V]
    double reltol = 1e-4;       ///< relative tolerance
    int max_nr_iterations = 150;
    double gmin = 1e-12;        ///< permanent node-to-ground conductance
    double vlimit = 0.4;        ///< max per-iteration voltage update [V]
    IntegrationMethod method = IntegrationMethod::kBackwardEuler;
    int max_step_halvings = 10; ///< transient step-retry budget
    bool record_branch_currents = true;
};

/// DC operating point: unknown vector + node-name accessors.
class DcSolution {
public:
    DcSolution(std::vector<double> x, const Netlist& netlist);
    double voltage(const std::string& node_name) const;
    const std::vector<double>& unknowns() const noexcept { return x_; }

private:
    std::vector<double> x_;
    const Netlist* netlist_;
};

/// Runs analyses on one netlist. The simulator owns the Newton workspace
/// (MNA matrix, right-hand side, LU factors, iterate buffers), sized from
/// the netlist's unknown count, so repeated Newton iterations and analyses
/// allocate nothing. Devices added to the netlist after construction are
/// picked up by the next analysis. A Simulator is single-threaded: run
/// independent simulations on independent instances.
class Simulator {
public:
    explicit Simulator(Netlist& netlist, SimOptions options = {});

    /// Solves the DC operating point. Throws std::runtime_error if every
    /// fallback (plain NR, gmin stepping, source stepping) fails.
    DcSolution solve_dc();

    /// Runs transient analysis over [0, t_stop] with nominal step dt.
    /// The initial state is the DC operating point. Records every node
    /// voltage as "V(node)" and every voltage-defined branch as "I(name)".
    TransientResult run_transient(double t_stop, double dt);

    const SimOptions& options() const noexcept { return options_; }
    SimOptions& options() noexcept { return options_; }

private:
    /// Re-finalizes the netlist if a device was added since the last
    /// analysis and sizes the workspace to its unknown count.
    void prepare();
    /// One Newton solve at fixed (t, dt). Starts from `x` and updates it
    /// in place. Returns true on convergence.
    bool newton_solve(std::vector<double>& x, double t, double dt, double gmin,
                      double source_scale, double relax = 1.0);

    Netlist& netlist_;
    SimOptions options_;
    // Newton workspace, reused by every iteration of every analysis.
    Matrix g_;
    std::vector<double> rhs_;
    LuFactorization lu_;
    std::vector<double> x_new_;
    std::vector<double> x_try_;
};

}  // namespace snnfi::spice
