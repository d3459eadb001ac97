#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/log.hpp"

namespace snnfi::spice {

DcSolution::DcSolution(std::vector<double> x, const Netlist& netlist)
    : x_(std::move(x)), netlist_(&netlist) {}

double DcSolution::voltage(const std::string& node_name) const {
    const NodeId id = netlist_->find_node(node_name);
    return id == kGround ? 0.0 : x_[static_cast<std::size_t>(id)];
}

Simulator::Simulator(Netlist& netlist, SimOptions options)
    : netlist_(netlist), options_(options) {
    prepare();
}

void Simulator::prepare() {
    // Adding a device or a node resets the netlist's unknown count to 0.
    // finalize() is idempotent, so re-running it on an empty netlist is harmless.
    if (netlist_.num_unknowns() == 0) netlist_.finalize();
    const auto n = static_cast<std::size_t>(netlist_.num_unknowns());
    if (g_.rows() == n) return;
    g_ = Matrix(n, n);
    rhs_.assign(n, 0.0);
    x_new_.assign(n, 0.0);
}

bool Simulator::newton_solve(std::vector<double>& x, double t, double dt, double gmin,
                             double source_scale, double relax) {
    const int n = netlist_.num_unknowns();
    const int num_nodes = netlist_.num_nodes();

    const bool needs_iteration = netlist_.any_nonlinear();
    const int max_iters = needs_iteration ? options_.max_nr_iterations : 2;

    for (int iter = 0; iter < max_iters; ++iter) {
        g_.fill(0.0);
        std::fill(rhs_.begin(), rhs_.end(), 0.0);
        Stamper stamper(g_, rhs_, x, num_nodes, t, dt, options_.method, source_scale,
                        relax);
        for (const auto& dev : netlist_.devices()) dev->stamp(stamper);
        // Permanent gmin from every node to ground stabilises floating nodes.
        for (int node = 0; node < num_nodes; ++node)
            g_(static_cast<std::size_t>(node), static_cast<std::size_t>(node)) += gmin;

        if (!lu_.factorize(g_)) return false;
        lu_.solve_into(rhs_, x_new_);

        double max_delta = 0.0;
        bool converged = true;
        for (int k = 0; k < n; ++k) {
            double delta = x_new_[static_cast<std::size_t>(k)] - x[static_cast<std::size_t>(k)];
            const bool is_node_voltage = k < num_nodes;
            if (is_node_voltage) {
                // Damp large voltage updates (SPICE-style limiting). Linear
                // circuits take the full Newton step — it is exact.
                if (needs_iteration)
                    delta = std::clamp(delta, -options_.vlimit, options_.vlimit);
                const double tol =
                    options_.vntol + options_.reltol * std::abs(x[static_cast<std::size_t>(k)]);
                if (std::abs(delta) > tol) converged = false;
            } else {
                // Branch currents: relative test with a 1 pA floor.
                const double tol =
                    1e-12 + options_.reltol * std::abs(x[static_cast<std::size_t>(k)]);
                if (std::abs(delta) > tol) converged = false;
            }
            x[static_cast<std::size_t>(k)] += delta;
            max_delta = std::max(max_delta, std::abs(delta));
        }
        if (!std::isfinite(max_delta)) return false;
        if (converged && iter > 0) return true;
        if (!needs_iteration && iter >= 1) return true;
    }
    return false;
}

DcSolution Simulator::solve_dc() {
    prepare();
    const int n = netlist_.num_unknowns();
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);

    // Strategy 1: plain Newton from a zero start.
    if (newton_solve(x, 0.0, 0.0, options_.gmin, 1.0)) return DcSolution(std::move(x), netlist_);

    // Strategy 2: gmin stepping — solve with a heavy shunt conductance,
    // then relax it geometrically, warm-starting each stage.
    std::fill(x.begin(), x.end(), 0.0);
    bool ok = true;
    for (double gstep = 1e-2; gstep >= options_.gmin; gstep /= 10.0) {
        if (!newton_solve(x, 0.0, 0.0, gstep, 1.0)) {
            ok = false;
            break;
        }
    }
    if (ok && newton_solve(x, 0.0, 0.0, options_.gmin, 1.0))
        return DcSolution(std::move(x), netlist_);

    // Strategy 3: source stepping — ramp all independent sources from 0.
    std::fill(x.begin(), x.end(), 0.0);
    ok = true;
    for (double scale = 0.05; scale <= 1.0 + 1e-12; scale += 0.05) {
        if (!newton_solve(x, 0.0, 0.0, options_.gmin, std::min(scale, 1.0))) {
            ok = false;
            break;
        }
    }
    if (ok) return DcSolution(std::move(x), netlist_);

    // Strategy 4: relaxation stepping — start behavioral high-gain elements
    // (op-amps) in a low-gain regime and tighten them gradually.
    std::fill(x.begin(), x.end(), 0.0);
    ok = true;
    constexpr int kRelaxStages = 16;
    for (int stage = 0; stage <= kRelaxStages; ++stage) {
        const double relax = static_cast<double>(stage) / kRelaxStages;
        if (!newton_solve(x, 0.0, 0.0, options_.gmin, 1.0, std::max(relax, 0.05))) {
            ok = false;
            break;
        }
    }
    if (ok) return DcSolution(std::move(x), netlist_);

    throw std::runtime_error(
        "Simulator::solve_dc: no convergence (NR, gmin, source, and relaxation "
        "stepping all failed)");
}

TransientResult Simulator::run_transient(double t_stop, double dt) {
    if (t_stop <= 0.0 || dt <= 0.0)
        throw std::invalid_argument("run_transient: t_stop and dt must be positive");

    DcSolution dc = solve_dc();
    std::vector<double> x = dc.unknowns();
    const int num_nodes = netlist_.num_nodes();
    for (const auto& dev : netlist_.devices()) dev->begin_transient(x, num_nodes);

    // Identify probes.
    std::vector<Trace> traces;
    traces.reserve(static_cast<std::size_t>(num_nodes) + 4);
    for (int node = 0; node < num_nodes; ++node)
        traces.push_back(Trace{"V(" + netlist_.node_name(node) + ")", {}});
    std::vector<std::pair<std::size_t, int>> branch_probes;  // trace idx, row
    if (options_.record_branch_currents) {
        for (const auto& dev : netlist_.devices()) {
            if (dev->num_branches() > 0) {
                branch_probes.emplace_back(traces.size(), dev->branch_row());
                traces.push_back(Trace{"I(" + dev->name() + ")", {}});
            }
        }
    }
    std::vector<double> time_axis;
    const auto expected = static_cast<std::size_t>(t_stop / dt) + 2;
    time_axis.reserve(expected);
    for (auto& trace : traces) trace.values.reserve(expected);

    auto record = [&](double t) {
        time_axis.push_back(t);
        for (int node = 0; node < num_nodes; ++node)
            traces[static_cast<std::size_t>(node)].values.push_back(
                x[static_cast<std::size_t>(node)]);
        for (const auto& [idx, row] : branch_probes)
            traces[idx].values.push_back(x[static_cast<std::size_t>(row)]);
    };

    record(0.0);
    double t = 0.0;
    while (t < t_stop - 1e-18) {
        double step = std::min(dt, t_stop - t);
        int halvings = 0;
        for (;;) {
            x_try_ = x;
            if (newton_solve(x_try_, t + step, step, options_.gmin, 1.0)) {
                x.swap(x_try_);
                break;
            }
            if (++halvings > options_.max_step_halvings)
                throw std::runtime_error("run_transient: step rejected at t=" +
                                         std::to_string(t) + " after max halvings");
            step *= 0.5;
        }
        t += step;
        for (const auto& dev : netlist_.devices()) dev->accept_step(x, num_nodes, step);
        record(t);
    }
    return TransientResult(std::move(time_axis), std::move(traces));
}

}  // namespace snnfi::spice
