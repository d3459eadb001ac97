#include "spice/netlist.hpp"

#include <stdexcept>

namespace snnfi::spice {

NodeId Netlist::node(const std::string& name) {
    if (name == "0" || name == "gnd" || name == "GND") return kGround;
    const auto it = node_ids_.find(name);
    if (it != node_ids_.end()) return it->second;
    const NodeId id = static_cast<NodeId>(node_names_.size());
    node_ids_.emplace(name, id);
    node_names_.push_back(name);
    num_unknowns_ = 0;  // branch rows follow the node rows: invalidate finalize()
    return id;
}

NodeId Netlist::find_node(const std::string& name) const {
    if (name == "0" || name == "gnd" || name == "GND") return kGround;
    const auto it = node_ids_.find(name);
    if (it == node_ids_.end()) throw std::invalid_argument("Netlist: unknown node " + name);
    return it->second;
}

bool Netlist::has_node(const std::string& name) const {
    return name == "0" || name == "gnd" || name == "GND" || node_ids_.count(name) > 0;
}

const std::string& Netlist::node_name(NodeId id) const {
    static const std::string kGroundName = "0";
    if (id == kGround) return kGroundName;
    return node_names_.at(static_cast<std::size_t>(id));
}

template <typename T, typename... Args>
T& Netlist::emplace_device(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    if (device_index_.count(ref.name()) > 0)
        throw std::invalid_argument("Netlist: duplicate device name " + ref.name());
    device_index_.emplace(ref.name(), devices_.size());
    devices_.push_back(std::move(owned));
    num_unknowns_ = 0;  // invalidate finalize()
    return ref;
}

Resistor& Netlist::add_resistor(const std::string& name, const std::string& a,
                                const std::string& b, double ohms) {
    return emplace_device<Resistor>(name, node(a), node(b), ohms);
}

Capacitor& Netlist::add_capacitor(const std::string& name, const std::string& a,
                                  const std::string& b, double farads) {
    return emplace_device<Capacitor>(name, node(a), node(b), farads);
}

VoltageSource& Netlist::add_voltage_source(const std::string& name, const std::string& a,
                                           const std::string& b, SourceSpec spec) {
    return emplace_device<VoltageSource>(name, node(a), node(b), std::move(spec));
}

CurrentSource& Netlist::add_current_source(const std::string& name, const std::string& a,
                                           const std::string& b, SourceSpec spec) {
    return emplace_device<CurrentSource>(name, node(a), node(b), std::move(spec));
}

Mosfet& Netlist::add_mosfet(const std::string& name, const std::string& drain,
                            const std::string& gate, const std::string& source,
                            MosParams params) {
    return emplace_device<Mosfet>(name, node(drain), node(gate), node(source), params);
}

OpAmp& Netlist::add_opamp(const std::string& name, const std::string& in_plus,
                          const std::string& in_minus, const std::string& out,
                          double gain, double rail_lo, double rail_hi) {
    return emplace_device<OpAmp>(name, node(in_plus), node(in_minus), node(out), gain,
                                 rail_lo, rail_hi);
}

Vcvs& Netlist::add_vcvs(const std::string& name, const std::string& out_p,
                        const std::string& out_m, const std::string& ctrl_p,
                        const std::string& ctrl_m, double gain) {
    return emplace_device<Vcvs>(name, node(out_p), node(out_m), node(ctrl_p),
                                node(ctrl_m), gain);
}

Device& Netlist::device(const std::string& name) {
    const auto it = device_index_.find(name);
    if (it == device_index_.end())
        throw std::invalid_argument("Netlist: unknown device " + name);
    return *devices_[it->second];
}

bool Netlist::has_device(const std::string& name) const {
    return device_index_.count(name) > 0;
}

namespace {
template <typename T>
T& cast_device(Device& d, const char* kind) {
    if (auto* typed = dynamic_cast<T*>(&d)) return *typed;
    throw std::invalid_argument("Netlist: device " + d.name() + " is not a " + kind);
}
}  // namespace

Resistor& Netlist::resistor(const std::string& name) {
    return cast_device<Resistor>(device(name), "resistor");
}
Capacitor& Netlist::capacitor(const std::string& name) {
    return cast_device<Capacitor>(device(name), "capacitor");
}
VoltageSource& Netlist::voltage_source(const std::string& name) {
    return cast_device<VoltageSource>(device(name), "voltage source");
}
CurrentSource& Netlist::current_source(const std::string& name) {
    return cast_device<CurrentSource>(device(name), "current source");
}
Mosfet& Netlist::mosfet(const std::string& name) {
    return cast_device<Mosfet>(device(name), "mosfet");
}
OpAmp& Netlist::opamp(const std::string& name) {
    return cast_device<OpAmp>(device(name), "opamp");
}

int Netlist::finalize() {
    int next_row = num_nodes();
    for (const auto& dev : devices_) {
        if (dev->num_branches() > 0) {
            dev->assign_branch_row(next_row);
            next_row += dev->num_branches();
        }
    }
    num_unknowns_ = next_row;
    return num_unknowns_;
}

bool Netlist::any_nonlinear() const {
    for (const auto& dev : devices_)
        if (dev->nonlinear()) return true;
    return false;
}

}  // namespace snnfi::spice
