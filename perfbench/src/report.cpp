#include "report.hpp"

#include "util/table.hpp"

namespace perfbench {

void JsonObject::key(const std::string& name) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += snnfi::util::json_escape(name);
    body_ += "\":";
}

JsonObject& JsonObject::number(const std::string& name, double value) {
    key(name);
    body_ += snnfi::util::json_number(value);
    return *this;
}

JsonObject& JsonObject::integer(const std::string& name, std::uint64_t value) {
    key(name);
    body_ += std::to_string(value);
    return *this;
}

JsonObject& JsonObject::text(const std::string& name, const std::string& value) {
    key(name);
    body_ += '"';
    body_ += snnfi::util::json_escape(value);
    body_ += '"';
    return *this;
}

JsonObject& JsonObject::boolean(const std::string& name, bool value) {
    key(name);
    body_ += value ? "true" : "false";
    return *this;
}

JsonObject& JsonObject::raw(const std::string& name, const std::string& json) {
    key(name);
    body_ += json;
    return *this;
}

std::string json_array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (const std::string& item : items) {
        if (out.size() > 1) out += ",";
        out += item;
    }
    return out + "]";
}

}  // namespace perfbench
