// Minimal JSON object writer for the raw-measurement document perfbench prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class JsonObject {
public:
    JsonObject& number(const std::string& key, double value);
    JsonObject& integer(const std::string& key, std::uint64_t value);
    JsonObject& text(const std::string& key, const std::string& value);
    JsonObject& boolean(const std::string& key, bool value);
    /// Embeds an already-rendered JSON value (object, array, ...).
    JsonObject& raw(const std::string& key, const std::string& json);
    std::string str() const { return "{" + body_ + "}"; }

private:
    void key(const std::string& name);
    std::string body_;
};

/// Joins already-rendered JSON values into an array.
std::string json_array(const std::vector<std::string>& items);

}  // namespace perfbench
