#include "mh/common/config.h"

#include <charconv>
#include <sstream>

#include "mh/common/error.h"
#include "mh/common/strings.h"

namespace mh {

namespace {

template <typename T>
std::optional<T> parse(const std::string& raw) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::string v = toLowerAscii(raw);
    if (v == "true" || v == "1" || v == "yes") return true;
    if (v == "false" || v == "0" || v == "no") return false;
    return std::nullopt;
  } else {
    T value{};
    const auto [ptr, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), value);
    if (ec != std::errc{} || ptr != raw.data() + raw.size()) return {};
    return value;
  }
}

[[noreturn]] void reject(std::string_view key, std::string_view value,
                         std::string_view admitted) {
  throw InvalidArgumentError("config key '" + std::string(key) + "' = '" +
                             std::string(value) + "' is not " +
                             std::string(admitted));
}

}  // namespace

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

void Config::setInt(std::string key, int64_t value) {
  set(std::move(key), std::to_string(value));
}

void Config::setDouble(std::string key, double value) {
  set(std::move(key), std::to_string(value));
}

void Config::setBool(std::string key, bool value) {
  set(std::move(key), value ? "true" : "false");
}

std::optional<std::string> Config::getRaw(std::string_view key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get(std::string_view key, std::string_view def) const {
  const auto raw = getRaw(key);
  return raw ? *raw : std::string(def);
}

template <typename T>
T Config::get(const keys::Key<T>& key) const {
  const auto raw = getRaw(key.name);
  if (!raw) return key.def;
  const std::optional<T> value = parse<T>(*raw);
  // Written so that a NaN fails the range check.
  if (value && *value >= key.min && *value <= key.max) return *value;
  std::ostringstream admitted;
  admitted << std::boolalpha << "in [" << key.min << ", " << key.max << "]";
  reject(key.name, *raw, admitted.str());
}

template int64_t Config::get(const keys::Key<int64_t>&) const;
template double Config::get(const keys::Key<double>&) const;
template bool Config::get(const keys::Key<bool>&) const;

std::string Config::get(const keys::Key<std::string_view>& key) const {
  const auto raw = getRaw(key.name);
  if (!raw) return std::string(key.def);
  const std::string choices = "|" + std::string(key.choices) + "|";
  if (!key.choices.empty() &&
      choices.find("|" + *raw + "|") == std::string::npos) {
    reject(key.name, *raw, "one of " + std::string(key.choices));
  }
  return *raw;
}

void Config::validate(keys::Scope scope) const {
  for (const auto& [name, value] : entries_) {
    bool known = false;
    keys::forEach([&](const auto& key) {
      if (key.name != name) return;
      known = true;
      if (scope == keys::Scope::kJob && key.scope == keys::Scope::kDaemon) {
        reject(name, value, "allowed in a job conf: it is a daemon key");
      }
      get(key);
    });
    if (!known) reject(name, value, "a known key (docs/CONFIG.md)");
  }
}

bool Config::contains(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.entries_) entries_[k] = v;
}

}  // namespace mh
