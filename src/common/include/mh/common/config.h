#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "mh/common/config_keys.h"

/// \file config.h
/// Hadoop-style string-keyed configuration, mirroring
/// org.apache.hadoop.conf.Configuration. The engine reads keys through the
/// typed handles of config_keys.h, which supply each key's default and
/// check its range.

namespace mh {

class Config {
 public:
  Config() = default;

  /// Sets a key; later sets win.
  void set(std::string key, std::string value);
  template <typename T>
  void set(const keys::Key<T>& key, std::string value) {
    set(std::string(key.name), std::move(value));
  }
  void setInt(std::string key, int64_t value);
  void setDouble(std::string key, double value);
  void setBool(std::string key, bool value);

  /// Raw access; nullopt if absent.
  std::optional<std::string> getRaw(std::string_view key) const;

  std::string get(std::string_view key, std::string_view def = "") const;

  /// Typed reads: the table default when unset. Throws InvalidArgumentError
  /// naming the key, the value and what the table admits when the value does
  /// not parse or is out of range. Bools take true/false/1/0/yes/no, any case.
  template <typename T>
  T get(const keys::Key<T>& key) const;
  std::string get(const keys::Key<std::string_view>& key) const;

  /// Throws InvalidArgumentError on the first unknown key, value `get` would
  /// reject, or — when `scope` is kJob — daemon key. A daemon conf may hold
  /// job keys: they are the cluster's defaults for jobs that leave them unset.
  void validate(keys::Scope scope) const;

  bool contains(std::string_view key) const;

  /// Copies every entry of `other` over this config.
  void merge(const Config& other);

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace mh
