// Shared helpers for the declarative spec parsers (workload/spec.cpp and
// workload/experiment.cpp): typed field getters that turn JSON type errors
// into SpecError with the full field path, and unknown-key rejection.
//
// Internal detail namespace — not part of the workload API surface.
#pragma once

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "common/enum_names.hpp"
#include "common/json.hpp"
#include "common/time.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::workload::specdet {

[[noreturn]] inline void bad(const std::string& path, const std::string& msg) {
  throw SpecError(path, msg);
}

/// Unknown keys are errors, exactly like unknown CLI flags: a typo must not
/// silently become a default.
inline void check_keys(const common::JsonValue& obj,
                       std::initializer_list<const char*> allowed,
                       const std::string& path) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string names;
      for (const char* a : allowed) {
        if (!names.empty()) names += ", ";
        names += a;
      }
      bad(path, "unknown key \"" + key + "\" (allowed: " + names + ")");
    }
  }
}

/// True when `seconds` converts to a SimTime (integer nanoseconds) without
/// overflow: finite and strictly inside +-2^63 ns (about 292 years).
inline bool fits_sim_time(double seconds) {
  return std::isfinite(seconds) &&
         std::abs(seconds) < common::SimTime::max().to_sec();
}

/// `seconds` as a SimTime; SpecError at `path` unless it fits_sim_time.
inline common::SimTime to_sim_time(double seconds, const std::string& path) {
  if (!fits_sim_time(seconds)) {
    bad(path, "must be finite and within SimTime range");
  }
  return common::SimTime::from_sec(seconds);
}

/// The period rule for every stream rate: 1/fps seconds, truncated to
/// integer nanoseconds by rt::build_task, must be at least one tick and fit
/// SimTime. SpecError at `path` otherwise, also for a non-finite fps.
inline void check_period(double fps, const std::string& path) {
  const double period_s = 1.0 / fps;
  if (!fits_sim_time(period_s) ||
      common::SimTime::from_sec(period_s) < common::SimTime::from_ns(1)) {
    bad(path,
        "the period must be >= 1 ns (SimTime resolution) and within SimTime "
        "range");
  }
}

/// Rejects the first time field, given as (key, seconds), that does not
/// convert to a SimTime, naming it at `path`.key.
inline void check_times(
    const std::string& path,
    std::initializer_list<std::pair<const char*, double>> seconds) {
  for (const auto& [key, s] : seconds) to_sim_time(s, path + "." + key);
}

inline const common::JsonValue& require_object(const common::JsonValue& v,
                                               const std::string& path) {
  if (!v.is_object()) {
    bad(path, std::string("expected an object, got ") + v.type_name());
  }
  return v;
}

/// Typed getters: absent key -> default; wrong type -> SpecError with the
/// full field path.
template <typename F>
auto get_field(const char* key, const std::string& path, F accessor) {
  try {
    return accessor();
  } catch (const common::JsonError& e) {
    throw SpecError(path + "." + key, e.what());
  }
}

inline double num_or(const common::JsonValue& obj, const char* key,
                     double def, const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return get_field(key, path, [&] { return v->as_number(); });
}

inline int int_or(const common::JsonValue& obj, const char* key, int def,
                  const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  const std::int64_t n = get_field(key, path, [&] { return v->as_int(); });
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    bad(path + std::string(".") + key, "integer out of range");
  }
  return static_cast<int>(n);
}

/// A duration in seconds, converted to SimTime; it must be finite and fit
/// SimTime's range.
inline common::SimTime seconds_or(const common::JsonValue& obj,
                                  const char* key, common::SimTime def,
                                  const std::string& path) {
  return to_sim_time(num_or(obj, key, def.to_sec(), path),
                     path + std::string(".") + key);
}

inline bool bool_or(const common::JsonValue& obj, const char* key, bool def,
                    const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return get_field(key, path, [&] { return v->as_bool(); });
}

inline std::string str_or(const common::JsonValue& obj, const char* key,
                          const std::string& def, const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return get_field(key, path, [&] { return v->as_string(); });
}

/// Reads an enum by its name in `table`; an unknown name is an error that
/// lists the alternatives ("unknown <what> "x" (want a|b)").
template <typename E, std::size_t N>
E enum_or(const common::JsonValue& obj, const char* key,
          const common::EnumName<E> (&table)[N], E def, const char* what,
          const std::string& path) {
  const std::string name = str_or(obj, key, common::name_of(table, def), path);
  if (const auto e = common::parse_name(table, name)) return *e;
  bad(path + "." + key, std::string("unknown ") + what + " \"" + name +
                            "\" (want " + common::names_of(table) + ")");
}

inline std::uint64_t seed_or(const common::JsonValue& obj, const char* key,
                             std::uint64_t def, const std::string& path) {
  const common::JsonValue* v = obj.find(key);
  if (!v) return def;
  return checked_seed(
      get_field(key, path, [&] { return v->as_int(); }),
      path + "." + key);
}

}  // namespace sgprs::workload::specdet
