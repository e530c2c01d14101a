// JSON → struct through a table of typed rows: the one reader behind the
// planner config (--config and the imdpp flags), dataset spec files,
// dataset entries and sweep configs. A row names one settable field: its
// dotted key, a kind reader holding the field's range rule, and the
// field. ApplyJsonRows walks an object against a table and rejects
// unknown keys; every failure is a message naming the dotted key, so a
// mistyped, misspelled or out-of-range value never reaches a cast or a
// CHECK.
#ifndef IMDPP_UTIL_JSON_TABLE_H_
#define IMDPP_UTIL_JSON_TABLE_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"

namespace imdpp::util {

// ---------------------------------------------------------- kind readers
// Each checks a JSON value against its kind's range rule before any cast
// and returns false with a message naming `where` (the dotted key, a list
// element "key[]", or a --flag).

template <typename T>
using JsonReader = bool (*)(const Json& v, const std::string& where, T* out,
                            std::string* error);

/// Whether an integer reader rejects `d` as a fraction (its message says
/// "whole number") rather than as out of range, NaN or infinite (its
/// message names the range).
inline bool IsFraction(double d) {
  return std::isfinite(d) && d != std::floor(d);
}

/// A whole number within int (NaN and infinities are not).
inline bool ReadInt(const Json& v, const std::string& where, int* out,
                    std::string* error) {
  if (!v.is_number()) {
    *error = where + " must be an integer";
    return false;
  }
  const double d = v.AsDouble();
  if (d == std::floor(d) && d >= std::numeric_limits<int>::min() &&
      d <= std::numeric_limits<int>::max()) {
    *out = static_cast<int>(d);
    return true;
  }
  if (IsFraction(d)) {
    *error = where + " must be a whole number";
    return false;
  }
  *error = where + " must be an integer within [" +
           std::to_string(std::numeric_limits<int>::min()) + ", " +
           std::to_string(std::numeric_limits<int>::max()) + "]";
  return false;
}

/// ReadInt plus a [kMin, kMax] rule.
template <int kMin, int kMax = std::numeric_limits<int>::max()>
bool ReadIntIn(const Json& v, const std::string& where, int* out,
               std::string* error) {
  if (!ReadInt(v, where, out, error)) return false;
  if (*out >= kMin && *out <= kMax) return true;
  *error = where + (kMax == std::numeric_limits<int>::max()
                        ? " must be >= " + std::to_string(kMin)
                        : " must be an integer within [" +
                              std::to_string(kMin) + ", " +
                              std::to_string(kMax) + "]");
  return false;
}

/// A count of at least one (samples, promotions, sketches).
inline constexpr JsonReader<int> ReadCount = ReadIntIn<1>;

/// Any number, infinities included.
inline bool ReadDouble(const Json& v, const std::string& where, double* out,
                       std::string* error) {
  if (!v.is_number()) {
    *error = where + " must be a number";
    return false;
  }
  *out = v.AsDouble();
  return true;
}

inline bool ReadBool(const Json& v, const std::string& where, bool* out,
                     std::string* error) {
  if (!v.is_bool()) {
    *error = where + " must be a bool";
    return false;
  }
  *out = v.AsBool();
  return true;
}

/// A 64-bit seed: a whole number below 2^64, or a digit string (decimal
/// or 0x hex) for seeds past a double's exact range. Negatives,
/// fractions and values past 2^64 - 1 fail before any cast.
inline bool ReadSeed(const Json& v, const std::string& where, uint64_t* out,
                     std::string* error) {
  if (v.is_number()) {
    const double d = v.AsDouble();
    // Also rejects NaN and infinities.
    if (d >= 0.0 && d < 18446744073709551616.0 && d == std::floor(d)) {
      *out = static_cast<uint64_t>(d);
      return true;
    }
    if (IsFraction(d)) {
      *error = where + " must be a whole number";
      return false;
    }
  } else if (v.is_string()) {
    const std::string& s = v.AsString();
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s.c_str(), &end, 0);
    // strtoull wraps a leading '-' instead of failing.
    if (!s.empty() && *end == '\0' && errno != ERANGE &&
        s.find('-') == std::string::npos) {
      *out = parsed;
      return true;
    }
  }
  *error = where + " must be an integer within [0, " +
           std::to_string(std::numeric_limits<uint64_t>::max()) +
           "], as a number or a digit string";
  return false;
}

inline bool ReadString(const Json& v, const std::string& where,
                       std::string* out, std::string* error) {
  if (!v.is_string()) {
    *error = where + " must be a string";
    return false;
  }
  *out = v.AsString();
  return true;
}

/// ReadDouble plus a rule that the number lies in the unit interval, each
/// end open or closed: (0, 1] for a probability, (0, 1) for an error
/// budget, [0, 1] for a weight. NaN never passes.
template <bool kOpenLo, bool kOpenHi>
bool ReadUnitIn(const Json& v, const std::string& where, double* out,
                std::string* error) {
  if (!ReadDouble(v, where, out, error)) return false;
  if ((kOpenLo ? *out > 0.0 : *out >= 0.0) &&
      (kOpenHi ? *out < 1.0 : *out <= 1.0)) {
    return true;
  }
  *error = where + " must be in " + (kOpenLo ? "(" : "[") + "0, 1" +
           (kOpenHi ? ")" : "]");
  return false;
}

/// One of the names of kNames, an array of {name, value} pairs, stored as
/// its value.
template <const auto& kNames>
bool ReadEnum(const Json& v, const std::string& where,
              std::remove_cvref_t<decltype(kNames[0].second)>* out,
              std::string* error) {
  if (!v.is_string()) {
    *error = where + " must be a string";
    return false;
  }
  std::string expected;
  for (const auto& [name, value] : kNames) {
    if (v.AsString() == name) {
      *out = value;
      return true;
    }
    expected += (expected.empty() ? "" : ", ") + std::string(name);
  }
  *error = "unknown " + where + " \"" + v.AsString() + "\" (expected " +
           expected + ")";
  return false;
}

/// An array whose every element kRead reads (named "where[]"); replaces
/// *out.
template <typename T, JsonReader<T> kRead>
bool ReadList(const Json& v, const std::string& where, std::vector<T>* out,
              std::string* error) {
  if (!v.is_array()) {
    *error = where + " must be an array";
    return false;
  }
  out->clear();
  for (const Json& element : v.elements()) {
    T value{};
    if (!kRead(element, where + "[]", &value, error)) return false;
    out->push_back(std::move(value));
  }
  return true;
}

// ------------------------------------------------------------------ rows

/// One settable field of an S. `field` is a data-member pointer, or a
/// callable mapping an S& to the (nested) field's address.
template <typename S>
struct JsonRow {
  template <typename T, typename Field>
  JsonRow(std::string_view key, JsonReader<T> read, Field field)
      : key(key),
        read([read, field](const Json& v, const std::string& where, S* out,
                           std::string* error) {
          if constexpr (std::is_member_object_pointer_v<Field>) {
            return read(v, where, &(out->*field), error);
          } else {
            return read(v, where, field(*out), error);
          }
        }) {}

  std::string_view key;  ///< dotted key
  /// Reads `v` (named `where` in messages) into the row's field of *out.
  std::function<bool(const Json& v, const std::string& where, S* out,
                     std::string* error)>
      read;
};

/// Applies the members of `obj` onto *out, each through the row of
/// `rows` whose key is the member's dotted path under `prefix` ("" = the
/// table's top level). A member naming a section (a proper dotted prefix
/// of some key) must be an object and is walked the same way; a dotted
/// member name ({"eval.backend": …}) is never a shortcut for its section.
/// Messages call `obj` `name` ("unknown <name> key \"k\"", "<name> must
/// be a JSON object") and a section by its dotted path. `Row` is
/// JsonRow<S> or a type derived from it.
template <typename Row, typename S>
bool ApplyJsonRows(const std::vector<Row>& rows, const Json& obj,
                   const std::string& prefix, const std::string& name, S* out,
                   std::string* error) {
  if (!obj.is_object()) {
    *error = name + " must be a JSON object";
    return false;
  }
  for (const auto& [key, v] : obj.members()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    const Row* row = nullptr;
    bool section = false;
    if (key.find('.') == std::string::npos) {
      for (const Row& r : rows) {
        if (r.key == path) row = &r;
        section = section || (r.key.size() > path.size() &&
                              r.key.starts_with(path) &&
                              r.key[path.size()] == '.');
      }
    }
    if (row != nullptr) {
      if (!row->read(v, path, out, error)) return false;
    } else if (section) {
      if (!v.is_object()) {
        *error = path + " must be an object";
        return false;
      }
      if (!ApplyJsonRows(rows, v, path, path, out, error)) return false;
    } else {
      *error = "unknown " + name + " key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace imdpp::util

#endif  // IMDPP_UTIL_JSON_TABLE_H_
