#pragma once

// One input grammar for every text surface: scenario keys, the comma knob
// lists ('ilp =', 'admit =', 'radio =', --chaos), fault plans, traffic
// traces and CLI flags. Numbers convert with a named field and a range,
// so bad input is an error naming the field, never a truncating cast
// (undefined behaviour for an out-of-range double) or a downstream assert.

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/common/strings.h"

namespace wimesh {

// Strips leading and trailing blanks (space, tab, CR, LF).
std::string trim(std::string_view s);

// Splits on runs of blanks; never yields empty tokens.
std::vector<std::string> tokenize(std::string_view s);

// Inclusive bounds of a real field; `lo_open` excludes lo itself.
struct RealRange {
  double lo = std::numeric_limits<double>::lowest();
  double hi = std::numeric_limits<double>::max();
  bool lo_open = false;
};
inline constexpr RealRange kAnyFinite{};
constexpr RealRange positive(double hi) { return {0.0, hi, true}; }

// The whole of `text` as a finite number in `range`; anything else is an
// error naming `field`.
Expected<double> parse_real(std::string_view text, std::string_view field,
                            RealRange range = kAnyFinite);

// The whole of `text` as an integer in [lo, hi]. Exact exponent forms
// ("1e3") are accepted; fractions, NaN, inf and decimal literals a double
// cannot hold exactly (from 2^53 up) are errors. Defined for int, long,
// long long, unsigned long and unsigned long long.
template <typename Int>
Expected<Int> parse_int(std::string_view text, std::string_view field,
                        Int lo = std::numeric_limits<Int>::min(),
                        Int hi = std::numeric_limits<Int>::max());

// The first error among `results`, or null when all hold values.
template <typename... Ts>
const std::string* first_error(const Expected<Ts>&... results) {
  const std::string* error = nullptr;
  ((error = error == nullptr && !results ? &results.error() : error), ...);
  return error;
}

// `text` as one of the named choices, e.g. {{"on", true}, {"off", false}}.
template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

template <typename T>
Expected<T> parse_choice(std::string_view text, std::string_view field,
                         const Choices<T>& choices) {
  std::vector<std::string> names;
  for (const auto& [name, value] : choices) {
    if (text == name) return value;
    names.push_back(name);
  }
  return make_error(str_cat(field, " must be one of ", join(names, "|"),
                            " (got '", text, "')"));
}

// One row of a knob table. A comma knob list such as "on,no-cuts,seed=3"
// holds bare words, [no-]flags and name=value pairs; each row accepts one
// and converts its value, range-checked, into the row's target. Errors
// name the field by the row's name.
struct Knob {
  enum class Kind { kWord, kFlag, kValue };
  // Gets the value text; "on"/"off" for words and flags.
  using Setter = std::function<Expected<bool>(const std::string& value)>;
  Kind kind = Kind::kValue;
  std::string name;
  std::string hint;  // value placeholder in the "expected" list
  Setter set;
};
using KnobTable = std::vector<Knob>;

Knob knob_word(std::string name, std::function<void()> action);
Knob knob_flag(std::string name, bool* target);  // name / no-name
Knob knob_value(std::string name, std::string hint, Knob::Setter set);

// "name=VALUE": `parse(value, name)` yields an Expected handed to `store`.
template <typename Parse, typename Store>
Knob knob_parsed(std::string name, std::string hint, Parse parse,
                 Store store) {
  return knob_value(name, std::move(hint),
                    [name, parse, store](const std::string& value)
                        -> Expected<bool> {
                      auto v = parse(value, name);
                      if (!v) return make_error(v.error());
                      store(std::move(*v));
                      return true;
                    });
}

template <typename T>
auto assign_to(T* target) {
  return [target](T v) { *target = std::move(v); };
}

inline Knob knob_real(std::string name, double* target, RealRange range) {
  return knob_parsed(
      std::move(name), "X",
      [range](const std::string& v, const std::string& f) {
        return parse_real(v, f, range);
      },
      assign_to(target));
}

template <typename Int, typename Store>
Knob knob_int(std::string name, Int lo, Int hi, Store store) {
  return knob_parsed(
      std::move(name), "N",
      [lo, hi](const std::string& v, const std::string& f) {
        return parse_int<Int>(v, f, lo, hi);
      },
      std::move(store));
}
template <typename Int>
Knob knob_int(std::string name, Int* target, Int lo, Int hi) {
  return knob_int<Int>(std::move(name), lo, hi, assign_to(target));
}

template <typename T>
Knob knob_choice(std::string name, T* target, Choices<T> choices) {
  std::vector<std::string> names;
  for (const auto& c : choices) names.push_back(c.first);
  return knob_parsed(
      std::move(name), join(names, "|"),
      [choices = std::move(choices)](const std::string& v,
                                     const std::string& f) {
        return parse_choice<T>(v, f, choices);
      },
      assign_to(target));
}

// The kValue row named `name`, or null.
const Knob* find_knob(const KnobTable& table, std::string_view name);

// Applies a comma knob list through `table`; later tokens win. Errors read
// "unknown <what> knob 'name'" for an unknown name=value, "unknown <what>
// token 'tok' (expected ...)" for any other unknown token (the list is
// generated from the table) and "<what> <field> must be ..." for a bad
// value.
Expected<bool> apply_knobs(std::string_view list, std::string_view what,
                           const KnobTable& table);

}  // namespace wimesh
