#include "wimesh/common/parse.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace wimesh {
namespace {

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// strtod over the whole of `text`: a finite double, or nothing.
bool to_finite(std::string_view text, double* out) {
  if (text.empty() || is_blank(text.front())) return false;
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

// A decimal literal "[+-]digits" (what strtoll would read whole).
bool is_decimal_literal(std::string_view text) {
  std::size_t i = (!text.empty() && (text[0] == '+' || text[0] == '-')) ? 1 : 0;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
  }
  return true;
}

// Every integer below 2^53 is a double and strtod rounds correctly, so
// only literals from 2^53 up can come back as a different integer.
constexpr double kExactDoubleLimit = 9007199254740992.0;  // 2^53

std::string expected_list(const KnobTable& table) {
  std::vector<std::string> items;
  for (const Knob& k : table) {
    items.push_back(k.kind == Knob::Kind::kFlag    ? "[no-]" + k.name
                    : k.kind == Knob::Kind::kValue ? k.name + "=" + k.hint
                                                   : k.name);
  }
  return join(items, "|");
}

}  // namespace

std::string trim(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && is_blank(s[b])) ++b;
  std::size_t e = s.size();
  while (e > b && is_blank(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> tokenize(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_blank(s[i])) ++i;
    std::size_t j = i;
    while (j < s.size() && !is_blank(s[j])) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

Expected<double> parse_real(std::string_view text, std::string_view field,
                            RealRange range) {
  double v = 0.0;
  const bool ok = to_finite(text, &v) &&
                  (range.lo_open ? v > range.lo : v >= range.lo) &&
                  v <= range.hi;
  if (ok) return v;
  if (range.lo == kAnyFinite.lo && range.hi == kAnyFinite.hi) {
    return make_error(
        str_cat(field, " must be a finite number (got '", text, "')"));
  }
  return make_error(str_cat(field, " must be a number in ",
                            range.lo_open ? "(" : "[", range.lo, ", ",
                            range.hi, "] (got '", text, "')"));
}

template <typename Int>
Expected<Int> parse_int(std::string_view text, std::string_view field, Int lo,
                        Int hi) {
  const auto range_error = [&](std::string_view why) {
    return make_error(str_cat(field, " must be an integer in [", lo, ", ",
                              hi, "] (got '", text, "'", why, ")"));
  };
  double v = 0.0;
  if (!to_finite(text, &v) || v != std::floor(v)) return range_error("");
  // [type_lo, type_end) as exact powers of two: the cast below is defined.
  constexpr int kBits = std::numeric_limits<Int>::digits;
  const double type_end = std::ldexp(1.0, kBits);
  const double type_lo = std::is_signed_v<Int> ? -type_end : 0.0;
  const bool in_type = v >= type_lo && v < type_end;
  if (std::fabs(v) >= kExactDoubleLimit && is_decimal_literal(text)) {
    const std::string_view digits =
        text.front() == '+' ? text.substr(1) : text;
    Int exact = 0;
    const auto r =
        std::from_chars(digits.data(), digits.data() + digits.size(), exact);
    if (r.ec != std::errc{}) return range_error("");
    if (!in_type || static_cast<Int>(v) != exact) {
      return range_error(", not exactly representable");
    }
  }
  if (!in_type) return range_error("");
  const auto n = static_cast<Int>(v);
  if (n < lo || n > hi) return range_error("");
  return n;
}

#define WIMESH_PARSE_INT(T) \
  template Expected<T> parse_int(std::string_view, std::string_view, T, T);
WIMESH_PARSE_INT(int)
WIMESH_PARSE_INT(long)
WIMESH_PARSE_INT(long long)
WIMESH_PARSE_INT(unsigned long)
WIMESH_PARSE_INT(unsigned long long)
#undef WIMESH_PARSE_INT

Knob knob_word(std::string name, std::function<void()> action) {
  return Knob{Knob::Kind::kWord, std::move(name), "",
              [action](const std::string&) -> Expected<bool> {
                action();
                return true;
              }};
}

Knob knob_flag(std::string name, bool* target) {
  return Knob{Knob::Kind::kFlag, std::move(name), "",
              [target](const std::string& value) -> Expected<bool> {
                *target = value == "on";
                return true;
              }};
}

Knob knob_value(std::string name, std::string hint, Knob::Setter set) {
  return Knob{Knob::Kind::kValue, std::move(name), std::move(hint),
              std::move(set)};
}

const Knob* find_knob(const KnobTable& table, std::string_view name) {
  for (const Knob& k : table) {
    if (k.kind == Knob::Kind::kValue && k.name == name) return &k;
  }
  return nullptr;
}

Expected<bool> apply_knobs(std::string_view list, std::string_view what,
                           const KnobTable& table) {
  for (const std::string& raw : split(std::string(list), ',')) {
    const std::string tok = trim(raw);
    if (tok.empty()) continue;
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const std::string name = trim(tok.substr(0, eq));
      const Knob* knob = find_knob(table, name);
      if (knob == nullptr) {
        return make_error(str_cat("unknown ", what, " knob '", name, "'"));
      }
      const auto applied = knob->set(trim(tok.substr(eq + 1)));
      if (!applied) return make_error(str_cat(what, " ", applied.error()));
      continue;
    }
    // Bare tokens: a word or flag name ("on"), or "no-" + a flag ("off").
    const Knob* match = nullptr;
    std::string value = "on";
    for (const Knob& k : table) {
      if (k.kind != Knob::Kind::kValue && tok == k.name) match = &k;
      if (k.kind == Knob::Kind::kFlag && tok == "no-" + k.name) {
        match = &k;
        value = "off";
      }
      if (match != nullptr) break;
    }
    if (match == nullptr) {
      return make_error(str_cat("unknown ", what, " token '", tok,
                                "' (expected ", expected_list(table), ")"));
    }
    const auto applied = match->set(value);
    if (!applied) return make_error(str_cat(what, " ", applied.error()));
  }
  return true;
}

}  // namespace wimesh
