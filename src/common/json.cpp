#include "wimesh/common/json.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace wimesh {

namespace {

// Length of the valid UTF-8 sequence starting at s[i], or 0 if the bytes
// there are not well-formed UTF-8 (overlong forms, surrogates and values
// beyond U+10FFFF are rejected like any other invalid sequence).
std::size_t utf8_sequence_length(const std::string& s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char b0 = byte(i);
  std::size_t len = 0;
  if ((b0 & 0xe0u) == 0xc0u) {
    len = 2;
  } else if ((b0 & 0xf0u) == 0xe0u) {
    len = 3;
  } else if ((b0 & 0xf8u) == 0xf0u) {
    len = 4;
  } else {
    return 0;  // lone continuation byte or invalid lead
  }
  if (i + len > s.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    if ((byte(i + k) & 0xc0u) != 0x80u) return 0;
  }
  std::uint32_t cp = b0 & (0x7fu >> len);
  for (std::size_t k = 1; k < len; ++k) {
    cp = (cp << 6) | (byte(i + k) & 0x3fu);
  }
  if (len == 2 && cp < 0x80u) return 0;
  if (len == 3 && cp < 0x800u) return 0;
  if (len == 4 && cp < 0x10000u) return 0;
  if (cp >= 0xd800u && cp <= 0xdfffu) return 0;
  if (cp > 0x10ffffu) return 0;
  return len;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size();) {
    const auto c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        out += "\\\"";
        ++i;
        continue;
      case '\\':
        out += "\\\\";
        ++i;
        continue;
      case '\b':
        out += "\\b";
        ++i;
        continue;
      case '\f':
        out += "\\f";
        ++i;
        continue;
      case '\n':
        out += "\\n";
        ++i;
        continue;
      case '\r':
        out += "\\r";
        ++i;
        continue;
      case '\t':
        out += "\\t";
        ++i;
        continue;
      default:
        break;
    }
    if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      ++i;
      continue;
    }
    if (c < 0x80) {
      out += static_cast<char>(c);
      ++i;
      continue;
    }
    const std::size_t len = utf8_sequence_length(s, i);
    if (len == 0) {
      out += "\xef\xbf\xbd";  // U+FFFD replacement character
      ++i;
      continue;
    }
    out.append(s, i, len);
    i += len;
  }
  return out;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // "key": already emitted the separator
  }
  if (!scope_has_item_.empty()) {
    if (scope_has_item_.back()) out_ += ',';
    scope_has_item_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  scope_has_item_.push_back(false);
}

void JsonWriter::end_object() {
  scope_has_item_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  scope_has_item_.push_back(false);
}

void JsonWriter::end_array() {
  scope_has_item_.pop_back();
  out_ += ']';
}

void JsonWriter::key(const std::string& name) {
  comma();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(const std::string& s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
}

void JsonWriter::value(const char* s) { value(std::string(s)); }

void JsonWriter::value(double d) {
  if (!std::isfinite(d)) {
    null();
    return;
  }
  comma();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
}

void JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
}

void JsonWriter::value(std::uint64_t u) {
  comma();
  out_ += std::to_string(u);
}

void JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
}

void JsonWriter::null() {
  comma();
  out_ += "null";
}

void JsonWriter::number(const std::string& formatted) {
  comma();
  out_ += formatted;
}

}  // namespace wimesh
