#pragma once

// Small string and text-file helpers (gcc 12 lacks std::format).

#include <sstream>
#include <string>
#include <vector>

#include "wimesh/common/expected.h"

namespace wimesh {

// Concatenates the stream renderings of all arguments.
template <typename... Args>
std::string str_cat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

// Renders a double with fixed precision (default 3 decimals).
std::string fmt_double(double v, int precision = 3);

// Joins items with a separator, e.g. join({"a","b"}, ",") == "a,b".
std::string join(const std::vector<std::string>& items,
                 const std::string& sep);

// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

// Whole-file text I/O, byte for byte; the error names the path.
Expected<std::string> read_text_file(const std::string& path);
Expected<bool> write_text_file(const std::string& path,
                               const std::string& contents);

}  // namespace wimesh
