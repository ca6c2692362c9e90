#include "wimesh/common/strings.h"

#include <fstream>
#include <iomanip>

namespace wimesh {

std::string fmt_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string join(const std::vector<std::string>& items,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  for (char c : s) {
    if (c == delim) {
      out.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  out.push_back(field);
  return out;
}

Expected<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error(str_cat("cannot open '", path, "'"));
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Expected<bool> write_text_file(const std::string& path,
                               const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!(out << contents << std::flush)) {
    return make_error(str_cat("cannot write '", path, "'"));
  }
  return true;
}

}  // namespace wimesh
