#include "wimesh/common/log.h"

#include <cstdio>
#include <mutex>

namespace wimesh {

void log_warn(const std::string& component, const std::string& message) {
  static std::mutex write_mutex;
  const std::lock_guard<std::mutex> lock(write_mutex);
  std::fprintf(stderr, "[warn] %s: %s\n", component.c_str(), message.c_str());
}

}  // namespace wimesh
