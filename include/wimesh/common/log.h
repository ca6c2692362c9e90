#pragma once

// Warning log: one line per call on stderr.

#include <string>

namespace wimesh {

// Writes "[warn] component: message\n" to stderr. Whole lines are
// serialized, so concurrent batch workers cannot interleave mid-line.
void log_warn(const std::string& component, const std::string& message);

}  // namespace wimesh
