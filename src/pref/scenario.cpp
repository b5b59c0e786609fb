#include "pref/scenario.h"

#include <sstream>

#include "util/table.h"

namespace compsynth::pref {

std::string to_string(const Scenario& s, const sketch::Sketch& context) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    if (i > 0) os << ", ";
    if (i < context.metrics().size()) {
      os << context.metrics()[i].name;
    } else {
      os << 'm' << i;
    }
    os << " = " << util::format_number(s.metrics[i], 3);
  }
  os << ')';
  return os.str();
}

bool in_range(const Scenario& s, const sketch::Sketch& context) {
  if (s.metrics.size() != context.metrics().size()) return false;
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const auto& m = context.metrics()[i];
    if (s.metrics[i] < m.lo || s.metrics[i] > m.hi) return false;
  }
  return true;
}

}  // namespace compsynth::pref
