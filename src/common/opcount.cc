#include "common/opcount.h"

#include <sstream>

namespace factorml {

std::string OpCounters::ToString() const {
  std::ostringstream os;
  os << "mults=" << mults << " adds=" << adds << " subs=" << subs
     << " exps=" << exps;
  return os.str();
}

}  // namespace factorml
