#include "grist/physics/types.hpp"

#include <stdexcept>
#include <string>

namespace grist::physics {

void checkLevels(const char* scheme, int nlev) {
  if (nlev > kMaxLevels) {
    throw std::invalid_argument(std::string(scheme) + ": nlev " + std::to_string(nlev) +
                                " exceeds kMaxLevels " + std::to_string(kMaxLevels));
  }
}

} // namespace grist::physics
