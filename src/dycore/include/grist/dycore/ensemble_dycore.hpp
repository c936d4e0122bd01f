// Former name of the M-member Dycore (dycore.hpp), kept for code that still
// includes this header.
#pragma once

#include "grist/dycore/dycore.hpp"

namespace grist::dycore {

using EnsembleDycore = Dycore;

} // namespace grist::dycore
