// Portable tier of the dycore step sweeps: the baseline build flags, so it
// runs on any CPU; the dispatcher's fallback.
#define GRIST_EK_TIER_FN tierTableScalar
#include "ensemble_kernels_impl.hpp"
