// AVX-512 tier of the dycore step sweeps (-mavx512f/vl/dq, 256-bit
// preferred width, -ffp-contract=off). Only dispatched to when the
// backend's cpuid check grants AVX-512F.
#define GRIST_EK_TIER_FN tierTableAvx512
#include "ensemble_kernels_impl.hpp"
