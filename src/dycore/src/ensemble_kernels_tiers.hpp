// Internal: the per-tier function tables of the dycore step sweeps
// (ensemble_kernels.hpp). Which tier TUs a build carries is decided by the
// CMake ISA probe in src/dycore/CMakeLists.txt; the matching
// GRIST_EK_HAVE_AVX512 definition is set on the target so the dispatcher
// only references factories the build actually has.
#pragma once

#include "grist/dycore/ensemble_kernels.hpp"

namespace grist::dycore::ensemble_kernels {

struct Table {
  decltype(&rrrLite) rrr_lite;
  decltype(&rrrPOnly) rrr_p_only;
  decltype(&saveCellStart) save_cell_start;
  decltype(&saveEdgeStart) save_edge_start;
  decltype(&updateCells) update_cells;
  decltype(&updateEdges) update_edges;
  decltype(&accumulateFlux) accumulate_flux;
  decltype(&vertSolveMemberLanes) vert_solve_member_lanes;
};

const Table& tierTableScalar();
#if GRIST_EK_HAVE_AVX512
const Table& tierTableAvx512();
#endif

} // namespace grist::dycore::ensemble_kernels
