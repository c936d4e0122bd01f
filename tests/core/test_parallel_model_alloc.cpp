// Zero-allocation guard for the warm multi-rank step: once the persistent
// worker pool is up and the packed exchange buffers are planned,
// ParallelModel::step() must perform no heap allocation -- which also
// proves it creates no threads (libstdc++ allocates each std::thread's
// state block with operator new), for both the overlapped and the lockstep
// schedule. The same binary guards the warm solo Model: a full
// lcm(trac, phy) cycle -- dynamics, tracer transport and ML physics steps --
// must not touch the heap under DP-ML and MIX-ML. (The conventional physics
// suite is left out: it still allocates in its column physics on every
// physics step.)
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt) --
// the same pattern as tests/ml/test_ml_alloc.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "grist/core/model.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. malloc-backed so the override itself is free of
// recursion; every flavor of operator new/delete funnels through here.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long> g_heap_allocs{0};
} // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_heap_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace grist::core {
namespace {

long allocsDuring(const std::function<void()>& fn) {
  const long before = g_heap_allocs.load();
  fn();
  return g_heap_allocs.load() - before;
}

class PooledStepAllocationGuard : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(3);
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.nlev = 8;
    cfg_.dt = 450.0;
  }
  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  dycore::DycoreConfig cfg_;
};

TEST_F(PooledStepAllocationGuard, OverlapStepIsHeapFreeWhenWarm) {
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
  ParallelModel model(mesh_, trsk_, cfg_, /*nranks=*/4, initial);
  const auto step = [&] { model.step(); };
  // Warm-up: per-thread Workspace arenas, OpenMP teams, and the timing
  // registry's section entry all materialize on the first steps.
  step();
  step();
  EXPECT_EQ(allocsDuring(step), 0);
}

TEST_F(PooledStepAllocationGuard, LockstepStepIsHeapFreeWhenWarm) {
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
  ParallelModel model(mesh_, trsk_, cfg_, /*nranks=*/4, initial);
  model.setSchedule(ParallelModel::Schedule::kLockstep);
  const auto step = [&] { model.step(); };
  step();
  step();
  EXPECT_EQ(allocsDuring(step), 0);
}

TEST_F(PooledStepAllocationGuard, SeedSpawnScheduleDoesAllocate) {
  // Negative control: the seed schedule spawns threads every step, so the
  // guard must see heap traffic -- proving the counter actually observes
  // the step path.
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
  ParallelModel model(mesh_, trsk_, cfg_, /*nranks=*/4, initial);
  model.setSchedule(ParallelModel::Schedule::kSpawnUnpacked);
  const auto step = [&] { model.step(); };
  step();
  step();
  EXPECT_GT(allocsDuring(step), 0);
}

class ModelAllocationGuard : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new grid::HexMesh(grid::buildHexMesh(3));
    trsk_ = new grid::TrskWeights(grid::buildTrskWeights(*mesh_));
  }
  static void TearDownTestSuite() {
    delete trsk_;
    delete mesh_;
    trsk_ = nullptr;
    mesh_ = nullptr;
  }

  static void expectWarmCycleHeapFree(precision::NsMode ns) {
    const int nlev = 10;
    ModelConfig mc;
    mc.dyn.nlev = nlev;
    mc.dyn.dt = 300.0;
    mc.dyn.ns = ns;
    mc.trac_interval = 4;
    mc.phy_interval = 5;
    mc.scheme = PhysicsScheme::kMl;
    ml::Q1Q2NetConfig qcfg;
    qcfg.nlev = nlev;
    qcfg.channels = 12;
    qcfg.res_units = 1;
    mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
    ml::RadMlpConfig rcfg;
    rcfg.nlev = nlev;
    rcfg.hidden = 16;
    mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
    Model model(*mesh_, *trsk_, mc, dycore::initBaroclinicWave(*mesh_, mc.dyn, 3));
    // Warm-up over one full cadence cycle (lcm(trac=4, phy=5) = 20 steps):
    // arenas, OpenMP teams and the timing registry's section entries all
    // materialize here.
    model.run(20);
    // The next cycle hits the same tracer/physics boundaries and must stay
    // off the heap entirely.
    EXPECT_EQ(allocsDuring([&] { model.run(20); }), 0) << model.schemeName();
  }

  static grid::HexMesh* mesh_;
  static grid::TrskWeights* trsk_;
};

grid::HexMesh* ModelAllocationGuard::mesh_ = nullptr;
grid::TrskWeights* ModelAllocationGuard::trsk_ = nullptr;

TEST_F(ModelAllocationGuard, WarmCycleIsHeapFreeDpMl) {
  expectWarmCycleHeapFree(precision::NsMode::kDouble);
}

TEST_F(ModelAllocationGuard, WarmCycleIsHeapFreeMixMl) {
  expectWarmCycleHeapFree(precision::NsMode::kSingle);
}

} // namespace
} // namespace grist::core
