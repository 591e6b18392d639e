/// \file split_rank_simulation.hpp
/// Reference rank-decomposed PIC stepper: the legacy split rank step that
/// pic::DistributedSimulation's fused rank step replaced, kept as the
/// baseline of bench/fig4_fom_scaling.cpp. Same x-slab decomposition
/// (whole tile columns, base+remainder over ranks) and barrier-phased
/// field update, but each rank gathers, pushes and deposits particle by
/// particle straight into the shared J through `omp atomic` sinks, and
/// migrants travel through mutex-guarded inboxes. Both make the result
/// depend on thread scheduling: the stepper is *not* bit-reproducible.
/// Without OpenMP the atomic sinks are plain adds — a data race across
/// ranks — so non-OpenMP builds accept only one rank.
#pragma once

#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "pic/domain.hpp"
#include "pic/simulation.hpp"

namespace artsci::pic::reference {

class SplitRankSimulation {
 public:
  /// Start from `initial`'s fields and particles, each particle handed
  /// to the rank owning its x slab. `cfg` must describe `initial` (same
  /// grid and dt); requires cfg.ranks <= x tile columns.
  SplitRankSimulation(const Simulation& initial,
                      const DistributedSimulation::Config& cfg);

  /// Run `steps` full PIC cycles on a rank team.
  void run(long steps);

  const GridSpec& grid() const { return cfg_.grid; }
  /// Accumulated FOM work counters (wall-clock dependent).
  const FomCounters& fom() const { return fom_; }

 private:
  struct Migrant {
    Vec3d pos, u;
    double w;
  };

  /// Owner rank of a particle at x (cell units, inside [0, nx)).
  std::size_t ownerOf(double xCell) const;
  void stepRank(std::size_t rank, Barrier& barrier);

  DistributedSimulation::Config cfg_;
  long tileEdgeX_ = 0;
  std::vector<std::pair<long, long>> slabs_;  ///< per rank: [x0, x1) cells
  std::vector<std::size_t> columnRank_;       ///< tile column -> rank
  FieldSolver solver_;
  VectorField E_, B_, J_;
  /// particles_[rank][species]
  std::vector<std::vector<ParticleBuffer>> particles_;
  /// inbox_[rank][species], appended in thread arrival order.
  std::vector<std::vector<std::vector<Migrant>>> inbox_;
  std::vector<std::mutex> inboxMutex_;
  FomCounters fom_;
};

}  // namespace artsci::pic::reference
