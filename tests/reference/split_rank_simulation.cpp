#include "reference/split_rank_simulation.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "pic/pusher.hpp"
#include "reference/deposit.hpp"
#include "reference/interpolate.hpp"

namespace artsci::pic::reference {

SplitRankSimulation::SplitRankSimulation(
    const Simulation& initial, const DistributedSimulation::Config& cfg)
    : cfg_(cfg),
      solver_(cfg.grid),
      E_(initial.fieldE()),
      B_(initial.fieldB()),
      J_(initial.currentJ()),
      particles_(cfg.ranks),
      inbox_(cfg.ranks),
      inboxMutex_(cfg.ranks) {
  const GridSpec& g = cfg.grid;
  ARTSCI_EXPECTS(initial.grid().nx == g.nx && initial.grid().ny == g.ny &&
                 initial.grid().nz == g.nz && initial.dt() == cfg.dt);
  ARTSCI_EXPECTS(solver_.cflNumber(cfg.dt) < 1.0);
  ARTSCI_EXPECTS(cfg.ranks >= 1 && cfg.tiles.tileEdgeX >= 1);
#ifndef _OPENMP
  ARTSCI_EXPECTS_MSG(cfg.ranks == 1,
                     "the split rank step needs an OpenMP build for more "
                     "than one rank (its halo deposit would race)");
#endif
  // Slabs are whole tile columns, base+remainder over ranks — the
  // decomposition DistributedSimulation uses.
  tileEdgeX_ = std::min(cfg.tiles.tileEdgeX, g.nx);
  const long columns = (g.nx + tileEdgeX_ - 1) / tileEdgeX_;
  const long ranks = static_cast<long>(cfg.ranks);
  ARTSCI_EXPECTS(ranks <= columns);
  long c0 = 0;
  for (long r = 0; r < ranks; ++r) {
    const long c1 = c0 + columns / ranks + (r < columns % ranks ? 1 : 0);
    slabs_.emplace_back(c0 * tileEdgeX_, std::min(g.nx, c1 * tileEdgeX_));
    columnRank_.insert(columnRank_.end(), static_cast<std::size_t>(c1 - c0),
                       static_cast<std::size_t>(r));
    c0 = c1;
  }

  for (std::size_t s = 0; s < initial.speciesCount(); ++s) {
    const ParticleBuffer& src = initial.species(s);
    for (std::size_t r = 0; r < cfg.ranks; ++r) {
      particles_[r].emplace_back(src.info());
      inbox_[r].emplace_back();
    }
    for (std::size_t i = 0; i < src.size(); ++i)
      particles_[ownerOf(src.x[i])][s].push(
          {src.x[i], src.y[i], src.z[i]}, {src.ux[i], src.uy[i], src.uz[i]},
          src.w[i]);
  }
}

std::size_t SplitRankSimulation::ownerOf(double xCell) const {
  ARTSCI_EXPECTS(xCell >= 0.0 && xCell < static_cast<double>(cfg_.grid.nx));
  return columnRank_[static_cast<std::size_t>(
      static_cast<long>(std::floor(xCell)) / tileEdgeX_)];
}

void SplitRankSimulation::stepRank(std::size_t rank, Barrier& barrier) {
  const GridSpec& g = cfg_.grid;
  const auto [x0, x1] = slabs_[rank];
  const double dt = cfg_.dt;

  // Phase 1: zero this rank's J slab.
  for (long i = x0; i < x1; ++i) {
    for (long j = 0; j < g.ny; ++j) {
      for (long k = 0; k < g.nz; ++k) {
        const long idx = J_.x.index(i, j, k);
        J_.x.flat(idx) = 0.0;
        J_.y.flat(idx) = 0.0;
        J_.z.flat(idx) = 0.0;
      }
    }
  }
  barrier.arriveAndWait();

  // Phase 2: push + deposit own particles; queue migrants.
  for (std::size_t s = 0; s < particles_[rank].size(); ++s) {
    ParticleBuffer& p = particles_[rank][s];
    const double qOverM = p.info().charge / p.info().mass;
    const double q = p.info().charge;
    std::vector<std::size_t> leaving;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const Vec3d Ep = gatherE(E_, p.x[i], p.y[i], p.z[i]);
      const Vec3d Bp = gatherB(B_, p.x[i], p.y[i], p.z[i]);
      const Vec3d uNew =
          borisPush({p.ux[i], p.uy[i], p.uz[i]}, Ep, Bp, qOverM, dt);
      const double gNew = std::sqrt(1.0 + uNew.dot(uNew));
      p.ux[i] = uNew.x;
      p.uy[i] = uNew.y;
      p.uz[i] = uNew.z;
      const double ox = p.x[i], oy = p.y[i], oz = p.z[i];
      p.x[i] += uNew.x / gNew * dt / g.dx;
      p.y[i] += uNew.y / gNew * dt / g.dy;
      p.z[i] += uNew.z / gNew * dt / g.dz;
      depositCurrentEsirkepov(J_, g, ox, oy, oz, p.x[i], p.y[i], p.z[i],
                              q * p.w[i], dt);
      p.x[i] = wrapCoordinate(p.x[i], static_cast<double>(g.nx));
      p.y[i] = wrapCoordinate(p.y[i], static_cast<double>(g.ny));
      p.z[i] = wrapCoordinate(p.z[i], static_cast<double>(g.nz));
      if (p.x[i] < static_cast<double>(x0) ||
          p.x[i] >= static_cast<double>(x1))
        leaving.push_back(i);
    }
    // Hand migrants to their new owners (adjacent slab or periodic wrap).
    for (auto it = leaving.rbegin(); it != leaving.rend(); ++it) {
      const std::size_t i = *it;
      const std::size_t owner = ownerOf(p.x[i]);
      {
        std::lock_guard<std::mutex> lock(inboxMutex_[owner]);
        inbox_[owner][s].push_back(Migrant{{p.x[i], p.y[i], p.z[i]},
                                           {p.ux[i], p.uy[i], p.uz[i]},
                                           p.w[i]});
      }
      p.swapRemove(i);
    }
  }
  barrier.arriveAndWait();

  // Phase 3: absorb inbox.
  for (std::size_t s = 0; s < particles_[rank].size(); ++s) {
    auto& box = inbox_[rank][s];
    for (const Migrant& m : box) particles_[rank][s].push(m.pos, m.u, m.w);
    box.clear();
  }
  barrier.arriveAndWait();

  // Phase 4: field update on own slab, globally synchronized between
  // sub-steps so halo reads see completed neighbour updates.
  solver_.updateBHalf(B_, E_, dt, x0, x1);
  barrier.arriveAndWait();
  solver_.updateE(E_, B_, J_, dt, x0, x1);
  barrier.arriveAndWait();
  solver_.updateBHalf(B_, E_, dt, x0, x1);
  barrier.arriveAndWait();
}

void SplitRankSimulation::run(long steps) {
  ARTSCI_EXPECTS(steps >= 0);
  Barrier barrier(cfg_.ranks);
  Timer timer;
#ifdef _OPENMP
  // Same per-rank OpenMP team sizing as DistributedSimulation::run.
  const int perRankThreads =
      std::max(1, omp_get_max_threads() / static_cast<int>(cfg_.ranks));
#endif
  runRankTeam(cfg_.ranks, [&](std::size_t rank) {
#ifdef _OPENMP
    omp_set_num_threads(perRankThreads);
#endif
    for (long s = 0; s < steps; ++s) stepRank(rank, barrier);
  });
  double particles = 0;
  for (const auto& rankSpecies : particles_)
    for (const auto& p : rankSpecies)
      particles += static_cast<double>(p.size());
  fom_.particleUpdates += particles * static_cast<double>(steps);
  fom_.cellUpdates += static_cast<double>(cfg_.grid.cellCount() * steps);
  fom_.seconds += timer.seconds();
}

}  // namespace artsci::pic::reference
