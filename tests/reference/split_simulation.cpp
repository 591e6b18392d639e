#include "reference/split_simulation.hpp"

#include <cmath>

#include "pic/pusher.hpp"
#include "reference/interpolate.hpp"

namespace artsci::pic::reference {

SplitSimulation::SplitSimulation(const Simulation& initial,
                                 const SimulationConfig& cfg,
                                 SplitDeposit deposit)
    : cfg_(cfg),
      deposit_(deposit),
      solver_(cfg.grid),
      tiled_(cfg.grid, cfg.tiles),
      supercell_(cfg.grid, cfg.tiles.tileEdgeX, cfg.tiles.tileEdgeY,
                 cfg.grid.nz),
      E_(initial.fieldE()),
      B_(initial.fieldB()),
      J_(initial.currentJ()) {
  const GridSpec& g = initial.grid();
  ARTSCI_EXPECTS(g.nx == cfg.grid.nx && g.ny == cfg.grid.ny &&
                 g.nz == cfg.grid.nz && g.dx == cfg.grid.dx &&
                 g.dy == cfg.grid.dy && g.dz == cfg.grid.dz &&
                 initial.dt() == cfg.dt);
  ARTSCI_EXPECTS(solver_.cflNumber(cfg.dt) < 1.0);
  for (std::size_t s = 0; s < initial.speciesCount(); ++s)
    species_.push_back(initial.species(s));
  scratch_.resize(species_.size());
}

const ParticleBuffer& SplitSimulation::species(std::size_t i) const {
  ARTSCI_EXPECTS(i < species_.size());
  return species_[i];
}

std::size_t SplitSimulation::particleCount() const {
  std::size_t n = 0;
  for (const auto& s : species_) n += s.size();
  return n;
}

const std::vector<double>& SplitSimulation::betaDotX(std::size_t i) const {
  ARTSCI_EXPECTS(i < scratch_.size());
  return scratch_[i].bdx;
}
const std::vector<double>& SplitSimulation::betaDotY(std::size_t i) const {
  ARTSCI_EXPECTS(i < scratch_.size());
  return scratch_[i].bdy;
}
const std::vector<double>& SplitSimulation::betaDotZ(std::size_t i) const {
  ARTSCI_EXPECTS(i < scratch_.size());
  return scratch_[i].bdz;
}

void SplitSimulation::pushAndDeposit(std::size_t speciesIdx) {
  ParticleBuffer& p = species_[speciesIdx];
  Scratch& scr = scratch_[speciesIdx];
  const long n = static_cast<long>(p.size());
  if (n == 0) return;

  // The shared once-per-step supercell sort: with the buffer tile-ordered
  // by pre-move position, the tiled deposit's re-binning is the identity,
  // so the per-tile accumulation order matches the fused pass.
  if (deposit_ == SplitDeposit::Tiled) supercell_.sort(p);

  scr.oldX.assign(p.x.begin(), p.x.end());
  scr.oldY.assign(p.y.begin(), p.y.end());
  scr.oldZ.assign(p.z.begin(), p.z.end());
  if (cfg_.recordBetaDot) {
    scr.bdx.resize(p.size());
    scr.bdy.resize(p.size());
    scr.bdz.resize(p.size());
  }

  const double qOverM = p.info().charge / p.info().mass;
  const double dt = cfg_.dt;
  const GridSpec& g = cfg_.grid;

#pragma omp parallel for schedule(static)
  for (long ip = 0; ip < n; ++ip) {
    const auto i = static_cast<std::size_t>(ip);
    const Vec3d Ep = gatherE(E_, p.x[i], p.y[i], p.z[i]);
    const Vec3d Bp = gatherB(B_, p.x[i], p.y[i], p.z[i]);
    const Vec3d uOld{p.ux[i], p.uy[i], p.uz[i]};
    const double gOld = std::sqrt(1.0 + uOld.dot(uOld));
    const Vec3d uNew = borisPush(uOld, Ep, Bp, qOverM, dt);
    const double gNew = std::sqrt(1.0 + uNew.dot(uNew));
    p.ux[i] = uNew.x;
    p.uy[i] = uNew.y;
    p.uz[i] = uNew.z;
    if (cfg_.recordBetaDot) {
      scr.bdx[i] = (uNew.x / gNew - uOld.x / gOld) / dt;
      scr.bdy[i] = (uNew.y / gNew - uOld.y / gOld) / dt;
      scr.bdz[i] = (uNew.z / gNew - uOld.z / gOld) / dt;
    }
    // Move (positions in cell units).
    p.x[i] += uNew.x / gNew * dt / g.dx;
    p.y[i] += uNew.y / gNew * dt / g.dy;
    p.z[i] += uNew.z / gNew * dt / g.dz;
  }

  // Charge-conserving deposit from the *unwrapped* displacement (old
  // positions are wrapped, as the tiled binning requires).
  if (deposit_ == SplitDeposit::Tiled)
    tiled_.deposit(J_, p, scr.oldX, scr.oldY, scr.oldZ, dt);
  else
    depositCurrentAtomic(J_, g, p, scr.oldX, scr.oldY, scr.oldZ, dt);

  // Periodic wrap after the deposit.
  const double lx = static_cast<double>(g.nx);
  const double ly = static_cast<double>(g.ny);
  const double lz = static_cast<double>(g.nz);
#pragma omp parallel for schedule(static)
  for (long ip = 0; ip < n; ++ip) {
    const auto i = static_cast<std::size_t>(ip);
    p.x[i] = wrapCoordinate(p.x[i], lx);
    p.y[i] = wrapCoordinate(p.y[i], ly);
    p.z[i] = wrapCoordinate(p.z[i], lz);
  }
}

void SplitSimulation::step() {
  J_.fill(0.0);
  for (std::size_t s = 0; s < species_.size(); ++s) pushAndDeposit(s);
  solver_.updateBHalf(B_, E_, cfg_.dt);
  solver_.updateE(E_, B_, J_, cfg_.dt);
  solver_.updateBHalf(B_, E_, cfg_.dt);
}

void SplitSimulation::run(long steps) {
  ARTSCI_EXPECTS(steps >= 0);
  for (long s = 0; s < steps; ++s) step();
}

}  // namespace artsci::pic::reference
