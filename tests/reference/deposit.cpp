#include "reference/deposit.hpp"

namespace artsci::pic::reference {

namespace {

/// Scatter sink committing straight into the global field with atomic
/// adds. Periodic wrapping happens per write via Field3::at.
struct AtomicCurrentSink {
  VectorField& J;
  void addJx(long i, long j, long k, double v) const {
    double& dst = J.x.at(i, j, k);
#ifdef _OPENMP
#pragma omp atomic
#endif
    dst += v;
  }
  void addJy(long i, long j, long k, double v) const {
    double& dst = J.y.at(i, j, k);
#ifdef _OPENMP
#pragma omp atomic
#endif
    dst += v;
  }
  void addJz(long i, long j, long k, double v) const {
    double& dst = J.z.at(i, j, k);
#ifdef _OPENMP
#pragma omp atomic
#endif
    dst += v;
  }
};

struct AtomicChargeSink {
  Field3& rho;
  void add(long i, long j, long k, double v) const {
    double& dst = rho.at(i, j, k);
#ifdef _OPENMP
#pragma omp atomic
#endif
    dst += v;
  }
};

}  // namespace

void depositCurrentEsirkepov(VectorField& J, const GridSpec& grid,
                             double x0, double y0, double z0, double x1,
                             double y1, double z1, double chargeWeight,
                             double dt) {
  ARTSCI_EXPECTS(dt > 0);
  scatterEsirkepov(grid, x0, y0, z0, x1, y1, z1, chargeWeight, dt,
                   AtomicCurrentSink{J});
}

void depositCurrentAtomic(VectorField& J, const GridSpec& grid,
                          const ParticleBuffer& buffer,
                          const std::vector<double>& oldX,
                          const std::vector<double>& oldY,
                          const std::vector<double>& oldZ, double dt) {
  ARTSCI_EXPECTS(oldX.size() == buffer.size());
  const double q = buffer.info().charge;
  const long n = static_cast<long>(buffer.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    depositCurrentEsirkepov(J, grid, oldX[s], oldY[s], oldZ[s], buffer.x[s],
                            buffer.y[s], buffer.z[s], q * buffer.w[s], dt);
  }
}

void depositChargeAtomic(Field3& rho, const GridSpec& grid,
                         const ParticleBuffer& buffer) {
  const double q = buffer.info().charge;
  const double invV = 1.0 / grid.cellVolume();
  const long n = static_cast<long>(buffer.size());
  const AtomicChargeSink sink{rho};
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long p = 0; p < n; ++p) {
    const auto s = static_cast<std::size_t>(p);
    detail::scatterCic(buffer.x[s], buffer.y[s], buffer.z[s],
                       q * buffer.w[s] * invV, sink);
  }
}

TiledCurrentDeposit::TiledCurrentDeposit(const GridSpec& grid,
                                         TileDepositConfig cfg)
    : accum_(grid, cfg),
      bins_(grid, cfg.tileEdgeX, cfg.tileEdgeY, grid.nz) {}

void TiledCurrentDeposit::deposit(VectorField& J, const ParticleBuffer& buffer,
                                  const std::vector<double>& oldX,
                                  const std::vector<double>& oldY,
                                  const std::vector<double>& oldZ, double dt) {
  ARTSCI_EXPECTS(dt > 0);
  ARTSCI_EXPECTS(oldX.size() == buffer.size() &&
                 oldY.size() == buffer.size() && oldZ.size() == buffer.size());
  // Bin by the *old* position: the Esirkepov stencil is centered on
  // floor(old), so every write lands within the +-kHalo padding no matter
  // where the (sub-cell) move ended up.
  const bool inDomain =
      bins_.bin(oldX.data(), oldY.data(), oldZ.data(), oldX.size());
  ARTSCI_EXPECTS_MSG(inDomain,
                     "tiled deposit: particle position outside [0, n) — "
                     "positions must be periodically wrapped");

  const double q = buffer.info().charge;
  const std::vector<std::uint32_t>& perm = bins_.permutation();
  const long tiles = bins_.tileCount();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (long t = 0; t < tiles; ++t) {
    const SupercellIndex::Range r = bins_.tileRange(t);
    if (r.begin == r.end) continue;
    const DepositBuffer::TileAccum sink = accum_.zeroedTile(t);
    for (std::size_t s = r.begin; s < r.end; ++s) {
      const auto i = static_cast<std::size_t>(perm[s]);
      scatterEsirkepov(accum_.grid(), oldX[i], oldY[i], oldZ[i], buffer.x[i],
                       buffer.y[i], buffer.z[i], q * buffer.w[i], dt, sink);
    }
  }
  accum_.reduce(J, bins_);
}

}  // namespace artsci::pic::reference
