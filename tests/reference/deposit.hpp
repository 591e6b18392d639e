/// \file deposit.hpp
/// Reference current and charge deposition: the unclipped Esirkepov
/// kernel, the legacy `omp atomic` scatter, and the pre-fused re-binning
/// tiled current deposit. None of it runs in the library; it is the
/// oracle the production kernels are tested against and the baseline
/// bench/deposit_modes.cpp measures.
///
///  * Atomic — every particle scatters straight into the global field
///    with `#pragma omp atomic` adds. Sums arrive in scheduling order, so
///    results are not reproducible across runs or thread counts, and the
///    atomics serialize under high particle-per-cell contention.
///  * Tiled — bins particles by the tile of their pre-move cell, scatters
///    each tile into its private DepositBuffer accumulator and reduces in
///    fixed tile order: bit-identical for any thread count.
///
/// Both use the same per-particle kernel (scatterEsirkepov), so they
/// differ only in the order contributions are summed (equal up to FP
/// reassociation).
#pragma once

#include <cmath>
#include <vector>

#include "pic/deposit.hpp"
#include "pic/deposit_buffer.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::pic::reference {

/// Esirkepov density-decomposition scatter for one particle that moved
/// from (x0,y0,z0) to (x1,y1,z1) in cell units (|x1-x0| < 1 cell per
/// axis). Emits every nonzero current contribution through
/// `sink.addJx/addJy/addJz(i, j, k, value)`; all emitted node indices lie
/// within +-2 of (floor(x0), floor(y0), floor(z0)).
/// DepositBuffer::scatterEsirkepovTile is its support-clipped replica.
template <class Sink>
inline void scatterEsirkepov(const GridSpec& grid, double x0, double y0,
                             double z0, double x1, double y1, double z1,
                             double chargeWeight, double dt, Sink&& sink) {
  const long icx = static_cast<long>(std::floor(x0));
  const long icy = static_cast<long>(std::floor(y0));
  const long icz = static_cast<long>(std::floor(z0));

  double S0x[5], S0y[5], S0z[5], S1x[5], S1y[5], S1z[5];
  detail::cicWeights5(x0, icx, S0x);
  detail::cicWeights5(y0, icy, S0y);
  detail::cicWeights5(z0, icz, S0z);
  detail::cicWeights5(x1, icx, S1x);
  detail::cicWeights5(y1, icy, S1y);
  detail::cicWeights5(z1, icz, S1z);

  double DSx[5], DSy[5], DSz[5];
  for (int r = 0; r < 5; ++r) {
    DSx[r] = S1x[r] - S0x[r];
    DSy[r] = S1y[r] - S0y[r];
    DSz[r] = S1z[r] - S0z[r];
  }

  // Esirkepov density decomposition weights.
  const double invVdt = 1.0 / (grid.cellVolume() * dt);
  const double fx = chargeWeight * grid.dx * invVdt;
  const double fy = chargeWeight * grid.dy * invVdt;
  const double fz = chargeWeight * grid.dz * invVdt;

  // Jx: accumulate along x for each (j,k).
  for (int j = 0; j < 5; ++j) {
    for (int k = 0; k < 5; ++k) {
      const double wyz = S0y[j] * S0z[k] + 0.5 * DSy[j] * S0z[k] +
                         0.5 * S0y[j] * DSz[k] + DSy[j] * DSz[k] / 3.0;
      if (wyz == 0.0) continue;
      double acc = 0.0;
      for (int i = 0; i < 5; ++i) {
        acc -= DSx[i] * wyz;
        if (acc != 0.0) {
          sink.addJx(icx + i - 2, icy + j - 2, icz + k - 2, fx * acc);
        }
      }
    }
  }
  // Jy.
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k < 5; ++k) {
      const double wxz = S0x[i] * S0z[k] + 0.5 * DSx[i] * S0z[k] +
                         0.5 * S0x[i] * DSz[k] + DSx[i] * DSz[k] / 3.0;
      if (wxz == 0.0) continue;
      double acc = 0.0;
      for (int j = 0; j < 5; ++j) {
        acc -= DSy[j] * wxz;
        if (acc != 0.0) {
          sink.addJy(icx + i - 2, icy + j - 2, icz + k - 2, fy * acc);
        }
      }
    }
  }
  // Jz.
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const double wxy = S0x[i] * S0y[j] + 0.5 * DSx[i] * S0y[j] +
                         0.5 * S0x[i] * DSy[j] + DSx[i] * DSy[j] / 3.0;
      if (wxy == 0.0) continue;
      double acc = 0.0;
      for (int k = 0; k < 5; ++k) {
        acc -= DSz[k] * wxy;
        if (acc != 0.0) {
          sink.addJz(icx + i - 2, icy + j - 2, icz + k - 2, fz * acc);
        }
      }
    }
  }
}

/// Deposit the current of one particle that moved from (x0,y0,z0) to
/// (x1,y1,z1) in cell units *without periodic wrapping* (|x1-x0| < 1 cell
/// per axis, guaranteed by CFL). `chargeWeight` is q * w. Thread-safe
/// via atomic adds (in OpenMP builds; plain adds otherwise).
void depositCurrentEsirkepov(VectorField& J, const GridSpec& grid,
                             double x0, double y0, double z0, double x1,
                             double y1, double z1, double chargeWeight,
                             double dt);

/// Atomic-scatter current deposit of every particle of `buffer`:
/// `buffer.x/y/z` hold the new (unwrapped) positions, `oldX/oldY/oldZ`
/// the pre-move ones. Accumulates into J; summation order follows the
/// OpenMP schedule.
void depositCurrentAtomic(VectorField& J, const GridSpec& grid,
                          const ParticleBuffer& buffer,
                          const std::vector<double>& oldX,
                          const std::vector<double>& oldY,
                          const std::vector<double>& oldZ, double dt);

/// Atomic-scatter CIC charge deposit (positions wrapped into [0, n)).
/// Same per-particle factorization as pic::depositCharge.
void depositChargeAtomic(Field3& rho, const GridSpec& grid,
                         const ParticleBuffer& buffer);

/// The pre-fused tiled current deposit: a stable counting sort of the
/// particles by the tile of their *old* position (the Esirkepov stencil
/// is centered on floor(old), so every write lands within the tile's
/// halo), one tile per task into its private accumulator, then the
/// fixed-order reduce. Storage is reused across calls.
class TiledCurrentDeposit {
 public:
  explicit TiledCurrentDeposit(const GridSpec& grid,
                               TileDepositConfig cfg = {});

  /// Same contract as depositCurrentAtomic, plus: old positions must lie
  /// inside [0, n) per axis (throws otherwise). Bit-identical for any
  /// thread count.
  void deposit(VectorField& J, const ParticleBuffer& buffer,
               const std::vector<double>& oldX,
               const std::vector<double>& oldY,
               const std::vector<double>& oldZ, double dt);

 private:
  DepositBuffer accum_;
  SupercellIndex bins_;  ///< accum_'s tile geometry (full z columns)
};

}  // namespace artsci::pic::reference
