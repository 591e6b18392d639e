/// \file interpolate.hpp
/// Reference CIC (cloud-in-cell, linear) field gather honouring the Yee
/// staggering, one wrapped node read at a time. Positions are in cell
/// units. The fused pipeline's staged tile-cache gather
/// (pic/fused_pipeline.cpp) replicates this arithmetic and is pinned to
/// it bitwise through the split reference step.
#pragma once

#include <cmath>

#include "common/vec3.hpp"
#include "pic/grid.hpp"

namespace artsci::pic::reference {

/// Trilinear interpolation of a scalar field sampled at grid positions
/// (i + sx, j + sy, k + sz), where s* in {0, 0.5} encode the staggering.
/// Periodic wrapping happens per node read (Field3::at). Corner terms add
/// in (a,b,c)-ascending order; the fused gather keeps that order, which
/// is what makes the two bit-identical.
inline double gatherStaggered(const Field3& f, double px, double py,
                              double pz, double sx, double sy, double sz) {
  const double gx = px - sx;
  const double gy = py - sy;
  const double gz = pz - sz;
  const long i0 = static_cast<long>(std::floor(gx));
  const long j0 = static_cast<long>(std::floor(gy));
  const long k0 = static_cast<long>(std::floor(gz));
  const double fx = gx - static_cast<double>(i0);
  const double fy = gy - static_cast<double>(j0);
  const double fz = gz - static_cast<double>(k0);
  double acc = 0.0;
  for (int a = 0; a < 2; ++a) {
    const double wxp = a ? fx : 1.0 - fx;
    for (int b = 0; b < 2; ++b) {
      const double wyp = b ? fy : 1.0 - fy;
      for (int c = 0; c < 2; ++c) {
        const double wzp = c ? fz : 1.0 - fz;
        acc += wxp * wyp * wzp * f.at(i0 + a, j0 + b, k0 + c);
      }
    }
  }
  return acc;
}

/// Gather E at a particle position (Yee staggering of E components).
inline Vec3d gatherE(const VectorField& E, double px, double py, double pz) {
  return {gatherStaggered(E.x, px, py, pz, 0.5, 0.0, 0.0),
          gatherStaggered(E.y, px, py, pz, 0.0, 0.5, 0.0),
          gatherStaggered(E.z, px, py, pz, 0.0, 0.0, 0.5)};
}

/// Gather B at a particle position (Yee staggering of B components).
inline Vec3d gatherB(const VectorField& B, double px, double py, double pz) {
  return {gatherStaggered(B.x, px, py, pz, 0.0, 0.5, 0.5),
          gatherStaggered(B.y, px, py, pz, 0.5, 0.0, 0.5),
          gatherStaggered(B.z, px, py, pz, 0.5, 0.5, 0.0)};
}

}  // namespace artsci::pic::reference
