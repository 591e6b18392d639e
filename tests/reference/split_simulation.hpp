/// \file split_simulation.hpp
/// Reference single-rank PIC step: the split particle update the fused
/// pipeline replaced, kept as the bit-identity oracle for
/// pic::Simulation (tests/pic/test_fused_pipeline.cpp) and as the
/// baseline of bench/particle_pipeline.cpp. Per species and step:
///
///  1. supercell sort (Tiled only) — the same canonical sort the fused
///     pass starts with, so the deposit's per-tile order, and with it
///     every bit of J, matches the fused pass;
///  2. gather + Boris push + move sweep over the whole population,
///     snapshotting the pre-move positions;
///  3. current deposit from the unwrapped displacement — the re-binning
///     tiled deposit (Tiled) or the atomic scatter (Atomic);
///  4. periodic wrap sweep;
///
/// then the same FDTD update as pic::Simulation. With Tiled the fields
/// and particle state equal the fused Simulation's bit for bit at every
/// step; Atomic is only FP-reassociation-close to it.
#pragma once

#include <vector>

#include "pic/fields.hpp"
#include "pic/particles.hpp"
#include "pic/simulation.hpp"
#include "reference/deposit.hpp"

namespace artsci::pic::reference {

/// Current-deposit strategy of the split step.
enum class SplitDeposit { Tiled, Atomic };

class SplitSimulation {
 public:
  /// Start from `initial`'s fields and particles (e.g. a Simulation
  /// filled by initializeKhi and not yet stepped). `cfg` must describe
  /// `initial` (same grid and dt).
  SplitSimulation(const Simulation& initial, const SimulationConfig& cfg,
                  SplitDeposit deposit = SplitDeposit::Tiled);

  std::size_t speciesCount() const { return species_.size(); }
  const ParticleBuffer& species(std::size_t i) const;
  const VectorField& fieldE() const { return E_; }
  const VectorField& fieldB() const { return B_; }
  const VectorField& currentJ() const { return J_; }
  /// Total particle count across species.
  std::size_t particleCount() const;

  /// Per-particle d(beta)/dt of the last step (empty unless
  /// cfg.recordBetaDot), index-parallel to species(i).
  const std::vector<double>& betaDotX(std::size_t i) const;
  const std::vector<double>& betaDotY(std::size_t i) const;
  const std::vector<double>& betaDotZ(std::size_t i) const;

  /// One full PIC cycle.
  void step();
  void run(long steps);

 private:
  void pushAndDeposit(std::size_t speciesIdx);

  SimulationConfig cfg_;
  SplitDeposit deposit_;
  FieldSolver solver_;
  TiledCurrentDeposit tiled_;
  SupercellIndex supercell_;
  VectorField E_, B_, J_;
  std::vector<ParticleBuffer> species_;
  /// Per species: pre-move positions, recorded accelerations.
  struct Scratch {
    std::vector<double> oldX, oldY, oldZ;
    std::vector<double> bdx, bdy, bdz;
  };
  std::vector<Scratch> scratch_;
};

}  // namespace artsci::pic::reference
