/// Determinism and agreement tests for tiled deposition
/// (pic/deposit_buffer.hpp): the tiled deposits must be bit-identical
/// across OMP thread counts and repeated runs, and must agree with the
/// atomic reference scatter (tests/reference/deposit.hpp) to
/// floating-point reassociation tolerance. This is the test the README's
/// "Determinism guarantees" section points at for deposition.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "pic/deposit.hpp"
#include "pic/deposit_buffer.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference/deposit.hpp"
#include "reference/split_simulation.hpp"

namespace artsci::pic {
namespace {

using reference::depositChargeAtomic;
using reference::depositCurrentAtomic;
using reference::TiledCurrentDeposit;

/// Restores the global OMP thread count on scope exit so one test cannot
/// perturb the others.
struct ThreadCountGuard {
#ifdef _OPENMP
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
#endif
  void set(int n) {
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
};

struct TestParticles {
  ParticleBuffer buffer{{-1.0, 1.0, "e"}};  ///< post-move (unwrapped)
  std::vector<double> oldX, oldY, oldZ;     ///< pre-move (wrapped)
};

/// Random particles with wrapped pre-move positions and sub-cell moves
/// that may cross cell boundaries and the periodic seam.
TestParticles makeParticles(const GridSpec& g, int n, std::uint64_t seed) {
  TestParticles p;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, static_cast<double>(g.nx));
    const double y = rng.uniform(0.0, static_cast<double>(g.ny));
    const double z = rng.uniform(0.0, static_cast<double>(g.nz));
    p.oldX.push_back(x);
    p.oldY.push_back(y);
    p.oldZ.push_back(z);
    p.buffer.push({x + rng.uniform(-0.45, 0.45), y + rng.uniform(-0.45, 0.45),
                   z + rng.uniform(-0.45, 0.45)},
                  {}, rng.uniform(0.5, 1.5));
  }
  return p;
}

bool bitIdentical(const Field3& a, const Field3& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

bool bitIdentical(const VectorField& a, const VectorField& b) {
  return bitIdentical(a.x, b.x) && bitIdentical(a.y, b.y) &&
         bitIdentical(a.z, b.z);
}

double maxAbsDiff(const Field3& a, const Field3& b) {
  double m = 0.0;
  for (long i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.flat(i) - b.flat(i)));
  return m;
}

TEST(DepositModes, TiledMatchesAtomicCurrent) {
  const GridSpec g{16, 32, 8, 0.2, 0.2, 0.2};
  const double dt = 0.05;
  const TestParticles p = makeParticles(g, 5000, 7);

  VectorField atomicJ(g), tiledJ(g);
  depositCurrentAtomic(atomicJ, g, p.buffer, p.oldX, p.oldY, p.oldZ, dt);
  TiledCurrentDeposit(g).deposit(tiledJ, p.buffer, p.oldX, p.oldY, p.oldZ,
                                 dt);

  EXPECT_LT(maxAbsDiff(atomicJ.x, tiledJ.x), 1e-10);
  EXPECT_LT(maxAbsDiff(atomicJ.y, tiledJ.y), 1e-10);
  EXPECT_LT(maxAbsDiff(atomicJ.z, tiledJ.z), 1e-10);
  // Non-trivial deposit.
  EXPECT_GT(tiledJ.x.sumSquares() + tiledJ.y.sumSquares() +
                tiledJ.z.sumSquares(),
            0.0);
}

TEST(DepositModes, TiledMatchesAtomicCharge) {
  const GridSpec g{16, 32, 8, 0.2, 0.2, 0.2};
  TestParticles p = makeParticles(g, 5000, 11);
  // depositCharge reads buffer positions; wrap them into the domain.
  for (std::size_t i = 0; i < p.buffer.size(); ++i) {
    p.buffer.x[i] = p.oldX[i];
    p.buffer.y[i] = p.oldY[i];
    p.buffer.z[i] = p.oldZ[i];
  }

  Field3 atomicRho(g.nx, g.ny, g.nz), tiledRho(g.nx, g.ny, g.nz);
  depositChargeAtomic(atomicRho, g, p.buffer);
  depositCharge(tiledRho, g, p.buffer);
  EXPECT_LT(maxAbsDiff(atomicRho, tiledRho), 1e-10);
  EXPECT_GT(tiledRho.sumSquares(), 0.0);
}

TEST(DepositModes, TiledBitIdenticalAcrossThreadCounts) {
  const GridSpec g{16, 32, 8, 0.2, 0.2, 0.2};
  const double dt = 0.05;
  const TestParticles p = makeParticles(g, 8000, 23);
  TestParticles wrapped = makeParticles(g, 8000, 23);
  for (std::size_t i = 0; i < wrapped.buffer.size(); ++i) {
    wrapped.buffer.x[i] = wrapped.oldX[i];
    wrapped.buffer.y[i] = wrapped.oldY[i];
    wrapped.buffer.z[i] = wrapped.oldZ[i];
  }

  ThreadCountGuard guard;
  std::vector<VectorField> js;
  std::vector<Field3> rhos;
  for (int threads : {1, 2, 8}) {
    guard.set(threads);
    VectorField J(g);
    TiledCurrentDeposit(g).deposit(J, p.buffer, p.oldX, p.oldY, p.oldZ, dt);
    js.push_back(std::move(J));
    Field3 rho(g.nx, g.ny, g.nz);
    depositCharge(rho, g, wrapped.buffer);
    rhos.push_back(std::move(rho));
  }
  EXPECT_TRUE(bitIdentical(js[0], js[1])) << "J: 1 vs 2 threads differ";
  EXPECT_TRUE(bitIdentical(js[0], js[2])) << "J: 1 vs 8 threads differ";
  EXPECT_TRUE(bitIdentical(rhos[0], rhos[1])) << "rho: 1 vs 2 threads differ";
  EXPECT_TRUE(bitIdentical(rhos[0], rhos[2])) << "rho: 1 vs 8 threads differ";
}

TEST(DepositModes, TiledBitIdenticalAcrossRepeatedRuns) {
  const GridSpec g{12, 12, 6, 0.25, 0.25, 0.25};
  const double dt = 0.05;
  const TestParticles p = makeParticles(g, 4000, 31);
  TiledCurrentDeposit scratch(g);

  VectorField first(g);
  scratch.deposit(first, p.buffer, p.oldX, p.oldY, p.oldZ, dt);
  for (int run = 0; run < 3; ++run) {
    VectorField again(g);
    scratch.deposit(again, p.buffer, p.oldX, p.oldY, p.oldZ, dt);
    EXPECT_TRUE(bitIdentical(first, again)) << "run " << run;
  }
}

TEST(DepositModes, TiledContinuityEquation) {
  // Esirkepov's theorem must survive the reordered accumulation:
  // (rho1 - rho0)/dt + div J = 0 with rho and J both from the tiled path.
  const GridSpec g{8, 8, 8, 0.25, 0.25, 0.25};
  const double dt = 0.1;
  const TestParticles p = makeParticles(g, 500, 43);

  ParticleBuffer before({-1.0, 1.0, "e"}), after({-1.0, 1.0, "e"});
  for (std::size_t i = 0; i < p.buffer.size(); ++i) {
    before.push({p.oldX[i], p.oldY[i], p.oldZ[i]}, {}, p.buffer.w[i]);
    // rho must see the *wrapped* post-move positions.
    const double lx = static_cast<double>(g.nx);
    const double ly = static_cast<double>(g.ny);
    const double lz = static_cast<double>(g.nz);
    double x = p.buffer.x[i], y = p.buffer.y[i], z = p.buffer.z[i];
    if (x < 0) x += lx;
    if (x >= lx) x -= lx;
    if (y < 0) y += ly;
    if (y >= ly) y -= ly;
    if (z < 0) z += lz;
    if (z >= lz) z -= lz;
    after.push({x, y, z}, {}, p.buffer.w[i]);
  }

  Field3 rho0(g.nx, g.ny, g.nz), rho1(g.nx, g.ny, g.nz);
  depositCharge(rho0, g, before);
  depositCharge(rho1, g, after);
  VectorField J(g);
  TiledCurrentDeposit(g).deposit(J, p.buffer, p.oldX, p.oldY, p.oldZ, dt);

  double maxViolation = 0.0;
  for (long i = 0; i < g.nx; ++i)
    for (long j = 0; j < g.ny; ++j)
      for (long k = 0; k < g.nz; ++k) {
        const double dRho = (rho1.at(i, j, k) - rho0.at(i, j, k)) / dt;
        const double divJ =
            (J.x.at(i, j, k) - J.x.at(i - 1, j, k)) / g.dx +
            (J.y.at(i, j, k) - J.y.at(i, j - 1, k)) / g.dy +
            (J.z.at(i, j, k) - J.z.at(i, j, k - 1)) / g.dz;
        maxViolation = std::max(maxViolation, std::abs(dRho + divJ));
      }
  EXPECT_LT(maxViolation, 1e-9);
}

TEST(DepositModes, SmallGridWrapOverlapAgrees) {
  // Grid smaller than one default tile: the padded halo wraps onto the
  // tile's own interior; agreement + thread invariance must still hold.
  const GridSpec g{6, 6, 6, 0.25, 0.25, 0.25};
  const double dt = 0.05;
  const TestParticles p = makeParticles(g, 1500, 53);

  VectorField atomicJ(g), tiledJ(g);
  depositCurrentAtomic(atomicJ, g, p.buffer, p.oldX, p.oldY, p.oldZ, dt);
  TiledCurrentDeposit(g).deposit(tiledJ, p.buffer, p.oldX, p.oldY, p.oldZ,
                                 dt);
  EXPECT_LT(maxAbsDiff(atomicJ.x, tiledJ.x), 1e-10);
  EXPECT_LT(maxAbsDiff(atomicJ.y, tiledJ.y), 1e-10);
  EXPECT_LT(maxAbsDiff(atomicJ.z, tiledJ.z), 1e-10);

  ThreadCountGuard guard;
  guard.set(8);
  VectorField tiled8(g);
  TiledCurrentDeposit(g).deposit(tiled8, p.buffer, p.oldX, p.oldY, p.oldZ,
                                 dt);
  guard.set(1);
  VectorField tiled1(g);
  TiledCurrentDeposit(g).deposit(tiled1, p.buffer, p.oldX, p.oldY, p.oldZ,
                                 dt);
  EXPECT_TRUE(bitIdentical(tiled1, tiled8));
}

TEST(DepositModes, OutOfDomainPositionThrows) {
  const GridSpec g{8, 8, 8, 0.25, 0.25, 0.25};
  Field3 rho(g.nx, g.ny, g.nz);
  // Every axis must be validated — an unwrapped z would scatter outside
  // the padded tile column (the x/y tile key alone can't catch it).
  for (int axis = 0; axis < 3; ++axis) {
    ParticleBuffer p({-1.0, 1.0, "e"});
    Vec3d pos{2.0, 2.0, 2.0};
    (axis == 0 ? pos.x : axis == 1 ? pos.y : pos.z) = -0.5;  // not wrapped
    p.push(pos, {}, 1.0);
    EXPECT_THROW(depositCharge(rho, g, p), ContractError)
        << "axis " << axis;
  }
}

TEST(DepositModes, ScratchCellSizeMismatchThrows) {
  // Same extent, different spacing: the tiled kernels take the physics
  // factors from the scratch buffer's grid, so this must be rejected,
  // not silently mis-scaled.
  const GridSpec g{8, 8, 8, 0.25, 0.25, 0.25};
  GridSpec finer = g;
  finer.dx = 0.125;
  DepositBuffer scratch(finer);
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({2.0, 2.0, 2.0}, {}, 1.0);
  Field3 rho(g.nx, g.ny, g.nz);
  EXPECT_THROW(depositCharge(rho, g, p, &scratch), ContractError);
}

TEST(DepositModes, SimulationStepBitIdenticalAcrossThreadCounts) {
  // With tiled deposition the *whole* PIC step is thread-count invariant:
  // gather/push/move are per-particle, the FDTD update writes disjoint
  // cells, and deposition is the only cross-thread reduction.
  KhiConfig kcfg;
  kcfg.grid = GridSpec{16, 16, 4, 0.2, 0.2, 0.2};
  kcfg.particlesPerCell = 4;
  SimulationConfig cfg;
  cfg.grid = kcfg.grid;
  cfg.dt = kcfg.dt;
  const auto makeKhi = [&] {
    auto sim = std::make_unique<Simulation>(cfg);
    initializeKhi(*sim, kcfg);
    return sim;
  };
  const auto runKhi = [&](int threads) {
    ThreadCountGuard guard;
    guard.set(threads);
    auto sim = makeKhi();
    sim->run(3);
    return sim;
  };

  const auto a = runKhi(1);
  const auto b = runKhi(4);
  EXPECT_TRUE(bitIdentical(a->fieldE(), b->fieldE()));
  EXPECT_TRUE(bitIdentical(a->fieldB(), b->fieldB()));
  EXPECT_TRUE(bitIdentical(a->currentJ(), b->currentJ()));

  // The split step with the atomic scatter lands close to the tiled
  // result.
  ThreadCountGuard guard;
  guard.set(4);
  reference::SplitSimulation c(*makeKhi(), cfg,
                               reference::SplitDeposit::Atomic);
  c.run(3);
  EXPECT_LT(maxAbsDiff(a->currentJ().x, c.currentJ().x), 1e-8);
}

}  // namespace
}  // namespace artsci::pic
