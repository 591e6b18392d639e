/// Deposition-mode A/B benchmark: atomic vs deterministic tiled current
/// deposition (pic/deposit_buffer.hpp accumulators; both deposits come
/// from the test-only reference, tests/reference/deposit.hpp) across OMP
/// thread counts and particle densities, on the quick-demo KHI box
/// (32x64x8, the paper's reduced setup). The deposition hot loop is the producer's dominant
/// cost: atomics serialize under particle-per-cell contention, private
/// tiles don't — and the tiled path is bit-reproducible on top.
///
/// Acceptance target: tiled throughput >= atomic at 8 threads on the
/// quick-demo density (9 particles per cell).
///
///   ./bench/bench_deposit_modes [--json <path>] [repeats=3]
///
/// --json writes the gate measurement (tiled/atomic ratio at 8 threads,
/// ppc 9) for the CI perf-trajectory artifact.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference/deposit.hpp"

using namespace artsci;

namespace {

struct Workload {
  pic::GridSpec grid;
  pic::ParticleBuffer particles{{-1.0, 1.0, "e"}};  ///< post-move, unwrapped
  std::vector<double> oldX, oldY, oldZ;             ///< pre-move, wrapped
  double dt = 0.08;
};

/// KHI electrons at the requested density, with one Boris-free "move":
/// new position = old + v dt (the same sub-cell displacement the real
/// step produces, counter-streaming beta = +-0.2).
Workload makeWorkload(int particlesPerCell) {
  pic::KhiConfig kcfg;  // quick-demo box 32x64x8
  kcfg.particlesPerCell = particlesPerCell;
  pic::SimulationConfig scfg;
  scfg.grid = kcfg.grid;
  scfg.dt = kcfg.dt;
  pic::Simulation sim(scfg);
  const pic::KhiSpecies species = pic::initializeKhi(sim, kcfg);

  Workload w;
  w.grid = kcfg.grid;
  w.dt = kcfg.dt;
  const pic::ParticleBuffer& e = sim.species(species.electrons);
  w.particles = e;
  w.oldX.assign(e.x.begin(), e.x.end());
  w.oldY.assign(e.y.begin(), e.y.end());
  w.oldZ.assign(e.z.begin(), e.z.end());
  for (std::size_t i = 0; i < w.particles.size(); ++i) {
    const double g = e.gamma(i);
    w.particles.x[i] += e.ux[i] / g * w.dt / w.grid.dx;
    w.particles.y[i] += e.uy[i] / g * w.dt / w.grid.dy;
    w.particles.z[i] += e.uz[i] / g * w.dt / w.grid.dz;
  }
  return w;
}

/// Particles/s of `deposit(J)` (one full current deposit of `w`).
template <class Deposit>
double particlesPerSecond(const Workload& w, int repeats, Deposit deposit) {
  pic::VectorField J(w.grid);
  // Warm-up (first-touch of J and the tile store).
  J.fill(0.0);
  deposit(J);
  Timer timer;
  for (int r = 0; r < repeats; ++r) {
    J.fill(0.0);
    deposit(J);
  }
  return static_cast<double>(w.particles.size()) * repeats / timer.seconds();
}

void setThreads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 3;
  const char* jsonPath = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      jsonPath = arg + 7;
    } else if (arg[0] == '-') {
      std::fprintf(stderr,
                   "unknown option %s — usage: bench_deposit_modes "
                   "[--json <path>] [repeats]\n",
                   arg);
      return 2;
    } else {
      repeats = std::atoi(arg);
    }
  }
  if (repeats < 1) {
    std::fprintf(stderr, "repeats must be >= 1\n");
    return 2;
  }
#ifdef _OPENMP
  const bool haveOmp = true;
#else
  const bool haveOmp = false;
#endif
  std::printf("deposit-mode A/B: quick-demo KHI box 32x64x8, repeats=%d%s\n",
              repeats, haveOmp ? "" : " (no OpenMP: serial only)");
  std::printf("%6s %8s %10s | %14s %14s | %7s\n", "ppc", "threads",
              "particles", "atomic p/s", "tiled p/s", "tiled/x");

  bool pass = true;
  double gateRatio = 0.0;
  const int gateThreads = haveOmp ? 8 : 1;
  for (int ppc : {9, 36}) {
    const Workload w = makeWorkload(ppc);
    pic::reference::TiledCurrentDeposit tiled(w.grid);
    for (int threads : {1, 2, 4, 8}) {
      if (!haveOmp && threads > 1) continue;
      setThreads(threads);
      const double atomicRate =
          particlesPerSecond(w, repeats, [&](pic::VectorField& J) {
            pic::reference::depositCurrentAtomic(J, w.grid, w.particles,
                                                 w.oldX, w.oldY, w.oldZ, w.dt);
          });
      const double tiledRate =
          particlesPerSecond(w, repeats, [&](pic::VectorField& J) {
            tiled.deposit(J, w.particles, w.oldX, w.oldY, w.oldZ, w.dt);
          });
      const double speedup = tiledRate / atomicRate;
      std::printf("%6d %8d %10zu | %14.3e %14.3e | %6.2fx\n", ppc, threads,
                  w.particles.size(), atomicRate, tiledRate, speedup);
      if (ppc == 9 && threads == gateThreads) {
        gateRatio = speedup;
        if (tiledRate < atomicRate) pass = false;
      }
    }
  }
  std::printf("acceptance (tiled >= atomic @ 8 threads, ppc 9): %s\n",
              pass ? "PASS" : "FAIL");

  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"deposit_modes\",\n"
                 "  \"setup\": \"khi_quick_demo_32x64x8_ppc9\",\n"
                 "  \"threads\": %d,\n"
                 "  \"ratio\": %.4f,\n"
                 "  \"threshold\": 1.0,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 gateThreads, gateRatio, pass ? "true" : "false");
    std::fclose(f);
  }
  return pass ? 0 : 1;
}
