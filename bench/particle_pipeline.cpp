/// Particle-pipeline A/B benchmark: the legacy split particle update
/// (scalar wrapped gather + push sweep, re-binning tiled deposit, wrap
/// sweep — the test-only reference tests/reference/split_simulation.hpp)
/// vs the supercell-fused single pass pic::Simulation runs
/// (pic/fused_pipeline.hpp), on the quick-demo KHI box (32x64x8, 9 ppc,
/// the paper's reduced setup). The figure of merit is particle updates
/// per second over whole step() calls — the paper's dominant FOM term.
///
/// Also verifies the A/B contract on the way: after the timed steps the
/// two pipelines' E/B/J fields must be bit-identical.
///
///   ./bench/bench_particle_pipeline [--acceptance[=ratio]]
///                                   [--trace-overhead[=maxLoss]]
///                                   [--fault-overhead[=maxLoss]]
///                                   [--json <path>] [steps] [repeats]
///
/// --acceptance gates fused >= ratio x split (default 1.5) at 8 threads
/// and exits nonzero on failure; --json writes the measurement (CI
/// uploads it as the BENCH_particle_pipeline artifact).
///
/// --trace-overhead instead measures the fused pipeline with TRACE_SCOPE
/// instrumentation runtime-disabled vs enabled (recording to the ring, no
/// sink) and gates the enabled rate at >= (1 - maxLoss) x disabled
/// (default maxLoss 0.01, the "enabled tracing costs < 1% on the FOM"
/// contract of src/obs/trace.hpp).
///
/// --fault-overhead does the same for FAULT_POINT hooks
/// (src/fault/fault.hpp): disarmed (the production state — one relaxed
/// atomic load per site) vs armed with a never-matching plan (the full
/// slow path: hit counting + rule scan, no injection). The armed rate
/// bounds the disarmed cost from above, so gating it at
/// >= (1 - maxLoss) x disarmed (default 0.01) enforces the "disabled
/// fault points cost <= 1%" contract with margin.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference/split_simulation.hpp"

using namespace artsci;

namespace {

pic::SimulationConfig khiConfig() {
  const pic::KhiConfig kcfg;  // quick-demo box 32x64x8, 9 ppc
  pic::SimulationConfig scfg;
  scfg.grid = kcfg.grid;
  scfg.dt = kcfg.dt;
  return scfg;
}

/// The fused pipeline: pic::Simulation on the quick-demo KHI.
std::unique_ptr<pic::Simulation> makeFused() {
  auto sim = std::make_unique<pic::Simulation>(khiConfig());
  pic::initializeKhi(*sim, pic::KhiConfig{});
  return sim;
}

/// The split baseline, started from the same KHI state.
std::unique_ptr<pic::reference::SplitSimulation> makeSplit() {
  return std::make_unique<pic::reference::SplitSimulation>(*makeFused(),
                                                           khiConfig());
}

/// Best-of-`repeats` particle updates/s over `steps` full step() calls.
/// A fresh simulation per repeat keeps the workloads identical (same
/// start state, same trajectory) across pipelines and repeats.
template <class Make>
double particleUpdateRate(Make make, int steps, int repeats) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    auto sim = make();
    sim->step();  // warm-up: first-touch of tile stores and caches
    const double updates =
        static_cast<double>(sim->particleCount()) * steps;
    Timer timer;
    sim->run(steps);
    best = std::max(best, updates / timer.seconds());
  }
  return best;
}

bool fieldsBitIdentical(const pic::reference::SplitSimulation& a,
                        const pic::Simulation& b) {
  const auto same = [](const pic::Field3& x, const pic::Field3& y) {
    return x.raw().size() == y.raw().size() &&
           std::memcmp(x.raw().data(), y.raw().data(),
                       x.raw().size() * sizeof(double)) == 0;
  };
  const auto sameVec = [&](const pic::VectorField& x,
                           const pic::VectorField& y) {
    return same(x.x, y.x) && same(x.y, y.y) && same(x.z, y.z);
  };
  return sameVec(a.fieldE(), b.fieldE()) && sameVec(a.fieldB(), b.fieldB()) &&
         sameVec(a.currentJ(), b.currentJ());
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
  double threshold = -1;
  double traceMaxLoss = -1;
  double faultMaxLoss = -1;
  const char* jsonPath = nullptr;
  int steps = 6, repeats = 3;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--acceptance") == 0) {
      threshold = 1.5;
    } else if (std::strcmp(arg, "--trace-overhead") == 0) {
      traceMaxLoss = 0.01;
    } else if (std::strncmp(arg, "--trace-overhead=", 17) == 0) {
      char* end = nullptr;
      traceMaxLoss = std::strtod(arg + 17, &end);
      if (end == arg + 17 || *end != '\0' || !(traceMaxLoss > 0) ||
          traceMaxLoss >= 1) {
        std::fprintf(stderr,
                     "invalid %s — expected --trace-overhead=<maxLoss> with "
                     "0 < maxLoss < 1 (e.g. --trace-overhead=0.01)\n",
                     arg);
        return 2;
      }
    } else if (std::strcmp(arg, "--fault-overhead") == 0) {
      faultMaxLoss = 0.01;
    } else if (std::strncmp(arg, "--fault-overhead=", 17) == 0) {
      char* end = nullptr;
      faultMaxLoss = std::strtod(arg + 17, &end);
      if (end == arg + 17 || *end != '\0' || !(faultMaxLoss > 0) ||
          faultMaxLoss >= 1) {
        std::fprintf(stderr,
                     "invalid %s — expected --fault-overhead=<maxLoss> with "
                     "0 < maxLoss < 1 (e.g. --fault-overhead=0.01)\n",
                     arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--acceptance=", 13) == 0) {
      char* end = nullptr;
      threshold = std::strtod(arg + 13, &end);
      if (end == arg + 13 || *end != '\0' || !(threshold > 0)) {
        std::fprintf(stderr,
                     "invalid %s — expected --acceptance=<ratio> with "
                     "ratio > 0 (e.g. --acceptance=1.5)\n",
                     arg);
        return 2;
      }
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      jsonPath = arg + 7;
    } else if (arg[0] == '-') {
      // A typo'd flag must not silently become steps=0 and disable the
      // gate (exit like the --acceptance parse error does).
      std::fprintf(stderr,
                   "unknown option %s — usage: bench_particle_pipeline "
                   "[--acceptance[=ratio]] [--trace-overhead[=maxLoss]] "
                   "[--fault-overhead[=maxLoss]] "
                   "[--json <path>] [steps] [repeats]\n",
                   arg);
      return 2;
    } else {
      (positional == 0 ? steps : repeats) = std::atoi(arg);
      ++positional;
    }
  }
  if (steps < 1 || repeats < 1) {
    std::fprintf(stderr, "steps and repeats must be >= 1\n");
    return 2;
  }

#ifdef _OPENMP
  const bool haveOmp = true;
#else
  const bool haveOmp = false;
#endif

  if (traceMaxLoss > 0) {
    // Overhead-acceptance mode: fused pipeline, instrumentation
    // runtime-off vs runtime-on (spans recorded into the rings, nothing
    // flushed). Best-of-repeats on both sides damps scheduler noise.
    const int threads = haveOmp ? 8 : 1;
    setThreads(threads);
    auto& rec = obs::TraceRecorder::instance();
    rec.setEnabled(false);
    const double offRate =
        particleUpdateRate(makeFused, steps, repeats);
    rec.setEnabled(true);
    const double onRate =
        particleUpdateRate(makeFused, steps, repeats);
    rec.setEnabled(false);
    const std::size_t spans = rec.eventCount();
    const double ratio = onRate / offRate;
    const bool pass = spans > 0 && ratio >= 1.0 - traceMaxLoss;
    std::printf(
        "trace overhead: fused KHI 32x64x8 ppc 9, %d steps, best of %d, "
        "%d threads\n"
        "  tracing off: %.3e p/s\n"
        "  tracing on:  %.3e p/s  (%zu spans recorded)\n"
        "  on/off = %.4f (gate >= %.4f) -> %s\n",
        steps, repeats, threads, offRate, onRate, spans, ratio,
        1.0 - traceMaxLoss, pass ? "PASS" : "FAIL");
    if (jsonPath != nullptr) {
      std::FILE* f = std::fopen(jsonPath, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
        return 2;
      }
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"trace_overhead\",\n"
                   "  \"setup\": \"khi_quick_demo_32x64x8_ppc9_fused\",\n"
                   "  \"threads\": %d,\n"
                   "  \"steps\": %d,\n"
                   "  \"spans\": %zu,\n"
                   "  \"ratio\": %.4f,\n"
                   "  \"threshold\": %.4f,\n"
                   "  \"pass\": %s\n"
                   "}\n",
                   threads, steps, spans, ratio, 1.0 - traceMaxLoss,
                   pass ? "true" : "false");
      std::fclose(f);
    }
    return pass ? 0 : 1;
  }

  if (faultMaxLoss > 0) {
    // Fault-hook overhead acceptance: disarmed (production: one relaxed
    // atomic load per FAULT_POINT) vs armed with a rule that matches no
    // real site (worst case short of injecting: per-hit counting plus a
    // rule scan on every pass). Sites sit on step boundaries, so even the
    // armed slow path must be invisible on the particle-update FOM.
    const int threads = haveOmp ? 8 : 1;
    setThreads(threads);
    fault::Plan::global().disarm();
    const double offRate =
        particleUpdateRate(makeFused, steps, repeats);
    fault::Plan::global().arm(
        fault::Plan::parseSpec("bench.never@1:error"));
    const double onRate =
        particleUpdateRate(makeFused, steps, repeats);
    const auto hits = fault::Plan::global().siteHits();
    fault::Plan::global().disarm();
    const auto it = hits.find("pic.step");
    const std::uint64_t picHits = it == hits.end() ? 0 : it->second;
    const double ratio = onRate / offRate;
    // picHits > 0 guards against vacuity: the hook must actually sit on
    // the measured path (ARTSCI_FAULTS=0 builds legitimately record 0 and
    // fail here — this gate is for instrumented builds).
    const bool pass = picHits > 0 && ratio >= 1.0 - faultMaxLoss;
    std::printf(
        "fault-point overhead: fused KHI 32x64x8 ppc 9, %d steps, best of "
        "%d, %d threads\n"
        "  disarmed:             %.3e p/s\n"
        "  armed (non-matching): %.3e p/s  (%llu pic.step hits counted)\n"
        "  armed/disarmed = %.4f (gate >= %.4f) -> %s\n",
        steps, repeats, threads, offRate, onRate,
        static_cast<unsigned long long>(picHits), ratio,
        1.0 - faultMaxLoss, pass ? "PASS" : "FAIL");
    if (jsonPath != nullptr) {
      std::FILE* f = std::fopen(jsonPath, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
        return 2;
      }
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"fault_overhead\",\n"
                   "  \"setup\": \"khi_quick_demo_32x64x8_ppc9_fused\",\n"
                   "  \"threads\": %d,\n"
                   "  \"steps\": %d,\n"
                   "  \"site_hits\": %llu,\n"
                   "  \"ratio\": %.4f,\n"
                   "  \"threshold\": %.4f,\n"
                   "  \"pass\": %s\n"
                   "}\n",
                   threads, steps, static_cast<unsigned long long>(picHits),
                   ratio, 1.0 - faultMaxLoss, pass ? "true" : "false");
      std::fclose(f);
    }
    return pass ? 0 : 1;
  }

  std::printf(
      "particle-pipeline A/B: quick-demo KHI 32x64x8 ppc 9, %d steps, "
      "best of %d%s\n",
      steps, repeats, haveOmp ? "" : " (no OpenMP: serial only)");

  // A/B contract check first (1 thread is enough — both paths are
  // thread-count invariant): fields bit-identical after 3 steps.
  setThreads(1);
  bool identical;
  {
    auto split = makeSplit();
    auto fused = makeFused();
    split->run(3);
    fused->run(3);
    identical = fieldsBitIdentical(*split, *fused);
  }
  std::printf("fused vs split E/B/J after 3 steps: %s\n\n",
              identical ? "bit-identical" : "MISMATCH");

  std::printf("%8s | %14s %14s | %8s\n", "threads", "split p/s", "fused p/s",
              "fused/x");
  double gateRatio = 0.0;
  const int gateThreads = haveOmp ? 8 : 1;
  for (int threads : {1, 2, 8}) {
    if (!haveOmp && threads > 1) continue;
    setThreads(threads);
    const double splitRate =
        particleUpdateRate(makeSplit, steps, repeats);
    const double fusedRate =
        particleUpdateRate(makeFused, steps, repeats);
    const double ratio = fusedRate / splitRate;
    std::printf("%8d | %14.3e %14.3e | %7.2fx\n", threads, splitRate,
                fusedRate, ratio);
    if (threads == gateThreads) gateRatio = ratio;
  }

  const double gate = threshold > 0 ? threshold : 1.5;
  const bool pass = identical && gateRatio >= gate;
  std::printf(
      "\nacceptance (bit-identical A/B, fused >= %.2fx split @ %d "
      "threads): %.2fx -> %s\n",
      gate, gateThreads, gateRatio, pass ? "PASS" : "FAIL");

  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"particle_pipeline_acceptance\",\n"
                 "  \"setup\": \"khi_quick_demo_32x64x8_ppc9\",\n"
                 "  \"threads\": %d,\n"
                 "  \"steps\": %d,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"ratio\": %.4f,\n"
                 "  \"threshold\": %.4f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 gateThreads, steps, identical ? "true" : "false", gateRatio,
                 gate, pass ? "true" : "false");
    std::fclose(f);
  }
  if (threshold > 0) return pass ? 0 : 1;
  return identical ? 0 : 1;
}
