/// End-to-end benchmark of the in-transit loop: the PIC producer streams
/// through openPMD/nanoSST into the replay buffer and the DDP trainer
/// (core::runPipeline), and the trained snapshots are then served over TCP
/// (serve::NetServer) under an open-loop predict/invert mix with hot swaps.
///
///   artsci_perfbench --workload <insitu_train|insitu_sim>
///                    --seed <n> --seconds <s> --trace <0|1>
///                    [--git-sha <sha>]
///
/// Every workload runs both halves, because every workload reports every
/// end-to-end metric: the serving traffic (the serve_mix) is the same in
/// both and serves the snapshots that workload's pipeline trained. A
/// workload fixes the pipeline's size and how many times it runs; every
/// workload runs 1 OMP thread, 2 trainer ranks and 2 serve shards.
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer table.
/// The last stdout line is the result object; the lines before it carry
/// the host fingerprint, the checks and the layer shares.
/// perfbench/run.py builds this program and sets OMP_NUM_THREADS=1.
#include <cpuid.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/model.hpp"
#include "obs/trace.hpp"
#include "pipeline_phase.hpp"
#include "serve_phase.hpp"

using namespace artsci;
using namespace perfbench;

namespace {

/// OMP team size of every thread of every workload. With more, the shard
/// workers' invert path forks OMP teams and the serve phase oversubscribes
/// a 4-core host.
constexpr int kOmpThreads = 1;
/// Serve time of the peak-RSS child process (footprintPeakRssMb).
constexpr double kFootprintServeSeconds = 2;
/// Least serve time of a run whose pipeline phase used up --seconds
/// (insitu_sim): 10 reference segments.
constexpr double kMinServeSeconds = 5;

struct Workload {
  std::string name;
  core::PipelineConfig pipeline;
  std::uint64_t serveSeed = 1;
  /// Pipeline runs, the first a warm-up; the serve phase gets the rest of
  /// --seconds.
  long pipelineRuns = 12;
};

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  auto& p = w.pipeline;
  p = core::PipelineConfig::quickDemo();
  p.stepReportEvery = 0;
  p.producer.seed = seed;
  p.producer.khi.seed = seed * 7919 + 1;
  p.trainer.seed = seed * 104729 + 3;
  w.serveSeed = seed * 15485863 + 5;
  if (name == "insitu_train") {
    // Training-bound: every PIC step is streamed and trained on 8 times,
    // so the producer spends most of its time blocked on back-pressure.
    p.producer.streamEvery = 1;
    p.producer.totalSteps = 24;
    p.nRep = 8;
    p.trainer.ranks = 2;
    w.pipelineRuns = 12;
  } else if (name == "insitu_sim") {
    // Simulation-bound: a larger box, one training iteration per 4 steps;
    // the consumer mostly waits for the next streamed step.
    p.producer.khi.grid = pic::GridSpec{32, 64, 8, 0.25, 0.25, 0.25};
    p.producer.khi.particlesPerCell = 4;
    p.producer.streamEvery = 4;
    p.producer.totalSteps = 64;
    p.nRep = 1;
    p.trainer.ranks = 2;
    w.pipelineRuns = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// Busy threads of each phase, as declared by the workload. The phases
/// run one after the other, so the workload needs the larger of the two.
struct ThreadBudget {
  int pipeline = 0;  ///< producer OMP team + ranks x OMP
  /// Shard workers x OMP (the invert path runs graph ops whose kernels
  /// fork OMP teams) + the I/O thread + the generator.
  int serve = 0;
  int busy() const { return std::max(pipeline, serve); }
};

ThreadBudget threadBudget(const Workload& w) {
  ThreadBudget b;
  b.pipeline = kOmpThreads +
               static_cast<int>(w.pipeline.trainer.ranks) * kOmpThreads;
  b.serve = static_cast<int>(kShards) * kOmpThreads + 1 + 1;
  return b;
}

std::string cpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

/// The clone GCC's target_clones("avx512f","avx2,fma","default") resolver
/// picks for the ml kernels on this CPU.
const char* isaClone() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return "avx2,fma";
  return "default";
}

/// OMP team size a freshly spawned thread gets (what the producer and the
/// rank threads see).
int ompThreadsOfNewThreads() {
  int n = 1;
#ifdef _OPENMP
  std::thread([&] { n = omp_get_max_threads(); }).join();
#endif
  return n;
}

std::map<std::string, std::string> parseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0)
      throw std::invalid_argument(std::string("bad argument ") + argv[i]);
    const std::string key = argv[i] + 2;
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for --" + key);
    args[key] = argv[++i];
  }
  return args;
}

/// Peak resident memory of one pipeline run plus a short serve phase, in
/// MB, measured in a child process forked while this one holds nothing
/// yet: in this process the repeated measured runs would add up (every
/// trainIterations call leaves its rank threads' trace rings behind).
/// Returns a negative value when the child's output checks fail.
double footprintPeakRssMb(const Workload& w) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    // The child's lines go to stderr; stdout carries the parent's result.
    dup2(STDERR_FILENO, STDOUT_FILENO);
    int code = 1;
    try {
      Checks checks;
      const PipelinePhase p = runPipelinePhase(w.pipeline, 1, false, checks);
      runServePhase(w.serveSeed, p.snapshots, p.samples,
                    kFootprintServeSeconds, false, checks);
      for (const auto& f : checks.failures())
        std::fprintf(stderr, "footprint: CHECK FAILED: %s\n", f.c_str());
      code = checks.allPassed() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "footprint: %s\n", e.what());
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4() failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  Workload w;
  try {
    args = parseArgs(argc, argv);
    w = makeWorkload(args.at("workload"),
                     std::stoull(args.count("seed") ? args["seed"] : "1"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usage: artsci_perfbench --workload <name> --seed "
                         "<n> --seconds <s> --trace <0|1> (%s)\n",
                 e.what());
    return 2;
  }
  const double seconds = std::stod(args.count("seconds") ? args["seconds"] : "20");
  const bool traced = args.count("trace") && args["trace"] == "1";

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const ThreadBudget budget = threadBudget(w);
  const int omp = ompThreadsOfNewThreads();
  const bool oversubscribed = budget.busy() > nproc;
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %s, \"nproc\": %ld, "
      "\"cpu_model\": \"%s\", \"isa_clone\": \"%s\", \"omp_threads\": %d, "
      "\"ranks\": %zu, \"shards\": %zu, \"busy_threads\": {\"pipeline\": %d, "
      "\"serve\": %d}, \"oversubscribed\": %s, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\"}}\n",
      w.name.c_str(), args.count("seed") ? args["seed"].c_str() : "1", nproc,
      jsonEscape(cpuModel()).c_str(), isaClone(), omp,
      w.pipeline.trainer.ranks, kShards, budget.pipeline, budget.serve,
      oversubscribed ? "true" : "false", PERFBENCH_BUILD_TYPE,
      jsonEscape(args.count("git-sha") ? args["git-sha"] : "unknown").c_str());
  if (omp != kOmpThreads) {
    std::fprintf(stderr,
                 "workloads run %d OMP thread(s), this process has %d "
                 "(set OMP_NUM_THREADS=%d)\n",
                 kOmpThreads, omp, kOmpThreads);
    return 3;
  }
  if (oversubscribed) {
    // Throughput measured with more busy threads than cores measures the
    // scheduler, not the program: label it and report none.
    std::fprintf(stderr, "workload %s needs %d busy threads, host has %ld: "
                         "oversubscribed, no throughput reported\n",
                 w.name.c_str(), budget.busy(), nproc);
    return 4;
  }

  const auto start = Clock::now();
  Checks checks;
  Metrics out;
  long attempted = 0, failed = 0;
  try {
    double peakRss = 0;
    std::vector<double> setups;
    if (!traced) {
      peakRss = footprintPeakRssMb(w);
      ++attempted;
      if (peakRss < 0) ++failed;
      checks.expect(peakRss > 0, "footprint child process failed its checks");
    }
    obs::TraceRecorder::instance().setThreadName("consumer");
    if (!traced) {
      // Set-up: construction before the first timed operation, several
      // times; the median is reported.
      Rng initRng(w.pipeline.trainer.seed);
      const SnapshotList untrained{core::cloneForInference(
          core::ArtificialScientistModel(w.pipeline.model, initRng))};
      for (int i = 0; i < 31; ++i)
        setups.push_back(pipelineSetupSeconds(w.pipeline) +
                         serveSetupSeconds(w.serveSeed, untrained));
    }

    PipelinePhase pipeline =
        runPipelinePhase(w.pipeline, w.pipelineRuns, traced, checks);
    attempted += pipeline.runs;
    failed += pipeline.failedRuns;
    const double left = seconds - secondsBetween(start, Clock::now());
    ServePhase serve =
        runServePhase(w.serveSeed, pipeline.snapshots, pipeline.samples,
                      std::max(left, kMinServeSeconds), traced, checks);
    attempted += serve.attempted;
    failed += serve.failed;

    if (traced) {
      out.append(pipeline.layers);
      out.append(serve.layers);
      const bool trainBound =
          pipeline.layers.get("stream.writer_stall_frac") > 0.3;
      const bool simBound = pipeline.layers.get("stream.reader_wait_frac") > 0.5;
      std::printf("rationale: producer stall %.1f%%, consumer reader wait "
                  "%.1f%% -> %s\n",
                  100 * pipeline.layers.get("stream.writer_stall_frac"),
                  100 * pipeline.layers.get("stream.reader_wait_frac"),
                  trainBound ? "training-bound"
                             : simBound ? "simulation-bound" : "balanced");
    } else {
      out.append(pipeline.endToEnd);
      out.append(serve.endToEnd);
      out.add("setup_s", "s", median(setups));
      out.add("peak_rss_mb", "MB", peakRss);
    }
  } catch (const std::exception& e) {
    checks.expect(false, std::string("exception: ") + e.what());
    ++failed;
  }

  for (const auto& f : checks.failures())
    std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("checks: %zu run, %zu failed\n", checks.count(),
              checks.failures().size());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              checks.allPassed() ? "true" : "false", std::max(attempted, 1L),
              failed, metricsJson(out).c_str());
  std::fflush(stdout);
  return 0;
}
