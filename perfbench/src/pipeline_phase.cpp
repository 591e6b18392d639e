#include "pipeline_phase.hpp"

#include <cmath>
#include <cstdio>
#include <thread>

#include "core/transforms.hpp"
#include "ml/arena.hpp"
#include "ml/losses.hpp"
#include "ml/ops.hpp"
#include "obs/trace.hpp"
#include "openpmd/backends.hpp"
#include "radiation/plugin.hpp"

namespace perfbench {

using namespace artsci;

namespace {

constexpr long kRegions = 3;  // one sample per KHI region per streamed step
/// Traced mode: untraced runPipeline / traced composed run pairs; the
/// tracing overhead is the median of their relative wall differences.
constexpr int kOverheadPairs = 3;

long streamedSteps(const core::PipelineConfig& cfg) {
  return cfg.producer.totalSteps / cfg.producer.streamEvery;
}

long picSteps(const core::PipelineConfig& cfg) {
  return cfg.producer.warmupSteps + cfg.producer.totalSteps;
}

/// trainIterations is a no-op until the now-buffer holds one batch, so the
/// first ceil(n_now / 3) streamed steps train only from that step on.
long expectedIterations(const core::PipelineConfig& cfg) {
  const long firstReady =
      (static_cast<long>(cfg.trainer.buffer.nowPerBatch) + kRegions - 1) /
      kRegions;
  const long streamed = streamedSteps(cfg);
  return streamed >= firstReady ? (streamed - firstReady + 1) * cfg.nRep : 0;
}

/// Trained samples per iteration: every rank draws n_now + n_EP.
double samplesPerIteration(const core::PipelineConfig& cfg) {
  return static_cast<double>(cfg.trainer.ranks) *
         static_cast<double>(cfg.trainer.buffer.nowPerBatch +
                             cfg.trainer.buffer.epPerBatch);
}

void checkRun(const core::PipelineConfig& cfg, const core::PipelineResult& r,
              Checks& checks, const char* label) {
  const std::string l = label;
  checks.expect(!r.degraded, l + ": run degraded: " + r.faultNote);
  checks.expect(r.iterationsStreamed == streamedSteps(cfg),
                l + ": streamed " + std::to_string(r.iterationsStreamed) +
                    " iterations, configured " +
                    std::to_string(streamedSteps(cfg)));
  checks.expect(static_cast<long>(r.samplesReceived) ==
                    kRegions * streamedSteps(cfg),
                l + ": received " + std::to_string(r.samplesReceived) +
                    " samples");
  checks.expect(r.train.iterations == expectedIterations(cfg),
                l + ": trained " + std::to_string(r.train.iterations) +
                    " iterations, configured " +
                    std::to_string(expectedIterations(cfg)));
  const auto& loss = r.train.lossHistory;
  checks.expect(static_cast<long>(loss.size()) == r.train.iterations,
                l + ": loss history length differs from iterations");
  bool finite = !loss.empty();
  for (double v : loss) finite = finite && std::isfinite(v);
  checks.expect(finite, l + ": non-finite or empty loss history");
  // One iteration's loss is one batch's, and single batches spike (a late
  // 163 after a first 68 is a healthy run): compare the medians of the
  // first and the last quarter of the history.
  const std::size_t q = std::max<std::size_t>(loss.size() / 4, 1);
  const bool decreased =
      !loss.empty() &&
      median(std::vector<double>(loss.end() - static_cast<long>(q),
                                 loss.end())) <
          median(std::vector<double>(loss.begin(),
                                     loss.begin() + static_cast<long>(q)));
  checks.expect(decreased, l + ": final loss is not below the first (median "
                               "of the last vs the first quarter)");
}

std::uint64_t heapAllocations(const core::InTransitTrainer& trainer) {
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < trainer.config().ranks; ++r)
    n += trainer.arenaStats(r).heapAllocations;
  return n;
}

/// Accumulates the wall time of the calls it wraps.
struct StageTimer {
  double seconds = 0;
  template <class F>
  auto operator()(F&& f) {
    const auto t0 = Clock::now();
    struct Stop {
      StageTimer& s;
      Clock::time_point t0;
      ~Stop() { s.seconds += secondsBetween(t0, Clock::now()); }
    } stop{*this, t0};
    return f();
  }
};

/// Everything the composed run measured, for the layer table.
struct ComposedRun {
  core::TrainStats stats;
  bool ok = true;
  std::string fault;
  double wallSeconds = 0;
  long streamed = 0;
  std::size_t samples = 0;
  std::size_t bytesStreamed = 0;
  double stallSeconds = 0;
  std::uint64_t steadyAllocs = 0;
  bool steadyMeasured = false;
  // producer thread
  double producerWall = 0;
  StageTimer pic, radiation, extract, openpmd;
  // consumer thread
  double consumerWall = 0;
  StageTimer read, push, training;
  long pushes = 0;
  std::vector<double> handoffMs;
};

/// The pipeline of core::runPipeline + core::KhiStreamProducer, composed
/// from the same public calls in the same order, with every stage timed
/// on its own thread. Must train bit-identically to runPipeline.
ComposedRun runComposed(const core::PipelineConfig& cfg,
                        core::InTransitTrainer& trainer) {
  ComposedRun out;
  const core::ProducerConfig& pc = cfg.producer;
  const auto wallStart = Clock::now();

  auto particleEngine = std::make_shared<stream::SstEngine>(stream::SstParams{
      1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});
  auto radiationEngine = std::make_shared<stream::SstEngine>(stream::SstParams{
      1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});

  // Producer construction (KhiStreamProducer's constructor), except that
  // the radiation plugin is not attached: onStepEnd is called and timed
  // after each step instead.
  pic::SimulationConfig sc;
  sc.grid = pc.khi.grid;
  sc.dt = pc.khi.dt;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const pic::KhiSpecies species = pic::initializeKhi(sim, pc.khi);
  radiation::DetectorConfig det;
  det.directions = {Vec3d{1.0, 0.0, 0.0}};
  det.frequencies =
      radiation::logFrequencyAxis(pc.omegaMin, pc.omegaMax, pc.frequencyCount);
  radiation::RegionRadiationPlugin plugin(det, species.electrons,
                                          pc.transform.vortexHalfWidthCells);
  openpmd::Series particleSeries(
      "particles", openpmd::Access::kCreate,
      openpmd::StreamBackend::forWriter(particleEngine, 0));
  openpmd::Series radiationSeries(
      "radiation", openpmd::Access::kCreate,
      openpmd::StreamBackend::forWriter(radiationEngine, 0));
  Rng rng(pc.seed);

  const long streamedTotal = streamedSteps(cfg);
  std::vector<Clock::time_point> published(
      static_cast<std::size_t>(streamedTotal));
  std::vector<Clock::time_point> received(
      static_cast<std::size_t>(streamedTotal));
  std::string producerFault;

  std::thread producer([&] {
    obs::TraceRecorder::instance().setThreadName("producer");
    const auto t0 = Clock::now();
    try {
      const auto stepOnce = [&] {
        out.pic([&] { sim.step(); });
        out.radiation([&] { plugin.onStepEnd(sim); });
      };
      const long P = pc.transform.cloudPoints;
      const long S = static_cast<long>(pc.frequencyCount);
      long emitted = 0;
      for (long s = 0; s < pc.warmupSteps; ++s) stepOnce();
      for (long s = 0; s < pc.totalSteps; ++s) {
        stepOnce();
        if ((s + 1) % pc.streamEvery != 0) continue;
        const auto& electrons = sim.species(species.electrons);
        auto itP = out.openpmd([&] {
          return particleSeries.writeIteration(emitted);
        });
        auto itR = out.openpmd([&] {
          return radiationSeries.writeIteration(emitted);
        });
        out.openpmd([&] {
          itP.setTime(sim.time(), sim.dt());
          itR.setTime(sim.time(), sim.dt());
        });
        for (int r = 0; r < kRegions; ++r) {
          const auto region = static_cast<pic::KhiRegion>(r);
          auto cloud = out.extract([&] {
            return core::extractRegionCloud(electrons, sim.grid().ny, region,
                                            pc.transform, rng);
          });
          if (cloud.empty()) continue;  // checked through the sample count
          out.openpmd([&] {
            itP.particles("e")
                .record("phasespace")
                .component(pic::khiRegionName(region))
                .storeChunk(std::move(cloud), {0, 0}, {P, 6}, {P, 6});
          });
          auto spectrum = out.extract([&] {
            return core::normalizeSpectrum(plugin.accumulator(region).intensity(0),
                                           pc.transform);
          });
          out.openpmd([&] {
            itR.mesh("radiation")
                .component(pic::khiRegionName(region))
                .storeChunk(std::move(spectrum), {0}, {S}, {S});
          });
        }
        out.openpmd([&] {
          itP.close();
          itR.close();
        });
        published[static_cast<std::size_t>(emitted)] = Clock::now();
        ++emitted;
        out.radiation([&] {
          for (int r = 0; r < kRegions; ++r)
            const_cast<radiation::SpectralAccumulator&>(
                plugin.accumulator(static_cast<pic::KhiRegion>(r)))
                .reset();
        });
      }
      out.openpmd([&] {
        particleSeries.close();
        radiationSeries.close();
      });
    } catch (const std::exception& e) {
      producerFault = e.what();
      particleEngine->abort(e.what());
      radiationEngine->abort(e.what());
    }
    out.producerWall = secondsBetween(t0, Clock::now());
  });

  const auto consumerStart = Clock::now();
  try {
    openpmd::Series particleRead(
        "particles", openpmd::Access::kRead,
        openpmd::StreamBackend::forReader(particleEngine, 0));
    openpmd::Series radiationRead(
        "radiation", openpmd::Access::kRead,
        openpmd::StreamBackend::forReader(radiationEngine, 0));
    std::uint64_t allocsAtSteadyState = 0;
    long fullBatchCalls = 0;
    for (;;) {
      auto [itP, itR] = out.read([&] {
        auto p = particleRead.readNextIteration();
        auto r = radiationRead.readNextIteration();
        return std::make_pair(std::move(p), std::move(r));
      });
      if (!itP || !itR) break;
      if (itP->index != itR->index || itR->index >= streamedTotal)
        throw std::runtime_error("particle / radiation streams out of sync");
      received[static_cast<std::size_t>(itR->index)] = Clock::now();
      out.push([&] {
        for (int r = 0; r < kRegions; ++r) {
          const auto pIt = itP->data.find(core::cloudPath(r));
          const auto sIt = itR->data.find(core::spectrumPath(r));
          if (pIt == itP->data.end() || sIt == itR->data.end()) continue;
          core::Sample sample;
          sample.cloud = pIt->second;
          sample.spectrum = sIt->second;
          sample.region = r;
          sample.step = itP->index;
          trainer.buffer().push(std::move(sample));
          ++out.samples;
          ++out.pushes;
        }
      });
      ++out.streamed;
      // Steady state starts once batches have their full n_now + n_EP
      // composition: the step arena grows for that geometry in the first
      // such iteration and merges the grown region at the next beginStep,
      // so it is steady from the second full-batch call on.
      if (trainer.buffer().epSize() > 0) ++fullBatchCalls;
      out.training([&] { trainer.trainIterations(cfg.nRep); });
      if (fullBatchCalls == 2 && !out.steadyMeasured) {
        allocsAtSteadyState = heapAllocations(trainer);
        out.steadyMeasured = true;
      }
    }
    out.steadyAllocs = heapAllocations(trainer) - allocsAtSteadyState;
  } catch (const std::exception& e) {
    out.ok = false;
    out.fault = e.what();
    particleEngine->abort(e.what());
    radiationEngine->abort(e.what());
  }
  out.consumerWall = secondsBetween(consumerStart, Clock::now());
  producer.join();
  out.wallSeconds = secondsBetween(wallStart, Clock::now());
  if (!producerFault.empty()) {
    out.ok = false;
    out.fault = "producer: " + producerFault;
  }
  out.stats = trainer.stats();
  out.bytesStreamed =
      particleEngine->bytesPublished() + radiationEngine->bytesPublished();
  out.stallSeconds = particleEngine->writerStallSeconds() +
                     radiationEngine->writerStallSeconds();
  for (long i = 0; i < out.streamed; ++i) {
    const auto k = static_cast<std::size_t>(i);
    out.handoffMs.push_back(secondsBetween(published[k], received[k]) * 1e3);
  }
  return out;
}

/// The ml layers of one training forward, timed from outside through the
/// model's public modules on a batch replayed from the run's buffer.
void timeMlLayers(const core::PipelineConfig& cfg,
                  core::InTransitTrainer& trainer, Metrics& layers) {
  Rng rng(cfg.trainer.seed ^ 0x6d6cULL);
  const auto batch = trainer.buffer().sampleBatch(rng);
  const long points = static_cast<long>(batch.front().cloud.size()) / 6;
  const long specDim = cfg.model.spectrumDim;
  const ml::Tensor clouds = core::batchClouds(batch, points);
  const ml::Tensor spectra = core::batchSpectra(batch, specDim);
  const long B = clouds.dim(0);
  const long noiseDim = cfg.model.encoder.latentDim - specDim;
  const auto& model = trainer.model(0);

  constexpr int kWarmup = 3;
  constexpr int kReps = 40;
  std::vector<double> enc, dec, innF, innI, cham, mmd;
  ml::Arena arena;
  const auto ms = [](Clock::time_point a) {
    return secondsBetween(a, Clock::now()) * 1e3;
  };
  for (int rep = 0; rep < kWarmup + kReps; ++rep) {
    arena.beginStep();
    ml::ArenaScope scope(arena);
    auto t = Clock::now();
    const auto moments = model.encoder().forward(clouds);
    const double tEnc = ms(t);
    const ml::Tensor z = model.encoder().sample(moments, rng);
    t = Clock::now();
    const ml::Tensor recon = model.decoder().forward(z);
    const double tDec = ms(t);
    t = Clock::now();
    const ml::Tensor y = model.inn().forward(z);
    const double tInnF = ms(t);
    const ml::Tensor noise = ml::Tensor::randn({B, noiseDim}, rng);
    const ml::Tensor yIn = ml::cat({spectra, noise}, -1);
    t = Clock::now();
    const ml::Tensor zPrime = model.inn().inverse(yIn);
    const double tInnI = ms(t);
    t = Clock::now();
    const ml::Tensor c = ml::chamferDistance(clouds, recon);
    const double tCham = ms(t);
    t = Clock::now();
    const ml::Tensor m = ml::mmdInverseMultiquadratic(zPrime, z);
    const double tMmd = ms(t);
    if (!std::isfinite(c.item()) || !std::isfinite(m.item()) ||
        y.numel() != B * cfg.model.inn.dim)
      throw std::runtime_error("ml layer replay produced a bad value");
    if (rep < kWarmup) continue;
    enc.push_back(tEnc);
    dec.push_back(tDec);
    innF.push_back(tInnF);
    innI.push_back(tInnI);
    cham.push_back(tCham);
    mmd.push_back(tMmd);
  }
  layers.add("ml.encoder_ms", "ms", median(enc));
  layers.add("ml.decoder_ms", "ms", median(dec));
  layers.add("ml.inn_fwd_ms", "ms", median(innF));
  layers.add("ml.inn_inv_ms", "ms", median(innI));
  layers.add("ml.chamfer_ms", "ms", median(cham));
  layers.add("ml.mmd_ms", "ms", median(mmd));
}

void printShare(const char* thread, const char* layer, double seconds,
                double wall) {
  std::printf("layer %-8s %-24s %9.3f s %6.1f%%\n", thread, layer, seconds,
              wall > 0 ? 100.0 * seconds / wall : 0.0);
}

/// One core::runPipeline run, checked against the configured totals and
/// against the loss history of the phase's first run (`reference`, set by
/// that run). Keeps the run's snapshot and replay buffer for serving.
core::PipelineResult runOnce(const core::PipelineConfig& cfg,
                             PipelinePhase& phase,
                             std::vector<double>& reference, Checks& checks) {
  core::PipelineRun run = core::runPipeline(cfg);
  const core::PipelineResult& r = run.result;
  ++phase.runs;
  Checks runChecks;
  checkRun(cfg, r, runChecks, "pipeline");
  if (reference.empty()) reference = r.train.lossHistory;
  runChecks.expect(r.train.lossHistory == reference,
                   "pipeline: loss history differs between runs of one seed");
  // Steady state: with the batch geometry fixed, further iterations must
  // replay the step arena's allocation plan without the heap.
  const std::uint64_t before = heapAllocations(*run.trainer);
  run.trainer->trainIterations(2);
  runChecks.expect(heapAllocations(*run.trainer) == before,
                   "pipeline: step arena allocated in steady state");
  if (!runChecks.allPassed()) ++phase.failedRuns;
  for (const auto& f : runChecks.failures()) checks.expect(false, f);
  phase.snapshots.push_back(run.trainer->exportSnapshot());
  phase.samples = run.trainer->buffer().nowSnapshot();
  for (auto& s : run.trainer->buffer().epSnapshot())
    phase.samples.push_back(std::move(s));
  return r;
}

}  // namespace

double pipelineSetupSeconds(const core::PipelineConfig& cfg) {
  const auto t0 = Clock::now();
  core::InTransitTrainer trainer(cfg.model, cfg.trainer);
  auto particles = std::make_shared<stream::SstEngine>(
      stream::SstParams{1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});
  auto radiation = std::make_shared<stream::SstEngine>(
      stream::SstParams{1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});
  core::KhiStreamProducer producer(cfg.producer, particles, radiation);
  return secondsBetween(t0, Clock::now());
}

PipelinePhase runPipelinePhase(const core::PipelineConfig& cfg, long runs,
                               bool traced, Checks& checks) {
  PipelinePhase phase;
  std::vector<double> reference;
  // The first run warms the allocator and caches (and sets the loss
  // reference); it is checked but not measured.
  runOnce(cfg, phase, reference, checks);
  if (!traced) {
    std::vector<double> stepsPerS, samplesPerS, walls;
    while (phase.runs < runs) {
      const core::PipelineResult r = runOnce(cfg, phase, reference, checks);
      stepsPerS.push_back(static_cast<double>(picSteps(cfg)) / r.wallSeconds);
      samplesPerS.push_back(static_cast<double>(r.train.iterations) *
                            samplesPerIteration(cfg) / r.wallSeconds);
      walls.push_back(r.wallSeconds);
    }
    phase.endToEnd.add("sim_steps_per_s", "1/s", median(stepsPerS));
    phase.endToEnd.add("train_samples_per_s", "1/s", median(samplesPerS));
    std::printf("pipeline: %ld runs, wall median %.4f s, steps/s", phase.runs,
                median(walls));
    for (double v : stepsPerS) std::printf(" %.3f", v);
    std::printf("\n");
    return phase;
  }

  // --- traced composed runs ----------------------------------------------
  // Each traced composed run follows an untraced runPipeline run; the
  // layer table comes from the last composed run.
  auto& tracer = obs::TraceRecorder::instance();
  std::vector<double> overhead;
  std::unique_ptr<core::InTransitTrainer> trainer;
  ComposedRun c;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const double untracedWall =
        runOnce(cfg, phase, reference, checks).wallSeconds;
    tracer.clear();
    tracer.setCapacity(std::size_t{1} << 13);
    tracer.setEnabled(true);
    trainer = std::make_unique<core::InTransitTrainer>(cfg.model, cfg.trainer);
    c = runComposed(cfg, *trainer);
    tracer.setEnabled(false);
    ++phase.runs;
    checks.expect(c.ok, "composed run failed: " + c.fault);
    core::PipelineResult asResult;
    asResult.train = c.stats;
    asResult.iterationsStreamed = c.streamed;
    asResult.samplesReceived = c.samples;
    checkRun(cfg, asResult, checks, "composed");
    checks.expect(c.stats.lossHistory == reference,
                  "composed: traced loss history is not bit-identical to "
                  "runPipeline's");
    checks.expect(c.steadyMeasured && c.steadyAllocs == 0,
                  "composed: " + std::to_string(c.steadyAllocs) +
                      " steady-state step-arena heap allocations");
    overhead.push_back((c.wallSeconds - untracedWall) / untracedWall);
    std::printf("pipeline pair %d: untraced %.4f s, traced %.4f s\n", pair,
                untracedWall, c.wallSeconds);
  }
  const std::vector<Span> spans = collectSpans();
  checks.expect(tracer.droppedCount() == 0, "trace ring overflowed");

  const double steps = static_cast<double>(picSteps(cfg));
  const double emitted = static_cast<double>(std::max<long>(c.streamed, 1));
  const double iters =
      static_cast<double>(std::max<long>(c.stats.iterations, 1));
  const auto perStepMs = [&](const char* cat, const char* name) {
    return spanTotal(spans, cat, name, "producer").ms / steps;
  };
  Metrics& L = phase.layers;
  L.add("pic.step_ms", "ms", c.pic.seconds * 1e3 / steps);
  L.add("pic.supercell_sort_ms", "ms", perStepMs("pic", "supercell_sort"));
  L.add("pic.tile_pass_ms", "ms", perStepMs("pic", "tile_pass"));
  L.add("pic.reduce_ms", "ms", perStepMs("pic", "reduce"));
  L.add("pic.field_solve_ms", "ms", perStepMs("pic", "field_solve"));
  double particles = 0;
  {
    // Same particle count every step: the KHI box is closed (periodic).
    pic::SimulationConfig sc;
    sc.grid = cfg.producer.khi.grid;
    sc.dt = cfg.producer.khi.dt;
    pic::Simulation probe(sc);
    pic::initializeKhi(probe, cfg.producer.khi);
    particles = static_cast<double>(probe.particleCount());
  }
  L.add("pic.particle_updates_per_s", "1/s",
        particles * steps / c.pic.seconds);
  L.add("radiation.step_ms", "ms", c.radiation.seconds * 1e3 / steps);
  L.add("producer.extract_ms", "ms", c.extract.seconds * 1e3 / emitted);
  const double sstWriterS =
      (spanTotal(spans, "stream", "writer_begin_step", "producer").ms +
       spanTotal(spans, "stream", "writer_end_step", "producer").ms) *
      1e-3;
  const double packS = c.openpmd.seconds - sstWriterS;
  L.add("openpmd.pack_ms", "ms", packS * 1e3 / emitted);
  L.add("stream.writer_stall_frac", "1", c.stallSeconds / c.producerWall);
  const double readerWaitS =
      spanTotal(spans, "stream", "reader_begin_step", "consumer").ms * 1e-3;
  L.add("stream.reader_wait_frac", "1", readerWaitS / c.consumerWall);
  L.add("stream.handoff_ms", "ms", median(c.handoffMs));
  L.add("stream.bytes_per_step", "B",
        static_cast<double>(c.bytesStreamed) / emitted);
  L.add("replay.push_us", "us",
        c.push.seconds * 1e6 / static_cast<double>(std::max<long>(c.pushes, 1)));
  const SpanTotal sample = spanTotal(spans, "replay", "sample_batch", "trainer");
  L.add("replay.sample_us", "us",
        sample.count ? sample.ms * 1e3 / static_cast<double>(sample.count) : 0);
  L.add("train.iter_ms", "ms", c.training.seconds * 1e3 / iters);
  const auto rank0Ms = [&](const char* name) {
    return spanTotal(spans, "train", name, "trainer rank 0").ms;
  };
  L.add("train.forward_ms", "ms", rank0Ms("forward") / iters);
  L.add("train.backward_ms", "ms", rank0Ms("backward") / iters);
  L.add("train.allreduce_ms", "ms", rank0Ms("allreduce") / iters);
  L.add("train.optim_ms", "ms", rank0Ms("optim") / iters);
  L.add("train.comm_frac", "1",
        rank0Ms("allreduce") * 1e-3 / std::max(c.training.seconds, 1e-12));
  timeMlLayers(cfg, *trainer, L);
  L.add("ml.steady_allocs", "count", static_cast<double>(c.steadyAllocs));

  // Self times per loop thread; the stages are disjoint calls, so they sum
  // to the thread's wall time up to the loop's own bookkeeping.
  const double producerSum = c.pic.seconds + c.radiation.seconds +
                             c.extract.seconds + c.openpmd.seconds;
  const double consumerSum = c.read.seconds + c.push.seconds + c.training.seconds;
  const double producerRest = c.producerWall - producerSum;
  const double consumerRest = c.consumerWall - consumerSum;
  L.add("producer.unattributed_frac", "1", producerRest / c.producerWall);
  L.add("consumer.unattributed_frac", "1", consumerRest / c.consumerWall);
  L.add("trace.overhead_frac", "1", median(overhead));

  printShare("producer", "pic.step", c.pic.seconds, c.producerWall);
  printShare("producer", "radiation.step", c.radiation.seconds, c.producerWall);
  printShare("producer", "producer.extract", c.extract.seconds, c.producerWall);
  printShare("producer", "openpmd.pack", packS, c.producerWall);
  printShare("producer", "stream.writer (stall)", sstWriterS, c.producerWall);
  printShare("producer", "unattributed", producerRest, c.producerWall);
  printShare("producer", "wall", c.producerWall, c.producerWall);
  printShare("consumer", "stream.reader_wait", readerWaitS, c.consumerWall);
  printShare("consumer", "stream.unpack", c.read.seconds - readerWaitS,
             c.consumerWall);
  printShare("consumer", "replay.push", c.push.seconds, c.consumerWall);
  printShare("consumer", "train.iterations", c.training.seconds, c.consumerWall);
  printShare("consumer", "unattributed", consumerRest, c.consumerWall);
  printShare("consumer", "wall", c.consumerWall, c.consumerWall);
  checks.expect(std::fabs(producerRest) < 0.05 * c.producerWall &&
                    std::fabs(consumerRest) < 0.05 * c.consumerWall,
                "layer self times leave more than 5% of a loop thread's wall "
                "time unattributed");
  return phase;
}

}  // namespace perfbench
