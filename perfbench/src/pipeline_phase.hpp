/// \file pipeline_phase.hpp
/// The in-transit pipeline half of a workload: repeated untraced
/// core::runPipeline runs for the end-to-end figures, and (traced mode) the
/// same pipeline composed stage by stage from its public calls so every
/// layer is timed on the thread that runs it.
#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.hpp"
#include "report.hpp"

namespace perfbench {

struct PipelinePhase {
  Metrics endToEnd;  ///< sim_steps_per_s, train_samples_per_s
  Metrics layers;    ///< traced mode only
  long runs = 0;     ///< pipeline runs made (each one attempted operation)
  long failedRuns = 0;
  /// Trained snapshots (one per run) for the serve phase to publish.
  std::vector<std::shared_ptr<const artsci::core::ArtificialScientistModel>>
      snapshots;
  /// Replay-buffer contents of the last run: real clouds and spectra that
  /// become the serve phase's request payloads.
  std::vector<artsci::core::Sample> samples;
};

/// Untraced: `runs` runPipeline runs, the first a warm-up, medians over
/// the rest. Traced: an untraced warm-up run, then pairs of an untraced
/// runPipeline run and the composed traced run (the tracing overhead),
/// then the ml layers timed on a batch replayed from the last composed
/// run's buffer.
PipelinePhase runPipelinePhase(const artsci::core::PipelineConfig& cfg,
                               long runs, bool traced, Checks& checks);

/// Construction before the pipeline's first timed operation: trainer and
/// model, plus the producer's KHI init, radiation detector and streams.
double pipelineSetupSeconds(const artsci::core::PipelineConfig& cfg);

}  // namespace perfbench
