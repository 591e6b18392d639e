/// \file serve_phase.hpp
/// The serving half of a workload: a serve::NetServer with the trained
/// snapshots hot-swapped at a fixed cadence, driven by an open-loop TCP
/// generator that times every request from its due time.
#pragma once

#include <memory>
#include <vector>

#include "core/model.hpp"
#include "core/sample.hpp"
#include "report.hpp"

namespace perfbench {

/// NetServer shard workers; the traffic mix is the same in every workload
/// (serve_phase.cpp).
constexpr std::size_t kShards = 2;

struct ServePhase {
  Metrics endToEnd;  ///< serve_p50_ms
  Metrics layers;    ///< traced mode only
  long attempted = 0;
  long failed = 0;
};

using SnapshotList =
    std::vector<std::shared_ptr<const artsci::core::ArtificialScientistModel>>;

/// Untraced: reference-rate segments (p50) for `budgetSeconds`. Traced:
/// two reference segments with span tracing on, for the serve layer table,
/// untraced ones (p99), then the knee staircase (serve.max_rps) for the
/// rest of the budget.
ServePhase runServePhase(std::uint64_t seed, const SnapshotList& snapshots,
                         const std::vector<artsci::core::Sample>& samples,
                         double budgetSeconds, bool traced, Checks& checks);

/// NetServer start + first publish + first client connect.
double serveSetupSeconds(std::uint64_t seed, const SnapshotList& snapshots);

}  // namespace perfbench
