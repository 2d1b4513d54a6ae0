// The benchmark's four workloads and one run of one of their streams.
//
// A workload is a fixed simulator configuration, a policy and a job count.
// Everything seed-dependent (the job list, the IN2P3 trace file, the cache
// prewarm segments) is generated at set-up from the workload seed, so the
// program under test receives only generated inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/registry.h"

namespace perfbench {

/// Independent input streams per workload, each drawn from its own seed
/// derived from the workload seed. Queueing dynamics make one stream's
/// throughput and outputs wander far more than job sizes alone would; the
/// figure for a workload seed is steady only over several streams.
inline constexpr std::size_t kStreams = 6;

struct Workload {
  std::string name;
  ppsched::SimConfig cfg;  ///< not yet finalized
  std::string policy;
  ppsched::PolicyParams params;
  double jobsPerHour = 1.0;
  std::size_t warmupJobs = 0;
  /// Requested completions per stream (warm-up included).
  std::size_t requestedJobs = 0;
  /// Requested completions of the ValidatingPolicy pass, which checks the
  /// engine's invariants after every callback and so runs far slower.
  std::size_t validationJobs = 0;
  std::size_t maxJobsInSystem = 0;
  /// Pre-fill every cache from the seed before the run.
  bool prewarm = false;
  /// Jobs come from an IN2P3-format trace written at set-up; otherwise
  /// from a job list drawn with the paper's Erlang generator.
  bool in2p3Trace = false;
};

/// Throws std::invalid_argument for an unknown name.
Workload makeWorkload(const std::string& name);

/// The bit-exact model outputs a speed-only change must leave unchanged.
struct Fingerprint {
  double speedup = 0.0;
  double waitHours = 0.0;
  double waitP95Hours = 0.0;
  double cacheHit = 0.0;
  std::uint64_t processedEvents = 0;
  double simulatedTime = 0.0;
};

/// How a repetition wraps the program; every hook is optional.
struct StreamHooks {
  using PolicyWrap = std::function<std::unique_ptr<ppsched::ISchedulerPolicy>(
      std::unique_ptr<ppsched::ISchedulerPolicy>)>;
  /// Wraps the policy the engine is built with (the sharded coordinator on
  /// sharded workloads).
  PolicyWrap wrapPolicy;
  /// Wraps each shard's policy inside the coordinator.
  PolicyWrap wrapShardPolicy;
  /// Wraps the job source.
  std::function<std::unique_ptr<ppsched::JobSource>(std::unique_ptr<ppsched::JobSource>)>
      wrapSource;
  /// Attached to the engine before the run.
  ppsched::IEventSink* sink = nullptr;
  /// Called on the end-of-run state, before it is destroyed.
  std::function<void(ppsched::Engine&)> atEnd;
};

/// One run of one stream.
struct StreamResult {
  double setupSec = 0.0;     ///< finalize, inputs, engine, prewarm
  double runSec = 0.0;       ///< wall time of Engine::run
  double finalizeSec = 0.0;  ///< MetricsCollector::finalize
  std::size_t requested = 0;
  std::size_t completed = 0;  ///< warm-up included
  ppsched::RunResult result;
  Fingerprint fingerprint;
  /// The sharded coordinator's planAccess memo counters (0 when unsharded).
  ppsched::ISchedulerHost::PlanMemoStats viewMemo;
};

/// Set up and run stream `stream` of `w` for workload seed `seed`. `tmpDir`
/// holds the stream's IN2P3 trace file while it runs.
StreamResult runStream(const Workload& w, std::uint64_t seed, std::size_t stream,
                       const std::string& tmpDir, const StreamHooks& hooks = {});

/// Set-up only (the steps runStream times as set-up), then tear down.
/// Returns the set-up seconds.
double setupOnly(const Workload& w, std::uint64_t seed, std::size_t stream,
                 const std::string& tmpDir);

}  // namespace perfbench
