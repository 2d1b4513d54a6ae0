// Bench-owned tracing: decorators around the policy, the host the policy
// sees and the job source, plus an event-counting sink. Each decorated call
// records a span (name, start, end, parent) in memory; layer self times are
// derived from the spans after the run. Nothing inside the library is
// instrumented: the spans sit at the boundaries the public API exposes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event_log.h"
#include "core/policy.h"
#include "workload/generator.h"

namespace perfbench {

/// What a span measures. The text before the first '.' of its name is the
/// layer its self time is charged to. Spans without a parent sit directly
/// inside Engine::run, whose self time is the run minus those spans.
enum class SpanKind : std::uint8_t {
  ShardCallback,
  OnJobArrival,
  OnRunFinished,
  OnTimer,
  OnNodeDown,
  OnNodeUp,
  PlanAccess,
  RankPlacements,
  EstCost,
  StartRun,
  Preempt,
  Prefetch,
  SourceNext,
  kCount,
};

const char* spanName(SpanKind kind);

struct Span {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the enclosing span; 0 = root
  SpanKind kind = SpanKind::SourceNext;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = 0;

  /// Open a span nested in the innermost open one; returns its handle.
  std::uint32_t open(SpanKind kind);
  void close(std::uint32_t handle);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Calls to ISchedulerHost::cluster() the policy made (handouts of the
  /// node/cache state; not timed, they are reference returns).
  std::uint64_t clusterHandouts = 0;
  std::uint64_t jobsRead = 0;

  /// Write the first `limit` spans as Chrome trace-event JSON.
  void writeTraceEvents(const std::string& path, std::size_t limit) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, SpanKind kind) : tracer_(t), handle_(t.open(kind)) {}
  ~ScopedSpan() { tracer_.close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

/// Per-kind totals derived from the spans.
struct SpanTotals {
  std::array<std::uint64_t, static_cast<std::size_t>(SpanKind::kCount)> calls{};
  std::array<double, static_cast<std::size_t>(SpanKind::kCount)> inclusiveSec{};
  /// Inclusive minus the time covered by direct children.
  std::array<double, static_cast<std::size_t>(SpanKind::kCount)> selfSec{};
  /// Durations of every policy callback, in microseconds.
  std::vector<double> callbackUs;
};

SpanTotals summarize(const std::vector<Span>& spans);

/// Counts engine events by kind.
class CountingSink final : public ppsched::IEventSink {
 public:
  static constexpr std::size_t kKinds = static_cast<std::size_t>(ppsched::SimEventKind::FlowClose) + 1;
  void record(const ppsched::SimEvent& event) override {
    ++counts[static_cast<std::size_t>(event.kind)];
  }
  std::array<std::uint64_t, kKinds> counts{};
};

/// What a decorated policy is, which decides its span names and whether it
/// sees a timed host.
enum class PolicyRole {
  /// A policy the engine drives: sched.* spans; its host calls are timed.
  Policy,
  /// The sharded coordinator the engine drives: shard.callback spans; its
  /// host calls, and those its shards' policies make, are timed.
  Coordinator,
  /// A policy inside a shard: sched.* spans; its host calls reach the
  /// coordinator's timed host through the shard view.
  ShardMember,
};

/// Policy decorator: times every callback and, for the Policy and
/// Coordinator roles, hands the inner policy a TimedHost instead of the
/// real host.
std::unique_ptr<ppsched::ISchedulerPolicy> timedPolicy(
    std::unique_ptr<ppsched::ISchedulerPolicy> inner, Tracer& tracer, PolicyRole role);

/// Job-source decorator: times every next() and counts the jobs read.
std::unique_ptr<ppsched::JobSource> timedSource(std::unique_ptr<ppsched::JobSource> inner,
                                                Tracer& tracer);

}  // namespace perfbench
