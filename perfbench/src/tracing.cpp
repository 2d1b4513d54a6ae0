#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using namespace ppsched;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t idx(SpanKind k) { return static_cast<std::size_t>(k); }

bool isCallback(SpanKind k) {
  return k == SpanKind::OnJobArrival || k == SpanKind::OnRunFinished ||
         k == SpanKind::OnTimer || k == SpanKind::OnNodeDown || k == SpanKind::OnNodeUp;
}

/// The coordinator's callbacks share one span kind.
SpanKind callbackKind(PolicyRole role, SpanKind k) {
  return role == PolicyRole::Coordinator ? SpanKind::ShardCallback : k;
}

/// The host a decorated policy sees: forwards every call to the real host,
/// timing the ones that do work (planning, pricing, dispatch, preemption).
/// Plain state reads are forwarded untimed so the decorator does not swamp
/// them; their cost stays in the policy's self time.
class TimedHost final : public ISchedulerHost {
 public:
  TimedHost(ISchedulerHost& real, Tracer& tracer) : real_(real), tracer_(tracer) {}

  [[nodiscard]] SimTime now() const override { return real_.now(); }
  [[nodiscard]] const SimConfig& config() const override { return real_.config(); }
  [[nodiscard]] int numNodes() const override { return real_.numNodes(); }
  [[nodiscard]] Cluster& cluster() override {
    ++tracer_.clusterHandouts;
    return real_.cluster();
  }
  [[nodiscard]] bool isUp(NodeId node) const override { return real_.isUp(node); }
  [[nodiscard]] bool isIdle(NodeId node) const override { return real_.isIdle(node); }
  [[nodiscard]] std::vector<NodeId> idleNodes() const override { return real_.idleNodes(); }
  [[nodiscard]] RunningView running(NodeId node) const override { return real_.running(node); }
  [[nodiscard]] const Job& job(JobId id) const override { return real_.job(id); }
  [[nodiscard]] const IntervalSet& remainingOf(JobId id) const override {
    return real_.remainingOf(id);
  }
  [[nodiscard]] bool jobDone(JobId id) const override { return real_.jobDone(id); }
  [[nodiscard]] std::size_t jobsInSystem() const override { return real_.jobsInSystem(); }

  void startRun(NodeId node, Subjob sj, AccessPlan plan = {}) override {
    ScopedSpan s(tracer_, SpanKind::StartRun);
    real_.startRun(node, std::move(sj), plan);
  }
  using ISchedulerHost::startRun;
  void prefetch(NodeId dst, EventRange range, AccessPlan plan = {}) override {
    ScopedSpan s(tracer_, SpanKind::Prefetch);
    real_.prefetch(dst, range, plan);
  }
  Subjob preempt(NodeId node) override {
    ScopedSpan s(tracer_, SpanKind::Preempt);
    return real_.preempt(node);
  }
  TimerId scheduleTimer(SimTime at) override { return real_.scheduleTimer(at); }
  void cancelTimer(TimerId id) override { real_.cancelTimer(id); }
  ActionId at(SimTime when, std::function<void()> action) override {
    return real_.at(when, std::move(action));
  }
  void deferLost(Subjob sj) override { real_.deferLost(std::move(sj)); }
  void noteSchedulingDelay(JobId id, Duration delay) override {
    real_.noteSchedulingDelay(id, delay);
  }

  [[nodiscard]] double estimatedSecPerEvent(NodeId node, NodeId remoteFrom,
                                            DataSource src) const override {
    ScopedSpan s(tracer_, SpanKind::EstCost);
    return real_.estimatedSecPerEvent(node, remoteFrom, src);
  }
  [[nodiscard]] double estimatedTransferBytesPerSec(NodeId dst, NodeId src) const override {
    ScopedSpan s(tracer_, SpanKind::EstCost);
    return real_.estimatedTransferBytesPerSec(dst, src);
  }
  [[nodiscard]] bool sameSwitch(NodeId a, NodeId b) const override {
    return real_.sameSwitch(a, b);
  }
  [[nodiscard]] std::vector<PlacementCandidate> rankPlacements(NodeId dst,
                                                               EventRange range) override {
    ScopedSpan s(tracer_, SpanKind::RankPlacements);
    return real_.rankPlacements(dst, range);
  }
  [[nodiscard]] std::vector<AccessPlan> planAccess(NodeId dst, EventRange range,
                                                   AccessGoal goal = {}) override {
    ScopedSpan s(tracer_, SpanKind::PlanAccess);
    return real_.planAccess(dst, range, goal);
  }
  [[nodiscard]] std::uint64_t planEpoch() const override { return real_.planEpoch(); }

 private:
  ISchedulerHost& real_;
  Tracer& tracer_;
};

class TimedPolicy final : public ISchedulerPolicy {
 public:
  TimedPolicy(std::unique_ptr<ISchedulerPolicy> inner, Tracer& tracer, PolicyRole role)
      : inner_(std::move(inner)), tracer_(tracer), role_(role) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool usesCaching() const override { return inner_->usesCaching(); }
  void bind(ISchedulerHost& host) override {
    ISchedulerPolicy::bind(host);
    if (role_ == PolicyRole::ShardMember) {
      inner_->bind(host);
      return;
    }
    view_ = std::make_unique<TimedHost>(host, tracer_);
    inner_->bind(*view_);
  }
  void onJobArrival(const Job& job) override {
    ScopedSpan s(tracer_, callbackKind(role_, SpanKind::OnJobArrival));
    inner_->onJobArrival(job);
  }
  void onRunFinished(NodeId node, const RunReport& report) override {
    ScopedSpan s(tracer_, callbackKind(role_, SpanKind::OnRunFinished));
    inner_->onRunFinished(node, report);
  }
  void onTimer(TimerId timer) override {
    ScopedSpan s(tracer_, callbackKind(role_, SpanKind::OnTimer));
    inner_->onTimer(timer);
  }
  void onNodeDown(NodeId node, const RunReport* lost) override {
    ScopedSpan s(tracer_, callbackKind(role_, SpanKind::OnNodeDown));
    inner_->onNodeDown(node, lost);
  }
  void onNodeUp(NodeId node) override {
    ScopedSpan s(tracer_, callbackKind(role_, SpanKind::OnNodeUp));
    inner_->onNodeUp(node);
  }

 private:
  std::unique_ptr<ISchedulerPolicy> inner_;
  Tracer& tracer_;
  PolicyRole role_;
  std::unique_ptr<TimedHost> view_;
};

class TimedSource final : public JobSource {
 public:
  TimedSource(std::unique_ptr<JobSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::optional<Job> next() override {
    ScopedSpan s(tracer_, SpanKind::SourceNext);
    std::optional<Job> job = inner_->next();
    if (job) ++tracer_.jobsRead;
    return job;
  }

 private:
  std::unique_ptr<JobSource> inner_;
  Tracer& tracer_;
};

}  // namespace

const char* spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::ShardCallback: return "shard.callback";
    case SpanKind::OnJobArrival: return "sched.onJobArrival";
    case SpanKind::OnRunFinished: return "sched.onRunFinished";
    case SpanKind::OnTimer: return "sched.onTimer";
    case SpanKind::OnNodeDown: return "sched.onNodeDown";
    case SpanKind::OnNodeUp: return "sched.onNodeUp";
    case SpanKind::PlanAccess: return "host.planAccess";
    case SpanKind::RankPlacements: return "host.rankPlacements";
    case SpanKind::EstCost: return "host.estimatedCost";
    case SpanKind::StartRun: return "host.startRun";
    case SpanKind::Preempt: return "host.preempt";
    case SpanKind::Prefetch: return "host.prefetch";
    case SpanKind::SourceNext: return "workload.next";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::uint32_t Tracer::open(SpanKind kind) {
  Span s;
  s.kind = kind;
  s.parent = stack_.empty() ? kNoSpan : stack_.back();
  s.startNs = nowNs();
  spans_.push_back(s);
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(handle);
  return handle;
}

void Tracer::close(std::uint32_t handle) {
  spans_[handle - 1].endNs = nowNs();
  stack_.pop_back();
}

void Tracer::writeTraceEvents(const std::string& path, std::size_t limit) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
  out << "{\"traceEvents\":[";
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << spanName(s.kind) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.startNs - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
        << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent << "}}";
  }
  out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":" << spans_.size()
      << ",\"written\":" << n << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

SpanTotals summarize(const std::vector<Span>& spans) {
  SpanTotals t;
  std::vector<double> childSec(spans.size(), 0.0);
  for (const Span& s : spans) {
    const double sec = static_cast<double>(s.endNs - s.startNs) * 1e-9;
    if (s.parent != Tracer::kNoSpan) childSec[s.parent - 1] += sec;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double sec = static_cast<double>(s.endNs - s.startNs) * 1e-9;
    ++t.calls[idx(s.kind)];
    t.inclusiveSec[idx(s.kind)] += sec;
    t.selfSec[idx(s.kind)] += sec - childSec[i];
    if (isCallback(s.kind)) t.callbackUs.push_back(sec * 1e6);
  }
  return t;
}

std::unique_ptr<ISchedulerPolicy> timedPolicy(std::unique_ptr<ISchedulerPolicy> inner,
                                              Tracer& tracer, PolicyRole role) {
  return std::make_unique<TimedPolicy>(std::move(inner), tracer, role);
}

std::unique_ptr<JobSource> timedSource(std::unique_ptr<JobSource> inner, Tracer& tracer) {
  return std::make_unique<TimedSource>(std::move(inner), tracer);
}

}  // namespace perfbench
