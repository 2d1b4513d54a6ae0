// perfbench: the simulator benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --mode validate --tmp <dir>
//       Stream 0 of the workload, cut to its validation length, under
//       ValidatingPolicy (no decorators, so its network checks apply);
//       prints the run's fingerprint.
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//             --tmp <dir> [--expect <fingerprint>] [--trace-dir <dir>]
//       --trace 0 runs every stream of the workload, then repeats streams
//       while <s> seconds last, and reports the end-to-end metrics.
//       --trace 1 runs streams untraced and then traced while <s> seconds
//       last (stream 0 at least) and reports the per-layer metrics.
//
// Every run of a stream must reproduce that stream's fingerprint bit for
// bit, and the validation stream the --expect one; any mismatch, invariant violation or
// error exits non-zero before a result is printed. A successful run prints
// a table of every metric, then the result JSON as its last line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "core/validating_policy.h"
#include "probes.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppsched;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string mode = "measure";
  std::string tmpDir = ".";
  std::string traceDir;
  std::string expect;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      std::size_t used = 0;
      a.seed = std::stoull(val, &used);
      if (used != val.size()) throw std::invalid_argument("bad --seed " + val);
      haveSeed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("bad --trace " + val);
      a.trace = val == "1";
    } else if (key == "--mode") {
      if (val != "measure" && val != "validate") throw std::invalid_argument("bad --mode " + val);
      a.mode = val;
    } else if (key == "--tmp") {
      a.tmpDir = val;
    } else if (key == "--trace-dir") {
      a.traceDir = val;
    } else if (key == "--expect") {
      a.expect = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !haveSeed) throw std::invalid_argument("need --workload and --seed");
  return a;
}

std::string formatFingerprint(const Fingerprint& f) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%a/%a/%a/%a/%llu/%a", f.speedup, f.waitHours, f.waitP95Hours,
                f.cacheHit, static_cast<unsigned long long>(f.processedEvents), f.simulatedTime);
  return buf;
}

/// Sanity of the model outputs themselves (beyond determinism).
void checkResult(const StreamResult& r) {
  const Fingerprint& f = r.fingerprint;
  for (const double v : {f.speedup, f.waitHours, f.waitP95Hours, f.cacheHit, f.simulatedTime}) {
    if (!std::isfinite(v)) throw std::logic_error("non-finite model output");
  }
  if (!(f.speedup > 0.0) || f.waitHours < 0.0 || f.waitP95Hours < 0.0 || f.cacheHit < 0.0 ||
      f.cacheHit > 1.0 || f.processedEvents == 0 || r.completed > r.requested) {
    throw std::logic_error("model output out of range: " + formatFingerprint(f));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// VmHWM of this process. Unlike getrusage's ru_maxrss it is not inherited
/// across exec, so the launching interpreter's footprint does not leak in.
double peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return 1024.0 * std::stod(line.substr(6));  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Runner {
 public:
  explicit Runner(const Args& a) : args_(a), w_(makeWorkload(a.workload)) {}

  /// The validation stream under ValidatingPolicy; its fingerprint is what
  /// the measuring process must reproduce undecorated.
  int validate() {
    StreamHooks hooks;
    hooks.wrapPolicy = [](std::unique_ptr<ISchedulerPolicy> p) {
      return std::make_unique<ValidatingPolicy>(std::move(p));
    };
    const StreamResult r = runStream(validationWorkload(), args_.seed, 0, args_.tmpDir, hooks);
    checkResult(r);
    std::printf("fingerprint %s\n", formatFingerprint(r.fingerprint).c_str());
    std::printf("validated: %zu/%zu completions\n", r.completed, r.requested);
    return 0;
  }

  int measure() {
    // The validation stream again, undecorated and untimed, before and after
    // the measurement: it must match the validation pass bit for bit, which
    // also catches state leaking from one run into the next.
    account(kValidationStream, runStream(validationWorkload(), args_.seed, 0, args_.tmpDir));
    const std::vector<Metric> metrics = args_.trace ? measureTraced() : measureEndToEnd();
    account(kValidationStream, runStream(validationWorkload(), args_.seed, 0, args_.tmpDir));
    std::printf("%-28s %22s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-28s %22.10g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) throw std::logic_error("non-finite metric " + m.name);
      char buf[128];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      if (!first) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

 private:
  /// Stream 0 of the workload cut to its validation length.
  [[nodiscard]] Workload validationWorkload() const {
    Workload v = w_;
    v.requestedJobs = w_.validationJobs;
    return v;
  }

  /// Every run of a stream, traced or not, must reproduce that stream's
  /// first fingerprint bit for bit; the validation stream must reproduce
  /// the validation pass's.
  void account(std::size_t stream, const StreamResult& r) {
    checkResult(r);
    const std::string fp = formatFingerprint(r.fingerprint);
    std::string& expected = expected_[stream];
    if (expected.empty()) {
      expected = stream == kValidationStream && !args_.expect.empty() ? args_.expect : fp;
    }
    if (fp != expected) {
      const std::string which =
          stream == kValidationStream ? "validation stream" : "stream " + std::to_string(stream);
      throw std::logic_error(which + " fingerprint " + fp + " differs from " + expected);
    }
    attempted_ += r.requested;
    failed_ += r.requested - r.completed;
  }

  /// Whether work of `sec` seconds still fits in the measuring window.
  [[nodiscard]] bool fits(Clock::time_point start, double sec) const {
    return secondsSince(start) + sec <= args_.seconds;
  }

  /// Runs every stream once, then repeats streams while the window lasts.
  /// jobs_per_s is all streams' completions over the sum of each stream's
  /// median run time.
  std::vector<Metric> measureEndToEnd() {
    const std::size_t k = kStreams;
    std::vector<std::vector<double>> runSec(k), setupSec(k);
    std::vector<std::size_t> completed(k);
    std::vector<Fingerprint> outputs(k);
    const auto start = Clock::now();
    double last = 0.0;
    std::size_t runs = 0;
    for (; runs < k || fits(start, last); ++runs) {
      const std::size_t s = runs % k;
      const auto t0 = Clock::now();
      const StreamResult r = runStream(w_, args_.seed, s, args_.tmpDir);
      last = secondsSince(t0);
      account(s, r);
      std::printf("stream %zu: %zu jobs, run %.4f s, set-up %.4f s\n", s, r.completed, r.runSec,
                  r.setupSec);
      runSec[s].push_back(r.runSec);
      setupSec[s].push_back(r.setupSec);
      completed[s] = r.completed;
      outputs[s] = r.fingerprint;
      // Hand freed memory back, so each stream's footprint starts from the
      // same heap state whichever streams ran before it.
      malloc_trim(0);
    }
    // Set-up is short next to a run: sample it more often than the runs.
    for (std::size_t s = 0; s < k; ++s) {
      while (setupSec[s].size() < kMinSetups) {
        setupSec[s].push_back(setupOnly(w_, args_.seed, s, args_.tmpDir));
      }
    }
    double jobs = 0.0, sec = 0.0, setup = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      jobs += static_cast<double>(completed[s]);
      sec += median(runSec[s]);
      setup += median(setupSec[s]);
    }
    const double peakRssMb = peakRssBytes() / 1e6;
    std::printf("workload %s seed %llu: %zu stream runs (%zu streams of %zu jobs)\n",
                w_.name.c_str(), static_cast<unsigned long long>(args_.seed), runs, k,
                w_.requestedJobs);
    // Model outputs: means over the streams.
    auto mean = [&](double Fingerprint::*field) {
      double sum = 0.0;
      for (const Fingerprint& f : outputs) sum += f.*field;
      return sum / static_cast<double>(k);
    };
    return {
        {"jobs_per_s", jobs / sec, "1/s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMb, "MB"},
        {"jobs_failed_frac", static_cast<double>(failed_) / static_cast<double>(attempted_),
         "fraction"},
        {"speedup", mean(&Fingerprint::speedup), "x"},
        {"wait_h", mean(&Fingerprint::waitHours), "h"},
        {"wait_p95_h", mean(&Fingerprint::waitP95Hours), "h"},
        {"cache_hit", mean(&Fingerprint::cacheHit), "fraction"},
    };
  }

  /// Runs streams in pairs, untraced then traced, while the window lasts
  /// (stream 0 at least). Per-layer metrics are medians over the traced
  /// streams; the trace overhead compares each pair's run times.
  std::vector<Metric> measureTraced() {
    double plainSec = 0.0, tracedSec = 0.0;
    std::map<std::string, std::vector<double>> samples;
    std::vector<Metric> layout;  // names and units
    const auto start = Clock::now();
    double last = 0.0;
    std::size_t s = 0;
    for (; s < kStreams && (s == 0 || fits(start, last)); ++s) {
      const auto t0 = Clock::now();
      const StreamResult plain = runStream(w_, args_.seed, s, args_.tmpDir);
      account(s, plain);

      Tracer tracer;
      CountingSink sink;
      ProbeResults probes;
      ISchedulerHost::PlanMemoStats memo;
      StreamHooks hooks;
      const bool sharded = w_.cfg.shards.enabled();
      hooks.wrapPolicy = [&](std::unique_ptr<ISchedulerPolicy> p) {
        return timedPolicy(std::move(p), tracer,
                           sharded ? PolicyRole::Coordinator : PolicyRole::Policy);
      };
      hooks.wrapShardPolicy = [&](std::unique_ptr<ISchedulerPolicy> p) {
        return timedPolicy(std::move(p), tracer, PolicyRole::ShardMember);
      };
      hooks.wrapSource = [&](std::unique_ptr<JobSource> src) {
        return timedSource(std::move(src), tracer);
      };
      hooks.sink = &sink;
      hooks.atEnd = [&](Engine& e) {
        memo = e.planMemoStats();
        const int buckets = w_.cfg.shards.enabled() ? w_.cfg.shards.buckets : ShardConfig{}.buckets;
        probes = runProbes(e, buckets, args_.seed);
      };
      const StreamResult traced = runStream(w_, args_.seed, s, args_.tmpDir, hooks);
      account(s, traced);
      last = secondsSince(t0);
      plainSec += plain.runSec;
      tracedSec += traced.runSec;
      if (!args_.traceDir.empty() && s == 0) {
        tracer.writeTraceEvents(args_.traceDir + "/" + w_.name + "-seed" +
                                    std::to_string(args_.seed) + ".trace.json",
                                kTraceExportSpans);
      }
      memo.lookups += traced.viewMemo.lookups;
      memo.hits += traced.viewMemo.hits;
      layout = layerMetrics(traced, summarize(tracer.spans()), tracer, sink, probes, memo);
      for (const Metric& m : layout) samples[m.name].push_back(m.value);
    }
    std::vector<Metric> out;
    for (Metric m : layout) {
      m.value = median(samples[m.name]);
      out.push_back(m);
    }
    out.push_back({"trace.overhead_frac", tracedSec / plainSec - 1.0, "fraction"});
    std::printf("workload %s seed %llu: %zu streams of %zu jobs, each untraced and traced\n",
                w_.name.c_str(), static_cast<unsigned long long>(args_.seed), s,
                w_.requestedJobs);
    return out;
  }

  std::vector<Metric> layerMetrics(const StreamResult& r, const SpanTotals& t, const Tracer& tracer,
                                   const CountingSink& sink, const ProbeResults& probes,
                                   const ISchedulerHost::PlanMemoStats& memo) const {
    auto calls = [&](SpanKind k) { return static_cast<double>(t.calls[static_cast<std::size_t>(k)]); };
    auto incl = [&](SpanKind k) { return t.inclusiveSec[static_cast<std::size_t>(k)]; };
    auto self = [&](SpanKind k) { return t.selfSec[static_cast<std::size_t>(k)]; };
    const SpanKind callbacks[] = {SpanKind::OnJobArrival, SpanKind::OnRunFinished, SpanKind::OnTimer,
                                  SpanKind::OnNodeDown, SpanKind::OnNodeUp};
    const SpanKind hostCalls[] = {SpanKind::PlanAccess, SpanKind::RankPlacements, SpanKind::EstCost,
                                  SpanKind::StartRun,   SpanKind::Preempt,        SpanKind::Prefetch};
    double cbCalls = 0.0, cbSec = 0.0, cbSelf = 0.0, hostSec = 0.0;
    for (const SpanKind k : callbacks) {
      cbCalls += calls(k);
      cbSec += incl(k);
      cbSelf += self(k);
    }
    for (const SpanKind k : hostCalls) hostSec += incl(k);
    // Spans without a parent run directly inside Engine::run.
    double rootSec = 0.0;
    for (const Span& s : tracer.spans()) {
      if (s.parent == Tracer::kNoSpan) rootSec += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    const double engineSelf = r.runSec - rootSec;
    double simEvents = 0.0;
    for (const std::uint64_t c : sink.counts) simEvents += static_cast<double>(c);
    const double memoRatio =
        memo.lookups == 0 ? 0.0 : static_cast<double>(memo.hits) / static_cast<double>(memo.lookups);
    const double jobsRead = static_cast<double>(tracer.jobsRead);
    const NetworkReport& nr = r.result.network;
    const ShardReport& sh = r.result.shards;
    std::vector<Metric> m = {
        {"sched.callbacks", cbCalls, "count"},
        {"sched.callback_s", cbSec, "s"},
        {"sched.self_s", cbSelf, "s"},
        {"sched.callback_us_p50", percentile(t.callbackUs, 0.50), "us"},
        {"sched.callback_us_p99", percentile(t.callbackUs, 0.99), "us"},
        {"host.call_s", hostSec, "s"},
        {"host.plan_access.calls", calls(SpanKind::PlanAccess), "count"},
        {"host.plan_access_s", incl(SpanKind::PlanAccess), "s"},
        {"host.plan_memo_hit_ratio", memoRatio, "fraction"},
        {"host.rank_placements_s", incl(SpanKind::RankPlacements), "s"},
        {"host.est_cost_s", incl(SpanKind::EstCost), "s"},
        {"host.start_run_s", incl(SpanKind::StartRun), "s"},
        {"host.preempt_s", incl(SpanKind::Preempt), "s"},
        {"host.cluster_handouts", static_cast<double>(tracer.clusterHandouts), "count"},
        {"engine.self_s", engineSelf, "s"},
        {"engine.sim_events", simEvents, "count"},
        {"engine.ns_per_sim_event", simEvents > 0.0 ? 1e9 * engineSelf / simEvents : 0.0, "ns"},
    };
    for (std::size_t k = 0; k < CountingSink::kKinds; ++k) {
      if (sink.counts[k] == 0) continue;
      m.push_back({"engine.events." + std::string(toString(static_cast<SimEventKind>(k))),
                   static_cast<double>(sink.counts[k]), "count"});
    }
    const std::vector<Metric> rest = {
        {"net.flows_opened", static_cast<double>(nr.flowsOpened), "count"},
        {"net.max_concurrent_flows", static_cast<double>(nr.maxConcurrentFlows), "count"},
        {"net.max_link_util", nr.maxLinkUtilization, "fraction"},
        {"net.estimate_rate_ns", probes.estimateRateNs, "ns"},
        {"storage.overlap_ns", probes.overlapNs, "ns"},
        {"storage.cached_in_ns", probes.cachedInNs, "ns"},
        {"storage.insert_us", probes.insertUs, "us"},
        {"storage.extents_per_node", probes.extentsPerNode, "count"},
        {"storage.evicted_events", static_cast<double>(probes.evictedEvents), "count"},
        {"cluster.best_cache_node_us", probes.bestCacheNodeUs, "us"},
        {"cluster.nodes_caching_us", probes.nodesCachingUs, "us"},
        {"shard.steals", static_cast<double>(sh.steals), "count"},
        {"shard.stale_steal_ratio",
         sh.steals == 0 ? 0.0 : static_cast<double>(sh.staleSteals) / static_cast<double>(sh.steals),
         "fraction"},
        {"shard.digest_rebuild_us", probes.digestRebuildUs, "us"},
        {"workload.jobs_read", jobsRead, "count"},
        {"workload.us_per_job", jobsRead > 0.0 ? 1e6 * incl(SpanKind::SourceNext) / jobsRead : 0.0, "us"},
        {"metrics.finalize_s", r.finalizeSec, "s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    // Defined only where the layer is live.
    if (nr.enabled) m.push_back({"net.open_close_us", probes.openCloseUs, "us"});
    if (sh.enabled) {
      m.push_back({"shard.callbacks", calls(SpanKind::ShardCallback), "count"});
      m.push_back({"shard.self_s", self(SpanKind::ShardCallback), "s"});
      m.push_back({"shard.digest_age_s", sh.meanDigestAgeSec, "s"});
    }
    return m;
  }

  static constexpr std::size_t kMinSetups = 2;
  /// account() key of the validation stream.
  static constexpr std::size_t kValidationStream = static_cast<std::size_t>(-1);
  static constexpr std::size_t kTraceExportSpans = 100'000;

  Args args_;
  Workload w_;
  std::map<std::size_t, std::string> expected_;  ///< first fingerprint per stream
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    perfbench::Runner runner(args);
    return args.mode == "validate" ? runner.validate() : runner.measure();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
