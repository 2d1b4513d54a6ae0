#include "probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "shard/digest.h"
#include "sim/random.h"

namespace perfbench {

using namespace ppsched;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps probe results observable so the calls are not optimized away.
volatile std::uint64_t g_probeSink = 0;

constexpr int kRanges = 256;
constexpr int kRounds = 5;

/// Median over kRounds of (seconds of one round / calls per round).
template <typename Round>
double perCall(std::size_t callsPerRound, Round&& round) {
  std::vector<double> t;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    round();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                static_cast<double>(callsPerRound));
  }
  std::nth_element(t.begin(), t.begin() + kRounds / 2, t.end());
  return t[kRounds / 2];
}

std::vector<EventRange> probeRanges(const SimConfig& cfg, Rng& rng) {
  const std::uint64_t total = cfg.totalEvents();
  const auto maxLen = std::min<std::uint64_t>(
      total, static_cast<std::uint64_t>(2.0 * cfg.workload.meanJobEvents));
  std::vector<EventRange> out;
  for (int i = 0; i < kRanges; ++i) {
    const std::uint64_t len = rng.uniformInt(1, maxLen);
    const std::uint64_t begin = rng.uniformInt(0, total - len);
    out.push_back({begin, begin + len});
  }
  return out;
}

}  // namespace

ProbeResults runProbes(Engine& engine, int digestBuckets, std::uint64_t seed) {
  ProbeResults p;
  const SimConfig& cfg = engine.config();
  const Cluster& cluster = engine.cluster();
  Rng rng(seed ^ 0x70726f6265ULL);
  const std::vector<EventRange> ranges = probeRanges(cfg, rng);

  // One cache per machine (CPU slots of a machine share it).
  std::vector<const LruExtentCache*> caches;
  for (int m = 0; m < cfg.numNodes; ++m) caches.push_back(&cluster.node(m * cfg.cpusPerNode).cache());
  const std::size_t cacheCalls = caches.size() * ranges.size();

  std::uint64_t sink = 0;
  p.overlapNs = 1e9 * perCall(cacheCalls, [&] {
    for (const LruExtentCache* c : caches)
      for (const EventRange r : ranges) sink += c->overlapSize(r);
  });
  p.cachedInNs = 1e9 * perCall(cacheCalls, [&] {
    for (const LruExtentCache* c : caches)
      for (const EventRange r : ranges) sink += c->cachedIn(r).size();
  });
  {
    // Insert into copies of a few caches at times after the run's end, so
    // every probe insert is the most recent access (as during the run).
    const std::size_t copies = std::min<std::size_t>(caches.size(), 8);
    const std::size_t perCopy = 64;
    p.insertUs = 1e6 * perCall(copies * perCopy, [&] {
      for (std::size_t i = 0; i < copies; ++i) {
        LruExtentCache copy = *caches[i];
        SimTime t = engine.now();
        for (std::size_t k = 0; k < perCopy; ++k) {
          t += 1.0;
          sink += copy.insert(ranges[(i * perCopy + k) % ranges.size()], t).size();
        }
      }
    });
    // The copies are part of each round; subtract their cost.
    const double copyUs = 1e6 * perCall(copies * perCopy, [&] {
      for (std::size_t i = 0; i < copies; ++i) {
        LruExtentCache copy = *caches[i];
        sink += copy.used();
      }
    });
    p.insertUs = std::max(0.0, p.insertUs - copyUs);
  }
  double extents = 0.0;
  for (const LruExtentCache* c : caches) {
    extents += static_cast<double>(c->extentCount());
    p.evictedEvents += c->totalEvicted();
  }
  p.extentsPerNode = extents / static_cast<double>(caches.size());

  p.bestCacheNodeUs = 1e6 * perCall(ranges.size(), [&] {
    for (const EventRange r : ranges) sink += static_cast<std::uint64_t>(cluster.bestCacheNode(r));
  });
  p.nodesCachingUs = 1e6 * perCall(ranges.size(), [&] {
    for (const EventRange r : ranges) sink += cluster.nodesCaching(r).size();
  });

  CacheDigest digest(cfg.totalEvents(), digestBuckets);
  p.digestRebuildUs = 1e6 * perCall(caches.size(), [&] {
    for (const LruExtentCache* c : caches) {
      digest.rebuild(*c);
      sink += digest.bit(0) ? 1 : 0;
    }
  });

  // Machine pairs (and tertiary sources) for the network probes.
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < kRanges; ++i) {
    const auto dst = static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(cfg.numNodes - 1)));
    auto src = static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(cfg.numNodes)));
    if (src == cfg.numNodes || src == dst) src = FlowNetwork::kTertiarySource;
    pairs.emplace_back(src, dst);
  }
  const double cap = cfg.cost.diskBytesPerSec;
  FlowNetwork net = engine.flowNetwork();
  p.estimateRateNs = 1e9 * perCall(pairs.size(), [&] {
    for (const auto& [src, dst] : pairs) sink += static_cast<std::uint64_t>(net.estimateRate(src, dst, cap));
  });
  if (net.enabled()) {
    // Each open is closed again, so every round starts from the run's flows.
    p.openCloseUs = 1e6 * perCall(pairs.size(), [&] {
      for (const auto& [src, dst] : pairs) {
        const FlowId id = net.open(src, dst, cap, FlowKind::RemoteRead, engine.now());
        net.close(id, engine.now());
      }
    });
  }
  g_probeSink = g_probeSink + sink;
  return p;
}

}  // namespace perfbench
