// Layer probes: time single public calls of the storage, cluster, shard and
// net layers on the end-of-run state of a traced repetition. Probe ranges
// are drawn from the workload seed; every mutating probe runs on a copy.
#pragma once

#include <cstdint>

#include "core/engine.h"

namespace perfbench {

struct ProbeResults {
  double overlapNs = 0.0;        ///< LruExtentCache::overlapSize, per call
  double cachedInNs = 0.0;       ///< LruExtentCache::cachedIn, per call
  double insertUs = 0.0;         ///< LruExtentCache::insert on a copy, per call
  double extentsPerNode = 0.0;   ///< mean extent count per machine cache
  std::uint64_t evictedEvents = 0;
  double bestCacheNodeUs = 0.0;  ///< Cluster::bestCacheNode, per call
  double nodesCachingUs = 0.0;   ///< Cluster::nodesCaching, per call
  double digestRebuildUs = 0.0;  ///< CacheDigest::rebuild of one machine's cache
  double estimateRateNs = 0.0;   ///< FlowNetwork::estimateRate on a copy, per call
  double openCloseUs = 0.0;      ///< FlowNetwork open + close on a copy (network on)
};

/// `digestBuckets`: digest resolution to probe (the workload's shard
/// buckets, or the library default when unsharded).
ProbeResults runProbes(ppsched::Engine& engine, int digestBuckets, std::uint64_t seed);

}  // namespace perfbench
