// Fleet coordinator: fault-tolerant scatter/gather over the worker fleet.
//
// coordinator_gather partitions a set of design-space indices across the
// workers that answer a health ping (consistent hash, hash_ring.hpp),
// scatters one sweep request per worker, and gathers the shard responses.
// Every network step runs under a deadline (connect timeout +
// kernel-enforced I/O timeout), so a dead, wedged, or stalled worker costs
// one bounded wait, never a hang.
//
// Failure model — the invariant is "complete answer or loud error, never a
// silent partial result":
//   - a worker that fails ping, dies mid-request (EOF), times out, or
//     answers ok:false is *evicted for the round*: its failure is recorded
//     as a FailureRecord (taxonomy type via error_kind) and its indices
//     return to the unassigned pool;
//   - the next round re-pings every endpoint (a supervisor-respawned worker
//     rejoins; a permanently dead one stays out), rebuilds the ring from
//     the survivors, and reassigns only the missing indices — consistent
//     hashing keeps completed shards where they are;
//   - after max_rounds, any still-missing indices raise StateError naming
//     the count. The gathered shards are merged by dse::merge_sweep_shards,
//     which checks exact coverage, so a full-space gather is byte-identical
//     to a single-process sweep.
//
// Failpoints `fleet.coordinator.scatter` / `fleet.coordinator.gather`
// inject coordinator-side connection failures; the round loop must contain
// them exactly like real worker deaths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dse/sweep.hpp"

namespace dsml::fleet {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;

  /// "host:port" — the node name used on the hash ring and in records.
  std::string label() const;
};

/// Parses "host:port". Throws InvalidArgument on a malformed spec.
Endpoint parse_endpoint(const std::string& spec);

struct CoordinatorOptions {
  std::uint32_t connect_timeout_ms = 2000;   ///< per connection attempt
  std::uint32_t ping_timeout_ms = 2000;      ///< health-check I/O deadline
  std::uint32_t request_timeout_ms = 120000; ///< shard I/O deadline
  std::size_t max_rounds = 3;                ///< assignment attempts
  std::size_t ring_replicas = 64;            ///< hash-ring virtual nodes
  dse::SweepOptions sweep;
};

struct GatherResult {
  dse::SweepShard shard;                 ///< merged answer, request-aligned
  std::vector<FailureRecord> failures;   ///< every tolerated worker failure
  std::vector<std::string> evicted;      ///< endpoints evicted in some round
  std::size_t rounds = 0;                ///< assignment rounds used
  std::size_t workers_used = 0;          ///< workers that returned a shard
};

/// The fault-tolerant scatter/gather round loop over an arbitrary index set
/// (strictly ascending, in-range; the full sweep is 0..4607): re-ping every
/// endpoint each round, partition the still-missing indices over the
/// survivors by consistent hash, scatter, gather, evict failures, then
/// merge the shards. FleetEvaluator wraps this for campaigns and for the
/// full-table fleet sweep. Throws InvalidArgument on an empty worker list
/// or malformed index set, StateError when coverage cannot be completed
/// within max_rounds (e.g. every worker dead).
GatherResult coordinator_gather(const std::string& app,
                                const std::vector<Endpoint>& workers,
                                const CoordinatorOptions& options,
                                const std::vector<std::size_t>& indices);

/// One worker's outcome of a model push.
struct PushOutcome {
  std::string endpoint;
  std::uint64_t version = 0;  ///< 0 when the push failed
};

struct PushResult {
  std::vector<PushOutcome> outcomes;
  std::vector<FailureRecord> failures;
};

/// Ships a registry snapshot (ModelRegistry::serialize_entry) to every
/// worker; each applies it via the atomic registry swap. Per-worker
/// failures are recorded, not fatal — the caller decides whether a partial
/// rollout is acceptable.
PushResult push_model_snapshot(const std::string& name,
                               const std::string& snapshot,
                               const std::vector<Endpoint>& workers,
                               const CoordinatorOptions& options);

}  // namespace dsml::fleet
