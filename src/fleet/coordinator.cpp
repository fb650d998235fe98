#include "fleet/coordinator.hpp"

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/protocol.hpp"
#include "net/client.hpp"
#include "sim/core.hpp"

namespace dsml::fleet {

namespace {

struct CoordinatorMetrics {
  metrics::Counter& shards = metrics::counter("fleet.coordinator.shards");
  metrics::Counter& retries = metrics::counter("fleet.coordinator.retries");
  metrics::Counter& evictions =
      metrics::counter("fleet.coordinator.evictions");
};

CoordinatorMetrics& coordinator_metrics() {
  static CoordinatorMetrics m;
  return m;
}

/// One scattered request whose response is still owed.
struct InFlight {
  std::string label;
  std::vector<std::size_t> indices;
  std::unique_ptr<net::LineClient> client;
};

}  // namespace

std::string Endpoint::label() const {
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  DSML_REQUIRE(colon != std::string::npos && colon > 0 &&
                   colon + 1 < spec.size(),
               "fleet: endpoint '" + spec + "' is not host:port");
  Endpoint ep;
  ep.host = spec.substr(0, colon);
  std::uint64_t port = 0;
  try {
    port = strings::parse_u64(spec.substr(colon + 1));
  } catch (const IoError& e) {
    throw InvalidArgument("fleet: endpoint '" + spec + "': " + e.what());
  }
  DSML_REQUIRE(port > 0 && port <= 65535,
               "fleet: endpoint '" + spec + "' port out of range");
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

GatherResult coordinator_gather(const std::string& app,
                                const std::vector<Endpoint>& workers,
                                const CoordinatorOptions& options,
                                const std::vector<std::size_t>& indices) {
  DSML_REQUIRE(!workers.empty(), "fleet: no workers given");
  DSML_REQUIRE(options.max_rounds > 0, "fleet: max_rounds must be positive");
  DSML_REQUIRE(!indices.empty(), "fleet: empty index set");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    DSML_REQUIRE(indices[i] < sim::kDesignSpaceSize,
                 "fleet: index outside the design space");
    DSML_REQUIRE(i == 0 || indices[i - 1] < indices[i],
                 "fleet: indices must be strictly ascending");
  }

  GatherResult result;
  std::vector<dse::SweepShard> shards;
  std::set<std::string> evicted_set;
  std::set<std::string> contributed;
  const auto record_failure = [&](const std::string& label,
                                  const std::exception& e) {
    result.failures.push_back(FailureRecord{label, error_kind(e), e.what()});
    if (evicted_set.insert(label).second) {
      result.evicted.push_back(label);
      coordinator_metrics().evictions.add();
    }
  };

  // `done` spans the whole design space so the hash-ring owner of a
  // configuration is independent of which subset a campaign asks for — the
  // same index always lands on the same worker.
  std::vector<std::uint8_t> done(sim::kDesignSpaceSize, 1);
  for (const std::size_t idx : indices) done[idx] = 0;
  std::size_t missing = indices.size();

  for (std::size_t round = 1; round <= options.max_rounds && missing > 0;
       ++round) {
    result.rounds = round;
    if (round > 1) coordinator_metrics().retries.add();

    // Health phase: every endpoint is re-pinged every round, so a worker
    // the supervisor respawned since the last round rejoins the ring, and
    // one that stayed dead costs one bounded connect/recv timeout.
    std::vector<const Endpoint*> healthy;
    for (const Endpoint& ep : workers) {
      try {
        net::LineClient ping(ep.host, ep.port,
                             net::ClientOptions{options.connect_timeout_ms,
                                                options.ping_timeout_ms});
        parse_response(ping.request(encode_ping()), "pong");
        healthy.push_back(&ep);
      } catch (const std::exception& e) {
        record_failure(ep.label(), e);
      }
    }
    if (healthy.empty()) continue;  // maybe a respawn lands before next round

    HashRing ring(options.ring_replicas);
    for (const Endpoint* ep : healthy) ring.add(ep->label());

    // Assign only the configurations still missing: consistent hashing
    // means survivors of an eviction keep the shards they already returned.
    std::map<std::string, std::vector<std::size_t>> assignment;
    for (const std::size_t idx : indices) {
      if (!done[idx]) assignment[ring.owner(idx)].push_back(idx);
    }

    // Scatter: send every request before reading any response, so workers
    // simulate their shards concurrently while we wait on one socket.
    std::vector<InFlight> inflight;
    for (const Endpoint* ep : healthy) {
      auto it = assignment.find(ep->label());
      if (it == assignment.end()) continue;
      try {
        DSML_FAIL("fleet.coordinator.scatter");
        auto client = std::make_unique<net::LineClient>(
            ep->host, ep->port,
            net::ClientOptions{options.connect_timeout_ms,
                               options.request_timeout_ms});
        client->send_line(encode_sweep_request(
            SweepRequest{app, options.sweep, it->second}));
        inflight.push_back(
            InFlight{ep->label(), it->second, std::move(client)});
      } catch (const std::exception& e) {
        record_failure(ep->label(), e);
      }
    }

    // Gather: a worker that died mid-shard surfaces here as EOF (kill -9),
    // a timeout (wedged), or an ok:false response; its indices simply stay
    // unassigned for the next round.
    for (InFlight& flight : inflight) {
      try {
        DSML_FAIL("fleet.coordinator.gather");
        const json::Value response =
            parse_response(flight.client->recv_line(), "shard");
        ShardResponse shard = parse_shard_response(response);
        if (shard.cycles.size() != flight.indices.size()) {
          throw IoError("fleet: shard answered " +
                        std::to_string(shard.cycles.size()) +
                        " cycles for " +
                        std::to_string(flight.indices.size()) + " indices");
        }
        for (const std::size_t idx : flight.indices) done[idx] = 1;
        missing -= flight.indices.size();
        shards.push_back(dse::SweepShard{
            std::move(flight.indices), std::move(shard.cycles),
            shard.simpoint_count, shard.simulated_instructions});
        coordinator_metrics().shards.add();
        contributed.insert(flight.label);
      } catch (const std::exception& e) {
        record_failure(flight.label, e);
      }
    }
  }

  if (missing > 0) {
    throw StateError(
        "fleet: " + std::to_string(missing) + " of " +
        std::to_string(indices.size()) +
        " configurations unassigned after " + std::to_string(result.rounds) +
        " round(s) across " + std::to_string(workers.size()) +
        " worker(s); " + std::to_string(result.failures.size()) +
        " failure(s) recorded");
  }

  result.shard = dse::merge_sweep_shards(indices, shards);
  result.workers_used = contributed.size();
  return result;
}

PushResult push_model_snapshot(const std::string& name,
                               const std::string& snapshot,
                               const std::vector<Endpoint>& workers,
                               const CoordinatorOptions& options) {
  DSML_REQUIRE(!workers.empty(), "fleet: no workers given");
  DSML_REQUIRE(!snapshot.empty(), "fleet: empty model snapshot");
  PushResult result;
  for (const Endpoint& ep : workers) {
    try {
      net::LineClient client(ep.host, ep.port,
                             net::ClientOptions{options.connect_timeout_ms,
                                                options.request_timeout_ms});
      const json::Value response = parse_response(
          client.request(encode_load_model(name, snapshot)), "model_loaded");
      result.outcomes.push_back(PushOutcome{
          ep.label(),
          static_cast<std::uint64_t>(response.at("version").as_number())});
    } catch (const std::exception& e) {
      result.failures.push_back(
          FailureRecord{ep.label(), error_kind(e), e.what()});
    }
  }
  return result;
}

}  // namespace dsml::fleet
