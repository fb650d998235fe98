// The fleet-backed Evaluator: a caller asks for an index set, FleetEvaluator
// answers it via coordinator_gather's fault-tolerant scatter/gather round
// loop (eviction, re-ping, bounded retry). dse::Campaign asks it for each
// round's points; the full-table fleet sweep (`dsml sweep --workers`,
// `dsml fleet`) asks it for all 4608. Lives in the fleet layer (which sits
// above dse) so the campaign engine itself never takes a dependency on
// networking; tools/cli.cpp wires the two together.
#pragma once

#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "fleet/coordinator.hpp"

namespace dsml::fleet {

class FleetEvaluator final : public dse::Evaluator {
 public:
  FleetEvaluator(std::string app, std::vector<Endpoint> workers,
                 CoordinatorOptions options);

  std::string name() const override { return "fleet"; }

  /// Scatters `indices` across the healthy workers and merges the gathered
  /// shards into one response aligned to the request. Worker failures are
  /// tolerated (evicted + reassigned) up to max_rounds; an incomplete gather
  /// throws StateError, which the campaign records and retries once.
  dse::SweepShard evaluate(const std::vector<std::size_t>& indices) override;

  /// Worker failures tolerated since the last drain (evictions, timeouts).
  std::vector<FailureRecord> drain_failures() override;

  /// Endpoints evicted in some round, across the whole campaign, dedup'd.
  const std::vector<std::string>& evicted() const { return evicted_; }

 private:
  std::string app_;
  std::vector<Endpoint> workers_;
  CoordinatorOptions options_;
  std::vector<FailureRecord> pending_;
  std::vector<std::string> evicted_;
};

}  // namespace dsml::fleet
