#include "fleet/evaluator.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace dsml::fleet {

FleetEvaluator::FleetEvaluator(std::string app, std::vector<Endpoint> workers,
                               CoordinatorOptions options)
    : app_(std::move(app)),
      workers_(std::move(workers)),
      options_(std::move(options)) {
  DSML_REQUIRE(!workers_.empty(), "fleet: no workers given");
}

dse::SweepShard FleetEvaluator::evaluate(
    const std::vector<std::size_t>& indices) {
  trace::Span gather_span([&] { return "fleet.gather " + app_; }, "fleet");
  GatherResult gathered =
      coordinator_gather(app_, workers_, options_, indices);
  for (FailureRecord& f : gathered.failures) {
    pending_.push_back(std::move(f));
  }
  for (std::string& label : gathered.evicted) {
    if (std::find(evicted_.begin(), evicted_.end(), label) ==
        evicted_.end()) {
      evicted_.push_back(std::move(label));
    }
  }
  return std::move(gathered.shard);
}

std::vector<FailureRecord> FleetEvaluator::drain_failures() {
  return std::exchange(pending_, {});
}

}  // namespace dsml::fleet
