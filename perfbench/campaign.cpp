// campaign-mcf: one adaptive DSE campaign on mcf — budget 46 (the paper's
// 1 % of the space) over 4 rounds, models LR-B/NN-E/NN-S, every point
// simulated in-process by LocalSweepEvaluator without the sweep cache. The
// traced run wraps the Evaluator/Sampler/Scorer seams in timing decorators
// and replays each round's index set through replay_configs.
#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/strings.hpp"
#include "dse/campaign.hpp"
#include "harness.hpp"
#include "ml/metrics.hpp"
#include "sim/config.hpp"

namespace perfbench {

namespace dse = dsml::dse;

namespace {

constexpr std::size_t kBudget = 46;
constexpr std::size_t kRounds = 4;
constexpr std::size_t kModels = 3;  ///< CampaignConfig's menu: LR-B/NN-E/NN-S

/// The CLI's default sampler/CV seed is 7; other benchmark seeds shift it.
std::uint64_t campaign_seed(std::uint64_t seed) { return 7 + seed; }

/// Forwards to the real evaluator, keeping every shard for the oracles and
/// the time spent inside it.
class SeamEvaluator final : public dse::Evaluator {
 public:
  explicit SeamEvaluator(dse::Evaluator& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  dse::SweepShard evaluate(const std::vector<std::size_t>& indices) override {
    const auto t0 = Clock::now();
    dse::SweepShard shard = inner_.evaluate(indices);
    seconds += seconds_since(t0);
    shards.push_back(shard);
    return shard;
  }
  std::vector<dsml::FailureRecord> drain_failures() override {
    return inner_.drain_failures();
  }

  std::vector<dse::SweepShard> shards;
  double seconds = 0.0;

 private:
  dse::Evaluator& inner_;
};

class TimedSampler final : public dse::Sampler {
 public:
  explicit TimedSampler(dse::Sampler& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool cumulative() const override { return inner_.cumulative(); }
  std::vector<std::size_t> select(const dse::SamplerRound& round,
                                  const dse::SamplerContext& ctx) override {
    const auto t0 = Clock::now();
    std::vector<std::size_t> picks = inner_.select(round, ctx);
    seconds += seconds_since(t0);
    return picks;
  }

  double seconds = 0.0;

 private:
  dse::Sampler& inner_;
};

/// true_error runs inside the campaign's parallel cells, so its time is
/// summed across threads under a lock.
class TimedScorer final : public dse::Scorer {
 public:
  explicit TimedScorer(const dse::Scorer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  double true_error(const std::vector<double>& predictions,
                    const dsml::data::Dataset& score) const override {
    const auto t0 = Clock::now();
    const double err = inner_.true_error(predictions, score);
    add(seconds_since(t0));
    return err;
  }
  void finalize(const std::vector<double>& best_predictions,
                dse::CampaignResult& result) const override {
    const auto t0 = Clock::now();
    inner_.finalize(best_predictions, result);
    add(seconds_since(t0));
  }
  double seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seconds_;
  }

 private:
  void add(double s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    seconds_ += s;
  }

  const dse::Scorer& inner_;
  mutable std::mutex mutex_;
  mutable double seconds_ = 0.0;
};

/// What a campaign answered: compared across the campaigns of a run and,
/// at the default seed, against the committed pin.
struct Outcome {
  std::vector<std::size_t> evaluated;
  std::vector<std::string> selects;  ///< "<round> <model>"
  std::string true_err_pct;          ///< %.17g, so equality is exact

  bool operator==(const Outcome&) const = default;
};

const std::string kPinPath = std::string(kDataDir) + "/campaign_mcf.txt";

Outcome load_pin() {
  std::ifstream in(kPinPath);
  if (!in) throw dsml::IoError("cannot read " + kPinPath);
  Outcome pin;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "evaluated") {
      std::size_t idx = 0;
      while (fields >> idx) pin.evaluated.push_back(idx);
    } else if (key == "select") {
      std::string round;
      std::string model;
      fields >> round >> model;
      pin.selects.push_back(round + " " + model);
    } else if (key == "true_err_pct") {
      fields >> pin.true_err_pct;
    }
  }
  return pin;
}

void write_pin(const Outcome& pin) {
  std::ofstream out(kPinPath);
  out << "# adaptive campaign on mcf at benchmark seed 0: budget " << kBudget
      << " over " << kRounds << " rounds, LR-B/NN-E/NN-S\n";
  out << "evaluated";
  for (const std::size_t idx : pin.evaluated) out << ' ' << idx;
  out << "\n";
  for (const std::string& s : pin.selects) out << "select " << s << "\n";
  out << "true_err_pct " << pin.true_err_pct << "\n";
  if (!out) throw dsml::IoError("cannot write " + kPinPath);
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Run {
  dse::CampaignResult result;
  std::vector<dse::SweepShard> shards;
  double seconds = 0.0;
  double evaluate_s = 0.0;
  double select_s = 0.0;
  double score_s = 0.0;
};

Run run_one(const dsml::data::Dataset& space, std::uint64_t seed,
            bool traced) {
  dse::LocalSweepEvaluator local("mcf", mcf_options());
  SeamEvaluator evaluator(local);
  const std::unique_ptr<dse::Sampler> adaptive =
      dse::make_sampler("adaptive", seed, "mcf");
  TimedSampler timed_sampler(*adaptive);
  const dse::CyclesScorer cycles;
  const TimedScorer timed_scorer(cycles);

  dse::CampaignConfig config;
  config.app = "mcf";
  config.space = &space;
  config.sampler = traced ? static_cast<dse::Sampler*>(&timed_sampler)
                          : adaptive.get();
  config.evaluator = &evaluator;
  config.scorer = traced ? static_cast<const dse::Scorer*>(&timed_scorer)
                         : &cycles;
  config.rounds = dse::budget_rounds(kBudget, kRounds);
  config.sample_seed = seed;

  Run run;
  const auto t0 = Clock::now();
  run.result = dse::Campaign(config).run();
  run.seconds = seconds_since(t0);
  run.shards = std::move(evaluator.shards);
  run.evaluate_s = evaluator.seconds;
  run.select_s = timed_sampler.seconds;
  run.score_s = timed_scorer.seconds();
  return run;
}

/// Checks one campaign against the truth table and summarizes it.
Outcome check_run(const Run& run, const std::vector<double>& truth,
                  Result& result) {
  const dse::CampaignResult& r = run.result;
  result.attempted += r.rounds.size() * (1 + kModels);
  result.failed += r.failures.size();
  result.check(r.failures.empty(),
               std::to_string(r.failures.size()) + " campaign failure(s): " +
                   dse::format_failure_summary(r.failures));
  result.check(r.evaluated.size() == kBudget,
               "campaign evaluated " + std::to_string(r.evaluated.size()) +
                   " configurations");
  std::size_t wrong = 0;
  for (const dse::SweepShard& shard : run.shards) {
    for (std::size_t i = 0; i < shard.indices.size(); ++i) {
      wrong += shard.cycles[i] != truth[shard.indices[i]];
    }
  }
  result.check(wrong == 0,
               std::to_string(wrong) +
                   " evaluated config(s) differ from the truth table");
  Outcome out;
  out.evaluated = r.evaluated;
  for (const dse::CampaignRound& round : r.rounds) {
    out.selects.push_back(round.label + " " +
                          (round.has_select ? round.select.chosen_model : "-"));
  }
  const dse::CampaignRound* final_round = r.final_round();
  result.check(final_round != nullptr, "campaign produced no Select model");
  if (final_round == nullptr) return out;
  for (const dse::CampaignCell& cell : final_round->cells) {
    if (cell.model == final_round->select.chosen_model) {
      out.true_err_pct = exact(dsml::ml::mape(cell.predictions, truth));
    }
  }
  return out;
}

dsml::data::Dataset design_space() {
  return dsml::sim::make_config_dataset(dsml::sim::enumerate_design_space());
}

}  // namespace

Result run_campaign(const Args& args) {
  Result result;
  const std::vector<double> truth = load_truth();
  const dsml::data::Dataset space = design_space();
  const std::uint64_t seed = campaign_seed(args.seed);

  std::vector<double> times;
  Outcome first;
  const auto start = Clock::now();
  do {
    const Run run = run_one(space, seed, /*traced=*/false);
    const Outcome outcome = check_run(run, truth, result);
    if (times.empty()) {
      first = outcome;
    } else {
      result.check(outcome == first, "repeated campaigns disagree");
    }
    times.push_back(run.seconds);
  } while (!args.trace && seconds_since(start) < args.seconds);

  if (args.seed == kDefaultSeed) {
    result.check(first == load_pin(),
                 "campaign differs from the committed pin " + kPinPath);
  }
  result.notes.push_back("campaign: true error " + first.true_err_pct +
                         " % (final Select vs the mcf truth table); selects " +
                         dsml::strings::join(first.selects, ", "));

  if (!args.trace) {
    const double med = median(times);
    result.set("op_p50_ms", med * 1e3, times.size());
    result.notes.push_back(
        "slowest of " + std::to_string(times.size()) + ": " +
        dsml::strings::format_double(
            *std::max_element(times.begin(), times.end()) * 1e3, 1) +
        " ms");
    result.set("items_per_s", static_cast<double>(kBudget) / med, times.size());
    return result;
  }

  // Traced and untraced campaigns alternate, so the overhead compares like
  // with like; per-layer times are means over the traced ones.
  constexpr int kTracedRuns = 3;
  std::vector<Run> traced_runs;
  double untraced_s = 0.0;
  for (int i = 0; i < kTracedRuns; ++i) {
    if (i > 0) untraced_s += run_one(space, seed, /*traced=*/false).seconds;
    traced_runs.push_back(run_one(space, seed, /*traced=*/true));
    result.check(check_run(traced_runs.back(), truth, result) == first,
                 "traced campaign differs from the untraced one");
  }
  untraced_s = (untraced_s + times.front()) / kTracedRuns;
  double wall_s = 0.0, evaluate_s = 0.0, select_s = 0.0, score_s = 0.0;
  for (const Run& r : traced_runs) {
    wall_s += r.seconds / kTracedRuns;
    evaluate_s += r.evaluate_s / kTracedRuns;
    select_s += r.select_s / kTracedRuns;
    score_s += r.score_s / kTracedRuns;
  }
  const std::vector<dse::SweepShard>& shards = traced_runs.front().shards;
  std::vector<Replay> replays;
  std::size_t points = 0;
  for (const dse::SweepShard& shard : shards) {
    replays.push_back(replay_configs(mcf_options(), shard.indices));
    result.check(replays.back().cycles == shard.cycles,
                 "replayed round differs from the campaign's evaluation");
    points += shard.indices.size();
  }
  set_sim_metrics(result, replays);
  double replay_s = 0.0;
  for (const Replay& r : replays) replay_s += r.trace_s + r.sim_wall_s;
  const double retrain_s = wall_s - evaluate_s - select_s - score_s;
  const std::size_t rounds = traced_runs.front().result.rounds.size();
  result.set("dse.evaluate_s", evaluate_s, shards.size());
  result.set("dse.evaluate_points", static_cast<double>(points));
  result.set("dse.select_s", select_s, rounds);
  result.set("dse.score_s", score_s);
  result.set("dse.rounds", static_cast<double>(rounds));
  result.set("ml.retrain_s", retrain_s);
  result.set("ml.true_err_pct", std::stod(first.true_err_pct));
  result.set("trace.overhead_ratio", wall_s / untraced_s);
  result.set("trace.coverage",
             (replay_s + select_s + score_s + retrain_s) / wall_s);
  result.notes.push_back(
      "traced campaign " + dsml::strings::format_double(wall_s, 3) +
      " s vs untraced " + dsml::strings::format_double(untraced_s, 3) +
      " s (means of " + std::to_string(kTracedRuns) + "); evaluate " +
      dsml::strings::format_double(evaluate_s, 3) +
      " s (replayed as trace + simulate " +
      dsml::strings::format_double(replay_s, 3) + " s)");
  return result;
}

void write_oracles() {
  const dsml::dse::SweepResult sweep = dsml::dse::run_design_space_sweep(
      "mcf", mcf_options());
  write_truth(sweep.cycles);
  Result scratch;
  const Run run =
      run_one(design_space(), campaign_seed(kDefaultSeed), /*traced=*/false);
  write_pin(check_run(run, sweep.cycles, scratch));
  if (!scratch.correct) {
    throw dsml::StateError("oracle campaign failed: " + scratch.notes.front());
  }
}

}  // namespace perfbench
