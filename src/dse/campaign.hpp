// The DSE campaign engine: one driver owning the loop every design-space
// experiment shares — select points, evaluate them, retrain the model menu,
// score — with three pluggable seams:
//
//   Sampler    (sampler.hpp)  which configurations next: uniform random
//                             (the paper's protocol), active-learning by
//                             ensemble disagreement, or everything at once.
//   Evaluator  (below)        where ground truth comes from: an in-memory
//                             dataset, a local sweep shard
//                             (dse::run_sweep_shard), or — wired from the
//                             fleet layer, which sits above this one — the
//                             scatter/gather coordinator with its eviction
//                             and retry semantics (fleet::FleetEvaluator).
//   Scorer     (below)        what "good" means: single-target cycle error,
//                             or the multi-objective cycles + synthesized
//                             energy mode that emits a Pareto frontier.
//
// run_sampled_dse and run_chronological are thin configurations of this
// engine; their tables, failure records, and CLI output are byte-identical
// to the pre-campaign drivers (pinned by goldens under tests/data/dse/).
//
// Observability: each round fires the `dse.campaign.round` failpoint (one
// bounded retry, so an injected transient costs a failure record, not the
// table), bumps `dse.campaign.rounds` / `dse.campaign.points`, and runs
// under a "dse.campaign <app>" trace span.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/dataset.hpp"
#include "dse/sampler.hpp"
#include "dse/sweep.hpp"
#include "ml/model.hpp"
#include "ml/model_zoo.hpp"
#include "sim/config.hpp"

namespace dsml::dse {

/// Ground-truth seam: answer cycle counts for a set of design-space row
/// indices. Implementations may throw (dead workers, failed simulation);
/// the campaign records the failure and retries the round once.
class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual std::string name() const = 0;
  /// Cycle counts for `indices` (ascending, no duplicates), index-aligned.
  virtual SweepShard evaluate(const std::vector<std::size_t>& indices) = 0;
  /// Failures tolerated inside the last evaluate() (e.g. fleet evictions);
  /// drained into the campaign's failure list after every round.
  virtual std::vector<FailureRecord> drain_failures() { return {}; }
};

/// Slices targets out of a dataset that already has them — the sampled-DSE
/// reproduction path (the full sweep is the ground truth) and unit tests.
class DatasetEvaluator final : public Evaluator {
 public:
  explicit DatasetEvaluator(const data::Dataset& truth);
  std::string name() const override { return "dataset"; }
  SweepShard evaluate(const std::vector<std::size_t>& indices) override;

 private:
  const data::Dataset* truth_;
};

/// Simulates shards in-process via run_sweep_shard (cache-sliced when a
/// complete cached sweep exists; bit-identical to the full sweep either way).
/// The reduced trace is built once, on the first round that simulates, and
/// reused by every later round.
class LocalSweepEvaluator final : public Evaluator {
 public:
  LocalSweepEvaluator(std::string app, SweepOptions options);
  std::string name() const override { return "local"; }
  SweepShard evaluate(const std::vector<std::size_t>& indices) override;

 private:
  std::string app_;
  SweepOptions options_;
  std::optional<ReducedTrace> reduced_;
};

/// One point of a multi-objective frontier.
struct ParetoPoint {
  std::size_t index = 0;     ///< design-space configuration index
  double cycles = 0.0;       ///< predicted cycle count
  double energy = 0.0;       ///< synthesized energy proxy
};

struct CampaignResult;

/// Objective seam: how a cell's predictions are scored, and what the
/// campaign's final model is asked to produce.
class Scorer {
 public:
  virtual ~Scorer() = default;
  virtual std::string name() const = 0;
  /// True error of predictions against the score set (0 when it carries no
  /// target — campaigns without ground truth still run, they just cannot
  /// report true error).
  virtual double true_error(const std::vector<double>& predictions,
                            const data::Dataset& score) const;
  /// Called once after the last round with the Select winner's predictions
  /// over the score set.
  virtual void finalize(const std::vector<double>& best_predictions,
                        CampaignResult& result) const;
};

/// Single-target cycles (the default): MAPE against the score target.
class CyclesScorer final : public Scorer {
 public:
  std::string name() const override { return "cycles"; }
};

/// Multi-objective cycles + synthesized energy: same cell scoring, plus the
/// Pareto frontier of (predicted cycles, energy) over the design space.
class ParetoScorer final : public Scorer {
 public:
  ParetoScorer();
  std::string name() const override { return "pareto"; }
  void finalize(const std::vector<double>& best_predictions,
                CampaignResult& result) const override;

 private:
  std::vector<double> energy_;  ///< per design-space configuration
};

/// Deterministic energy proxy for one configuration (no energy numbers exist
/// in the paper or the simulator; this synthesizes a plausible static+dynamic
/// model from the Table-1 parameters so multi-objective exploration has a
/// second axis). Units are arbitrary "energy points".
double synthesized_energy(const sim::ProcessorConfig& config);

/// One surviving (model, round) evaluation.
struct CampaignCell {
  std::string model;
  double estimated_error_max = 0.0;  ///< §3.3 CV estimate (max of folds)
  double estimated_error_avg = 0.0;  ///< mean of folds
  double true_error = 0.0;           ///< Scorer::true_error over the score set
  double fit_seconds = 0.0;
  std::vector<double> predictions;   ///< over the score set
  std::unique_ptr<ml::Regressor> fitted;
};

/// The Select meta-model outcome of one round (lowest estimated error wins;
/// ties keep the earlier menu entry).
struct CampaignSelect {
  double rate = 0.0;
  std::string chosen_model;
  double estimated_error = 0.0;
  double true_error = 0.0;
};

struct CampaignRound {
  std::string label;
  double rate = 0.0;            ///< effective sampling fraction of the round
  std::size_t new_points = 0;   ///< configurations evaluated this round
  std::size_t train_rows = 0;
  std::vector<CampaignCell> cells;  ///< survivors, menu order
  CampaignSelect select;
  bool has_select = false;      ///< false when every cell failed
};

struct CampaignResult {
  std::string app;
  std::string sampler;
  std::string evaluator;
  std::string objective;
  std::vector<CampaignRound> rounds;
  /// Tolerated failures, in occurrence order: evaluator/round failures, cell
  /// failures ("<model>@<label>"), fold failures ("... fold N").
  std::vector<FailureRecord> failures;
  std::vector<std::size_t> evaluated;  ///< all indices simulated, ascending
  std::vector<ParetoPoint> pareto;     ///< objective "pareto" only

  /// The last round that produced a Select row (the campaign's answer).
  const CampaignRound* final_round() const;
};

struct CampaignConfig {
  std::string app;  ///< label for traces and failure records
  /// Candidate rows (features; an optional target is the ground truth the
  /// DatasetEvaluator slices). Borrowed; must outlive run().
  const data::Dataset* space = nullptr;
  /// Held-out scoring set; null scores against `space` (the sampled-DSE
  /// protocol: predict the whole space).
  const data::Dataset* score = nullptr;
  Sampler* sampler = nullptr;
  Evaluator* evaluator = nullptr;
  const Scorer* scorer = nullptr;  ///< null = CyclesScorer
  std::vector<SamplerRound> rounds;
  std::vector<std::string> model_names = {"LR-B", "NN-E", "NN-S"};
  ml::ZooOptions zoo;
  bool estimate = true;  ///< run the §3.3 cross-validation estimate per cell
  std::size_t cv_repeats = 5;
  std::uint64_t sample_seed = 7;
  /// Failpoint fired at the top of every cell, so the historical names
  /// ("dse.sampled.eval", "dse.chrono.eval") survive the refactor.
  const char* eval_failpoint = "dse.campaign.eval";
  /// Cell/failure labels: "<model>@<round label>" when true, bare model
  /// names when false (the chronological convention).
  bool label_cells = true;
  /// Fan the model menu out across the thread pool. Cell values are
  /// bit-identical either way (every cell owns its models and seeds);
  /// serial keeps `nth:` failpoint triggers landing on a deterministic
  /// cell, which the chronological fault suite relies on.
  bool parallel_cells = true;
};

/// The campaign engine. Owns nothing but the loop; every seam is borrowed
/// from the config. Throws InvalidArgument on a malformed config; tolerated
/// evaluation failures degrade into CampaignResult::failures (a campaign
/// where *every* cell of every round fails returns rounds without cells —
/// callers decide whether that is fatal).
class Campaign {
 public:
  explicit Campaign(const CampaignConfig& config);
  CampaignResult run();

 private:
  const CampaignConfig& config_;
};

/// Splits `budget` simulations over `rounds` campaign rounds (earlier rounds
/// take the remainder), labelled "r1".."rK" with seed salts 1..K.
std::vector<SamplerRound> budget_rounds(std::size_t budget,
                                        std::size_t rounds);

/// The "N failure(s) tolerated:" banner shared by every dsml dse CLI path
/// (sweep, sampled, chrono, fleet, campaign). Empty failures = empty string.
std::string format_failure_summary(const std::vector<FailureRecord>& failures);

}  // namespace dsml::dse
