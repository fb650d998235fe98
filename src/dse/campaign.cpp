#include "dse/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "ml/ensemble.hpp"
#include "ml/fit_score.hpp"
#include "ml/metrics.hpp"
#include "sim/core.hpp"

namespace dsml::dse {

// ---------------------------------------------------------------------------
// Evaluators

DatasetEvaluator::DatasetEvaluator(const data::Dataset& truth)
    : truth_(&truth) {
  DSML_REQUIRE(truth.has_target(), "DatasetEvaluator: dataset lacks target");
}

SweepShard DatasetEvaluator::evaluate(const std::vector<std::size_t>& indices) {
  SweepShard shard;
  shard.indices = indices;
  shard.cycles.reserve(indices.size());
  for (const std::size_t idx : indices) {
    DSML_REQUIRE(idx < truth_->n_rows(),
                 "DatasetEvaluator: index outside the dataset");
    shard.cycles.push_back(truth_->target_at(idx));
  }
  return shard;
}

LocalSweepEvaluator::LocalSweepEvaluator(std::string app, SweepOptions options)
    : app_(std::move(app)), options_(std::move(options)) {}

SweepShard LocalSweepEvaluator::evaluate(
    const std::vector<std::size_t>& indices) {
  return run_sweep_shard(app_, options_, indices, reduced_);
}

// ---------------------------------------------------------------------------
// Scorers

double Scorer::true_error(const std::vector<double>& predictions,
                          const data::Dataset& score) const {
  if (!score.has_target()) return 0.0;
  return ml::mape(predictions, score.target());
}

void Scorer::finalize(const std::vector<double>&, CampaignResult&) const {}

double synthesized_energy(const sim::ProcessorConfig& c) {
  // Static (leakage ~ SRAM size) + dynamic (logic width, queue CAMs, FU
  // pools, predictor tables) contributions, each scaled so no single
  // parameter dominates the Table-1 menus. Arbitrary units.
  double e = 10.0;
  e += 0.35 * static_cast<double>(c.width) * static_cast<double>(c.width);
  e += 0.004 * static_cast<double>(c.ruu_size);
  e += 0.006 * static_cast<double>(c.lsq_size);
  e += 0.020 * static_cast<double>(c.l1d_size_kb + c.l1i_size_kb);
  e += 0.30 * static_cast<double>(c.l1d_assoc + c.l1i_assoc);
  e += 0.004 * static_cast<double>(c.l2_size_kb);
  e += 0.10 * static_cast<double>(c.l2_assoc);
  e += 1.50 * static_cast<double>(c.l3_size_mb);
  e += 0.15 * static_cast<double>(c.l3_assoc);
  e += 0.002 * static_cast<double>(c.itlb_size_kb + c.dtlb_size_kb);
  e += 0.40 * static_cast<double>(c.fu.ialu + c.fu.fpalu);
  e += 0.60 * static_cast<double>(c.fu.imult + c.fu.fpmult);
  e += 0.50 * static_cast<double>(c.fu.memport);
  switch (c.branch_predictor) {
    case sim::BranchPredictorKind::kPerfect: e += 0.0; break;
    case sim::BranchPredictorKind::kBimodal: e += 0.8; break;
    case sim::BranchPredictorKind::kTwoLevel: e += 1.6; break;
    case sim::BranchPredictorKind::kCombination: e += 2.4; break;
  }
  if (c.issue_wrong) e += 0.5;  // wrong-path issue burns fetch/issue energy
  return e;
}

ParetoScorer::ParetoScorer() {
  const std::vector<sim::ProcessorConfig> space = sim::enumerate_design_space();
  energy_.reserve(space.size());
  for (const auto& c : space) energy_.push_back(synthesized_energy(c));
}

void ParetoScorer::finalize(const std::vector<double>& best_predictions,
                            CampaignResult& result) const {
  DSML_REQUIRE(best_predictions.size() == energy_.size(),
               "ParetoScorer: predictions do not cover the design space");
  // Non-dominated set of (predicted cycles, energy): walk configurations in
  // ascending predicted-cycle order (index breaks ties, so the frontier is
  // deterministic) and keep every strict improvement in energy.
  std::vector<std::size_t> order(best_predictions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (best_predictions[a] != best_predictions[b]) {
      return best_predictions[a] < best_predictions[b];
    }
    return a < b;
  });
  double best_energy = std::numeric_limits<double>::infinity();
  for (const std::size_t idx : order) {
    if (energy_[idx] < best_energy) {
      best_energy = energy_[idx];
      result.pareto.push_back(
          ParetoPoint{idx, best_predictions[idx], energy_[idx]});
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign

const CampaignRound* CampaignResult::final_round() const {
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
    if (it->has_select) return &*it;
  }
  return nullptr;
}

Campaign::Campaign(const CampaignConfig& config) : config_(config) {
  DSML_REQUIRE(config.space != nullptr, "Campaign: no candidate space");
  DSML_REQUIRE(config.sampler != nullptr, "Campaign: no sampler");
  DSML_REQUIRE(config.evaluator != nullptr, "Campaign: no evaluator");
  DSML_REQUIRE(!config.rounds.empty() && !config.model_names.empty(),
               "Campaign: empty round plan or model menu");
}

CampaignResult Campaign::run() {
  trace::Span campaign_span([&] { return "dse.campaign " + config_.app; },
                            "dse");
  static metrics::Counter& evals = metrics::counter("dse.model_evals");
  static metrics::Counter& rounds_run = metrics::counter("dse.campaign.rounds");
  static metrics::Counter& points = metrics::counter("dse.campaign.points");

  const data::Dataset& space = *config_.space;
  const data::Dataset& score = config_.score ? *config_.score : space;
  static const CyclesScorer default_scorer;
  const Scorer& scorer = config_.scorer ? *config_.scorer : default_scorer;

  CampaignResult result;
  result.app = config_.app;
  result.sampler = config_.sampler->name();
  result.evaluator = config_.evaluator->name();
  result.objective = scorer.name();

  std::vector<std::uint8_t> done(space.n_rows(), 0);
  std::vector<double> known(space.n_rows(), 0.0);
  std::vector<std::size_t> evaluated;
  std::vector<double> disagreement;
  const bool cumulative = config_.sampler->cumulative();

  for (std::size_t r = 0; r < config_.rounds.size(); ++r) {
    const SamplerRound& spec = config_.rounds[r];
    rounds_run.add();

    // --- select ---
    SamplerContext ctx;
    ctx.space_rows = space.n_rows();
    ctx.evaluated = &done;
    ctx.evaluated_count = evaluated.size();
    ctx.disagreement = &disagreement;
    ctx.space = &space;
    const std::vector<std::size_t> picks = config_.sampler->select(spec, ctx);
    DSML_REQUIRE(!picks.empty(), "Campaign: sampler selected no points");

    // --- evaluate, with one bounded retry: a transient evaluator failure
    // (a fleet round that lost every worker, an injected fault) costs a
    // failure record and a second attempt, never the table ---
    SweepShard shard;
    bool have_shard = false;
    for (std::size_t attempt = 0; attempt < 2 && !have_shard; ++attempt) {
      try {
        DSML_FAIL("dse.campaign.round");
        shard = config_.evaluator->evaluate(picks);
        have_shard = true;
      } catch (const std::exception& e) {
        result.failures.push_back(
            FailureRecord{"campaign round " + spec.label +
                              (attempt == 0 ? "" : " retry"),
                          error_kind(e), e.what()});
      }
      for (FailureRecord& f : config_.evaluator->drain_failures()) {
        result.failures.push_back(std::move(f));
      }
    }
    if (!have_shard) continue;  // the round is lost; later rounds still run
    DSML_REQUIRE(shard.indices.size() == shard.cycles.size() &&
                     shard.indices.size() == picks.size(),
                 "Campaign: evaluator answered a different index set");

    for (std::size_t i = 0; i < shard.indices.size(); ++i) {
      const std::size_t idx = shard.indices[i];
      DSML_REQUIRE(idx < space.n_rows(), "Campaign: index outside the space");
      if (!done[idx]) {
        done[idx] = 1;
        evaluated.push_back(idx);
      }
      known[idx] = shard.cycles[i];
    }
    std::sort(evaluated.begin(), evaluated.end());
    points.add(picks.size());

    // --- training set: everything simulated so far (cumulative samplers)
    // or just this round's fresh sample ---
    const std::vector<std::size_t>& train_idx = cumulative ? evaluated : picks;
    data::Dataset train = space.select_rows(train_idx);
    {
      std::vector<double> targets;
      targets.reserve(train_idx.size());
      for (const std::size_t idx : train_idx) targets.push_back(known[idx]);
      train.set_target(space.has_target() ? space.target_name() : "cycles",
                       std::move(targets));
    }

    // --- retrain: the model menu fans out across the pool; each cell owns
    // its models and seeds and writes only slots[i]. The reduction below
    // stays serial so Select tie-breaking matches the menu order exactly ---
    struct EvalSlot {
      std::optional<CampaignCell> cell;
      std::vector<ml::FoldFailure> fold_failures;
      std::optional<FailureRecord> failure;
    };
    const std::string suffix = config_.label_cells ? "@" + spec.label : "";
    std::vector<EvalSlot> slots(config_.model_names.size());
    const auto evaluate_cell = [&](std::size_t i) {
      const std::string& model_name = config_.model_names[i];
      trace::Span eval_span([&] { return "evaluate " + model_name; }, "dse");
      evals.add();
      engine::FitScoreRequest request;
      try {
        request.model = ml::make_model(model_name, config_.zoo);
      } catch (const std::exception& e) {
        slots[i].failure =
            FailureRecord{model_name + suffix, error_kind(e), e.what()};
        return;
      }
      request.train = &train;
      request.estimate = config_.estimate;
      request.validation.repeats = config_.cv_repeats;
      request.validation.seed = config_.sample_seed * 977 + spec.seed_salt;
      request.score = &score;
      request.failpoint = config_.eval_failpoint;
      engine::FitScoreResult cell = engine::fit_and_score(request);
      if (!cell.ok()) {
        slots[i].failure = FailureRecord{model_name + suffix,
                                         cell.failure->error_type,
                                         cell.failure->message};
        return;
      }
      slots[i].fold_failures = std::move(cell.estimate.failed);

      CampaignCell c;
      c.model = model_name;
      c.estimated_error_max = cell.estimate.maximum;
      c.estimated_error_avg = cell.estimate.average;
      c.true_error = scorer.true_error(cell.predictions, score);
      c.fit_seconds = cell.fit_seconds;
      c.predictions = std::move(cell.predictions);
      c.fitted = std::move(cell.model);
      slots[i].cell = std::move(c);
    };
    if (config_.parallel_cells) {
      parallel_for(0, config_.model_names.size(), evaluate_cell);
    } else {
      for (std::size_t i = 0; i < config_.model_names.size(); ++i) {
        evaluate_cell(i);
      }
    }

    // --- score / reduce ---
    CampaignRound round;
    round.label = spec.label;
    round.rate = spec.rate > 0.0
                     ? spec.rate
                     : static_cast<double>(train.n_rows()) /
                           static_cast<double>(space.n_rows());
    round.new_points = picks.size();
    round.train_rows = train.n_rows();
    double best_estimate = std::numeric_limits<double>::infinity();
    round.select.rate = round.rate;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EvalSlot& slot = slots[i];
      if (slot.failure.has_value()) {
        result.failures.push_back(std::move(*slot.failure));
        continue;
      }
      for (const ml::FoldFailure& f : slot.fold_failures) {
        result.failures.push_back(FailureRecord{
            config_.model_names[i] + suffix + " fold " +
                std::to_string(f.fold),
            f.error_type, f.message});
      }
      CampaignCell& cell = *slot.cell;
      round.has_select = true;
      if (cell.estimated_error_max < best_estimate) {
        best_estimate = cell.estimated_error_max;
        round.select.chosen_model = cell.model;
        round.select.estimated_error = cell.estimated_error_max;
        round.select.true_error = cell.true_error;
      }
      round.cells.push_back(std::move(cell));
    }

    // --- committee disagreement for the next adaptive round ---
    disagreement.clear();
    if (cumulative && r + 1 < config_.rounds.size() && round.cells.size() > 1) {
      std::vector<std::span<const double>> members;
      members.reserve(round.cells.size());
      for (const CampaignCell& c : round.cells) {
        members.emplace_back(c.predictions.data(), c.predictions.size());
      }
      disagreement = ml::ensemble_disagreement(members);
    }
    result.rounds.push_back(std::move(round));
  }

  result.evaluated = std::move(evaluated);
  if (const CampaignRound* final = result.final_round()) {
    for (const CampaignCell& c : final->cells) {
      if (c.model == final->select.chosen_model) {
        scorer.finalize(c.predictions, result);
        break;
      }
    }
  }
  return result;
}

std::vector<SamplerRound> budget_rounds(std::size_t budget,
                                        std::size_t rounds) {
  DSML_REQUIRE(rounds > 0, "budget_rounds: need at least one round");
  DSML_REQUIRE(budget >= rounds, "budget_rounds: budget smaller than rounds");
  std::vector<SamplerRound> plan(rounds);
  const std::size_t base = budget / rounds;
  const std::size_t extra = budget % rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    plan[r].count = base + (r < extra ? 1 : 0);
    // 'r', not "r": a string literal plus std::to_string trips GCC 12's
    // -Wrestrict false positive under -Werror.
    plan[r].label = 'r' + std::to_string(r + 1);
    plan[r].seed_salt = r + 1;
  }
  return plan;
}

std::string format_failure_summary(
    const std::vector<FailureRecord>& failures) {
  if (failures.empty()) return {};
  std::string out =
      std::to_string(failures.size()) + " failure(s) tolerated:\n";
  for (const auto& f : failures) {
    out += "  " + f.name + " [" + f.error_type + "] " + f.message + "\n";
  }
  return out;
}

}  // namespace dsml::dse
