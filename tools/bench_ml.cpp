#include "bench_ml.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <ostream>
#include <thread>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "data/encoder.hpp"
#include "data/split.hpp"
#include "dse/campaign.hpp"
#include "dse/chronological.hpp"
#include "dse/sampler.hpp"
#include "engine/registry.hpp"
#include "engine/schema.hpp"
#include "engine/session.hpp"
#include "linalg/backend.hpp"
#include "linalg/kernels.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/model_zoo.hpp"
#include "ml/validation.hpp"
#include "sim/config.hpp"

namespace dsml::bench_ml {

namespace {

using Clock = std::chrono::steady_clock;

/// Wall time of one call of fn, repeated until at least `min_seconds` has
/// elapsed (minimum one call); returns seconds per call.
double time_per_call(const std::function<void()>& fn,
                     double min_seconds = 0.2) {
  std::size_t reps = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(reps);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

struct Section {
  std::string name;
  double reference_ms = 0.0;
  double optimized_ms = 0.0;
  bool equivalent = true;
  double max_diff = 0.0;

  double speedup() const {
    return optimized_ms > 0.0 ? reference_ms / optimized_ms : 0.0;
  }
};

// ------------------------------------------------------------------ gemm ---

Section bench_gemm(json::Writer& w, bool fast) {
  // Full size puts B at 768*768*8 = 4.5 MiB — past kCacheResidentBytes and a
  // typical L2 — so the depth-split tiling actually engages; in-cache shapes
  // take the single-pass route and would only measure loop overhead.
  const std::size_t m = fast ? 192 : 512;
  const std::size_t k = fast ? 128 : 768;
  const std::size_t n = fast ? 96 : 768;
  Rng rng(42);
  linalg::Matrix a(m, k);
  linalg::Matrix b(k, n);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  linalg::Matrix c_blocked(m, n);
  linalg::Matrix c_ref(m, n);

  const double blocked_s = time_per_call([&] {
    std::fill(c_blocked.data().begin(), c_blocked.data().end(), 0.0);
    linalg::kernels::gemm_accumulate(a.data().data(), k, b.data().data(), n,
                                     c_blocked.data().data(), n, m, k, n);
  });
  const double ref_s = time_per_call([&] {
    std::fill(c_ref.data().begin(), c_ref.data().end(), 0.0);
    linalg::kernels::gemm_accumulate_reference(a.data().data(), k,
                                               b.data().data(), n,
                                               c_ref.data().data(), n, m, k, n);
  });

  Section s;
  s.name = "gemm";
  s.reference_ms = ref_s * 1e3;
  s.optimized_ms = blocked_s * 1e3;
  s.max_diff = linalg::Matrix::max_abs_diff(c_blocked, c_ref);
  s.equivalent = s.max_diff == 0.0;

  const double flops = 2.0 * static_cast<double>(m * k * n);
  w.key("gemm").begin_object();
  w.field("m", m).field("k", k).field("n", n);
  w.field("blocked_ms", s.optimized_ms);
  w.field("reference_ms", s.reference_ms);
  w.field("blocked_gflops", flops / blocked_s * 1e-9);
  w.field("speedup", s.speedup());
  w.field("bit_identical", s.equivalent);
  w.end_object();
  return s;
}

// ----------------------------------------------------------- simd kernels --

/// The runtime-dispatch matrix: the same GEMM and GEMV workloads timed under
/// every backend the dispatch layer knows (naive, blocked, simd). The gate
/// is the dispatch contract itself — every double-precision backend must
/// produce bit-identical results, because the simd kernels vectorise across
/// *independent outputs* and keep each accumulator's serial order (see
/// docs/PERFORMANCE.md). The headline speedup compares simd against blocked;
/// on machines where no vector unit is available simd falls back to blocked
/// and the ratio is simply ~1.
Section bench_simd_kernels(json::Writer& w, bool fast) {
  const std::size_t m = fast ? 192 : 512;
  const std::size_t k = fast ? 128 : 768;
  const std::size_t n = fast ? 96 : 768;
  Rng rng(42);
  linalg::Matrix a(m, k);
  linalg::Matrix b(k, n);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  std::vector<double> xv(k);
  for (double& v : xv) v = rng.uniform(-1.0, 1.0);
  std::vector<std::size_t> cols;
  for (std::size_t j = 0; j < k; j += 3) cols.push_back(j);
  std::vector<double> beta(cols.size());
  for (double& v : beta) v = rng.uniform(-1.0, 1.0);

  struct PerBackend {
    linalg::Backend backend;
    double gemm_ms = 0.0;
    double gemv_ms = 0.0;
    double gemv_columns_ms = 0.0;
    linalg::Matrix c;
    std::vector<double> y;
    std::vector<double> yc;
  };
  std::vector<PerBackend> runs;
  for (linalg::Backend backend :
       {linalg::Backend::kNaive, linalg::Backend::kBlocked,
        linalg::Backend::kSimd}) {
    const linalg::ScopedBackend pin(backend);
    PerBackend run;
    run.backend = backend;
    run.c = linalg::Matrix(m, n);
    run.y.resize(m);
    run.yc.resize(m);
    run.gemm_ms = time_per_call([&] {
      std::fill(run.c.data().begin(), run.c.data().end(), 0.0);
      linalg::kernels::gemm_accumulate(a.data().data(), k, b.data().data(),
                                       n, run.c.data().data(), n, m, k, n);
    }) * 1e3;
    run.gemv_ms = time_per_call([&] {
      linalg::kernels::gemv(a.data().data(), k, m, k, xv.data(),
                            run.y.data());
    }) * 1e3;
    run.gemv_columns_ms = time_per_call([&] {
      linalg::kernels::gemv_columns(a.data().data(), k, m, cols.data(),
                                    cols.size(), beta.data(),
                                    run.yc.data());
    }) * 1e3;
    runs.push_back(std::move(run));
  }

  bool identical = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    identical = identical &&
                linalg::Matrix::max_abs_diff(runs[i].c, runs[0].c) == 0.0 &&
                bitwise_equal(runs[i].y, runs[0].y) &&
                bitwise_equal(runs[i].yc, runs[0].yc);
  }

  Section s;
  s.name = "simd_kernels";
  s.reference_ms = runs[1].gemm_ms;  // blocked
  s.optimized_ms = runs[2].gemm_ms;  // simd (or its blocked fallback)
  s.equivalent = identical;

  w.key("simd_kernels").begin_object();
  w.field("m", m).field("k", k).field("n", n);
  w.field("simd_available", linalg::simd_available());
  w.field("simd_variant", linalg::simd_variant());
  w.field("default_backend", linalg::to_string(linalg::active_backend()));
  for (const PerBackend& run : runs) {
    w.key(linalg::to_string(run.backend)).begin_object();
    w.field("gemm_ms", run.gemm_ms);
    w.field("gemv_ms", run.gemv_ms);
    w.field("gemv_columns_ms", run.gemv_columns_ms);
    w.end_object();
  }
  w.field("gemm_speedup_vs_blocked", s.speedup());
  w.field("gemv_speedup_vs_blocked",
          runs[2].gemv_ms > 0.0 ? runs[1].gemv_ms / runs[2].gemv_ms : 0.0);
  w.field("bit_identical", s.equivalent);
  w.end_object();
  return s;
}

// ----------------------------------------------------------- mlp predict ---

Section bench_mlp_predict(json::Writer& w, bool fast) {
  const std::size_t rows = fast ? 1024 : sim::kDesignSpaceSize;
  const std::size_t n_inputs = 16;
  const std::vector<std::size_t> hidden = {16};
  Rng rng(7);
  ml::Mlp net(n_inputs, hidden, rng);
  linalg::Matrix x(rows, n_inputs);
  for (double& v : x.data()) v = rng.uniform(-1.0, 1.0);

  std::vector<double> per_row(rows);
  const double per_row_s = time_per_call([&] {
    for (std::size_t r = 0; r < rows; ++r) per_row[r] = net.predict(x.row(r));
  });
  std::vector<double> batched;
  const double batched_s = time_per_call([&] { batched = net.predict(x); });

  Section s;
  s.name = "mlp_predict";
  s.reference_ms = per_row_s * 1e3;
  s.optimized_ms = batched_s * 1e3;
  s.max_diff = max_abs_diff(per_row, batched);
  s.equivalent = bitwise_equal(per_row, batched);

  w.key("mlp_predict").begin_object();
  w.field("rows", rows).field("inputs", n_inputs).field("hidden", hidden[0]);
  w.field("batched_ms", s.optimized_ms);
  w.field("per_row_ms", s.reference_ms);
  w.field("batched_rows_per_sec", static_cast<double>(rows) / batched_s);
  w.field("per_row_rows_per_sec", static_cast<double>(rows) / per_row_s);
  w.field("speedup", s.speedup());
  w.field("bit_identical", s.equivalent);
  w.end_object();
  return s;
}

// ------------------------------------------------- design-space datasets ---

/// The full 4608-point design space with a deterministic synthetic cycle
/// count per configuration (a smooth function of the parameters plus seeded
/// noise) — enough structure for the regression paths to be representative.
data::Dataset synthetic_design_space() {
  const std::vector<sim::ProcessorConfig> configs =
      sim::enumerate_design_space();
  std::vector<double> cycles;
  cycles.reserve(configs.size());
  Rng noise(97);
  for (const auto& c : configs) {
    double v = 4.0e6;
    v -= 1.2e4 * std::log2(static_cast<double>(c.l1d_size_kb));
    v -= 0.9e4 * std::log2(static_cast<double>(c.l2_size_kb));
    v -= 2.5e3 * static_cast<double>(c.width);
    v -= 1.1e3 * std::log2(static_cast<double>(c.ruu_size));
    v += c.has_l3() ? -3.0e3 * static_cast<double>(c.l3_size_mb) : 0.0;
    v += 2.0e3 * static_cast<double>(c.l1d_assoc);
    v *= 1.0 + 0.02 * noise.uniform(-1.0, 1.0);
    cycles.push_back(v);
  }
  return sim::make_config_dataset(configs, std::move(cycles));
}

// ------------------------------------------------------------ lr predict ---

Section bench_lr_predict(json::Writer& w, const data::Dataset& full,
                         const data::Dataset& train) {
  ml::LinearRegression::Options lropt;
  lropt.method = ml::LinRegMethod::kEnter;
  ml::LinearRegression model(lropt);
  model.fit(train);

  // The historical predict pipeline: encode, materialise the selected
  // columns, then a dense GEMV. Rebuilt here from public pieces (an Encoder
  // fitted with LinearRegression's exact options) as the reference.
  data::EncoderOptions enc_opt;
  enc_opt.mode = data::EncodingMode::kLinearRegression;
  enc_opt.scale_inputs = true;
  enc_opt.scale_target = false;
  enc_opt.drop_constant = true;
  enc_opt.add_intercept = true;
  data::Encoder encoder;
  encoder.fit(train, enc_opt);

  std::vector<double> reference;
  const double ref_s = time_per_call([&] {
    const linalg::Matrix x = encoder.encode(full);
    const linalg::Matrix xs = x.select_columns(model.ols().columns);
    reference = xs.multiply(model.ols().beta);
  });
  std::vector<double> optimized;
  const double opt_s = time_per_call([&] { optimized = model.predict(full); });

  Section s;
  s.name = "lr_predict";
  s.reference_ms = ref_s * 1e3;
  s.optimized_ms = opt_s * 1e3;
  s.max_diff = max_abs_diff(reference, optimized);
  s.equivalent = bitwise_equal(reference, optimized);

  w.key("lr_predict").begin_object();
  w.field("rows", full.n_rows());
  w.field("selected_columns", model.ols().columns.size());
  w.field("fused_ms", s.optimized_ms);
  w.field("copy_then_gemv_ms", s.reference_ms);
  w.field("fused_rows_per_sec", static_cast<double>(full.n_rows()) / opt_s);
  w.field("speedup", s.speedup());
  w.field("bit_identical", s.equivalent);
  w.end_object();
  return s;
}

// ---------------------------------------------------------------- engine ---

/// Registry + session overhead on top of the raw kernels: a design space
/// served one request per row versus one coalesced batch, plus registry
/// lookup throughput. The session must add batching without breaking the
/// determinism contract, so the gate is bit-identity of all three answers
/// (per-request, batched, direct Regressor::predict).
Section bench_engine_session(json::Writer& w, const data::Dataset& full,
                             const data::Dataset& train, bool fast) {
  engine::ModelRegistry registry;
  {
    std::unique_ptr<ml::Regressor> model = ml::make_model("LR-B").make();
    model->fit(train);
    registry.register_model(
        "bench", std::shared_ptr<const ml::Regressor>(std::move(model)),
        engine::Schema::of(train), "bench");
  }

  const std::size_t rows = fast ? 512 : full.n_rows();
  std::vector<std::size_t> idx(rows);
  for (std::size_t i = 0; i < rows; ++i) idx[i] = i;
  const data::Dataset space = full.select_rows(idx);

  engine::SessionOptions sopt;
  sopt.max_batch_rows = rows;
  sopt.max_queue_rows = 4 * rows;
  engine::InferenceSession session(registry, "bench", sopt);

  std::vector<double> per_request(rows);
  const double per_request_s = time_per_call([&] {
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t one[] = {r};
      per_request[r] = session.predict(space.select_rows(one)).front();
    }
  });
  std::vector<double> batched;
  const double batched_s =
      time_per_call([&] { batched = session.predict(space); });
  const std::vector<double> direct =
      registry.get("bench")->model->predict(space);

  constexpr std::size_t kLookups = 4096;
  const double lookup_batch_s = time_per_call([&] {
    for (std::size_t i = 0; i < kLookups; ++i) {
      if (registry.get("bench")->version == 0) return;  // never taken
    }
  });

  Section s;
  s.name = "engine_session";
  s.reference_ms = per_request_s * 1e3;
  s.optimized_ms = batched_s * 1e3;
  s.max_diff = std::max(max_abs_diff(per_request, batched),
                        max_abs_diff(batched, direct));
  s.equivalent =
      bitwise_equal(per_request, batched) && bitwise_equal(batched, direct);

  w.key("engine_session").begin_object();
  w.field("rows", rows);
  w.field("per_request_ms", s.reference_ms);
  w.field("batched_ms", s.optimized_ms);
  w.field("per_request_rows_per_sec",
          static_cast<double>(rows) / per_request_s);
  w.field("batched_rows_per_sec", static_cast<double>(rows) / batched_s);
  w.field("registry_lookups_per_sec",
          static_cast<double>(kLookups) / lookup_batch_s);
  w.field("speedup", s.speedup());
  w.field("bit_identical", s.equivalent);
  w.end_object();
  return s;
}

// -------------------------------------------------------- estimate_error ---

/// The pre-parallel estimate_error loop, reproduced verbatim as the
/// reference: folds drawn and evaluated serially from one Rng stream.
ml::ErrorEstimate serial_estimate_error(const ml::ModelFactory& factory,
                                        const data::Dataset& train,
                                        const ml::ValidationOptions& options) {
  Rng rng(options.seed);
  ml::ErrorEstimate est;
  for (std::size_t rep = 0; rep < options.repeats; ++rep) {
    auto [fit_idx, holdout_idx] = data::split_half(train.n_rows(), rng);
    const data::Dataset fit_part = train.select_rows(fit_idx);
    const data::Dataset holdout_part = train.select_rows(holdout_idx);
    auto model = factory();
    model->fit(fit_part);
    est.folds.push_back(
        ml::mape(model->predict(holdout_part), holdout_part.target()));
  }
  return est;
}

Section bench_estimate_error(json::Writer& w, const data::Dataset& train,
                             bool fast) {
  ml::ZooOptions zoo;
  zoo.nn_epoch_scale = fast ? 0.1 : 0.5;
  const ml::NamedModel nm = ml::make_model("NN-Q", zoo);
  ml::ValidationOptions vopt;
  vopt.seed = 1234;

  ml::ErrorEstimate serial;
  const double serial_s = time_per_call(
      [&] { serial = serial_estimate_error(nm.make, train, vopt); }, 0.0);
  ml::ErrorEstimate parallel;
  const double parallel_s = time_per_call(
      [&] { parallel = ml::estimate_error(nm.make, train, vopt); }, 0.0);

  Section s;
  s.name = "estimate_error";
  s.reference_ms = serial_s * 1e3;
  s.optimized_ms = parallel_s * 1e3;
  s.max_diff = max_abs_diff(serial.folds, parallel.folds);
  s.equivalent = bitwise_equal(serial.folds, parallel.folds);

  // Satellite measurement: how much of one fold is the select_rows copy?
  Rng rng(vopt.seed);
  const auto [fit_idx, holdout_idx] = data::split_half(train.n_rows(), rng);
  const double copy_s = time_per_call([&] {
    const data::Dataset fit_part = train.select_rows(fit_idx);
    const data::Dataset holdout_part = train.select_rows(holdout_idx);
  });

  w.key("estimate_error").begin_object();
  w.field("model", nm.name);
  w.field("train_rows", train.n_rows());
  w.field("folds", vopt.repeats);
  w.field("serial_ms", s.reference_ms);
  w.field("parallel_ms", s.optimized_ms);
  w.field("speedup", s.speedup());
  w.field("bit_identical", s.equivalent);
  w.key("select_rows_copy").begin_object();
  w.field("per_fold_us", copy_s * 1e6);
  w.field("share_of_serial_fold",
          copy_s / (serial_s / static_cast<double>(vopt.repeats)));
  w.end_object();
  w.end_object();
  return s;
}

// ------------------------------------------------------------ select fit ---

Section bench_select_fit(json::Writer& w, const data::Dataset& train,
                         bool fast) {
  ml::ZooOptions zoo;
  zoo.nn_epoch_scale = fast ? 0.05 : 0.25;
  ml::ValidationOptions vopt;
  vopt.seed = 4321;

  // Serial reference: the pre-thread-pool SelectModel::fit — candidates
  // scored one after another with the same per-candidate seeds.
  std::vector<ml::NamedModel> menu = ml::sampled_dse_menu(zoo);
  std::string serial_choice;
  const double serial_s = time_per_call(
      [&] {
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < menu.size(); ++i) {
          ml::ValidationOptions opts = vopt;
          opts.seed = vopt.seed + i;
          const ml::ErrorEstimate est =
              serial_estimate_error(menu[i].make, train, opts);
          const double maximum =
              *std::max_element(est.folds.begin(), est.folds.end());
          if (maximum < best) {
            best = maximum;
            best_idx = i;
          }
        }
        auto winner = menu[best_idx].make();
        winner->fit(train);
        serial_choice = menu[best_idx].name;
      },
      0.0);

  std::string parallel_choice;
  const double parallel_s = time_per_call(
      [&] {
        ml::SelectModel select(ml::sampled_dse_menu(zoo), vopt);
        select.fit(train);
        parallel_choice = select.chosen_name();
      },
      0.0);

  Section s;
  s.name = "select_fit";
  s.reference_ms = serial_s * 1e3;
  s.optimized_ms = parallel_s * 1e3;
  s.equivalent = serial_choice == parallel_choice;

  w.key("select_fit").begin_object();
  w.field("candidates", menu.size());
  w.field("train_rows", train.n_rows());
  w.field("serial_ms", s.reference_ms);
  w.field("parallel_ms", s.optimized_ms);
  w.field("speedup", s.speedup());
  w.field("chosen", parallel_choice);
  w.field("same_choice", s.equivalent);
  w.end_object();
  return s;
}

// ------------------------------------------------------------ dse sampler ---

dse::CampaignResult run_bench_campaign(const data::Dataset& space,
                                       const std::string& sampler_name,
                                       std::size_t budget, std::size_t rounds,
                                       bool fast) {
  auto sampler = dse::make_sampler(sampler_name, 7, "bench");
  dse::DatasetEvaluator evaluator(space);
  dse::CampaignConfig config;
  config.app = "bench";
  config.space = &space;
  config.sampler = sampler.get();
  config.evaluator = &evaluator;
  config.rounds = dse::budget_rounds(budget, rounds);
  config.model_names = {"LR-B", "NN-S"};
  config.zoo.nn_epoch_scale = fast ? 0.25 : 1.0;
  dse::Campaign campaign(config);
  return campaign.run();
}

Section bench_dse_sampler(json::Writer& w, const data::Dataset& full,
                          bool fast) {
  const std::size_t budget = fast ? 24 : 46;
  const std::size_t rounds = fast ? 2 : 4;

  // Determinism gate: two adaptive campaigns from the same seed must agree
  // bit for bit — sampled indices, every cell's predictions, the Select row.
  dse::CampaignResult adaptive;
  const double adaptive_s = time_per_call(
      [&] { adaptive = run_bench_campaign(full, "adaptive", budget, rounds,
                                          fast); },
      0.0);
  const dse::CampaignResult repeat =
      run_bench_campaign(full, "adaptive", budget, rounds, fast);

  dse::CampaignResult random;
  const double random_s = time_per_call(
      [&] { random = run_bench_campaign(full, "random", budget, 1, fast); },
      0.0);

  Section s;
  s.name = "dse_sampler";
  s.reference_ms = random_s * 1e3;
  s.optimized_ms = adaptive_s * 1e3;
  s.equivalent = adaptive.evaluated == repeat.evaluated &&
                 adaptive.rounds.size() == repeat.rounds.size();
  if (s.equivalent) {
    for (std::size_t r = 0; r < adaptive.rounds.size(); ++r) {
      const dse::CampaignRound& lhs = adaptive.rounds[r];
      const dse::CampaignRound& rhs = repeat.rounds[r];
      if (lhs.cells.size() != rhs.cells.size() ||
          lhs.select.chosen_model != rhs.select.chosen_model) {
        s.equivalent = false;
        break;
      }
      for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
        s.max_diff = std::max(s.max_diff, max_abs_diff(
            lhs.cells[c].predictions, rhs.cells[c].predictions));
        s.equivalent = s.equivalent && bitwise_equal(
            lhs.cells[c].predictions, rhs.cells[c].predictions);
      }
    }
  }

  const dse::CampaignRound* afinal = adaptive.final_round();
  const dse::CampaignRound* rfinal = random.final_round();
  const double adaptive_err = afinal ? afinal->select.true_error : -1.0;
  const double random_err = rfinal ? rfinal->select.true_error : -1.0;

  w.key("dse_sampler").begin_object();
  w.field("budget", budget);
  w.field("rounds", rounds);
  w.field("random_ms", s.reference_ms);
  w.field("adaptive_ms", s.optimized_ms);
  w.field("random_true_err_pct", random_err);
  w.field("adaptive_true_err_pct", adaptive_err);
  w.field("deterministic", s.equivalent);
  w.end_object();
  return s;
}

// ---------------------------------------------------------- model errors ---

std::vector<std::pair<std::string, double>> bench_model_errors(
    json::Writer& w, bool fast) {
  dse::ChronologicalOptions options;
  options.model_names = {"LR-E", "LR-S", "LR-F", "LR-B", "NN-Q"};
  options.zoo.nn_epoch_scale = fast ? 0.25 : 1.0;
  const dse::ChronologicalResult result =
      dse::run_chronological(specdata::Family::kXeon, options);

  std::vector<std::pair<std::string, double>> errors;
  w.key("model_errors").begin_object();
  for (const auto& m : result.models) {
    errors.emplace_back(m.model, m.error.mean);
    w.field(m.model, m.error.mean);
  }
  w.end_object();
  return errors;
}

// ------------------------------------------------------------ drift gate ---

bool check_drift(const std::string& path,
                 const std::vector<std::pair<std::string, double>>& current,
                 std::ostream& out, std::ostream& err) {
  const json::Value baseline = json::Value::parse_file(path);
  if (!baseline.contains("model_errors")) {
    err << "bench --check: '" << path << "' has no model_errors section\n";
    return false;
  }
  const json::Value& committed = baseline.at("model_errors");
  bool ok = true;
  for (const auto& [model, error] : current) {
    if (!committed.contains(model)) continue;
    // Non-finite entries must fail loudly: a NaN drifts past any relative
    // threshold (every comparison is false), so without these checks a
    // diverged model would sail through the gate.
    if (!std::isfinite(error)) {
      err << "bench --check: " << model << " current error is non-finite ("
          << json::format_number(error) << ")\n";
      ok = false;
      continue;
    }
    double old_error = 0.0;
    try {
      old_error = committed.at(model).as_number();
    } catch (const IoError&) {
      err << "bench --check: " << model
          << " baseline entry is not numeric in '" << path << "'\n";
      ok = false;
      continue;
    }
    if (!std::isfinite(old_error)) {
      err << "bench --check: " << model << " baseline error is non-finite ("
          << json::format_number(old_error) << ") in '" << path << "'\n";
      ok = false;
      continue;
    }
    const double drift =
        std::abs(error - old_error) / std::max(std::abs(old_error), 1e-12);
    if (drift > 0.05) {
      err << "bench --check: " << model << " error drifted "
          << strings::format_double(drift * 100.0, 1) << "% ("
          << strings::format_double(old_error, 4) << " -> "
          << strings::format_double(error, 4) << ")\n";
      ok = false;
    } else {
      out << "  drift " << model << ": "
          << strings::format_double(drift * 100.0, 2) << "% (ok)\n";
    }
  }
  return ok;
}

}  // namespace

int run(const BenchOptions& options, std::ostream& out, std::ostream& err) {
  json::Writer w;
  w.begin_object();
  w.field("schema", "dsml-bench-ml/v1");
  w.field("threads", ThreadPool::global().size());
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("fast", options.fast);
  w.key("sections").begin_object();

  out << "dsml bench (threads=" << ThreadPool::global().size()
      << (options.fast ? ", fast" : "") << ")\n";

  std::vector<Section> sections;
  sections.push_back(bench_gemm(w, options.fast));
  sections.push_back(bench_simd_kernels(w, options.fast));
  sections.push_back(bench_mlp_predict(w, options.fast));

  const data::Dataset full = synthetic_design_space();
  Rng sample_rng(13);
  const std::vector<std::size_t> sample_idx =
      data::sample_fraction(full.n_rows(), 0.1, sample_rng, 10);
  const data::Dataset train = full.select_rows(sample_idx);

  sections.push_back(bench_lr_predict(w, full, train));
  sections.push_back(bench_engine_session(w, full, train, options.fast));
  sections.push_back(bench_estimate_error(w, train, options.fast));
  sections.push_back(bench_select_fit(w, train, options.fast));
  sections.push_back(bench_dse_sampler(w, full, options.fast));
  w.end_object();  // sections

  const auto model_errors = bench_model_errors(w, options.fast);
  w.end_object();  // document

  TablePrinter table({"section", "reference ms", "optimized ms", "speedup",
                      "equivalent"});
  bool all_equivalent = true;
  for (const Section& s : sections) {
    all_equivalent = all_equivalent && s.equivalent;
    table.add_row({s.name, strings::format_double(s.reference_ms, 2),
                   strings::format_double(s.optimized_ms, 2),
                   strings::format_double(s.speedup(), 2),
                   s.equivalent ? "yes" : "NO"});
  }
  table.print(out);
  for (const auto& [model, error] : model_errors) {
    out << "  " << model << " mean err " << strings::format_double(error, 2)
        << "%\n";
  }

  if (!options.json_path.empty()) {
    // Atomic write: BENCH_ML.json is the committed drift baseline, and a
    // run killed mid-write must not replace it with a truncated file.
    try {
      io::write_file_atomic(options.json_path, w.str());
    } catch (const IoError& e) {
      err << "bench: " << e.what() << "\n";
      return 1;
    }
    out << "wrote " << options.json_path << "\n";
  }

  if (!all_equivalent) {
    err << "bench: optimized paths diverged from the reference\n";
    return 1;
  }
  if (!options.check_path.empty() &&
      !check_drift(options.check_path, model_errors, out, err)) {
    return 1;
  }
  return 0;
}

}  // namespace dsml::bench_ml
