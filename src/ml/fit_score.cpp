#include "ml/fit_score.hpp"

#include <exception>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace dsml::engine {

FitScoreResult fit_and_score(const FitScoreRequest& request) {
  DSML_REQUIRE(request.train != nullptr, "fit_and_score: null train dataset");
  DSML_REQUIRE(request.model.make != nullptr,
               "fit_and_score: model has no factory");
  trace::Span cell_span([&] { return "fit_and_score " + request.model.name; },
                        "engine");
  static metrics::Counter& cells = metrics::counter("engine.fit_score.cells");
  static metrics::Counter& failures =
      metrics::counter("engine.fit_score.failures");
  cells.add();

  FitScoreResult result;
  result.name = request.model.name;
  try {
    if (request.failpoint != nullptr) DSML_FAIL(request.failpoint);
    // The estimate and the fit (then score) only read the training sample
    // and write disjoint fields, so they run side by side. Each stage's
    // exception waits in its slot and is rethrown in stage order, so a cell
    // whose estimate and fit both fail reports the estimate's failure,
    // whichever thread failed first.
    std::exception_ptr stage_errors[2];
    parallel_for(0, 2, [&](std::size_t stage) {
      try {
        if (stage == 0) {
          if (request.estimate) {
            result.estimate = ml::estimate_error(
                request.model.make, *request.train, request.validation);
          }
        } else if (request.fit) {
          auto model = request.model.make();
          trace::Stopwatch fit_timer;
          model->fit(*request.train);
          result.fit_seconds = fit_timer.seconds();
          result.model = std::move(model);
          if (request.score != nullptr) {
            result.predictions = result.model->predict(*request.score);
          }
        }
      } catch (...) {
        stage_errors[stage] = std::current_exception();
      }
    });
    for (const std::exception_ptr& error : stage_errors) {
      if (error) std::rethrow_exception(error);
    }
  } catch (const std::exception& e) {
    failures.add();
    result.model.reset();
    result.predictions.clear();
    result.failure =
        FailureRecord{request.model.name, error_kind(e), e.what()};
  }
  return result;
}

}  // namespace dsml::engine
