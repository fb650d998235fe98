#include "engine/serve.hpp"

#include <istream>
#include <ostream>

#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace dsml::engine {

namespace {

struct ServeMetrics {
  metrics::Counter& requests = metrics::counter("engine.serve.requests");
  metrics::Counter& rows = metrics::counter("engine.serve.rows");
  metrics::Counter& errors = metrics::counter("engine.serve.errors");
  metrics::Counter& partial = metrics::counter("engine.serve.partial");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

std::string error_response(const std::exception& e) {
  json::Writer w(/*compact=*/true);
  w.begin_object()
      .field("ok", false)
      .field("error", std::string_view(e.what()))
      .field("error_type", error_kind(e))
      .end_object();
  return w.str();
}

}  // namespace

ServeHandler::ServeHandler(ModelRegistry& registry, ServeOptions options)
    : registry_(registry), options_(std::move(options)) {}

ServeHandler::~ServeHandler() = default;

ServeSummary ServeHandler::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_;
}

std::string ServeHandler::handle(std::string_view line) {
  if (strings::trim(line).empty()) return "";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    summary_.requests += 1;
  }
  serve_metrics().requests.add();
  trace::Span request_span("serve.request", "engine");
  return answer(line);
}

std::string ServeHandler::answer(std::string_view line) {
  try {
    DSML_FAIL("engine.serve.request");
    const json::Value request = json::Value::parse(line);
    std::string model_name = options_.default_model;
    if (request.contains("model")) {
      model_name = request.at("model").as_string();
    }
    if (model_name.empty()) {
      throw InvalidArgument("request needs a \"model\" field");
    }
    const std::shared_ptr<const ModelEntry> entry = registry_.find(model_name);
    if (entry == nullptr) {
      throw StateError("unknown model '" + model_name + "' (registered: " +
                       strings::join(registry_.names(), ", ") + ")");
    }
    if (!request.contains("rows") ||
        request.at("rows").type() != json::Value::Type::kArray) {
      throw InvalidArgument("request needs a \"rows\" array");
    }
    const data::Dataset rows =
        entry->schema.dataset_from_json_rows(request.at("rows").items());
    if (rows.n_rows() > kMaxRequestRows) {
      throw StateError("request has " + std::to_string(rows.n_rows()) +
                       " rows; at most " + std::to_string(kMaxRequestRows) +
                       " per request");
    }

    InferenceSession* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(model_name);
      if (it == sessions_.end()) {
        it = sessions_
                 .emplace(model_name, std::make_unique<InferenceSession>(
                                          registry_, model_name))
                 .first;
      }
      session = it->second.get();
    }
    // The entry resolved above answers too: one registry lookup per
    // request, and the version reported is the one that predicted.
    const BatchOutcome outcome = session->predict_detailed(*entry, rows);

    json::Writer w(/*compact=*/true);
    w.begin_object()
        .field("ok", outcome.ok())
        .field("model", model_name)
        .field("version", entry->version);
    if (!outcome.ok()) w.field("partial", true);
    w.key("predictions").begin_array();
    std::size_t fail_idx = 0;
    for (std::size_t r = 0; r < outcome.values.size(); ++r) {
      if (fail_idx < outcome.failed_rows.size() &&
          outcome.failed_rows[fail_idx] == r) {
        w.null();
        ++fail_idx;
      } else {
        w.value(outcome.values[r]);
      }
    }
    w.end_array();
    if (!outcome.ok()) {
      w.key("errors").begin_array();
      for (std::size_t k = 0; k < outcome.failed_rows.size(); ++k) {
        w.begin_object()
            .field("row", static_cast<std::uint64_t>(outcome.failed_rows[k]))
            .field("error", std::string_view(outcome.row_errors[k]))
            .end_object();
      }
      w.end_array();
    }
    w.end_object();

    const std::size_t ok_rows =
        outcome.values.size() - outcome.failed_rows.size();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      summary_.rows += ok_rows;
      if (!outcome.ok()) summary_.partial += 1;
    }
    serve_metrics().rows.add(ok_rows);
    if (!outcome.ok()) serve_metrics().partial.add();
    return w.str();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      summary_.errors += 1;
    }
    serve_metrics().errors.add();
    return error_response(e);
  }
}

ServeSummary serve(ModelRegistry& registry, std::istream& in,
                   std::ostream& out, const ServeOptions& options) {
  trace::Span loop_span("engine.serve", "engine");
  ServeHandler handler(registry, options);
  std::string line;
  while (std::getline(in, line)) {
    const std::string response = handler.handle(line);
    if (response.empty()) continue;
    out << response;
    out.flush();
  }
  return handler.summary();
}

}  // namespace dsml::engine
