#include "loadgen.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "engine/design_space.hpp"
#include "net/client.hpp"

namespace dsml::loadgen {

namespace {

/// One serve-protocol request line: `rows` consecutive design-space
/// configurations starting at `start_row` (wrapping), keyed by schema
/// column name. Deterministic by construction, so two loadgen runs with
/// the same config send byte-identical request streams.
std::string build_request(const engine::Schema& schema,
                          const data::Dataset& space, std::size_t start_row,
                          std::size_t rows, const std::string& model) {
  json::Writer w(/*compact=*/true);
  w.begin_object();
  if (!model.empty()) w.field("model", model);
  w.key("rows").begin_array();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t row = (start_row + r) % space.n_rows();
    w.begin_object();
    for (const engine::SchemaColumn& c : schema.columns()) {
      const data::Column& col = space.feature(c.name);
      switch (c.kind) {
        case data::ColumnKind::kNumeric:
          w.field(c.name, col.numeric_at(row));
          break;
        case data::ColumnKind::kFlag:
          w.field(c.name, col.code_at(row) != 0);
          break;
        case data::ColumnKind::kCategorical:
          w.field(c.name, std::string_view(col.label_at(row)));
          break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // Writer::str() newline-terminates; LineClient frames lines itself.
  std::string line = w.str();
  line.pop_back();
  return line;
}

struct WorkerResult {
  std::vector<double> latencies_us;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::string first_error;  // first bad response / transport failure
};

/// Connects with retries: in CI the server is started in the background
/// and may not be accepting yet when loadgen launches.
net::LineClient connect_with_retry(const std::string& host,
                                   std::uint16_t port,
                                   std::uint32_t timeout_ms) {
  const net::ClientOptions client_options{timeout_ms, timeout_ms};
  for (int attempt = 0;; ++attempt) {
    try {
      return net::LineClient(host, port, client_options);
    } catch (const IoError&) {
      if (attempt >= 50) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

void drive_connection(const Options& options, const engine::Schema& schema,
                      const data::Dataset& space, std::size_t index,
                      WorkerResult& result) {
  try {
    net::LineClient client =
        connect_with_retry(options.host, options.port, options.timeout_ms);
    for (std::size_t r = 0; r < options.requests; ++r) {
      const std::size_t start_row =
          (index * options.requests + r) * options.rows;
      const std::string request = build_request(schema, space, start_row,
                                                options.rows, options.model);
      trace::Stopwatch timer;
      const std::string response = client.request(request);
      result.latencies_us.push_back(timer.seconds() * 1e6);
      try {
        const json::Value parsed = json::Value::parse(response);
        const bool ok = parsed.contains("ok") && parsed.at("ok").as_bool() &&
                        parsed.contains("predictions") &&
                        parsed.at("predictions").items().size() ==
                            options.rows;
        if (ok) {
          result.ok += 1;
        } else {
          result.errors += 1;
          if (result.first_error.empty()) result.first_error = response;
        }
      } catch (const std::exception& e) {
        result.errors += 1;
        if (result.first_error.empty()) result.first_error = e.what();
      }
    }
  } catch (const std::exception& e) {
    // A transport failure voids the connection's remaining requests.
    const std::uint64_t answered = result.ok + result.errors;
    result.errors += options.requests - answered;
    if (result.first_error.empty()) result.first_error = e.what();
  }
}

/// Nearest-rank percentile over a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(q * sorted.size()));
  return sorted[idx];
}

struct Report {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rows = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, max_us = 0;
  double requests_per_sec = 0, rows_per_sec = 0;
};

/// CPUs this process may run on: fewer than hardware_concurrency when the
/// load generator is pinned apart from the server.
std::uint64_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::uint64_t>(CPU_COUNT(&set));
}

std::string report_json(const Options& options, const Report& r) {
  json::Writer w;
  w.begin_object().field("schema", "dsml-bench-serve/v1");
  // The machine, not gated: the committed baseline says where it ran.
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("affinity_cpus", affinity_cpus());
  w.key("config")
      .begin_object()
      .field("connections", static_cast<std::uint64_t>(options.connections))
      .field("requests_per_connection",
             static_cast<std::uint64_t>(options.requests))
      .field("rows_per_request", static_cast<std::uint64_t>(options.rows))
      .end_object();
  w.key("totals")
      .begin_object()
      .field("requests", r.requests)
      .field("ok", r.ok)
      .field("errors", r.errors)
      .field("rows", r.rows)
      .end_object();
  w.key("latency_us")
      .begin_object()
      .field("p50", r.p50_us)
      .field("p95", r.p95_us)
      .field("p99", r.p99_us)
      .field("max", r.max_us)
      .end_object();
  w.key("throughput")
      .begin_object()
      .field("requests_per_sec", r.requests_per_sec)
      .field("rows_per_sec", r.rows_per_sec)
      .end_object();
  w.end_object();
  return w.str();
}

std::uint64_t baseline_u64(const json::Value& doc, const std::string& section,
                           const std::string& field) {
  return static_cast<std::uint64_t>(doc.at(section).at(field).as_number());
}

/// Gates the deterministic fields against the committed baseline. Latency
/// and throughput are deliberately not gated: they measure the CI machine,
/// not the code.
bool check_baseline(const std::string& path, const Options& options,
                    const Report& r, std::ostream& out, std::ostream& err) {
  const json::Value baseline = json::Value::parse_file(path);
  bool ok = true;
  const auto expect = [&](const std::string& what, std::uint64_t want,
                          std::uint64_t got) {
    if (want != got) {
      err << "loadgen --check: " << what << " mismatch (baseline " << want
          << ", run " << got << ")\n";
      ok = false;
    }
  };
  if (!baseline.contains("schema") ||
      baseline.at("schema").as_string() != "dsml-bench-serve/v1") {
    err << "loadgen --check: '" << path << "' is not a dsml-bench-serve/v1 "
        << "report\n";
    return false;
  }
  expect("config.connections",
         baseline_u64(baseline, "config", "connections"),
         options.connections);
  expect("config.requests_per_connection",
         baseline_u64(baseline, "config", "requests_per_connection"),
         options.requests);
  expect("config.rows_per_request",
         baseline_u64(baseline, "config", "rows_per_request"), options.rows);
  expect("totals.requests", baseline_u64(baseline, "totals", "requests"),
         r.requests);
  expect("totals.ok", baseline_u64(baseline, "totals", "ok"), r.ok);
  expect("totals.errors", baseline_u64(baseline, "totals", "errors"),
         r.errors);
  expect("totals.rows", baseline_u64(baseline, "totals", "rows"), r.rows);
  if (ok) out << "  baseline " << path << ": deterministic fields match\n";
  return ok;
}

}  // namespace

int run(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.port == 0) {
    throw InvalidArgument("loadgen requires --connect host:port");
  }
  if (options.connections == 0 || options.requests == 0 ||
      options.rows == 0) {
    throw InvalidArgument(
        "loadgen needs --connections, --requests, and --rows >= 1");
  }
  const engine::Schema& schema = engine::design_space_schema();
  const data::Dataset& space = engine::design_space_dataset();

  std::vector<WorkerResult> results(options.connections);
  trace::Stopwatch wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(options.connections);
    for (std::size_t i = 0; i < options.connections; ++i) {
      threads.emplace_back([&, i] {
        drive_connection(options, schema, space, i, results[i]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_seconds = wall.seconds();

  Report report;
  std::vector<double> latencies;
  std::string first_error;
  for (const WorkerResult& r : results) {
    report.ok += r.ok;
    report.errors += r.errors;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    if (first_error.empty()) first_error = r.first_error;
  }
  report.requests = report.ok + report.errors;
  report.rows = report.ok * options.rows;
  std::sort(latencies.begin(), latencies.end());
  report.p50_us = percentile(latencies, 0.50);
  report.p95_us = percentile(latencies, 0.95);
  report.p99_us = percentile(latencies, 0.99);
  report.max_us = latencies.empty() ? 0.0 : latencies.back();
  if (wall_seconds > 0) {
    report.requests_per_sec = static_cast<double>(report.ok) / wall_seconds;
    report.rows_per_sec = static_cast<double>(report.rows) / wall_seconds;
  }

  out << "loadgen " << options.host << ":" << options.port << ": "
      << options.connections << " connection(s) x " << options.requests
      << " request(s) x " << options.rows << " row(s)\n";
  out << "  " << report.ok << " ok, " << report.errors << " error(s), "
      << report.rows << " row(s) predicted in "
      << strings::format_double(wall_seconds * 1e3, 1) << " ms ("
      << strings::format_double(report.rows_per_sec, 0) << " rows/s)\n";
  out << "  latency p50 " << strings::format_double(report.p50_us, 0)
      << " us, p95 " << strings::format_double(report.p95_us, 0)
      << " us, p99 " << strings::format_double(report.p99_us, 0) << " us\n";
  if (report.errors > 0) {
    err << "loadgen: " << report.errors << " request(s) failed; first: "
        << first_error << "\n";
  }

  if (!options.json_path.empty()) {
    io::write_file_atomic(options.json_path,
                          report_json(options, report) + "\n");
    out << "  wrote " << options.json_path << "\n";
  }
  bool gate_ok = true;
  if (!options.check_path.empty()) {
    gate_ok = check_baseline(options.check_path, options, report, out, err);
  }
  return (report.errors == 0 && gate_ok) ? 0 : 1;
}

}  // namespace dsml::loadgen
