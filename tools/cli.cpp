#include "cli.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/atomic_io.hpp"
#include "common/csv.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "data/split.hpp"
#include "dse/campaign.hpp"
#include "dse/chronological.hpp"
#include "dse/sampled.hpp"
#include "dse/sweep.hpp"
#include "engine/design_space.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/evaluator.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/worker.hpp"
#include "ml/fit_score.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/session.hpp"
#include "linalg/backend.hpp"
#include "lint/lint.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "ml/serialize.hpp"
#include "sim/trace.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::cli {

namespace {

/// Parsed "--key value" options.
struct Options {
  std::map<std::string, std::string> named;

  std::optional<std::string> get(const std::string& key) const {
    auto it = named.find(key);
    if (it == named.end()) return std::nullopt;
    return it->second;
  }
  std::string get_or(const std::string& key,
                     const std::string& fallback) const {
    return get(key).value_or(fallback);
  }
};

/// The flags one command reads (names without the leading "--").
using Flags = std::vector<std::string_view>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Parses the "--key value" pairs after the command name args[0]. A flag
/// outside `known`, or a bare argument, throws InvalidArgument naming the
/// command and the offender: a mistyped flag must fail, not run silently
/// with its default. `truth` may appear bare ("--truth" == "--truth 1");
/// every other flag requires a value.
Options parse_options(const std::vector<std::string>& args,
                      const Flags& known) {
  const std::string& command = args[0];
  Options out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      throw InvalidArgument(command + ": unexpected argument '" + a + "'");
    }
    const std::string key = a.substr(2);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw InvalidArgument(command + ": unknown flag --" + key +
                            " (see dsml help)");
    }
    if (key == "truth") {
      const bool valued = i + 1 < args.size() &&
                          (args[i + 1] == "0" || args[i + 1] == "1");
      out.named[key] = valued ? args[++i] : "1";
    } else {
      if (i + 1 >= args.size()) {
        throw InvalidArgument("missing value for --" + key);
      }
      out.named[key] = args[++i];
    }
  }
  return out;
}

/// Checked integer flag parsing into T. User input must surface as a
/// taxonomy error naming the flag ("--top: expected ..."), never as the raw
/// std::invalid_argument / std::out_of_range that bare std::stoull throws,
/// nor wrap silently past T's maximum.
template <typename T = std::size_t>
T parse_count_flag(const Options& opt, const std::string& key,
                   const std::string& fallback) {
  const std::string value = opt.get_or(key, fallback);
  std::uint64_t parsed = 0;
  try {
    parsed = strings::parse_u64(value);
  } catch (const IoError&) {
    throw InvalidArgument("--" + key +
                          ": expected a non-negative integer, got '" + value +
                          "'");
  }
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (parsed > kMax) {
    throw InvalidArgument("--" + key + ": expected an integer at most " +
                          std::to_string(kMax) + ", got '" + value + "'");
  }
  return static_cast<T>(parsed);
}

/// Throws "--<flag> <needs>" for the first of `flags` given in `opt`: a flag
/// whose mode is off must fail naming itself, not run as a silent no-op.
void reject_flags(const Options& opt, const Flags& flags,
                  const std::string& needs) {
  for (const std::string_view flag : flags) {
    if (opt.get(std::string(flag))) {
      throw InvalidArgument("--" + std::string(flag) + " " + needs);
    }
  }
}

std::vector<std::string> parse_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto& part : strings::split(csv, ',')) {
    const auto trimmed = strings::trim(part);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

specdata::Family parse_family(const std::string& name) {
  const std::string lower = strings::to_lower(name);
  if (lower == "xeon") return specdata::Family::kXeon;
  if (lower == "p4" || lower == "pentium4") return specdata::Family::kPentium4;
  if (lower == "pd" || lower == "pentiumd") return specdata::Family::kPentiumD;
  if (lower == "opteron") return specdata::Family::kOpteron;
  if (lower == "opteron2") return specdata::Family::kOpteron2;
  if (lower == "opteron4") return specdata::Family::kOpteron4;
  if (lower == "opteron8") return specdata::Family::kOpteron8;
  throw InvalidArgument("unknown family '" + name +
                        "' (xeon|p4|pd|opteron|opteron2|opteron4|opteron8)");
}

specdata::RatingTarget parse_target(const std::string& spec) {
  if (spec == "int") return specdata::RatingTarget::int_rate();
  if (spec == "fp") return specdata::RatingTarget::fp_rate();
  if (spec.rfind("app:", 0) == 0) {
    std::size_t index = 0;
    try {
      index = static_cast<std::size_t>(strings::parse_u64(spec.substr(4)));
    } catch (const IoError&) {
      throw InvalidArgument("--target app:<i> needs an integer index, got '" +
                            spec + "'");
    }
    return specdata::RatingTarget::int_app(index);
  }
  throw InvalidArgument("unknown target '" + spec + "' (int|fp|app:<i>)");
}

/// The flags sweep_options_from reads.
const Flags kSweepFlags = {"full", "interval", "clusters"};

/// The sweep flags, checked here so that a bad value fails before any
/// simulation, naming its flag.
dse::SweepOptions sweep_options_from(const Options& opt) {
  dse::SweepOptions sweep;
  sweep.full_trace_instructions = parse_count_flag(opt, "full", "600000");
  sweep.interval_instructions = parse_count_flag(opt, "interval", "30000");
  sweep.max_clusters = parse_count_flag(opt, "clusters", "4");
  if (sweep.interval_instructions == 0) {
    throw InvalidArgument("--interval must be >= 1");
  }
  if (sweep.max_clusters == 0) {
    throw InvalidArgument("--clusters must be >= 1");
  }
  const std::size_t longest = std::vector<sim::Instr>().max_size();
  if (sweep.full_trace_instructions > longest) {
    throw InvalidArgument("--full: at most " + std::to_string(longest) +
                          " instructions, got " +
                          std::to_string(sweep.full_trace_instructions));
  }
  // Halving --full rather than doubling --interval cannot overflow.
  if (sweep.full_trace_instructions / 2 < sweep.interval_instructions) {
    throw InvalidArgument(
        "--full must be at least 2 x --interval (" +
        std::to_string(sweep.interval_instructions) + "), got " +
        std::to_string(sweep.full_trace_instructions));
  }
  return sweep;
}

/// A sampling-rate flag's value as a fraction in (0,1].
double parse_fraction(const std::string& flag, const std::string& value) {
  const std::string expected =
      "--" + flag + ": expected a fraction in (0,1], got '" + value + "'";
  double rate = 0.0;
  try {
    rate = strings::parse_double(value);
  } catch (const IoError&) {
    throw InvalidArgument(expected);
  }
  if (!(rate > 0.0) || rate > 1.0) throw InvalidArgument(expected);
  return rate;
}

/// Prints the failures a degraded run tolerated (empty = silent). One
/// formatter — dse::format_failure_summary — serves every CLI path, so the
/// sweep/sampled/chrono/fleet/campaign banners can never drift apart.
void print_failures(const std::vector<FailureRecord>& failures,
                    std::ostream& out) {
  out << dse::format_failure_summary(failures);
}

int cmd_list(const std::vector<std::string>& args, std::ostream& out) {
  parse_options(args, {});
  out << "applications:";
  for (const auto& name : workload::spec_profile_names()) out << ' ' << name;
  out << "\nfamilies: xeon p4 pd opteron opteron2 opteron4 opteron8\n";
  out << "models:";
  for (const auto& name : ml::all_model_names()) out << ' ' << name;
  out << "\n";
  return 0;
}

int cmd_sampled(const std::vector<std::string>& args, std::ostream& out) {
  const Options opt =
      parse_options(args, kSweepFlags + Flags{"app", "rates", "models"});
  const std::string app = opt.get_or("app", "mcf");
  dse::SampledDseOptions options;
  if (const auto rates = opt.get("rates")) {
    options.sampling_rates.clear();
    for (const auto& r : parse_list(*rates)) {
      options.sampling_rates.push_back(parse_fraction("rates", r));
    }
  }
  if (const auto models = opt.get("models")) {
    options.model_names = parse_list(*models);
  }
  const dse::SweepResult sweep =
      dse::run_design_space_sweep(app, sweep_options_from(opt));
  const auto result =
      dse::run_sampled_dse(dse::sweep_dataset(sweep), app, options);
  TablePrinter table({"model", "rate", "est err %", "true err %"});
  for (const auto& run : result.runs) {
    table.add_row({run.model, strings::format_double(run.rate * 100, 0) + "%",
                   strings::format_double(run.estimated_error_max, 2),
                   strings::format_double(run.true_error, 2)});
  }
  table.print(out);
  for (const auto& sel : result.select) {
    out << "select @" << strings::format_double(sel.rate * 100, 0) << "%: "
        << sel.chosen_model << " (true "
        << strings::format_double(sel.true_error, 2) << "%)\n";
  }
  print_failures(result.failures, out);
  return 0;
}

int cmd_chrono(const std::vector<std::string>& args, std::ostream& out) {
  const Options opt = parse_options(args, {"family", "target", "models"});
  const specdata::Family family = parse_family(opt.get_or("family", "xeon"));
  dse::ChronologicalOptions options;
  options.target = parse_target(opt.get_or("target", "int"));
  if (const auto models = opt.get("models")) {
    options.model_names = parse_list(*models);
  }
  const auto result = dse::run_chronological(family, options);
  out << to_string(family) << " (" << options.target.name() << "): train "
      << result.train_rows << " rows (2005), test " << result.test_rows
      << " rows (2006)\n";
  TablePrinter table({"model", "mean err %", "std %"});
  for (const auto& m : result.models) {
    table.add_row({m.model, strings::format_double(m.error.mean, 2),
                   strings::format_double(m.error.stddev, 2)});
  }
  table.print(out);
  out << "best: " << result.best().model << "\n";
  print_failures(result.failures, out);
  return 0;
}

int cmd_train(const std::vector<std::string>& args, std::ostream& out) {
  const Options opt = parse_options(
      args, kSweepFlags + Flags{"app", "rate", "model", "out", "seed"});
  const std::string app = opt.get_or("app", "mcf");
  const double rate = parse_fraction("rate", opt.get_or("rate", "0.02"));
  const std::string model_name = opt.get_or("model", "NN-E");
  const std::string out_path = opt.get_or("out", "model.dsml");
  // Parse every flag before the (expensive) sweep so a malformed --seed
  // fails in microseconds, not after minutes of simulation.
  Rng rng(parse_count_flag(opt, "seed", "7"));

  const dse::SweepResult sweep =
      dse::run_design_space_sweep(app, sweep_options_from(opt));
  const data::Dataset full = dse::sweep_dataset(sweep);
  const auto idx = data::sample_fraction(full.n_rows(), rate, rng, 10);
  const data::Dataset train = full.select_rows(idx);

  engine::FitScoreRequest request;
  request.model = ml::make_model(model_name);
  request.train = &train;
  request.score = &full;
  engine::FitScoreResult cell = engine::fit_and_score(request);
  if (!cell.ok()) {
    throw TrainingError(model_name, "train", cell.failure->message);
  }
  const double err = ml::mape(cell.predictions, full.target());
  ml::save_model(*cell.model, out_path);
  // Registering the fresh artifact makes it immediately queryable by this
  // process (serve loops, tests driving cli::run in-process) without a
  // reload from disk.
  engine::ModelRegistry::global().register_model(
      model_name, std::shared_ptr<const ml::Regressor>(std::move(cell.model)),
      engine::Schema::of(full), "train:" + app);
  out << "trained " << model_name << " on " << train.n_rows()
      << " simulations of '" << app << "', full-space error "
      << strings::format_double(err, 2) << "%, saved to " << out_path << "\n";
  return 0;
}

/// Scores the rows of a user-supplied CSV through an inference session,
/// reporting partial failures per row instead of aborting the command.
int predict_csv(engine::InferenceSession& session,
                const engine::Schema& schema,
                const std::string& model_label, const std::string& csv_path,
                std::ostream& out) {
  const csv::Table table = csv::read_file(csv_path);
  const data::Dataset rows = schema.dataset_from_csv(table);
  const engine::BatchOutcome outcome = session.predict_detailed(rows);
  out << "model " << model_label << ", " << rows.n_rows()
      << " configurations from " << csv_path << ":\n";
  TablePrinter printer({"row", "predicted cycles"});
  std::size_t fail_idx = 0;
  for (std::size_t r = 0; r < outcome.values.size(); ++r) {
    if (fail_idx < outcome.failed_rows.size() &&
        outcome.failed_rows[fail_idx] == r) {
      printer.add_row({std::to_string(r), "(failed)"});
      ++fail_idx;
    } else {
      printer.add_row(
          {std::to_string(r), strings::format_double(outcome.values[r], 0)});
    }
  }
  printer.print(out);
  if (!outcome.ok()) {
    out << outcome.failed_rows.size() << " row(s) failed:\n";
    for (std::size_t k = 0; k < outcome.failed_rows.size(); ++k) {
      out << "  row " << outcome.failed_rows[k] << ": "
          << outcome.row_errors[k] << "\n";
    }
    return 1;
  }
  return 0;
}

int cmd_predict(const std::vector<std::string>& args, std::ostream& out) {
  const Options opt = parse_options(args, {"model", "top", "csv"});
  const auto path = opt.get("model");
  if (!path) throw InvalidArgument("predict requires --model <file>");
  const std::size_t top = parse_count_flag(opt, "top", "10");

  // The registry is the only sanctioned load path (dsml-lint forbids
  // ml::load_model here): load once, then predict through a session so the
  // batched kernels serve the whole space in one batch.
  engine::ModelRegistry& registry = engine::ModelRegistry::global();
  const std::string entry_name = "file:" + *path;
  registry.load_file(entry_name, *path, engine::design_space_schema());
  const auto entry = registry.get(entry_name);
  engine::InferenceSession session(registry, entry_name);

  if (const auto csv_path = opt.get("csv")) {
    return predict_csv(session, entry->schema, entry->model->name(),
                       *csv_path, out);
  }

  const auto& space = engine::design_space_configs();
  const std::vector<double> predicted =
      session.predict(engine::design_space_dataset());

  std::vector<std::size_t> order(space.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return predicted[a] < predicted[b];
  });
  out << "model " << entry->model->name() << ", top " << top
      << " configurations by predicted cycles:\n";
  TablePrinter table({"rank", "configuration", "predicted cycles"});
  for (std::size_t i = 0; i < top && i < order.size(); ++i) {
    table.add_row({std::to_string(i + 1), space[order[i]].key(),
                   strings::format_double(predicted[order[i]], 0)});
  }
  table.print(out);
  return 0;
}

/// Parses "--models name=path[,...]", validating every spec — including
/// duplicate names — before loading any artifact (`--models a=x,a=y` used
/// to silently re-register `a`, leaving whichever file parsed last serving
/// all of a's traffic), then loads each through the registry. Returns the
/// names in spec order.
std::vector<std::string> load_model_specs(engine::ModelRegistry& registry,
                                          const std::string& models,
                                          const std::string& command) {
  std::vector<std::pair<std::string, std::string>> specs;
  std::set<std::string> seen;
  for (const std::string& spec : parse_list(models)) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      throw InvalidArgument(command + " --models entry '" + spec +
                            "' must be name=path");
    }
    std::string name = spec.substr(0, eq);
    if (!seen.insert(name).second) {
      throw InvalidArgument(command + " --models names model '" + name +
                            "' more than once");
    }
    specs.emplace_back(std::move(name), spec.substr(eq + 1));
  }
  std::vector<std::string> names;
  for (const auto& [name, path] : specs) {
    registry.load_file(name, path, engine::design_space_schema());
    names.push_back(name);
  }
  return names;
}

/// The server a SIGINT/SIGTERM should stop. A plain atomic pointer because
/// signal handlers may only touch lock-free state, and request_stop() is
/// async-signal-safe by design (atomic store + self-pipe write).
std::atomic<net::Server*> g_signal_server{nullptr};

extern "C" void serve_signal_handler(int) {
  if (net::Server* server = g_signal_server.load()) server->request_stop();
}

/// The flags server_options_from reads.
const Flags kServerFlags = {"listen", "bind", "max-conns", "idle-timeout-ms"};

/// The TCP front-end options `serve --listen` and `worker` share.
net::ServerOptions server_options_from(const Options& opt) {
  net::ServerOptions options;
  options.bind_address = opt.get_or("bind", "127.0.0.1");
  const std::size_t port = parse_count_flag(opt, "listen", "0");
  if (port > 65535) {
    throw InvalidArgument("--listen: port must be 0..65535, got " +
                          std::to_string(port));
  }
  options.port = static_cast<std::uint16_t>(port);
  options.max_connections = parse_count_flag(opt, "max-conns", "64");
  if (options.max_connections == 0) {
    throw InvalidArgument("--max-conns must be >= 1");
  }
  options.idle_timeout_ms =
      parse_count_flag<std::uint32_t>(opt, "idle-timeout-ms", "0");
  return options;
}

/// Runs the TCP front-end: binds, prints the resolved endpoint, and
/// answers framed requests through `handler` until SIGINT/SIGTERM.
engine::ServeSummary serve_listen(const net::ServerOptions& options,
                                  engine::ServeHandler& handler,
                                  std::ostream& err) {
  net::Server server(options,
                     [&](std::string_view line) { return handler.handle(line); });
  err << "listening on " << options.bind_address << ":" << server.port()
      << " (max " << options.max_connections << " connection(s))\n";
  err.flush();

  g_signal_server.store(&server);
  const auto prev_int = std::signal(SIGINT, serve_signal_handler);
  const auto prev_term = std::signal(SIGTERM, serve_signal_handler);
  server.run();
  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);
  g_signal_server.store(nullptr);

  const net::ServerSummary net_summary = server.summary();
  err << "closed " << net_summary.closed << " connection(s), "
      << net_summary.shed << " shed\n";
  return handler.summary();
}

/// `dsml serve --models name=path[,...]`: loads each artifact through the
/// registry and answers JSON-lines requests from `in` until EOF — or, with
/// `--listen <port>`, from TCP connections until SIGINT/SIGTERM. Protocol
/// output goes to `out` / the socket only (one response per line,
/// golden-diffable); operational banners go to `err`.
int cmd_serve(const std::vector<std::string>& args, std::istream& in,
              std::ostream& out, std::ostream& err) {
  const Options opt =
      parse_options(args, kServerFlags + Flags{"models", "default"});
  const auto models = opt.get("models");
  if (!models) {
    throw InvalidArgument("serve requires --models name=path[,name=path...]");
  }
  // Checked before any model loads. Without --listen no server runs, so a
  // TCP flag there fails naming itself.
  std::optional<net::ServerOptions> server;
  if (opt.get("listen")) {
    server = server_options_from(opt);
  } else {
    reject_flags(opt, kServerFlags, "needs --listen P");
  }
  engine::ModelRegistry& registry = engine::ModelRegistry::global();
  const std::vector<std::string> names =
      load_model_specs(registry, *models, "serve");
  engine::ServeOptions options;
  options.default_model =
      opt.get_or("default", names.size() == 1 ? names.front() : "");
  err << "serving " << names.size() << " model(s): "
      << strings::join(names, ", ") << "\n";
  engine::ServeSummary summary;
  if (server) {
    engine::ServeHandler handler(registry, options);
    summary = serve_listen(*server, handler, err);
  } else {
    summary = engine::serve(registry, in, out, options);
  }
  err << "served " << summary.requests << " request(s), " << summary.rows
      << " row(s), " << summary.errors << " error(s), " << summary.partial
      << " partial\n";
  return 0;
}

/// The worker a SIGINT/SIGTERM should stop (same discipline as
/// g_signal_server; Worker::request_stop is async-signal-safe).
std::atomic<fleet::Worker*> g_signal_worker{nullptr};

extern "C" void worker_signal_handler(int) {
  if (fleet::Worker* worker = g_signal_worker.load()) worker->request_stop();
}

/// `dsml worker --listen P | --listen-fd N`: one fleet worker process —
/// fleet control (ping / sweep shards / model snapshots / shutdown) and the
/// ordinary serve protocol multiplexed on one port (docs/FLEET.md).
/// --listen-fd adopts an inherited listening socket: the supervisor binds
/// it so the port survives this process crashing.
int cmd_worker(const std::vector<std::string>& args, std::ostream& err) {
  const Options opt = parse_options(
      args, kServerFlags + Flags{"listen-fd", "models", "stall-ms"});
  fleet::WorkerOptions options;
  options.server = server_options_from(opt);
  if (opt.get("listen-fd")) {
    options.server.adopted_fd = parse_count_flag<int>(opt, "listen-fd", "0");
  }
  options.stall_ms = parse_count_flag<std::uint32_t>(opt, "stall-ms", "100");

  engine::ModelRegistry& registry = engine::ModelRegistry::global();
  std::vector<std::string> names;
  if (const auto models = opt.get("models")) {
    names = load_model_specs(registry, *models, "worker");
  }

  fleet::Worker worker(registry, options);
  err << "fleet worker pid " << ::getpid() << " listening on "
      << options.server.bind_address << ":" << worker.port();
  if (!names.empty()) err << " serving " << strings::join(names, ", ");
  err << "\n";
  err.flush();

  g_signal_worker.store(&worker);
  const auto prev_int = std::signal(SIGINT, worker_signal_handler);
  const auto prev_term = std::signal(SIGTERM, worker_signal_handler);
  worker.run();
  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);
  g_signal_worker.store(nullptr);

  const fleet::WorkerSummary summary = worker.summary();
  err << "worker done: " << summary.pings << " ping(s), " << summary.shards
      << " shard(s), " << summary.model_loads << " model load(s), "
      << summary.errors << " error(s); " << summary.server.closed
      << " connection(s) closed, " << summary.server.idle_closed
      << " idle-closed\n";
  return 0;
}

/// The FLEET flags coordinator_options_from reads (besides SWEEP).
const Flags kFleetFlags = {"connect-timeout-ms", "timeout-ms", "retries"};

/// Reads the SWEEP and FLEET flags. `fleet_runs` is false for `sweep` and
/// `dse` without --workers: no coordinator runs there, so a FLEET flag is
/// an error naming it, not a silent no-op.
fleet::CoordinatorOptions coordinator_options_from(const Options& opt,
                                                   bool fleet_runs) {
  if (!fleet_runs) reject_flags(opt, kFleetFlags, "needs --workers H:P,...");
  fleet::CoordinatorOptions options;
  options.sweep = sweep_options_from(opt);
  options.connect_timeout_ms =
      parse_count_flag<std::uint32_t>(opt, "connect-timeout-ms", "2000");
  options.ping_timeout_ms = options.connect_timeout_ms;
  options.request_timeout_ms =
      parse_count_flag<std::uint32_t>(opt, "timeout-ms", "120000");
  options.max_rounds = parse_count_flag(opt, "retries", "3");
  if (options.max_rounds == 0) throw InvalidArgument("--retries must be >= 1");
  return options;
}

std::vector<fleet::Endpoint> parse_worker_endpoints(const std::string& spec) {
  std::vector<fleet::Endpoint> endpoints;
  for (const std::string& part : parse_list(spec)) {
    endpoints.push_back(fleet::parse_endpoint(part));
  }
  return endpoints;
}

void print_evictions(const fleet::FleetEvaluator& evaluator,
                     std::ostream& out) {
  if (evaluator.evicted().empty()) return;
  out << "evicted " << evaluator.evicted().size() << " worker(s): "
      << strings::join(evaluator.evicted(), ", ") << "\n";
}

/// Prints a full sweep's summary line and, with --csv, writes its dataset:
/// the same lines whether the table came from this process or a fleet.
void report_sweep(const dse::SweepResult& sweep, const Options& opt,
                  std::ostream& out) {
  out << "app " << sweep.app << ": " << sweep.cycles.size()
      << " configurations, " << sweep.simpoint_count << " simpoints, "
      << sweep.simulated_instructions << " instr/config"
      << (sweep.from_cache ? " [cache]" : "") << "\n";
  if (const auto path = opt.get("csv")) {
    const data::Dataset ds = dse::sweep_dataset(sweep);
    csv::write_file(*path, ds.to_csv());
    out << "wrote " << ds.n_rows() << " rows to " << *path << "\n";
  }
}

/// The full-table sweep across a worker fleet, for `sweep --workers` and
/// `fleet`: one FleetEvaluator asked for every configuration. The
/// coordinator reads and writes no sweep cache (each worker consults its
/// own), and an incomplete gather throws StateError, never a partial table.
void fleet_sweep(const std::string& app, std::vector<fleet::Endpoint> workers,
                 const fleet::CoordinatorOptions& options, const Options& opt,
                 std::ostream& out) {
  std::vector<std::size_t> all(sim::kDesignSpaceSize);
  std::iota(all.begin(), all.end(), std::size_t{0});
  fleet::FleetEvaluator evaluator(app, std::move(workers), options);
  dse::SweepShard table = evaluator.evaluate(all);
  dse::SweepResult sweep;
  sweep.app = app;
  sweep.cycles = std::move(table.cycles);
  sweep.simpoint_count = table.simpoint_count;
  sweep.simulated_instructions = table.simulated_instructions;
  report_sweep(sweep, opt, out);
  print_evictions(evaluator, out);
  print_failures(evaluator.drain_failures(), out);
}

/// `dsml sweep`: the full design-space table, simulated here (and cached)
/// or, with --workers, sharded across a running worker fleet.
int cmd_sweep(const std::vector<std::string>& args, std::ostream& out) {
  const Options opt = parse_options(
      args, kSweepFlags + kFleetFlags + Flags{"app", "workers", "csv"});
  const std::string app = opt.get_or("app", "mcf");
  const auto workers = opt.get("workers");
  const fleet::CoordinatorOptions options =
      coordinator_options_from(opt, workers.has_value());
  if (workers) {
    fleet_sweep(app, parse_worker_endpoints(*workers), options, opt, out);
  } else {
    report_sweep(dse::run_design_space_sweep(app, options.sweep), opt, out);
  }
  return 0;
}

/// The campaign's simulation budget: `--budget N` directly, or
/// `--sample-rate R` as a fraction of the 4608-point space (floored at 10
/// rows, the same minimum data::sample_fraction applies). Default is the
/// paper's headline 1%.
std::size_t campaign_budget(const Options& opt) {
  if (opt.get("budget") && opt.get("sample-rate")) {
    throw InvalidArgument("--budget and --sample-rate are mutually exclusive");
  }
  if (opt.get("budget")) {
    const std::size_t budget = parse_count_flag(opt, "budget", "0");
    if (budget == 0) throw InvalidArgument("--budget must be >= 1");
    if (budget > sim::kDesignSpaceSize) {
      throw InvalidArgument("--budget: the design space has " +
                            std::to_string(sim::kDesignSpaceSize) +
                            " configurations, got " + std::to_string(budget));
    }
    return budget;
  }
  const double rate =
      parse_fraction("sample-rate", opt.get_or("sample-rate", "0.01"));
  return std::max<std::size_t>(
      10, static_cast<std::size_t>(
              static_cast<double>(sim::kDesignSpaceSize) * rate));
}

/// `dsml dse --sampler random|adaptive`: run the select/evaluate/retrain/
/// score campaign loop against a ground-truth Evaluator:
///   --workers H:P,...   the fleet coordinator (eviction + retry),
///   --truth             the full (cached) sweep, so true error is reported,
///   (neither)           local in-process shard simulation.
/// The full design-space table is `dsml sweep`'s job. A campaign in which
/// no round produced a Select row has no answer and exits 1.
int cmd_dse(const std::vector<std::string>& args, std::ostream& out) {
  const Options opt = parse_options(
      args, kSweepFlags + kFleetFlags +
                Flags{"app", "workers", "sampler", "budget", "sample-rate",
                      "rounds", "objective", "models", "seed", "truth"});
  const std::string app = opt.get_or("app", "mcf");
  const auto sampler_name = opt.get("sampler");
  if (!sampler_name) {
    throw InvalidArgument(
        "dse requires --sampler random|adaptive (the full design-space "
        "table is dsml sweep [--workers H:P,...])");
  }
  const auto workers = opt.get("workers");
  const bool truth = opt.get_or("truth", "0") == "1";
  if (truth && workers) {
    throw InvalidArgument("--truth and --workers are mutually exclusive");
  }
  const fleet::CoordinatorOptions options =
      coordinator_options_from(opt, workers.has_value());
  const std::size_t budget = campaign_budget(opt);
  const std::uint64_t seed = parse_count_flag(opt, "seed", "7");
  const std::unique_ptr<dse::Sampler> sampler =
      dse::make_sampler(*sampler_name, seed, app);
  // Adaptive needs rounds to react between batches; random keeps the paper's
  // one-shot protocol unless asked otherwise.
  const std::size_t rounds = parse_count_flag(
      opt, "rounds", sampler->cumulative() ? "4" : "1");
  if (rounds == 0) throw InvalidArgument("--rounds must be >= 1");
  if (rounds > budget) {
    throw InvalidArgument("--rounds: more rounds (" + std::to_string(rounds) +
                          ") than budget (" + std::to_string(budget) + ")");
  }
  const std::string objective = opt.get_or("objective", "cycles");
  if (objective != "cycles" && objective != "pareto") {
    throw InvalidArgument("unknown objective '" + objective +
                          "' (cycles|pareto)");
  }

  data::Dataset space;
  std::unique_ptr<dse::Evaluator> evaluator;
  fleet::FleetEvaluator* fleet_evaluator = nullptr;
  if (workers) {
    space = sim::make_config_dataset(sim::enumerate_design_space());
    auto fe = std::make_unique<fleet::FleetEvaluator>(
        app, parse_worker_endpoints(*workers), options);
    fleet_evaluator = fe.get();
    evaluator = std::move(fe);
  } else if (truth) {
    space = dse::sweep_dataset(dse::run_design_space_sweep(app, options.sweep));
    evaluator = std::make_unique<dse::DatasetEvaluator>(space);
  } else {
    space = sim::make_config_dataset(sim::enumerate_design_space());
    evaluator =
        std::make_unique<dse::LocalSweepEvaluator>(app, options.sweep);
  }
  const bool has_truth = space.has_target();

  dse::CampaignConfig config;
  config.app = app;
  config.space = &space;
  config.sampler = sampler.get();
  config.evaluator = evaluator.get();
  const dse::CyclesScorer cycles_scorer;
  std::optional<dse::ParetoScorer> pareto_scorer;
  if (objective == "pareto") {
    pareto_scorer.emplace();
    config.scorer = &*pareto_scorer;
  } else {
    config.scorer = &cycles_scorer;
  }
  config.rounds = dse::budget_rounds(budget, rounds);
  if (const auto models = opt.get("models")) {
    config.model_names = parse_list(*models);
  }
  config.sample_seed = seed;

  const dse::CampaignResult result = dse::Campaign(config).run();

  out << "campaign " << app << ": sampler " << result.sampler
      << ", evaluator " << result.evaluator << ", objective "
      << result.objective << ", budget " << budget << " over " << rounds
      << " round(s)\n";
  TablePrinter table({"round", "train", "model", "est err %", "true err %"});
  for (const auto& round : result.rounds) {
    for (const auto& cell : round.cells) {
      table.add_row({round.label, std::to_string(round.train_rows), cell.model,
                     strings::format_double(cell.estimated_error_max, 2),
                     has_truth ? strings::format_double(cell.true_error, 2)
                               : "-"});
    }
  }
  table.print(out);
  for (const auto& round : result.rounds) {
    if (!round.has_select) continue;
    out << "select @" << round.label << ": " << round.select.chosen_model
        << " (est " << strings::format_double(round.select.estimated_error, 2)
        << "%";
    if (has_truth) {
      out << ", true " << strings::format_double(round.select.true_error, 2)
          << "%";
    }
    out << ")\n";
  }
  out << "evaluated " << result.evaluated.size() << " of " << space.n_rows()
      << " configurations\n";
  if (!result.pareto.empty()) {
    out << "pareto frontier: " << result.pareto.size()
        << " configuration(s)\n";
    TablePrinter frontier({"config", "pred cycles", "energy"});
    const std::size_t shown = std::min<std::size_t>(10, result.pareto.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const dse::ParetoPoint& p = result.pareto[i];
      frontier.add_row({std::to_string(p.index),
                        strings::format_double(p.cycles, 0),
                        strings::format_double(p.energy, 2)});
    }
    frontier.print(out);
    if (shown < result.pareto.size()) {
      out << "(first " << shown << " of " << result.pareto.size()
          << " by predicted cycles)\n";
    }
  }
  if (fleet_evaluator) print_evictions(*fleet_evaluator, out);
  print_failures(result.failures, out);
  if (!result.final_round()) {
    throw StateError("dse " + app + ": no round produced a Select row");
  }
  return 0;
}

/// `dsml fleet --app A --workers N`: supervisor mode — fork/exec N `dsml
/// worker --listen-fd` children (respawning crashed ones with capped
/// exponential backoff), run `sweep --workers` against them, then stop the
/// fleet. One command, end to end, for the distributed-DSE smoke test.
int cmd_fleet(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  const Options opt = parse_options(
      args, kSweepFlags + kFleetFlags +
                Flags{"app", "workers", "bind", "port-base", "max-respawns",
                      "models", "csv"});
  const std::string app = opt.get_or("app", "mcf");
  const fleet::CoordinatorOptions options =
      coordinator_options_from(opt, /*fleet_runs=*/true);
  fleet::SupervisorOptions sup;
  sup.workers = parse_count_flag(opt, "workers", "3");
  sup.bind_address = opt.get_or("bind", "127.0.0.1");
  const std::size_t port_base = parse_count_flag(opt, "port-base", "0");
  if (port_base > 65535) {
    throw InvalidArgument("--port-base: port must be 0..65535");
  }
  sup.port_base = static_cast<std::uint16_t>(port_base);
  sup.max_respawns = parse_count_flag(opt, "max-respawns", "5");
  // Re-exec this very binary as the workers. /proc/self/exe rather than
  // argv[0]: the smoke test runs from CMake build trees where argv[0] may
  // be a relative path the children could not resolve.
  sup.exe = std::filesystem::read_symlink("/proc/self/exe").string();
  sup.worker_args = {"worker"};
  if (const auto models = opt.get("models")) {
    sup.worker_args.push_back("--models");
    sup.worker_args.push_back(*models);
  }

  fleet::Supervisor supervisor(sup);
  supervisor.start();
  for (const std::string& event : supervisor.drain_events()) {
    err << "fleet: " << event << "\n";
  }
  err.flush();

  // The monitor thread drives eviction/respawn while the main thread runs
  // the coordinator: a worker killed mid-sweep is respawned concurrently,
  // so the coordinator's next round finds a live endpoint again.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor([&] {
    while (!monitor_stop.load()) {
      supervisor.tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  int rc = 0;
  try {
    fleet_sweep(app, supervisor.endpoints(), options, opt, out);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    rc = 1;
  }
  monitor_stop.store(true);
  monitor.join();
  for (const std::string& event : supervisor.drain_events()) {
    err << "fleet: " << event << "\n";
  }
  supervisor.stop();
  const fleet::SupervisorSummary summary = supervisor.summary();
  err << "fleet: " << summary.spawns << " spawn(s), " << summary.respawns
      << " respawn(s), " << summary.evictions << " eviction(s)\n";
  return rc;
}

/// `dsml loadgen --connect host:port`: drives a running `dsml serve
/// --listen` front-end with concurrent connections and reports latency
/// percentiles, throughput, and the BENCH_SERVE.json perf baseline.
int cmd_loadgen(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  const Options opt = parse_options(
      args, {"connect", "connections", "requests", "rows", "timeout-ms",
             "model", "json", "check"});
  const auto endpoint = opt.get("connect");
  if (!endpoint) {
    throw InvalidArgument("loadgen requires --connect host:port");
  }
  loadgen::Options options;
  const std::size_t colon = endpoint->rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint->size()) {
    throw InvalidArgument("loadgen --connect endpoint '" + *endpoint +
                          "' must be host:port");
  }
  options.host = endpoint->substr(0, colon);
  std::size_t port = 0;
  try {
    port = static_cast<std::size_t>(
        strings::parse_u64(endpoint->substr(colon + 1)));
  } catch (const IoError&) {
    throw InvalidArgument("loadgen --connect endpoint '" + *endpoint +
                          "' must be host:port");
  }
  if (port == 0 || port > 65535) {
    throw InvalidArgument("loadgen --connect: port must be 1..65535");
  }
  options.port = static_cast<std::uint16_t>(port);
  options.connections = parse_count_flag(opt, "connections", "8");
  options.requests = parse_count_flag(opt, "requests", "32");
  options.rows = parse_count_flag(opt, "rows", "4");
  options.timeout_ms = parse_count_flag<std::uint32_t>(opt, "timeout-ms", "0");
  options.model = opt.get_or("model", "");
  options.json_path = opt.get_or("json", "");
  options.check_path = opt.get_or("check", "");
  return loadgen::run(options, out, err);
}

/// `dsml stats [--json F] [command args...]`: runs the nested command (if
/// any), then dumps the metrics registry — the aggregate work counters the
/// pipeline reported while the command ran.
int cmd_stats(const std::vector<std::string>& args, std::istream& in,
              std::ostream& out, std::ostream& err) {
  std::vector<std::string> nested = args;
  std::string json_path;
  if (!nested.empty() && nested[0] == "--json") {
    if (nested.size() < 2 || nested[1].rfind("--", 0) == 0) {
      throw InvalidArgument("missing file for stats --json");
    }
    json_path = nested[1];
    nested.erase(nested.begin(), nested.begin() + 2);
  }
  int rc = 0;
  if (!nested.empty()) rc = run(nested, in, out, err);
  metrics::print(out);
  if (!json_path.empty()) {
    json::Writer w;
    metrics::write_json(w);
    io::write_file_atomic(json_path, w.str() + "\n");
  }
  return rc;
}

}  // namespace

std::string usage() {
  return
      "usage: dsml [--trace F] [--failpoints SPEC] [--backend B] <command> "
      "[options]\n"
      "\n"
      "commands:\n"
      "  list                              enumerate apps, families, models\n"
      "  sweep   --app A [SWEEP] [--csv F] [--workers H:P,... [FLEET]]\n"
      "                                    the full design-space table, here\n"
      "                                    or sharded across a worker fleet\n"
      "                                    (complete table or loud error)\n"
      "  sampled --app A [--rates R1,R2] [--models M1,M2] [SWEEP]\n"
      "  chrono  --family F [--target int|fp|app:<i>] [--models M1,M2]\n"
      "  train   --app A --rate R --model M --out F [--seed S] [SWEEP]\n"
      "  predict --model F [--top N] [--csv F]   rank the design space, or\n"
      "                                    score CSV rows, via the engine\n"
      "  serve   --models N=F[,N=F...] [--default N]\n"
      "          [--listen P [--bind A] [--max-conns N]\n"
      "          [--idle-timeout-ms N]]\n"
      "                                    JSON-lines requests on stdin ->\n"
      "                                    predictions on stdout, or over TCP\n"
      "                                    with --listen (see docs/SERVING.md)\n"
      "  worker  --listen P | --listen-fd N  [--bind A] [--models N=F,...]\n"
      "          [--max-conns N] [--idle-timeout-ms N] [--stall-ms N]\n"
      "                                    fleet worker: serve protocol +\n"
      "                                    fleet control (ping, sweep shards,\n"
      "                                    model snapshots) on one port\n"
      "                                    (see docs/FLEET.md)\n"
      "  dse     --app A --sampler random|adaptive [--budget N | \n"
      "          --sample-rate R] [--rounds K] [--objective cycles|pareto]\n"
      "          [--models M1,M2] [--seed S] [SWEEP]\n"
      "          [--truth | --workers H:P,... [FLEET]]\n"
      "                                    campaign: select/evaluate/retrain/\n"
      "                                    score rounds against a local,\n"
      "                                    cached-truth (--truth), or fleet\n"
      "                                    (--workers) evaluator; exits 1 if\n"
      "                                    no round selects (see docs/DSE.md)\n"
      "  fleet   --app A [--workers N] [--bind A] [--port-base P]\n"
      "          [--models N=F,...] [--max-respawns N] [SWEEP] [--csv F]\n"
      "          [FLEET]\n"
      "                                    supervise a local worker fleet\n"
      "                                    (crash -> respawn with backoff) and\n"
      "                                    run sweep --workers against it\n"
      "  loadgen --connect H:P [--connections N] [--requests M] [--rows R]\n"
      "          [--model N] [--json F] [--check F] [--timeout-ms N]\n"
      "                                    drive a --listen server, report\n"
      "                                    latency percentiles + rows/sec\n"
      "  stats   [--json F] [command...]   run command, dump metrics registry\n"
      "  lint    [--list-rules] [--graph dot|json] [--sarif F]\n"
      "          [--update-registries] [--no-cache] [--cache-dir D]\n"
      "          [--root D] [path...]\n"
      "                                    run the dsml-lint project analyzer\n"
      "                                    (see docs/STATIC_ANALYSIS.md)\n"
      "\n"
      "  SWEEP = --full N --interval N --clusters K\n"
      "                     simulated trace length, SimPoint interval, and\n"
      "                     SimPoint cap (defaults 600000, 30000, 4)\n"
      "  FLEET = --timeout-ms N --retries N --connect-timeout-ms N\n"
      "                     shard I/O deadline, assignment rounds (>= 1), and\n"
      "                     connect/ping deadline (defaults 120000, 3, 2000);\n"
      "                     sweep and dse accept them only with --workers\n"
      "  Every command rejects flags it does not list.\n"
      "\n"
      "global options:\n"
      "  --backend B        pin the linalg kernel backend: naive | blocked |\n"
      "                     simd (default: DSML_BACKEND env, else cpuid;\n"
      "                     all backends are bit-identical)\n"
      "  --trace F          collect a Chrome trace (chrome://tracing) into F\n"
      "  --failpoints SPEC  arm fault-injection points, e.g.\n"
      "                     'estimate_error.fold=nth:2,linreg.solve=prob:0.1@7'\n"
      "                     (triggers: nth:N | prob:P@SEED | err:Type;\n"
      "                     see docs/ROBUSTNESS.md)\n";
}

namespace {

int dispatch(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err) {
  const std::string& cmd = args[0];
  if (cmd == "lint") {
    // Forwarded verbatim: lint has its own option grammar (bare paths and
    // flag-style options with no values).
    return lint::run({args.begin() + 1, args.end()}, out, err);
  }
  if (cmd == "stats") {
    return cmd_stats({args.begin() + 1, args.end()}, in, out, err);
  }
  if (cmd == "list") return cmd_list(args, out);
  if (cmd == "sweep") return cmd_sweep(args, out);
  if (cmd == "sampled") return cmd_sampled(args, out);
  if (cmd == "chrono") return cmd_chrono(args, out);
  if (cmd == "train") return cmd_train(args, out);
  if (cmd == "predict") return cmd_predict(args, out);
  if (cmd == "serve") return cmd_serve(args, in, out, err);
  if (cmd == "worker") return cmd_worker(args, err);
  if (cmd == "dse") return cmd_dse(args, out);
  if (cmd == "fleet") return cmd_fleet(args, out, err);
  if (cmd == "loadgen") return cmd_loadgen(args, out, err);
  err << "unknown command '" << cmd << "'\n" << usage();
  return 1;
}

/// Removes the first "<flag> <value>" pair from `args` and returns the value,
/// or nullopt when `flag` is absent. A missing value (end of args, or
/// another flag) throws "missing <what> for <flag>".
std::optional<std::string> take_global_flag(std::vector<std::string>& args,
                                            const std::string& flag,
                                            const std::string& what) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return std::nullopt;
  if (it + 1 == args.end() || (it + 1)->rfind("--", 0) == 0) {
    throw InvalidArgument("missing " + what + " for " + flag);
  }
  std::string value = *(it + 1);
  args.erase(it, it + 2);
  return value;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  return run(args, std::cin, out, err);
}

int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 1 : 0;
  }
  try {
    // `--trace <file>` and `--failpoints <spec>` work on every subcommand
    // (any position): they are extracted here, before dispatch, so command
    // parsers (including lint's pass-through grammar) never see them.
    std::vector<std::string> rest = args;
    const std::optional<std::string> trace_path =
        take_global_flag(rest, "--trace", "file");
    const std::optional<std::string> failpoint_spec =
        take_global_flag(rest, "--failpoints", "spec");
    std::optional<linalg::Backend> backend_choice;
    if (const auto name = take_global_flag(rest, "--backend", "name")) {
      backend_choice = linalg::parse_backend(*name);
    }
    if (rest.empty()) {
      out << usage();
      return 1;
    }
    // RAII so the armed set never leaks past this command (run() is also
    // invoked recursively by `dsml stats`, and repeatedly by tests). The
    // backend override follows the same discipline: scoped to this command,
    // restored on exit.
    std::optional<failpoint::ScopedFailpoints> armed;
    if (failpoint_spec.has_value()) armed.emplace(*failpoint_spec);
    std::optional<linalg::ScopedBackend> backend_override;
    if (backend_choice.has_value()) backend_override.emplace(*backend_choice);
    if (trace_path.has_value()) trace::start(*trace_path);
    // The trace stops on every exit path: a failing command still writes
    // its file, and tracing never outlives the command that asked for it.
    int rc = 1;
    std::exception_ptr failure;
    try {
      trace::Span span([&] { return "dsml " + rest[0]; }, "cli");
      rc = dispatch(rest, in, out, err);
    } catch (...) {
      failure = std::current_exception();
    }
    if (trace_path.has_value()) trace::stop();
    if (failure) std::rethrow_exception(failure);
    return rc;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dsml::cli
