// perfbench — the benchmark harness binary. run.py is its only intended
// caller; the modes are:
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1 [--port P]
//       run one workload and print its result as one JSON line;
//   perfbench setup --workload W [--seed N] [--port P]
//       do the workload's in-process set-up and exit (set-up timing);
//   perfbench machine
//       print the machine facts the report records;
//   perfbench oracle
//       regenerate perfbench/data (the mcf truth table, the campaign pin).
//
// Run it from the repository root: the inputs are perfbench/data and
// tests/data/serve/model.dsml.
#include <iostream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "linalg/backend.hpp"
#include "sim/config.hpp"

namespace {

using perfbench::Args;

Args parse_args(int argc, char** argv) {
  if (argc < 2) {
    throw dsml::InvalidArgument("usage: perfbench <mode> [--flag value]...");
  }
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw dsml::InvalidArgument(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = dsml::strings::parse_u64(value);
    } else if (flag == "--seconds") {
      args.seconds = dsml::strings::parse_double(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--port") {
      args.port = static_cast<std::uint16_t>(dsml::strings::parse_u64(value));
    } else {
      throw dsml::InvalidArgument("unknown flag " + flag);
    }
  }
  return args;
}

void warm_pool() {
  dsml::parallel_for(0, dsml::ThreadPool::global().size(), [](std::size_t) {});
}

int run(const Args& args) {
  if (args.mode == "machine") {
    dsml::json::Writer w(/*compact=*/true);
    w.begin_object()
        .field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("pool_threads",
               static_cast<std::uint64_t>(dsml::ThreadPool::global().size()))
        .field("linalg_backend",
               dsml::linalg::to_string(dsml::linalg::active_backend()))
        .field("simd_variant", dsml::linalg::simd_variant())
        .end_object();
    std::cout << w.str();
    return 0;
  }
  if (args.mode == "oracle") {
    perfbench::write_oracles();
    return 0;
  }
  const bool known = args.workload == "sweep-mcf" ||
                     args.workload == "campaign-mcf" ||
                     args.workload == "serve-small";
  if (!known) {
    throw dsml::InvalidArgument("unknown workload '" + args.workload + "'");
  }
  if (args.mode == "setup") {
    if (args.workload == "serve-small") {
      perfbench::setup_serve(args);
    } else {
      perfbench::load_truth();
      dsml::sim::make_config_dataset(dsml::sim::enumerate_design_space());
      warm_pool();
    }
    return 0;
  }
  if (args.mode != "run") {
    throw dsml::InvalidArgument("unknown mode '" + args.mode + "'");
  }
  if (args.workload != "serve-small") warm_pool();
  const perfbench::Result result = args.workload == "sweep-mcf"
                                       ? perfbench::run_sweep(args)
                                   : args.workload == "campaign-mcf"
                                       ? perfbench::run_campaign(args)
                                       : perfbench::run_serve(args);
  std::cout << result.json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << dsml::error_kind(e) << ": " << e.what()
              << "\n";
    return 1;
  }
}
