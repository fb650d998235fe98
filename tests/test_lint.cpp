#include "lint/lint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace dsml::lint {
namespace {

const std::string kFixtures = DSML_LINT_FIXTURE_DIR;

bool has_rule(const std::vector<Diagnostic>& diagnostics,
              const std::string& rule) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

int run_paths(const std::vector<std::string>& args, std::string* output) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  if (output) *output = out.str() + err.str();
  return code;
}

// --- Rule hits on fixture files (each must fail with its rule id) ----------

TEST(LintFixtures, RandSource) {
  const auto d = lint_file(kFixtures + "/bad_rand.cpp");
  EXPECT_TRUE(has_rule(d, "rand-source"));
  std::string text;
  EXPECT_EQ(run_paths({kFixtures + "/bad_rand.cpp"}, &text), 1);
  EXPECT_NE(text.find("rand-source"), std::string::npos);
}

TEST(LintFixtures, FloatAccumScopedToMlAndLinalg) {
  const auto d = lint_file(kFixtures + "/src/ml/bad_float.cpp");
  EXPECT_TRUE(has_rule(d, "float-accum"));
  EXPECT_EQ(run_paths({kFixtures + "/src/ml/bad_float.cpp"}, nullptr), 1);
}

TEST(LintFixtures, FloatAccumFlagsF32NamedSources) {
  // No file name is exempt: an f32-named source under src/ml is flagged
  // like any other.
  const auto d = lint_file(kFixtures + "/src/ml/bad_f32_named.cpp");
  EXPECT_TRUE(has_rule(d, "float-accum"));
  EXPECT_EQ(run_paths({kFixtures + "/src/ml/bad_f32_named.cpp"}, nullptr), 1);
}

TEST(LintFixtures, IntrinsicsOutsideSimd) {
  const auto d = lint_file(kFixtures + "/src/ml/bad_intrinsics.cpp");
  // The immintrin.h include and both _mm256 lines are hits; the prefetch
  // carries an allow directive and must not be.
  EXPECT_GE(std::count_if(d.begin(), d.end(),
                          [](const Diagnostic& x) {
                            return x.rule == "intrinsics-outside-simd";
                          }),
            3);
  EXPECT_TRUE(std::none_of(d.begin(), d.end(), [](const Diagnostic& x) {
    return x.rule == "intrinsics-outside-simd" && x.line == 15;
  }));
  std::string text;
  EXPECT_EQ(run_paths({kFixtures + "/src/ml/bad_intrinsics.cpp"}, &text), 1);
  EXPECT_NE(text.find("intrinsics-outside-simd"), std::string::npos);
}

TEST(LintFixtures, IntrinsicsInsideSimdDirAreClean) {
  // The same content under src/linalg/simd/ is the sanctioned home.
  std::ifstream in(kFixtures + "/src/ml/bad_intrinsics.cpp");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto d =
      lint_source("src/linalg/simd/kernels_avx2.cpp", buffer.str());
  EXPECT_FALSE(has_rule(d, "intrinsics-outside-simd"));
}

TEST(LintFixtures, IostreamInLib) {
  const auto d = lint_file(kFixtures + "/src/common/bad_cout.cpp");
  EXPECT_TRUE(has_rule(d, "iostream-in-lib"));
  EXPECT_EQ(run_paths({kFixtures + "/src/common/bad_cout.cpp"}, nullptr), 1);
}

TEST(LintFixtures, CatchAllSwallow) {
  const auto d = lint_file(kFixtures + "/bad_catch.cpp");
  EXPECT_TRUE(has_rule(d, "catch-all-swallow"));
  EXPECT_EQ(run_paths({kFixtures + "/bad_catch.cpp"}, nullptr), 1);
}

TEST(LintFixtures, HeaderGuard) {
  const auto d = lint_file(kFixtures + "/bad_header.hpp");
  EXPECT_TRUE(has_rule(d, "header-guard"));
  EXPECT_EQ(run_paths({kFixtures + "/bad_header.hpp"}, nullptr), 1);
}

TEST(LintFixtures, NakedNew) {
  const auto d = lint_file(kFixtures + "/bad_new.cpp");
  EXPECT_TRUE(has_rule(d, "naked-new"));
  // Both the new and the delete line are flagged.
  EXPECT_GE(std::count_if(d.begin(), d.end(),
                          [](const Diagnostic& x) {
                            return x.rule == "naked-new";
                          }),
            2);
}

TEST(LintFixtures, MatrixElemInLoop) {
  const auto d = lint_file(kFixtures + "/src/ml/bad_elem_loop.cpp");
  EXPECT_TRUE(has_rule(d, "matrix-elem-in-loop"));
  EXPECT_EQ(run_paths({kFixtures + "/src/ml/bad_elem_loop.cpp"}, nullptr), 1);
}

TEST(LintFixtures, UnknownAllowIsFlagged) {
  const auto d = lint_file(kFixtures + "/bad_allow.cpp");
  EXPECT_TRUE(has_rule(d, "unknown-allow"));
}

TEST(LintFixtures, RawClockInLib) {
  const auto d = lint_file(kFixtures + "/src/common/bad_clock.cpp");
  EXPECT_TRUE(has_rule(d, "raw-clock-in-lib"));
  // The first read is flagged; the second carries an allow directive.
  EXPECT_EQ(std::count_if(d.begin(), d.end(),
                          [](const Diagnostic& x) {
                            return x.rule == "raw-clock-in-lib";
                          }),
            1);
}

TEST(LintFixtures, RawStdThrow) {
  const auto d = lint_file(kFixtures + "/src/ml/bad_raw_throw.cpp");
  EXPECT_TRUE(has_rule(d, "raw-std-throw"));
  // The runtime_error throw is flagged; the logic_error one carries an
  // allow directive.
  EXPECT_EQ(std::count_if(d.begin(), d.end(),
                          [](const Diagnostic& x) {
                            return x.rule == "raw-std-throw";
                          }),
            1);
}

// --- Suppression and clean exit --------------------------------------------

TEST(LintFixtures, AllowDirectiveSuppresses) {
  const auto d = lint_file(kFixtures + "/allowed.cpp");
  EXPECT_TRUE(d.empty()) << (d.empty() ? std::string() : d.front().rule);
  EXPECT_EQ(run_paths({kFixtures + "/allowed.cpp"}, nullptr), 0);
}

TEST(LintFixtures, CleanFileExitsZero) {
  EXPECT_TRUE(lint_file(kFixtures + "/clean.cpp").empty());
  std::string text;
  EXPECT_EQ(run_paths({kFixtures + "/clean.cpp"}, &text), 0);
  EXPECT_TRUE(text.empty());
}

TEST(LintCli, MissingPathExitsTwo) {
  EXPECT_EQ(run_paths({kFixtures + "/no_such_file.cpp"}, nullptr), 2);
}

TEST(LintCli, UnknownOptionExitsTwo) {
  EXPECT_EQ(run_paths({"--bogus"}, nullptr), 2);
}

TEST(LintCli, ListRulesShowsCatalogue) {
  std::string text;
  EXPECT_EQ(run_paths({"--list-rules"}, &text), 0);
  for (const auto& rule : rule_catalogue()) {
    EXPECT_NE(text.find(rule.id), std::string::npos) << rule.id;
  }
}

TEST(LintCli, WalkingFixtureDirectoryFindsEveryRule) {
  std::string text;
  EXPECT_EQ(run_paths({kFixtures}, &text), 1);
  for (const char* rule :
       {"rand-source", "float-accum", "iostream-in-lib", "catch-all-swallow",
        "header-guard", "naked-new", "matrix-elem-in-loop",
        "raw-clock-in-lib", "raw-std-throw", "unknown-allow"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule;
  }
}

// --- lint_source scoping (synthetic paths, no files needed) ----------------

TEST(LintSource, FloatAllowedOutsideNumericCode) {
  const std::string source = "float fast_path(float x) { return x; }\n";
  EXPECT_TRUE(has_rule(lint_source("src/linalg/kernel.cpp", source),
                       "float-accum"));
  EXPECT_TRUE(has_rule(lint_source("src/linalg/simd/kernels_avx2.cpp", source),
                       "float-accum"));
  EXPECT_FALSE(has_rule(lint_source("src/sim/cache.cpp", source),
                        "float-accum"));
  EXPECT_FALSE(has_rule(lint_source("bench/bench_util.cpp", source),
                        "float-accum"));
}

TEST(LintSource, CoutAllowedOutsideLibrary) {
  const std::string source =
      "#include <iostream>\nvoid f() { std::cout << 1; }\n";
  EXPECT_TRUE(has_rule(lint_source("src/dse/sweep.cpp", source),
                       "iostream-in-lib"));
  EXPECT_FALSE(has_rule(lint_source("tools/main.cpp", source),
                        "iostream-in-lib"));
  EXPECT_FALSE(has_rule(lint_source("src/common/table.hpp", source),
                        "iostream-in-lib"));
}

TEST(LintSource, RngHeaderIsTheOneSanctionedRandomnessSource) {
  const std::string source = "#pragma once\ninline int x = 1;\n";
  const std::string noisy = "#pragma once\n#include <random>\n"
                            "inline std::mt19937 gen;\n";
  EXPECT_FALSE(has_rule(lint_source("src/common/rng.hpp", noisy),
                        "rand-source"));
  EXPECT_TRUE(has_rule(lint_source("src/common/other.hpp", noisy),
                       "rand-source"));
  EXPECT_FALSE(has_rule(lint_source("src/common/other.hpp", source),
                        "rand-source"));
}

TEST(LintSource, CommentsAndStringsDoNotTrigger) {
  const std::string source =
      "#pragma once\n"
      "// calling std::rand() here would be a bug\n"
      "/* so would new int or delete p */\n"
      "inline const char* kDoc = \"std::cout << new int\";\n";
  EXPECT_TRUE(lint_source("src/common/doc.hpp", source).empty());
}

TEST(LintSource, MatrixElemScopedToMlSources) {
  const std::string source =
      "void f(Matrix& w, int n) {\n"
      "  for (int i = 0; i < n; ++i) w(i, 0) += 1.0;\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_source("src/ml/mlp.cpp", source),
                       "matrix-elem-in-loop"));
  EXPECT_FALSE(has_rule(lint_source("src/linalg/matrix.cpp", source),
                        "matrix-elem-in-loop"));
  EXPECT_FALSE(has_rule(lint_source("tests/test_ml.cpp", source),
                        "matrix-elem-in-loop"));
}

TEST(LintSource, MatrixElemIgnoresQualifiedCallsAndDeadLoopVars) {
  // Namespace-qualified callees are free functions, and a loop variable must
  // not outlive its loop body.
  const std::string source =
      "void f(Matrix& w, int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    use(std::min(i, n));\n"
      "  }\n"
      "  int j = 0;\n"
      "  w(j, n) = 1.0;  // not inside any loop\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_source("src/ml/mlp.cpp", source),
                        "matrix-elem-in-loop"));
}

TEST(LintSource, RawClockScopedToLibraryOutsideTracingLayer) {
  const std::string source =
      "#include <chrono>\n"
      "auto t() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(has_rule(lint_source("src/dse/sweep.cpp", source),
                       "raw-clock-in-lib"));
  // The tracing layer and the thread pool are the sanctioned call sites, and
  // non-library code (tools, bench) may time things directly.
  EXPECT_FALSE(has_rule(lint_source("src/common/trace.cpp", source),
                        "raw-clock-in-lib"));
  EXPECT_FALSE(has_rule(lint_source("src/common/thread_pool.hpp", source),
                        "raw-clock-in-lib"));
  EXPECT_FALSE(has_rule(lint_source("bench/bench_util.cpp", source),
                        "raw-clock-in-lib"));
}

TEST(LintFixtures, DirectModelLoadInTools) {
  const auto d = lint_file(kFixtures + "/tools/bad_model_load.cpp");
  EXPECT_TRUE(has_rule(d, "direct-model-load-in-tools"));
  // Exactly one hit: the second call carries the allow directive.
  EXPECT_EQ(std::count_if(d.begin(), d.end(),
                          [](const Diagnostic& x) {
                            return x.rule == "direct-model-load-in-tools";
                          }),
            1);
  EXPECT_EQ(run_paths({kFixtures + "/tools/bad_model_load.cpp"}, nullptr), 1);
}

TEST(LintSource, DirectModelLoadScopedToTools) {
  const std::string source =
      "void f() { auto m = ml::load_model(\"model.dsml\"); }\n";
  EXPECT_TRUE(has_rule(lint_source("tools/cli.cpp", source),
                       "direct-model-load-in-tools"));
  EXPECT_TRUE(has_rule(lint_source("tools/loadgen.cpp", source),
                       "direct-model-load-in-tools"));
  // The unqualified call form is caught too.
  EXPECT_TRUE(has_rule(
      lint_source("tools/cli.cpp", "auto m = load_model(path);\n"),
      "direct-model-load-in-tools"));
  // The engine wrapper, library code, and tests stay out of scope.
  EXPECT_FALSE(has_rule(lint_source("src/engine/registry.cpp", source),
                        "direct-model-load-in-tools"));
  EXPECT_FALSE(has_rule(lint_source("src/ml/serialize.cpp", source),
                        "direct-model-load-in-tools"));
  EXPECT_FALSE(has_rule(lint_source("tests/test_serialize.cpp", source),
                        "direct-model-load-in-tools"));
  // Mentioning the symbol without calling it (docs, the registry's own
  // comments) is fine.
  EXPECT_FALSE(has_rule(
      lint_source("tools/cli.cpp", "int load_model_count = 0;\n"),
      "direct-model-load-in-tools"));
}

TEST(LintSource, RawStdThrowScopedToLibraryOutsideErrorHeader) {
  const std::string source =
      "void f() { throw std::runtime_error(\"boom\"); }\n";
  EXPECT_TRUE(has_rule(lint_source("src/ml/linreg.cpp", source),
                       "raw-std-throw"));
  // The taxonomy itself derives from std exceptions, and code outside the
  // library (tools, tests) may throw whatever it likes.
  EXPECT_FALSE(has_rule(lint_source("src/common/error.hpp", source),
                        "raw-std-throw"));
  EXPECT_FALSE(has_rule(lint_source("tools/cli.cpp", source),
                        "raw-std-throw"));
  EXPECT_FALSE(has_rule(lint_source("tests/test_ml.cpp", source),
                        "raw-std-throw"));
}

TEST(LintSource, TaxonomyThrowsAreNotRawStdThrows) {
  const std::string source =
      "void f() { throw NumericalError(\"singular\"); }\n"
      "void g() { throw dsml::IoError(\"short read\"); }\n";
  EXPECT_FALSE(has_rule(lint_source("src/ml/linreg.cpp", source),
                        "raw-std-throw"));
}

TEST(LintSource, CatchAllThatRethrowsIsFine) {
  const std::string source =
      "void f() {\n"
      "  try { g(); } catch (...) {\n"
      "    cleanup();\n"
      "    throw;\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_source("src/common/x.cpp", source),
                        "catch-all-swallow"));
}

TEST(LintSource, CatchAllCapturingCurrentExceptionIsFine) {
  const std::string source =
      "void f(std::exception_ptr& e) {\n"
      "  try { g(); } catch (...) { e = std::current_exception(); }\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_source("src/common/x.cpp", source),
                        "catch-all-swallow"));
}

TEST(LintSource, DeletedSpecialMembersAreNotNakedDelete) {
  const std::string source =
      "#pragma once\n"
      "struct NoCopy {\n"
      "  NoCopy(const NoCopy&) = delete;\n"
      "  NoCopy& operator=(const NoCopy&) = delete;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/common/nocopy.hpp", source).empty());
}

TEST(LintSource, DiagnosticsCarryFileAndLine) {
  const std::string source = "void f() { int* p = new int(1); use(p); }\n";
  const auto d = lint_source("src/common/x.cpp", source);
  ASSERT_FALSE(d.empty());
  EXPECT_EQ(d.front().file, "src/common/x.cpp");
  EXPECT_EQ(d.front().line, 1u);
}

TEST(LintSource, MultiRuleAllowList) {
  const std::string source =
      "void f() { delete make(); }  "
      "// dsml-lint: allow(naked-new, catch-all-swallow)\n";
  EXPECT_TRUE(lint_source("src/common/x.cpp", source).empty());
}

// --- Cross-TU rules on the xtu fixture project ------------------------------

namespace fs = std::filesystem;

const std::string kXtu = kFixtures + "/xtu";
const std::string kRepoRoot = DSML_REPO_ROOT;

std::vector<Diagnostic> analyze_xtu() {
  AnalyzeOptions options;
  options.root = kXtu;
  options.use_cache = false;
  return analyze_paths({kXtu}, options);
}

std::size_t count_rule(const std::vector<Diagnostic>& diagnostics,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

bool has_finding(const std::vector<Diagnostic>& diagnostics,
                 const std::string& file_part, const std::string& rule,
                 const std::string& message_part = "") {
  return std::any_of(
      diagnostics.begin(), diagnostics.end(), [&](const Diagnostic& d) {
        return d.rule == rule &&
               d.file.find(file_part) != std::string::npos &&
               d.message.find(message_part) != std::string::npos;
      });
}

/// Writes `content` to `file`, creating parent directories.
void write_file(const fs::path& file, const std::string& content) {
  fs::create_directories(file.parent_path());
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << file;
  out << content;
}

/// A fresh scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dsml_lint_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(LintXtu, LayerBackEdgeIsFlaggedAtTheIncludeLine) {
  const auto d = analyze_xtu();
  ASSERT_TRUE(has_finding(d, "uses_ml.hpp", "layer-violation", "back-edge"));
  const auto hit = std::find_if(d.begin(), d.end(), [](const Diagnostic& x) {
    return x.rule == "layer-violation" &&
           x.file.find("uses_ml.hpp") != std::string::npos;
  });
  EXPECT_EQ(hit->line, 5u);
  EXPECT_NE(hit->message.find("layer 'common'"), std::string::npos);
  EXPECT_NE(hit->message.find("src/ml/model.hpp"), std::string::npos);
}

TEST(LintXtu, IncludeCycleIsReportedOnceCanonically) {
  const auto d = analyze_xtu();
  EXPECT_TRUE(has_finding(
      d, "cycle_a.hpp", "layer-violation",
      "include cycle: src/common/cycle_a.hpp -> src/common/cycle_b.hpp -> "
      "src/common/cycle_a.hpp"));
  // One report for the cycle however it was entered, one for the back-edge.
  EXPECT_EQ(count_rule(d, "layer-violation"), 2u);
}

TEST(LintXtu, UnregisteredNamesAreFlaggedRegisteredOnesAreNot) {
  const auto d = analyze_xtu();
  EXPECT_TRUE(has_finding(d, "names.cpp", "unregistered-failpoint",
                          "'core.io.fial'"));
  EXPECT_TRUE(
      has_finding(d, "names.cpp", "unregistered-metric", "'core.reqests'"));
  EXPECT_TRUE(
      has_finding(d, "names.cpp", "unregistered-metric", "'core.sacn'"));
  // The registered twins and the dynamic (concatenated) name stay clean.
  EXPECT_EQ(count_rule(d, "unregistered-failpoint"), 1u);
  EXPECT_EQ(count_rule(d, "unregistered-metric"), 2u);
}

TEST(LintXtu, MissingTsanLabelScopedToUnlabelledTests) {
  const auto d = analyze_xtu();
  EXPECT_TRUE(has_finding(d, "tests/test_pool.cpp", "missing-tsan-label",
                          "common/thread_pool.hpp"));
  EXPECT_EQ(count_rule(d, "missing-tsan-label"), 1u);
}

TEST(LintXtu, SuppressedTwinsStayQuiet) {
  const auto d = analyze_xtu();
  for (const char* quiet :
       {"uses_ml_suppressed", "names_suppressed", "test_pool_suppressed",
        "test_pool_labelled"}) {
    EXPECT_FALSE(std::any_of(d.begin(), d.end(),
                             [&](const Diagnostic& x) {
                               return x.file.find(quiet) != std::string::npos;
                             }))
        << quiet;
  }
  // Exactly the six fixture hits fire (back-edge, cycle, three names, one
  // unlabelled test): anything else is a fixture regression.
  EXPECT_EQ(d.size(), 6u);
}

TEST(LintXtu, CliRunWithExplicitRoot) {
  std::string text;
  EXPECT_EQ(run_paths({"--no-cache", "--root", kXtu, kXtu}, &text), 1);
  for (const char* rule : {"layer-violation", "unregistered-failpoint",
                           "unregistered-metric", "missing-tsan-label"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule;
  }
}

TEST(LintXtu, LintPathsBackCompatSkipsCrossTuRules) {
  // The per-file-only wrapper sees a clean fixture tree: every xtu finding
  // is a cross-TU one.
  EXPECT_TRUE(lint_paths({kXtu}).empty());
}

// --- Graph dumps ------------------------------------------------------------

TEST(LintGraph, JsonOfSrcCommonMatchesCommittedGolden) {
  std::string text;
  ASSERT_EQ(run_paths({"--no-cache", "--root", kRepoRoot, "--graph", "json",
                       kRepoRoot + "/src/common"},
                      &text),
            0);
  std::ifstream golden(kRepoRoot + "/tests/data/lint/graph_src_common.json",
                       std::ios::binary);
  ASSERT_TRUE(golden);
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(text, expected.str())
      << "regenerate with: dsml lint --no-cache --graph json src/common "
         "> tests/data/lint/graph_src_common.json";
}

TEST(LintGraph, DotRendersTheLayerDigraph) {
  std::string text;
  ASSERT_EQ(run_paths({"--no-cache", "--root", kXtu, "--graph", "dot", kXtu},
                      &text),
            0);
  EXPECT_NE(text.find("digraph dsml_layers"), std::string::npos);
  EXPECT_NE(text.find("\"common\""), std::string::npos);
  EXPECT_NE(text.find("\"ml\" -> \"common\""), std::string::npos);
}

TEST(LintGraph, BadGraphModeExitsTwo) {
  EXPECT_EQ(run_paths({"--graph", "svg", kXtu}, nullptr), 2);
  EXPECT_EQ(run_paths({"--graph"}, nullptr), 2);
}

// --- SARIF export -----------------------------------------------------------

TEST(LintSarif, ExportsFindingsWithRuleMetadata) {
  const fs::path dir = scratch_dir("sarif");
  const std::string sarif = (dir / "lint.sarif").string();
  EXPECT_EQ(run_paths({"--no-cache", "--sarif", sarif,
                       kFixtures + "/bad_rand.cpp"},
                      nullptr),
            1);
  const json::Value doc = json::Value::parse_file(sarif);
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  const json::Value& driver =
      doc.at("runs").items().at(0).at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "dsml-lint");
  EXPECT_EQ(driver.at("rules").items().size(), rule_catalogue().size());
  const auto& results = doc.at("runs").items().at(0).at("results").items();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results.front().at("ruleId").as_string(), "rand-source");
  EXPECT_EQ(results.front().at("level").as_string(), "error");
  const json::Value& location =
      results.front().at("locations").items().at(0).at("physicalLocation");
  EXPECT_GE(location.at("region").at("startLine").as_number(), 1.0);
}

TEST(LintSarif, CleanRunWritesEmptyResults) {
  const fs::path dir = scratch_dir("sarif_clean");
  const std::string sarif = (dir / "clean.sarif").string();
  EXPECT_EQ(run_paths({"--no-cache", "--sarif", sarif,
                       kFixtures + "/clean.cpp"},
                      nullptr),
            0);
  const json::Value doc = json::Value::parse_file(sarif);
  EXPECT_TRUE(doc.at("runs").items().at(0).at("results").items().empty());
}

// --- Incremental cache ------------------------------------------------------

TEST(LintCache, WarmRunIsIdenticalAndEditsInvalidate) {
  const fs::path dir = scratch_dir("cache");
  const fs::path cache = dir / ".dsml_cache";
  const fs::path source = dir / "src" / "common" / "leaky.cpp";
  write_file(source, "void f() { int* p = new int(1); use(p); }\n");

  const std::vector<std::string> args = {"--cache-dir", cache.string(),
                                         source.string()};
  std::string cold;
  std::string warm;
  EXPECT_EQ(run_paths(args, &cold), 1);
  EXPECT_TRUE(fs::is_regular_file(cache / "lint.cache"));
  EXPECT_EQ(run_paths(args, &warm), 1);
  EXPECT_EQ(cold, warm);

  // A content change must invalidate the entry, not replay stale findings.
  write_file(source, "void f() { auto p = make(); use(p); }\n");
  std::string fixed;
  EXPECT_EQ(run_paths(args, &fixed), 0);
  EXPECT_TRUE(fixed.empty());
}

TEST(LintCache, NoCacheFlagLeavesNoCacheDirectory) {
  const fs::path dir = scratch_dir("nocache");
  const fs::path cache = dir / ".dsml_cache";
  const fs::path source = dir / "clean_unit.cpp";
  write_file(source, "inline int one() { return 1; }\n");
  EXPECT_EQ(run_paths({"--no-cache", "--cache-dir", cache.string(),
                       source.string()},
                      nullptr),
            0);
  EXPECT_FALSE(fs::exists(cache));
}

// --- Error handling contract ------------------------------------------------

TEST(LintCli, UnreadableFileReportsAndExitsTwo) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root bypasses file permissions";
  }
  const fs::path dir = scratch_dir("unreadable");
  const fs::path source = dir / "secret.cpp";
  write_file(source, "inline int x = 1;\n");
  fs::permissions(source, fs::perms::none);
  std::string text;
  EXPECT_EQ(run_paths({"--no-cache", source.string()}, &text), 2);
  EXPECT_NE(text.find("cannot read"), std::string::npos);
  fs::permissions(source, fs::perms::owner_all);
}

TEST(LintCli, MissingFlagValueExitsTwo) {
  EXPECT_EQ(run_paths({"--sarif"}, nullptr), 2);
  EXPECT_EQ(run_paths({"--cache-dir"}, nullptr), 2);
  EXPECT_EQ(run_paths({"--root"}, nullptr), 2);
}

TEST(LintCli, ListRulesUsesIdDashSummaryFormat) {
  std::string text;
  EXPECT_EQ(run_paths({"--list-rules"}, &text), 0);
  for (const auto& rule : rule_catalogue()) {
    EXPECT_NE(text.find(rule.id + " — " + rule.summary), std::string::npos)
        << rule.id;
  }
  // The cross-TU rules are part of the same catalogue.
  EXPECT_NE(text.find("layer-violation"), std::string::npos);
  EXPECT_NE(text.find("missing-tsan-label"), std::string::npos);
}

// --- Registry regeneration --------------------------------------------------

TEST(LintRegistries, UpdateThenLintRoundTrips) {
  const fs::path root = scratch_dir("registries");
  write_file(root / "tools" / "lint" / "layers.def",
             "layer common src/common\n");
  const std::string site = std::string("void f() {\n") +
                           "  DSML_FAIL(\"fix.io\");\n" +
                           "  metrics::counter(\"fix.requests\");\n" + "}\n";
  write_file(root / "src" / "common" / "obs.cpp", site);

  std::string text;
  EXPECT_EQ(run_paths({"--no-cache", "--root", root.string(),
                       "--update-registries"},
                      &text),
            0);
  EXPECT_NE(text.find("updated"), std::string::npos);
  for (const char* manifest :
       {"failpoints.txt", "metrics.txt", "spans.txt"}) {
    EXPECT_TRUE(
        fs::is_regular_file(root / "docs" / "registries" / manifest))
        << manifest;
  }

  // The regenerated manifests make the project lint clean...
  EXPECT_EQ(run_paths({"--no-cache", "--root", root.string(),
                       (root / "src").string()},
                      nullptr),
            0);

  // ...and a new, unregistered name is caught until the next regeneration.
  write_file(root / "src" / "common" / "typo.cpp",
             "void g() { DSML_FAIL(\"fix.oi\"); }\n");
  EXPECT_EQ(run_paths({"--no-cache", "--root", root.string(),
                       (root / "src").string()},
                      &text),
            1);
  EXPECT_NE(text.find("unregistered-failpoint"), std::string::npos);
}

}  // namespace
}  // namespace dsml::lint
