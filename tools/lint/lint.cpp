// Phase 1 of dsml-lint: the per-file rule engine and the FileModel builder.
// Cross-TU analysis (phase 2) lives in project.cpp; the CLI in driver.cpp.
#include "lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "common/error.hpp"
#include "lint/internal.hpp"

namespace dsml::lint {

namespace internal {
namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

std::string normalize(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool path_has_dir(const std::string& normalized, const std::string& dir) {
  return normalized.rfind(dir + "/", 0) == 0 ||
         normalized.find("/" + dir + "/") != std::string::npos;
}

bool path_ends_with(const std::string& normalized, const std::string& tail) {
  return normalized.size() >= tail.size() &&
         normalized.compare(normalized.size() - tail.size(), tail.size(),
                            tail) == 0;
}

bool is_header(const std::string& normalized) {
  return path_ends_with(normalized, ".hpp") ||
         path_ends_with(normalized, ".h");
}

// ---------------------------------------------------------------------------
// Individual per-file rules. Each takes the code view and appends
// diagnostics; suppression happens centrally in build_file_model.
// ---------------------------------------------------------------------------

void scan_lines(const std::string& file, const SourceModel& model,
                const std::regex& pattern, const std::string& rule,
                const std::string& message, std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i < model.code.size(); ++i) {
    if (std::regex_search(model.code[i], pattern)) {
      out->push_back({file, i + 1, rule, message});
    }
  }
}

void rule_rand_source(const std::string& file, const std::string& normalized,
                      const SourceModel& model,
                      std::vector<Diagnostic>* out) {
  if (path_ends_with(normalized, "common/rng.hpp")) return;
  static const std::regex kPattern(
      R"(\bstd::rand\b|\bsrand\s*\(|\brand\s*\(|\bmt19937(_64)?\b|\brandom_device\b)");
  scan_lines(file, model, kPattern, "rand-source",
             "non-deterministic or non-dsml randomness; use dsml::Rng "
             "(common/rng.hpp)",
             out);
}

void rule_float_accum(const std::string& file, const std::string& normalized,
                      const SourceModel& model,
                      std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "linalg") && !path_has_dir(normalized, "ml")) {
    return;
  }
  if (!path_has_dir(normalized, "src")) return;
  static const std::regex kPattern(R"(\bfloat\b)");
  scan_lines(file, model, kPattern, "float-accum",
             "float in linalg/ml code; numeric accumulation must stay double",
             out);
}

/// Flags x86 vector-intrinsic usage (immintrin/emmintrin-family includes or
/// `_mm*` calls) under src/ or tools/ outside src/linalg/simd/. Intrinsics
/// are platform-gated, compiled with per-TU flags (-mavx2
/// -ffp-contract=off), and carry the bit-identity contract documented in
/// src/linalg/simd/simd_kernels.hpp — scattering them elsewhere bypasses all
/// three. Code with a genuine reason (e.g. a prefetch hint in a hot loop)
/// opts out with `// dsml-lint: allow(intrinsics-outside-simd)`.
void rule_intrinsics_outside_simd(const std::string& file,
                                  const std::string& normalized,
                                  const SourceModel& model,
                                  std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "src") && !path_has_dir(normalized, "tools")) {
    return;
  }
  if (path_has_dir(normalized, "linalg/simd")) return;
  static const std::regex kPattern(
      R"(^\s*#\s*include\s*<(?:imm|emm|xmm|pmm|smm|tmm|wmm|nmm|x86)intrin\.h>|\b_mm(?:256|512)?_\w+\s*\()");
  scan_lines(file, model, kPattern, "intrinsics-outside-simd",
             "x86 vector intrinsics outside src/linalg/simd/; put SIMD "
             "kernels behind the dispatch layer (linalg/backend.hpp) so "
             "per-TU flags and the bit-identity contract apply",
             out);
}

void rule_iostream_in_lib(const std::string& file,
                          const std::string& normalized,
                          const SourceModel& model,
                          std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "src")) return;
  if (path_ends_with(normalized, "error.hpp") ||
      path_ends_with(normalized, "table.hpp")) {
    return;
  }
  static const std::regex kPattern(
      R"(\bstd::cout\b|\bstd::cerr\b|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\()");
  scan_lines(file, model, kPattern, "iostream-in-lib",
             "direct console output in library code; take an std::ostream& "
             "or report via exceptions",
             out);
}

void rule_catch_all_swallow(const std::string& file,
                            const std::string& /*normalized*/,
                            const SourceModel& model,
                            std::vector<Diagnostic>* out) {
  // Flatten the code view so `catch (...)` and its handler can span lines.
  std::string flat;
  std::vector<std::size_t> line_of;  // flat offset -> 0-based line
  for (std::size_t i = 0; i < model.code.size(); ++i) {
    for (char c : model.code[i]) {
      flat.push_back(c);
      line_of.push_back(i);
    }
    flat.push_back('\n');
    line_of.push_back(i);
  }
  static const std::regex kCatchAll(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  for (auto it = std::sregex_iterator(flat.begin(), flat.end(), kCatchAll);
       it != std::sregex_iterator(); ++it) {
    const std::size_t catch_pos = static_cast<std::size_t>(it->position());
    const std::size_t open = flat.find('{', catch_pos);
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = open;
    for (; close < flat.size(); ++close) {
      if (flat[close] == '{') ++depth;
      if (flat[close] == '}' && --depth == 0) break;
    }
    const std::string body = flat.substr(open, close - open + 1);
    static const std::regex kHandles(R"(\bthrow\b|\bcurrent_exception\b)");
    if (!std::regex_search(body, kHandles)) {
      out->push_back({file, line_of[catch_pos] + 1, "catch-all-swallow",
                      "catch (...) neither rethrows nor captures "
                      "std::current_exception"});
    }
  }
}

void rule_header_guard(const std::string& file, const std::string& normalized,
                       const SourceModel& model,
                       std::vector<Diagnostic>* out) {
  if (!is_header(normalized)) return;
  for (const std::string& line : model.code) {
    if (line.find("#pragma once") != std::string::npos) return;
  }
  out->push_back({file, 1, "header-guard",
                  "header lacks #pragma once (the repo's guard convention)"});
}

void rule_naked_new(const std::string& file, const std::string& /*normalized*/,
                    const SourceModel& model, std::vector<Diagnostic>* out) {
  static const std::regex kExempt(
      R"(=\s*delete\b|\boperator\s+new\b|\boperator\s+delete\b)");
  static const std::regex kNaked(R"(\bnew\b|\bdelete\b)");
  for (std::size_t i = 0; i < model.code.size(); ++i) {
    const std::string scrubbed =
        std::regex_replace(model.code[i], kExempt, "");
    if (std::regex_search(scrubbed, kNaked)) {
      out->push_back({file, i + 1, "naked-new",
                      "raw new/delete; use containers, make_unique or "
                      "make_shared"});
    }
  }
}

/// Flags two-argument `m(i, j)` call expressions inside for-loops in src/ml
/// where an argument is a loop induction variable: per-element
/// Matrix::operator() walks in ML hot loops defeat the blocked kernels in
/// linalg/kernels.hpp (row spans and batched GEMM/GEMV are the fast paths).
/// Heuristic, line-oriented: loop variables are harvested from `for (Type v =`
/// headers and expire when their brace scope closes; namespace-qualified
/// callees (std::min, kernels::gemv, ...) and calls whose arguments are not
/// plain identifiers are skipped. Genuinely cold code (model surgery,
/// serialization) opts out with `// dsml-lint: allow(matrix-elem-in-loop)`.
void rule_matrix_elem_in_loop(const std::string& file,
                              const std::string& normalized,
                              const SourceModel& model,
                              std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "src") || !path_has_dir(normalized, "ml")) {
    return;
  }
  static const std::regex kForVar(
      R"(\bfor\s*\(\s*(?:const\s+)?[A-Za-z_][\w:]*\s+([A-Za-z_]\w*)\s*=)");
  static const std::regex kCall(
      R"(([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*\(\s*([A-Za-z_]\w*|[0-9]+)\s*,\s*([A-Za-z_]\w*|[0-9]+)\s*\))");
  static const std::unordered_set<std::string> kNotAccessors = {
      "for", "if", "while", "switch", "catch", "return", "sizeof"};

  std::vector<std::pair<std::string, int>> loop_vars;  // name, header depth
  int depth = 0;
  for (std::size_t i = 0; i < model.code.size(); ++i) {
    const std::string& line = model.code[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kForVar);
         it != std::sregex_iterator(); ++it) {
      loop_vars.emplace_back((*it)[1].str(), depth);
    }
    if (!loop_vars.empty()) {
      const auto is_loop_var = [&](const std::string& name) {
        return std::any_of(
            loop_vars.begin(), loop_vars.end(),
            [&](const auto& v) { return v.first == name; });
      };
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kCall);
           it != std::sregex_iterator(); ++it) {
        const std::smatch& m = *it;
        const auto pos = static_cast<std::size_t>(m.position());
        // A ':' immediately before the callee means it is namespace-qualified
        // (free functions, casts), not a matrix object.
        if (pos > 0 && line[pos - 1] == ':') continue;
        const std::string callee = m[1].str();
        const std::size_t seg = callee.find_last_of(".>");
        const std::string last =
            seg == std::string::npos ? callee : callee.substr(seg + 1);
        if (kNotAccessors.count(last)) continue;
        if (is_loop_var(m[2].str()) || is_loop_var(m[3].str())) {
          out->push_back(
              {file, i + 1, "matrix-elem-in-loop",
               "per-element operator() access in an src/ml loop; use row "
               "spans or the batched kernels (linalg/kernels.hpp), or mark "
               "cold code with an allow directive"});
          break;  // one diagnostic per line is enough
        }
      }
    }
    for (char c : line) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        while (!loop_vars.empty() && loop_vars.back().second >= depth) {
          loop_vars.pop_back();
        }
      }
    }
  }
}

/// Flags raw std::chrono clock reads in library code under src/. All timing
/// there is supposed to flow through trace::Stopwatch / the tracing layer
/// (common/trace.hpp), so profiling stays centralised and the
/// tracing-disabled path provably reads no clock. The tracing layer itself
/// and the thread pool's queue-wait probe are the sanctioned call sites.
void rule_raw_clock_in_lib(const std::string& file,
                           const std::string& normalized,
                           const SourceModel& model,
                           std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "src")) return;
  if (path_ends_with(normalized, "common/trace.hpp") ||
      path_ends_with(normalized, "common/trace.cpp") ||
      path_ends_with(normalized, "common/thread_pool.hpp") ||
      path_ends_with(normalized, "common/thread_pool.cpp")) {
    return;
  }
  static const std::regex kPattern(
      R"((?:\bstd::chrono::)?\b(?:steady_clock|high_resolution_clock|system_clock)::now\s*\()");
  scan_lines(file, model, kPattern, "raw-clock-in-lib",
             "raw std::chrono clock read in library code; time through "
             "trace::Stopwatch or a trace::Span (common/trace.hpp)",
             out);
}

/// Flags `throw std::runtime_error(...)` / `throw std::logic_error(...)`
/// under src/: library code must throw the dsml taxonomy (InvalidArgument,
/// StateError, NumericalError, IoError, TrainingError from common/error.hpp)
/// so callers can catch by kind and failure summaries can classify via
/// error_kind(). common/error.hpp itself is exempt — DSML_ASSERT's
/// assert_fail deliberately raises a bare std::logic_error to mark internal
/// bugs as outside the recoverable taxonomy.
void rule_raw_std_throw(const std::string& file,
                        const std::string& normalized,
                        const SourceModel& model,
                        std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "src")) return;
  if (path_ends_with(normalized, "common/error.hpp")) return;
  static const std::regex kPattern(
      R"(\bthrow\s+(?:::)?std::(?:runtime_error|logic_error)\b)");
  scan_lines(file, model, kPattern, "raw-std-throw",
             "bare std::runtime_error/std::logic_error throw in library "
             "code; use the dsml error taxonomy (common/error.hpp)",
             out);
}

/// Flags direct `ml::load_model(...)` calls under tools/: the CLI must
/// resolve artifacts through engine::ModelRegistry (load_file /
/// register_model), which validates the model against its schema at
/// registration, versions reloads, and shares the loaded snapshot across
/// sessions. A direct load bypasses all three and reintroduces the
/// load-per-invocation cold start the engine layer exists to remove. The
/// engine itself (src/engine/registry.cpp) is the one sanctioned wrapper.
void rule_direct_model_load_in_tools(const std::string& file,
                                     const std::string& normalized,
                                     const SourceModel& model,
                                     std::vector<Diagnostic>* out) {
  if (!path_has_dir(normalized, "tools")) return;
  static const std::regex kPattern(R"(\b(?:ml\s*::\s*)?load_model\s*\()");
  scan_lines(file, model, kPattern, "direct-model-load-in-tools",
             "direct model artifact load in tools/; resolve models through "
             "engine::ModelRegistry (load_file/register_model) so schema "
             "validation and versioning apply",
             out);
}

// ---------------------------------------------------------------------------
// Suppression directives
// ---------------------------------------------------------------------------

/// Rules suppressed on each line, plus diagnostics for unknown rule names in
/// allow() lists (a typo would otherwise disable a check silently).
struct Suppressions {
  std::vector<std::pair<std::size_t, std::string>> allowed;  // line, rule
  std::vector<Diagnostic> unknown;
};

Suppressions parse_suppressions(const std::string& file,
                                const SourceModel& model) {
  static const std::regex kAllow(R"(dsml-lint:\s*allow\(([^)]*)\))");
  Suppressions sup;
  for (std::size_t i = 0; i < model.comment.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(model.comment[i], m, kAllow)) continue;
    std::istringstream list(m[1].str());
    std::string id;
    while (std::getline(list, id, ',')) {
      const auto begin = id.find_first_not_of(" \t");
      if (begin == std::string::npos) continue;
      const auto end = id.find_last_not_of(" \t");
      id = id.substr(begin, end - begin + 1);
      if (is_known_rule(id)) {
        sup.allowed.emplace_back(i + 1, id);
      } else {
        sup.unknown.push_back({file, i + 1, "unknown-allow",
                               "allow() names unknown rule '" + id + "'"});
      }
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Include and observability-name extraction (phase-2 inputs). These scan the
// raw view — the interesting part IS the string literal — but anchor on the
// code view so commented-out calls do not register.
// ---------------------------------------------------------------------------

void extract_includes(const SourceModel& model, FileModel* out) {
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  for (std::size_t i = 0; i < model.raw.size(); ++i) {
    std::smatch m;
    if (std::regex_search(model.raw[i], m, kInclude)) {
      // The '#' must survive in the code view (i.e. not be comment text).
      const auto hash = model.code[i].find('#');
      if (hash == std::string::npos) continue;
      out->includes.push_back({i + 1, m[1].str()});
    }
  }
}

void extract_names(const SourceModel& model, FileModel* out) {
  // Flatten raw and code views in lockstep so a call whose string literal
  // sits on the next line (clang-format splits long registrations) still
  // extracts. Only *pure literal* arguments register: a concatenated name
  // like `metrics::counter("failpoint." + name)` is dynamic and is skipped.
  std::string raw;
  std::string code;
  std::vector<std::size_t> line_of;
  for (std::size_t i = 0; i < model.raw.size(); ++i) {
    for (char c : model.raw[i]) {
      raw.push_back(c);
      line_of.push_back(i);
    }
    raw.push_back('\n');
    line_of.push_back(i);
    code.append(model.code[i]);
    code.push_back('\n');
  }

  struct Extractor {
    std::regex pattern;
    NameUse::Kind kind;
    int name_group;
  };
  static const std::vector<Extractor> kExtractors = {
      {std::regex(
           R"re(\bDSML_FAIL(?:_POISON)?\s*\(\s*"([^"]*)"\s*\))re"),
       NameUse::Kind::kFailpoint, 1},
      {std::regex(
           R"re(\bmetrics\s*::\s*(?:counter|gauge|histogram)\s*\(\s*"([^"]*)"\s*\))re"),
       NameUse::Kind::kMetric, 1},
      {std::regex(
           R"re(\btrace\s*::\s*Span\s+[A-Za-z_]\w*\s*\(\s*"([^"]*)"\s*[,)])re"),
       NameUse::Kind::kSpan, 1},
  };
  for (const Extractor& ex : kExtractors) {
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), ex.pattern);
         it != std::sregex_iterator(); ++it) {
      const auto pos = static_cast<std::size_t>(it->position());
      // Anchor check: the call prefix must be live code, not comment text.
      // Comparing the first few characters is enough — the code view blanks
      // only literal contents and comments.
      const std::size_t probe = std::min<std::size_t>(5, it->length());
      if (code.compare(pos, probe, raw, pos, probe) != 0) continue;
      out->names.push_back(
          {line_of[pos] + 1, ex.kind,
           (*it)[static_cast<std::size_t>(ex.name_group)].str()});
    }
  }
  std::sort(out->names.begin(), out->names.end(),
            [](const NameUse& a, const NameUse& b) {
              return std::tie(a.line, a.name) < std::tie(b.line, b.name);
            });
}

}  // namespace

const std::vector<PerFileRule>& per_file_rules() {
  static const std::vector<PerFileRule> kRules = {
      {"rand-source",
       "randomness outside common/rng.hpp (std::rand, srand, mt19937, "
       "random_device)",
       rule_rand_source},
      {"float-accum", "float anywhere in src/linalg or src/ml numeric code",
       rule_float_accum},
      {"intrinsics-outside-simd",
       "x86 vector intrinsics under src/ or tools/ outside src/linalg/simd/",
       rule_intrinsics_outside_simd},
      {"iostream-in-lib",
       "std::cout/std::cerr/printf in library code under src/",
       rule_iostream_in_lib},
      {"catch-all-swallow",
       "catch (...) that neither rethrows nor captures the exception",
       rule_catch_all_swallow},
      {"header-guard", "header without #pragma once", rule_header_guard},
      {"naked-new", "raw new/delete expression", rule_naked_new},
      {"matrix-elem-in-loop",
       "per-element Matrix operator() access inside src/ml loops",
       rule_matrix_elem_in_loop},
      {"raw-clock-in-lib",
       "raw std::chrono clock read under src/ outside the tracing layer",
       rule_raw_clock_in_lib},
      {"raw-std-throw",
       "bare std::runtime_error/logic_error throw under src/ outside "
       "common/error.hpp",
       rule_raw_std_throw},
      {"direct-model-load-in-tools",
       "direct ml model artifact load under tools/ bypassing "
       "engine::ModelRegistry",
       rule_direct_model_load_in_tools},
  };
  return kRules;
}

}  // namespace internal

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = [] {
    std::vector<RuleInfo> rules;
    for (const auto& r : internal::per_file_rules()) {
      rules.push_back({r.id, r.summary});
    }
    for (const auto& r : internal::project_rules()) {
      rules.push_back({r.id, r.summary});
    }
    rules.push_back(
        {"unknown-allow", "allow() directive naming an unknown rule"});
    return rules;
  }();
  return kRules;
}

bool is_known_rule(const std::string& id) {
  const auto& rules = rule_catalogue();
  return std::any_of(rules.begin(), rules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

FileModel build_file_model(const std::string& path,
                           const std::string& content) {
  const std::string normalized = internal::normalize(path);
  const internal::SourceModel model = internal::build_source_model(content);
  const internal::Suppressions sup =
      internal::parse_suppressions(path, model);

  FileModel file;
  file.path = path;
  file.content_hash = internal::fnv1a(content);
  file.allows = sup.allowed;

  std::vector<Diagnostic> found;
  for (const auto& rule : internal::per_file_rules()) {
    rule.check(path, normalized, model, &found);
  }
  const auto suppressed = [&](const Diagnostic& d) {
    return std::any_of(sup.allowed.begin(), sup.allowed.end(),
                       [&](const auto& a) {
                         return a.first == d.line && a.second == d.rule;
                       });
  };
  for (auto& d : found) {
    if (!suppressed(d)) file.diagnostics.push_back(std::move(d));
  }
  file.diagnostics.insert(file.diagnostics.end(), sup.unknown.begin(),
                          sup.unknown.end());
  std::sort(file.diagnostics.begin(), file.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });

  internal::extract_includes(model, &file);
  internal::extract_names(model, &file);
  return file;
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
  return build_file_model(path, content).diagnostics;
}

std::vector<Diagnostic> lint_file(const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw IoError("dsml-lint: cannot read '" + file.string() + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw IoError("dsml-lint: read failed for '" + file.string() + "'");
  }
  return lint_source(file.generic_string(), buffer.str());
}

}  // namespace dsml::lint
