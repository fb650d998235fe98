// Phase 2 of dsml-lint: the cross-translation-unit analyzer. Builds a
// ProjectModel from the phase-1 FileModels plus the project's declared
// configuration (tools/lint/layers.def, docs/registries/*.txt,
// tests/CMakeLists.txt) and runs the whole-tree rules over it.
#include <algorithm>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "lint/internal.hpp"

namespace dsml::lint {

namespace internal {

namespace {

namespace fs = std::filesystem;

std::string generic(const fs::path& p) { return p.generic_string(); }

std::string read_text_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw IoError("dsml-lint: cannot read '" + file.string() + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw IoError("dsml-lint: read failed for '" + file.string() + "'");
  }
  return buffer.str();
}

bool starts_with_dir(const std::string& rel, const std::string& dir) {
  return rel.rfind(dir + "/", 0) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// layers.def
// ---------------------------------------------------------------------------

const LayerConfig::Layer* LayerConfig::layer_of(
    const std::string& rel_path) const {
  const Layer* best = nullptr;
  std::size_t best_len = 0;
  for (const Layer& layer : layers) {
    for (const std::string& dir : layer.dirs) {
      if (starts_with_dir(rel_path, dir) && dir.size() >= best_len) {
        best = &layer;
        best_len = dir.size();
      }
    }
  }
  return best;
}

const LayerConfig::Layer* LayerConfig::find(const std::string& name) const {
  for (const Layer& layer : layers) {
    if (layer.name == name) return &layer;
  }
  return nullptr;
}

/// Grammar, one declaration per line (# starts a comment):
///
///   layer <name> <dir> [<dir>...] [: <dep> [<dep>...]]
///
/// A layer may only depend on layers declared on EARLIER lines, which makes
/// the configuration acyclic by construction; the stored dependency set is
/// the transitive closure, so an edge into any (possibly indirect)
/// dependency is legal and everything else is a back-edge.
LayerConfig parse_layer_config(const fs::path& file) {
  LayerConfig config;
  std::istringstream in(read_text_file(file));
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word)) continue;  // blank
    const auto fail = [&](const std::string& what) -> IoError {
      return IoError("dsml-lint: " + file.string() + ":" +
                     std::to_string(line_no) + ": " + what);
    };
    if (word != "layer") throw fail("expected 'layer', got '" + word + "'");
    LayerConfig::Layer layer;
    if (!(tokens >> layer.name)) throw fail("layer without a name");
    if (config.find(layer.name) != nullptr) {
      throw fail("duplicate layer '" + layer.name + "'");
    }
    bool in_deps = false;
    std::set<std::string> closure;
    while (tokens >> word) {
      if (word == ":") {
        in_deps = true;
        continue;
      }
      if (!in_deps) {
        layer.dirs.push_back(word);
        continue;
      }
      const LayerConfig::Layer* dep = config.find(word);
      if (dep == nullptr) {
        throw fail("layer '" + layer.name + "' depends on '" + word +
                   "', which is not declared above it (dependencies must be "
                   "declared first, so the DAG stays acyclic)");
      }
      closure.insert(dep->name);
      closure.insert(dep->deps.begin(), dep->deps.end());
    }
    if (layer.dirs.empty()) {
      throw fail("layer '" + layer.name + "' maps no directories");
    }
    layer.deps.assign(closure.begin(), closure.end());
    config.layers.push_back(std::move(layer));
  }
  if (config.layers.empty()) {
    throw IoError("dsml-lint: " + file.string() + " declares no layers");
  }
  config.loaded = true;
  return config;
}

// ---------------------------------------------------------------------------
// Registries and test labels
// ---------------------------------------------------------------------------

Registry load_registry(const fs::path& file) {
  Registry registry;
  std::error_code ec;
  if (!fs::exists(file, ec) || ec) return registry;
  std::istringstream in(read_text_file(file));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const auto end = line.find_last_not_of(" \t");
    registry.names.insert(line.substr(begin, end - begin + 1));
  }
  registry.present = true;
  return registry;
}

TestLabels parse_test_labels(const fs::path& cmake_lists) {
  TestLabels labels;
  std::error_code ec;
  if (!fs::exists(cmake_lists, ec) || ec) return labels;
  std::string text = read_text_file(cmake_lists);
  // Strip CMake comments so a commented-out dsml_test() does not register.
  static const std::regex kComment(R"(#[^\n]*)");
  text = std::regex_replace(text, kComment, "");
  static const std::regex kTest(R"(dsml_test\s*\(\s*([A-Za-z0-9_]+)([^)]*)\))");
  static const std::regex kTsan(R"(\bLABELS\b[\s\S]*\btsan\b)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kTest);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    const std::string args = (*it)[2].str();
    labels.tsan_labelled["tests/" + name + ".cpp"] =
        std::regex_search(args, kTsan);
  }
  labels.present = true;
  return labels;
}

// ---------------------------------------------------------------------------
// Include resolution and the project model
// ---------------------------------------------------------------------------

std::string resolve_include(const fs::path& root,
                            const std::string& includer_rel,
                            const std::string& target) {
  std::vector<fs::path> candidates;
  const fs::path includer_dir = fs::path(includer_rel).parent_path();
  candidates.push_back((includer_dir / target).lexically_normal());
  candidates.push_back((fs::path("src") / target).lexically_normal());
  candidates.push_back((fs::path("tools") / target).lexically_normal());
  candidates.push_back(fs::path(target).lexically_normal());
  for (const fs::path& rel : candidates) {
    const std::string rel_str = generic(rel);
    if (rel_str.empty() || rel_str[0] == '/' ||
        rel_str.rfind("..", 0) == 0) {
      continue;  // escaped the project root
    }
    std::error_code ec;
    if (fs::is_regular_file(root / rel, ec) && !ec) return rel_str;
  }
  return {};
}

ProjectModel build_project_model(const fs::path& root,
                                 std::vector<FileModel> files) {
  ProjectModel project;
  project.root = root;
  if (!root.empty()) {
    const fs::path layers = root / "tools" / "lint" / "layers.def";
    std::error_code ec;
    if (fs::exists(layers, ec) && !ec) {
      project.layers = parse_layer_config(layers);
    }
    project.failpoints =
        load_registry(root / "docs" / "registries" / "failpoints.txt");
    project.metrics =
        load_registry(root / "docs" / "registries" / "metrics.txt");
    project.spans = load_registry(root / "docs" / "registries" / "spans.txt");
    project.test_labels =
        parse_test_labels(root / "tests" / "CMakeLists.txt");
  }

  // Root-relative lexical paths; files outside the root keep their own
  // (normalized) spelling and simply match no layer/registry scope.
  const fs::path root_abs =
      root.empty() ? fs::path() : fs::absolute(root).lexically_normal();
  std::vector<std::pair<std::string, FileModel>> keyed;
  keyed.reserve(files.size());
  for (FileModel& file : files) {
    const fs::path abs = fs::absolute(file.path).lexically_normal();
    std::string rel = generic(abs);
    if (!root.empty()) {
      const std::string prefix = generic(root_abs) + "/";
      if (rel.rfind(prefix, 0) == 0) {
        rel = rel.substr(prefix.size());
      } else {
        rel = generic(fs::path(file.path).lexically_normal());
      }
    }
    keyed.emplace_back(std::move(rel), std::move(file));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [rel, file] : keyed) {
    project.rel.push_back(std::move(rel));
    project.files.push_back(std::move(file));
  }

  if (!root.empty()) {
    for (std::size_t i = 0; i < project.files.size(); ++i) {
      for (const IncludeRef& inc : project.files[i].includes) {
        std::string target =
            resolve_include(root, project.rel[i], inc.target);
        if (target.empty()) continue;
        project.edges.push_back({i, inc.line, std::move(target)});
      }
    }
  }
  return project;
}

// ---------------------------------------------------------------------------
// Cross-TU rules
// ---------------------------------------------------------------------------

namespace {

/// Back-edges against the declared layer DAG, plus include cycles among the
/// scanned files (a cycle inside one layer is still a layering bug: the
/// participating headers cannot be ordered).
void rule_layer_violation(const ProjectModel& project,
                          std::vector<Diagnostic>* out) {
  if (!project.layers.loaded) return;
  for (const ProjectModel::Edge& edge : project.edges) {
    const auto* from = project.layers.layer_of(project.rel[edge.file_index]);
    const auto* to = project.layers.layer_of(edge.target_rel);
    if (from == nullptr || to == nullptr || from == to) continue;
    if (std::binary_search(from->deps.begin(), from->deps.end(), to->name)) {
      continue;
    }
    out->push_back(
        {project.files[edge.file_index].path, edge.line, "layer-violation",
         "layer '" + from->name + "' must not include '" + edge.target_rel +
             "' (layer '" + to->name +
             "'): back-edge in the layer DAG (tools/lint/layers.def)"});
  }

  // Cycle detection over the scanned subset: iterative three-colour DFS.
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < project.rel.size(); ++i) {
    index_of[project.rel[i]] = i;
  }
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adjacent(
      project.files.size());  // (neighbour index, include line)
  for (const ProjectModel::Edge& edge : project.edges) {
    const auto it = index_of.find(edge.target_rel);
    if (it == index_of.end() || it->second == edge.file_index) continue;
    adjacent[edge.file_index].emplace_back(it->second, edge.line);
  }
  enum : unsigned char { kWhite, kGray, kBlack };
  std::vector<unsigned char> colour(project.files.size(), kWhite);
  std::set<std::vector<std::size_t>> seen_cycles;
  for (std::size_t start = 0; start < project.files.size(); ++start) {
    if (colour[start] != kWhite) continue;
    // Stack of (node, next-neighbour cursor); `path` mirrors the gray chain.
    std::vector<std::pair<std::size_t, std::size_t>> stack{{start, 0}};
    std::vector<std::size_t> path{start};
    colour[start] = kGray;
    while (!stack.empty()) {
      auto& [node, cursor] = stack.back();
      if (cursor < adjacent[node].size()) {
        const auto [next, line] = adjacent[node][cursor++];
        if (colour[next] == kGray) {
          const auto begin =
              std::find(path.begin(), path.end(), next) - path.begin();
          std::vector<std::size_t> cycle(path.begin() + begin, path.end());
          // Canonicalise: rotate the smallest member to the front so each
          // cycle reports exactly once however it was entered.
          const auto smallest =
              std::min_element(cycle.begin(), cycle.end(),
                               [&](std::size_t a, std::size_t b) {
                                 return project.rel[a] < project.rel[b];
                               });
          std::rotate(cycle.begin(), smallest, cycle.end());
          if (seen_cycles.insert(cycle).second) {
            std::string chain = project.rel[cycle.front()];
            for (std::size_t i = 1; i < cycle.size(); ++i) {
              chain += " -> " + project.rel[cycle[i]];
            }
            chain += " -> " + project.rel[cycle.front()];
            out->push_back({project.files[cycle.front()].path, 1,
                            "layer-violation", "include cycle: " + chain});
          }
        } else if (colour[next] == kWhite) {
          colour[next] = kGray;
          stack.emplace_back(next, 0);
          path.push_back(next);
        }
      } else {
        colour[node] = kBlack;
        stack.pop_back();
        path.pop_back();
      }
    }
  }
}

bool in_library_scope(const std::string& rel) {
  return starts_with_dir(rel, "src") || starts_with_dir(rel, "tools");
}

void rule_unregistered_failpoint(const ProjectModel& project,
                                 std::vector<Diagnostic>* out) {
  if (!project.failpoints.present) return;
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    if (!in_library_scope(project.rel[i])) continue;
    for (const NameUse& use : project.files[i].names) {
      if (use.kind != NameUse::Kind::kFailpoint) continue;
      if (project.failpoints.names.count(use.name) != 0) continue;
      out->push_back(
          {project.files[i].path, use.line, "unregistered-failpoint",
           "failpoint '" + use.name +
               "' is not in docs/registries/failpoints.txt — a typo'd name "
               "silently never fires; fix it or run `dsml lint "
               "--update-registries` and commit the manifest"});
    }
  }
}

void rule_unregistered_metric(const ProjectModel& project,
                              std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    if (!in_library_scope(project.rel[i])) continue;
    for (const NameUse& use : project.files[i].names) {
      if (use.kind == NameUse::Kind::kMetric && project.metrics.present &&
          project.metrics.names.count(use.name) == 0) {
        out->push_back(
            {project.files[i].path, use.line, "unregistered-metric",
             "metric '" + use.name +
                 "' is not in docs/registries/metrics.txt — an undocumented "
                 "counter is invisible to dashboards; fix the name or run "
                 "`dsml lint --update-registries` and commit the manifest"});
      } else if (use.kind == NameUse::Kind::kSpan && project.spans.present &&
                 project.spans.names.count(use.name) == 0) {
        out->push_back(
            {project.files[i].path, use.line, "unregistered-metric",
             "trace span '" + use.name +
                 "' is not in docs/registries/spans.txt — fix the name or "
                 "run `dsml lint --update-registries` and commit the "
                 "manifest"});
      }
    }
  }
}

/// Tests that exercise the thread pool or a shared inference session run
/// real cross-thread interleavings; without the `tsan` ctest label they
/// never run under ThreadSanitizer, so a data race ships silently.
void rule_missing_tsan_label(const ProjectModel& project,
                             std::vector<Diagnostic>* out) {
  if (!project.test_labels.present) return;
  static const std::vector<std::string> kConcurrencyHeaders = {
      "common/thread_pool.hpp", "engine/session.hpp"};
  for (std::size_t i = 0; i < project.files.size(); ++i) {
    const auto it = project.test_labels.tsan_labelled.find(project.rel[i]);
    if (it == project.test_labels.tsan_labelled.end() || it->second) {
      continue;
    }
    for (const IncludeRef& inc : project.files[i].includes) {
      if (std::find(kConcurrencyHeaders.begin(), kConcurrencyHeaders.end(),
                    inc.target) == kConcurrencyHeaders.end()) {
        continue;
      }
      out->push_back(
          {project.files[i].path, inc.line, "missing-tsan-label",
           "test includes " + inc.target + " but its dsml_test() entry in "
           "tests/CMakeLists.txt lacks the tsan ctest label, so it never "
           "runs under ThreadSanitizer"});
    }
  }
}

}  // namespace

const std::vector<ProjectRule>& project_rules() {
  static const std::vector<ProjectRule> kRules = {
      {"layer-violation",
       "#include back-edge or cycle against the layer DAG "
       "(tools/lint/layers.def)",
       rule_layer_violation},
      {"unregistered-failpoint",
       "string-literal failpoint name missing from "
       "docs/registries/failpoints.txt",
       rule_unregistered_failpoint},
      {"unregistered-metric",
       "metric or trace-span name missing from docs/registries/"
       "{metrics,spans}.txt",
       rule_unregistered_metric},
      {"missing-tsan-label",
       "test includes thread_pool.hpp or engine/session.hpp without the "
       "tsan ctest label",
       rule_missing_tsan_label},
  };
  return kRules;
}

std::vector<Diagnostic> run_project_rules(const ProjectModel& project) {
  std::vector<Diagnostic> found;
  for (const ProjectRule& rule : project_rules()) {
    rule.check(project, &found);
  }
  // Honour the same inline allow() directives the per-file phase uses.
  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& file : project.files) by_path[file.path] = &file;
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : found) {
    const auto it = by_path.find(d.file);
    if (it != by_path.end()) {
      const auto& allows = it->second->allows;
      const bool suppressed = std::any_of(
          allows.begin(), allows.end(), [&](const auto& a) {
            return a.first == d.line && a.second == d.rule;
          });
      if (suppressed) continue;
    }
    kept.push_back(std::move(d));
  }
  return kept;
}

}  // namespace internal

std::filesystem::path find_project_root(const std::filesystem::path& start) {
  std::error_code ec;
  std::filesystem::path dir =
      std::filesystem::absolute(start, ec).lexically_normal();
  if (ec) return {};
  for (int depth = 0; depth < 32 && !dir.empty(); ++depth) {
    if (std::filesystem::exists(dir / "tools" / "lint" / "layers.def", ec) &&
        !ec) {
      return dir;
    }
    const std::filesystem::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return {};
}

}  // namespace dsml::lint
