#include "engine/registry.hpp"

#include <sstream>
#include <utility>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/trace.hpp"
#include "ml/serialize.hpp"

namespace dsml::engine {

namespace {

struct RegistryMetrics {
  metrics::Counter& registrations = metrics::counter("registry.registrations");
  metrics::Counter& reloads = metrics::counter("registry.reloads");
  metrics::Counter& lookups = metrics::counter("registry.lookups");
  metrics::Counter& misses = metrics::counter("registry.misses");
  metrics::Counter& loads = metrics::counter("registry.loads");
  metrics::Counter& snapshot_loads =
      metrics::counter("registry.snapshot_loads");
};

RegistryMetrics& registry_metrics() {
  static RegistryMetrics m;
  return m;
}

}  // namespace

std::uint64_t ModelRegistry::register_model(
    const std::string& name, std::shared_ptr<const ml::Regressor> model,
    Schema schema, std::string source) {
  DSML_REQUIRE(!name.empty(), "ModelRegistry: empty model name");
  DSML_REQUIRE(model != nullptr, "ModelRegistry: null model for '" + name +
                                     "'");
  DSML_REQUIRE(model->fitted(),
               "ModelRegistry: model for '" + name + "' is not fitted");
  trace::Span span([&] { return "registry.register " + name; }, "engine");
  // Probe outside the lock: a model/schema pair that cannot score one
  // schema-shaped row would serve garbage (the Encoder resolves columns by
  // position), so the mismatch is rejected before the entry becomes visible.
  const data::Dataset probe = schema.probe_row();
  try {
    const std::vector<double> out = model->predict(probe);
    DSML_REQUIRE(out.size() == 1,
                 "ModelRegistry: probe produced " +
                     std::to_string(out.size()) + " predictions for one row");
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception& e) {
    throw InvalidArgument("ModelRegistry: model '" + name +
                          "' rejects its declared schema (" +
                          schema.describe() + "): " + e.what());
  }

  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->source = std::move(source);
  entry->model = std::move(model);
  entry->schema = std::move(schema);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  entry->version = (it == entries_.end()) ? 1 : it->second->version + 1;
  if (it == entries_.end()) {
    entries_.emplace(name, entry);
  } else {
    registry_metrics().reloads.add();
    it->second = entry;  // atomic swap: old snapshot stays valid for holders
  }
  registry_metrics().registrations.add();
  return entry->version;
}

std::uint64_t ModelRegistry::load_file(const std::string& name,
                                       const std::string& path,
                                       Schema schema) {
  trace::Span span([&] { return "registry.load " + path; }, "engine");
  registry_metrics().loads.add();
  DSML_FAIL("engine.registry.load");
  std::shared_ptr<const ml::Regressor> model = ml::load_model(path);
  return register_model(name, std::move(model), std::move(schema),
                        "file:" + path);
}

std::string ModelRegistry::serialize_entry(const std::string& name) const {
  const std::shared_ptr<const ModelEntry> entry = get(name);
  trace::Span span([&] { return "registry.snapshot " + name; }, "engine");
  std::ostringstream out;
  serial::Writer w(out);
  w.tag("registry-snapshot");
  w.u64(1);  // snapshot format version
  const std::vector<SchemaColumn>& columns = entry->schema.columns();
  w.u64(columns.size());
  for (const SchemaColumn& c : columns) {
    w.str(c.name);
    w.u64(static_cast<std::uint64_t>(c.kind));
    w.boolean(c.ordered);
    w.u64(c.levels.size());
    for (const std::string& level : c.levels) w.str(level);
  }
  w.tag("model");
  ml::save_model(*entry->model, out);
  return out.str();
}

std::uint64_t ModelRegistry::register_snapshot(const std::string& name,
                                               const std::string& blob,
                                               std::string source) {
  trace::Span span([&] { return "registry.snapshot.load " + name; }, "engine");
  registry_metrics().snapshot_loads.add();
  DSML_FAIL("engine.registry.snapshot");
  std::istringstream in(blob);
  serial::Reader r(in);
  r.expect_tag("registry-snapshot");
  const std::uint64_t format = r.u64();
  if (format != 1) {
    throw IoError("ModelRegistry: unsupported snapshot format version " +
                  std::to_string(format));
  }
  const std::uint64_t n_columns = r.u64();
  std::vector<SchemaColumn> columns;
  columns.reserve(n_columns);
  for (std::uint64_t i = 0; i < n_columns; ++i) {
    SchemaColumn c;
    c.name = r.str();
    const std::uint64_t kind = r.u64();
    if (kind > static_cast<std::uint64_t>(data::ColumnKind::kCategorical)) {
      throw IoError("ModelRegistry: snapshot column '" + c.name +
                    "' has unknown kind " + std::to_string(kind));
    }
    c.kind = static_cast<data::ColumnKind>(kind);
    c.ordered = r.boolean();
    const std::uint64_t n_levels = r.u64();
    c.levels.reserve(n_levels);
    for (std::uint64_t j = 0; j < n_levels; ++j) c.levels.push_back(r.str());
    columns.push_back(std::move(c));
  }
  r.expect_tag("model");
  std::shared_ptr<const ml::Regressor> model = ml::load_model(in);
  return register_model(name, std::move(model),
                        Schema::from_columns(std::move(columns)),
                        std::move(source));
}

std::shared_ptr<const ModelEntry> ModelRegistry::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  registry_metrics().lookups.add();
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    registry_metrics().misses.add();
    return nullptr;
  }
  return it->second;
}

std::shared_ptr<const ModelEntry> ModelRegistry::get(
    const std::string& name) const {
  auto entry = find(name);
  if (entry == nullptr) {
    throw StateError("ModelRegistry: no model registered as '" + name + "'");
  }
  return entry;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ModelRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

ModelRegistry& ModelRegistry::global() {
  static ModelRegistry registry;
  return registry;
}

}  // namespace dsml::engine
