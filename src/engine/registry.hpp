// Thread-safe registry of named, versioned fitted-model artifacts.
//
// The serving story needs models to be *loaded once and queried many times*:
// `dsml predict` used to reload its artifact from disk on every invocation,
// and nothing in the codebase could hold two models side by side. The
// registry owns immutable snapshots — `shared_ptr<const ModelEntry>` pairs
// of a fitted Regressor and the Schema it was trained on — keyed by caller
// chosen names. Registration validates the pair (the model must be fitted
// and must accept a schema-shaped probe row) and bumps a per-name version;
// re-registering a name atomically swaps the snapshot, so in-flight readers
// keep predicting against the entry they already resolved and simply see the
// new version on their next lookup. Readers never block writers for longer
// than a map find + two shared_ptr copies.
//
// Instrumentation follows the OBSERVABILITY.md discipline:
// `registry.registrations` / `registry.reloads` / `registry.lookups` /
// `registry.misses` / `registry.loads` counters and a trace span around
// artifact loads. ml::load_model is wrapped by load_file() — the only
// sanctioned path from tools/ (enforced by dsml-lint's
// `direct-model-load-in-tools` rule).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/schema.hpp"
#include "ml/model.hpp"

namespace dsml::engine {

/// An immutable registered artifact. Entries are shared snapshots: once
/// handed out they never change, even if the name is re-registered.
struct ModelEntry {
  std::string name;        ///< registry key
  std::uint64_t version;   ///< 1 on first registration, +1 per swap
  std::string source;      ///< provenance ("file:model.dsml", "trained", ...)
  std::shared_ptr<const ml::Regressor> model;
  Schema schema;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers (or replaces) `name`. The model must be fitted and must
  /// successfully predict a one-row probe dataset built from `schema` —
  /// a mismatched pair is rejected here, at registration, rather than
  /// producing garbage at request time. Returns the entry's version.
  /// Throws InvalidArgument on a null/unfitted model or a failed probe.
  std::uint64_t register_model(const std::string& name,
                               std::shared_ptr<const ml::Regressor> model,
                               Schema schema, std::string source = "");

  /// Loads an artifact from disk (via ml::serialize) and registers it.
  /// The sanctioned model-loading path for tools/.
  std::uint64_t load_file(const std::string& name, const std::string& path,
                          Schema schema);

  /// Serializes `name`'s current entry — model weights *and* the schema it
  /// was trained on — into one self-describing text blob, the payload a
  /// fleet coordinator ships to workers. Throws StateError when the name is
  /// not registered.
  std::string serialize_entry(const std::string& name) const;

  /// Registers a blob produced by serialize_entry under `name`, with the
  /// full register_model validation and atomic-swap semantics: in-flight
  /// readers keep the snapshot they already resolved, the next lookup sees
  /// the new version. Throws IoError on a malformed blob. Returns the new
  /// version.
  std::uint64_t register_snapshot(const std::string& name,
                                  const std::string& blob,
                                  std::string source = "snapshot");

  /// Snapshot lookup; throws StateError when `name` is not registered.
  std::shared_ptr<const ModelEntry> get(const std::string& name) const;

  /// Snapshot lookup; nullptr when `name` is not registered.
  std::shared_ptr<const ModelEntry> find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const;

  /// Drops every entry (snapshots already handed out stay alive).
  void clear();

  /// Process-wide instance shared by the CLI subcommands.
  static ModelRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const ModelEntry>> entries_;
};

}  // namespace dsml::engine
