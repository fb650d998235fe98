#include "common/failpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace dsml::failpoint {

namespace internal {

std::atomic<bool> g_enabled{false};

namespace {

enum class Trigger { kNth, kProb, kAlways };

enum class ErrorType {
  kNumerical,
  kIo,
  kInvalidArgument,
  kState,
  kTraining,
};

struct Point {
  Trigger trigger = Trigger::kAlways;
  ErrorType error = ErrorType::kNumerical;
  std::uint64_t nth = 1;        // kNth: 1-based hit index that fires
  double probability = 0.0;     // kProb
  std::uint64_t seed = 0;       // kProb
  std::uint64_t hit_count = 0;
  metrics::Counter* hits = nullptr;
  metrics::Counter* fires = nullptr;
};

/// Armed points plus the spec that produced them (for ScopedFailpoints
/// save/restore). One mutex: firing sites are coarse, contention is nil, and
/// a single lock keeps concurrent hits trivially TSan-clean.
struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, Point> points;
  std::vector<std::string> order;  ///< names in spec order, for armed()
  std::string spec;
};

Registry& registry() {
  // Leaked on purpose (never destroyed), like the tracer: pool workers may
  // still evaluate failpoint::enabled() during static destruction.
  static Registry* r = new Registry;  // dsml-lint: allow(naked-new)
  return *r;
}

ErrorType parse_error_type(const std::string& name, const std::string& spec) {
  if (name == "NumericalError") return ErrorType::kNumerical;
  if (name == "IoError") return ErrorType::kIo;
  if (name == "InvalidArgument") return ErrorType::kInvalidArgument;
  if (name == "StateError") return ErrorType::kState;
  if (name == "TrainingError") return ErrorType::kTraining;
  throw InvalidArgument(
      "failpoints: unknown error type '" + name + "' in '" + spec +
      "' (NumericalError|IoError|InvalidArgument|StateError|TrainingError)");
}

std::uint64_t parse_count(const std::string& text, const std::string& spec) {
  try {
    return strings::parse_u64(text);
  } catch (const IoError&) {
    throw InvalidArgument("failpoints: bad integer '" + text + "' in '" +
                          spec + "'");
  }
}

double parse_probability(const std::string& text, const std::string& spec) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' ||
      !(v >= 0.0 && v <= 1.0)) {
    throw InvalidArgument("failpoints: probability must be in [0,1], got '" +
                          text + "' in '" + spec + "'");
  }
  return v;
}

Point parse_trigger(const std::string& trigger, const std::string& entry) {
  Point p;
  if (trigger.rfind("nth:", 0) == 0) {
    p.trigger = Trigger::kNth;
    p.nth = parse_count(trigger.substr(4), entry);
    if (p.nth == 0) {
      throw InvalidArgument("failpoints: nth index must be >= 1 in '" +
                            entry + "'");
    }
    return p;
  }
  if (trigger.rfind("prob:", 0) == 0) {
    const std::string rest = trigger.substr(5);
    const auto at = rest.find('@');
    if (at == std::string::npos) {
      throw InvalidArgument(
          "failpoints: prob trigger needs a seed (prob:P@SEED) in '" + entry +
          "'");
    }
    p.trigger = Trigger::kProb;
    p.probability = parse_probability(rest.substr(0, at), entry);
    p.seed = parse_count(rest.substr(at + 1), entry);
    return p;
  }
  if (trigger.rfind("err:", 0) == 0) {
    p.trigger = Trigger::kAlways;
    p.error = parse_error_type(trigger.substr(4), entry);
    return p;
  }
  throw InvalidArgument("failpoints: unknown trigger '" + trigger + "' in '" +
                        entry + "' (nth:N|prob:P@SEED|err:Type)");
}

struct ParsedSpec {
  std::unordered_map<std::string, Point> points;
  std::vector<std::string> order;
};

ParsedSpec parse_spec(const std::string& spec) {
  ParsedSpec parsed;
  for (const auto& part : strings::split(spec, ',')) {
    const std::string entry(strings::trim(part));
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InvalidArgument("failpoints: expected name=trigger, got '" +
                            entry + "'");
    }
    const std::string name(strings::trim(entry.substr(0, eq)));
    Point p = parse_trigger(std::string(strings::trim(entry.substr(eq + 1))),
                            entry);
    p.hits = &metrics::counter("failpoint." + name + ".hits");
    p.fires = &metrics::counter("failpoint." + name + ".fires");
    if (parsed.points.emplace(name, std::move(p)).second) {
      parsed.order.push_back(name);
    } else {
      throw InvalidArgument("failpoints: duplicate name '" + name + "'");
    }
  }
  return parsed;
}

/// Whether this hit (1-based index) of `p` fires. Deterministic: the prob
/// trigger hashes (seed, hit index) instead of consuming any RNG stream, so
/// arming a failpoint never perturbs library results until it actually fires.
bool trigger_fires(const Point& p, std::uint64_t hit_index) {
  switch (p.trigger) {
    case Trigger::kNth:
      return hit_index == p.nth;
    case Trigger::kProb: {
      std::uint64_t state = p.seed ^ (hit_index * 0x9e3779b97f4a7c15ULL);
      const double u =
          static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
      return u < p.probability;
    }
    case Trigger::kAlways:
      return true;
  }
  return false;
}

[[noreturn]] void throw_configured(const Point& p, const char* name) {
  const std::string message =
      std::string("failpoint '") + name + "' fired";
  switch (p.error) {
    case ErrorType::kNumerical: throw NumericalError(message);
    case ErrorType::kIo: throw IoError(message);
    case ErrorType::kInvalidArgument: throw InvalidArgument(message);
    case ErrorType::kState: throw StateError(message);
    case ErrorType::kTraining: throw TrainingError("failpoint", name, "fired");
  }
  throw NumericalError(message);
}

/// Shared hit path; returns whether the trigger fired.
bool record_hit(const char* name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  const auto it = r.points.find(name);
  if (it == r.points.end()) return false;
  Point& p = it->second;
  p.hits->add();
  const bool fired = trigger_fires(p, ++p.hit_count);
  if (fired) p.fires->add();
  return fired;
}

}  // namespace

void hit(const char* name) {
  if (!record_hit(name)) return;
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  throw_configured(r.points.at(name), name);
}

bool hit_poison(const char* name) { return record_hit(name); }

namespace {

/// DSML_FAILPOINTS arms the process before main(). A malformed spec must not
/// terminate pre-main, so it is reported on stderr (via cstdio: library code
/// may not touch std::cerr) and the layer stays disarmed.
const bool g_env_armed = [] {
  if (const char* spec = std::getenv("DSML_FAILPOINTS"); spec && *spec) {
    try {
      configure(spec);
      return true;
    } catch (const std::exception& e) {
      std::fputs(e.what(), stderr);
      std::fputs("\n", stderr);
    }
  }
  return false;
}();

}  // namespace

}  // namespace internal

void configure(const std::string& spec) {
  auto parsed = internal::parse_spec(spec);  // throws before any state change
  internal::Registry& r = internal::registry();
  std::lock_guard lock(r.mutex);
  r.points = std::move(parsed.points);
  r.order = std::move(parsed.order);
  r.spec = spec;
  internal::g_enabled.store(!r.points.empty(), std::memory_order_relaxed);
}

void clear() { configure(""); }

std::vector<std::string> armed() {
  internal::Registry& r = internal::registry();
  std::lock_guard lock(r.mutex);
  return r.order;
}

std::uint64_t hits(const std::string& name) {
  internal::Registry& r = internal::registry();
  std::lock_guard lock(r.mutex);
  const auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.hit_count;
}

ScopedFailpoints::ScopedFailpoints(const std::string& spec) {
  {
    internal::Registry& r = internal::registry();
    std::lock_guard lock(r.mutex);
    previous_ = r.spec;
  }
  configure(spec);
}

ScopedFailpoints::~ScopedFailpoints() {
  try {
    configure(previous_);
  } catch (const std::exception&) {
    // The previous spec parsed once, so this cannot throw in practice; a
    // destructor must not propagate regardless.
    clear();
  }
}

}  // namespace dsml::failpoint
