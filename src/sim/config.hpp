// The micro-architectural configuration space of the paper's Table 1.
//
// Table 1 lists 24 parameters. The raw cross product of the listed values is
// larger than the 4608 configurations the paper reports, so the authors must
// have varied some parameters jointly; we tie the parameters that are
// naturally co-designed — RUU size with LSQ size and the TLB pair (queue /
// translation resources scale with the core), the functional-unit mix with
// the pipeline width (as the 4/2/2/4/2 vs 8/4/4/8/4 notation suggests), the
// L1 line size across I and D caches, and the L3 triple (size/line/assoc are
// either all "absent" or all "present") — which lands exactly on
// 3·3·2·4·2·4·2·2·2 = 4608 points while every one of the 24 parameters still
// varies across the space. The ties are recorded in DESIGN.md.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace dsml::sim {

enum class BranchPredictorKind : std::uint8_t {
  kPerfect,
  kBimodal,
  kTwoLevel,
  kCombination,
};

const char* to_string(BranchPredictorKind kind) noexcept;

/// Functional-unit counts (SimpleScalar's res: parameters).
struct FunctionalUnitMix {
  int ialu = 4;
  int imult = 2;
  int memport = 2;
  int fpalu = 4;
  int fpmult = 2;

  bool operator==(const FunctionalUnitMix&) const = default;
  std::string to_string() const;  ///< "4/2/2/4/2"
};

/// The fields the simulator's functional pass reads: cache geometry, branch
/// predictor kind, and whether mispredicts touch the wrong path. validate()
/// pins every other cache field, and a perfect predictor never mispredicts,
/// so its key ignores issue_wrong. Configurations with equal keys see the
/// same cache, TLB and predictor outcomes in trace order; width, RUU/LSQ,
/// TLB reach and FU mix only change how those outcomes are timed.
struct FunctionalKey {
  int l1d_size_kb = 0;
  int l1d_line_b = 0;
  int l1i_size_kb = 0;
  int l1i_line_b = 0;
  int l2_size_kb = 0;
  int l2_assoc = 0;
  int l3_size_mb = 0;
  BranchPredictorKind branch_predictor = BranchPredictorKind::kPerfect;
  bool issue_wrong = false;

  auto operator<=>(const FunctionalKey&) const = default;
};

/// One point of the design space: every Table-1 parameter, in natural units.
struct ProcessorConfig {
  // L1 data cache
  int l1d_size_kb = 32;
  int l1d_line_b = 32;
  int l1d_assoc = 4;
  // L1 instruction cache
  int l1i_size_kb = 32;
  int l1i_line_b = 32;
  int l1i_assoc = 4;
  // L2 (unified)
  int l2_size_kb = 256;
  int l2_line_b = 128;
  int l2_assoc = 4;
  // L3 (optional: size 0 disables, matching Table 1's 0-valued rows)
  int l3_size_mb = 0;
  int l3_line_b = 0;
  int l3_assoc = 0;
  // Front end / core
  BranchPredictorKind branch_predictor = BranchPredictorKind::kBimodal;
  int width = 4;          ///< decode = issue = commit width
  bool issue_wrong = false;  ///< issue wrong-path instructions after branches
  int ruu_size = 128;     ///< register update unit (instruction window)
  int lsq_size = 64;      ///< load/store queue
  int itlb_size_kb = 256;  ///< ITLB reach in KB (entries = reach / page size)
  int dtlb_size_kb = 512;  ///< DTLB reach in KB
  FunctionalUnitMix fu;

  bool has_l3() const noexcept { return l3_size_mb > 0; }

  bool operator==(const ProcessorConfig&) const = default;

  /// The functional pass's share of this configuration (see FunctionalKey).
  FunctionalKey functional_key() const noexcept;

  /// Validates parameter values against Table 1's menus; throws
  /// InvalidArgument on violations.
  void validate() const;

  /// Compact unique identifier, stable across runs — used as the simulation
  /// cache key component.
  std::string key() const;
};

/// All 4608 configurations of the paper's microprocessor study, in a stable
/// deterministic order.
std::vector<ProcessorConfig> enumerate_design_space();

/// Number of points in the full space (= enumerate_design_space().size()).
constexpr std::size_t kDesignSpaceSize = 4608;

/// Builds the 24-feature dataset rows for a set of configurations (paper's
/// model inputs). The target column is supplied by the caller (simulated
/// cycle counts).
data::Dataset make_config_dataset(const std::vector<ProcessorConfig>& configs,
                                  std::vector<double> cycles = {});

}  // namespace dsml::sim
