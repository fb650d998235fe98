#include "sim/config.hpp"

#include <array>
#include <sstream>

#include "common/error.hpp"

namespace dsml::sim {

const char* to_string(BranchPredictorKind kind) noexcept {
  switch (kind) {
    case BranchPredictorKind::kPerfect: return "perfect";
    case BranchPredictorKind::kBimodal: return "bimodal";
    case BranchPredictorKind::kTwoLevel: return "2-level";
    case BranchPredictorKind::kCombination: return "combination";
  }
  return "?";
}

std::string FunctionalUnitMix::to_string() const {
  std::ostringstream os;
  os << ialu << '/' << imult << '/' << memport << '/' << fpalu << '/'
     << fpmult;
  return os.str();
}

namespace {

template <typename T, std::size_t N>
bool one_of(T value, const std::array<T, N>& menu) {
  for (const T& m : menu) {
    if (value == m) return true;
  }
  return false;
}

}  // namespace

void ProcessorConfig::validate() const {
  DSML_REQUIRE(one_of(l1d_size_kb, std::array{16, 32, 64}),
               "config: l1d_size_kb must be 16/32/64");
  DSML_REQUIRE(one_of(l1d_line_b, std::array{32, 64}),
               "config: l1d_line_b must be 32/64");
  DSML_REQUIRE(l1d_assoc == 4, "config: l1d_assoc must be 4");
  DSML_REQUIRE(one_of(l1i_size_kb, std::array{16, 32, 64}),
               "config: l1i_size_kb must be 16/32/64");
  DSML_REQUIRE(one_of(l1i_line_b, std::array{32, 64}),
               "config: l1i_line_b must be 32/64");
  DSML_REQUIRE(l1i_assoc == 4, "config: l1i_assoc must be 4");
  DSML_REQUIRE(one_of(l2_size_kb, std::array{256, 1024}),
               "config: l2_size_kb must be 256/1024");
  DSML_REQUIRE(l2_line_b == 128, "config: l2_line_b must be 128");
  DSML_REQUIRE(one_of(l2_assoc, std::array{4, 8}),
               "config: l2_assoc must be 4/8");
  if (l3_size_mb == 0) {
    DSML_REQUIRE(l3_line_b == 0 && l3_assoc == 0,
                 "config: absent L3 requires line/assoc 0");
  } else {
    DSML_REQUIRE(l3_size_mb == 8, "config: l3_size_mb must be 0/8");
    DSML_REQUIRE(l3_line_b == 256, "config: present L3 requires 256B lines");
    DSML_REQUIRE(l3_assoc == 8, "config: present L3 requires assoc 8");
  }
  DSML_REQUIRE(one_of(width, std::array{4, 8}), "config: width must be 4/8");
  DSML_REQUIRE(one_of(ruu_size, std::array{128, 256}),
               "config: ruu_size must be 128/256");
  DSML_REQUIRE(one_of(lsq_size, std::array{64, 128}),
               "config: lsq_size must be 64/128");
  DSML_REQUIRE(one_of(itlb_size_kb, std::array{256, 1024}),
               "config: itlb_size_kb must be 256/1024");
  DSML_REQUIRE(one_of(dtlb_size_kb, std::array{512, 2048}),
               "config: dtlb_size_kb must be 512/2048");
  const FunctionalUnitMix narrow{4, 2, 2, 4, 2};
  const FunctionalUnitMix wide{8, 4, 4, 8, 4};
  DSML_REQUIRE(fu == narrow || fu == wide,
               "config: fu mix must be 4/2/2/4/2 or 8/4/4/8/4");
}

std::string ProcessorConfig::key() const {
  std::ostringstream os;
  os << "d" << l1d_size_kb << "." << l1d_line_b << "_i" << l1i_size_kb << "."
     << l1i_line_b << "_l2." << l2_size_kb << "." << l2_assoc << "_l3."
     << l3_size_mb << "_bp." << to_string(branch_predictor) << "_w" << width
     << (issue_wrong ? "_iw1" : "_iw0") << "_ruu" << ruu_size << "_lsq"
     << lsq_size << "_tlb" << itlb_size_kb << "." << dtlb_size_kb << "_fu"
     << fu.ialu;
  return os.str();
}

FunctionalKey ProcessorConfig::functional_key() const noexcept {
  FunctionalKey k;
  k.l1d_size_kb = l1d_size_kb;
  k.l1d_line_b = l1d_line_b;
  k.l1i_size_kb = l1i_size_kb;
  k.l1i_line_b = l1i_line_b;
  k.l2_size_kb = l2_size_kb;
  k.l2_assoc = l2_assoc;
  k.l3_size_mb = l3_size_mb;
  k.branch_predictor = branch_predictor;
  k.issue_wrong =
      branch_predictor != BranchPredictorKind::kPerfect && issue_wrong;
  return k;
}

std::vector<ProcessorConfig> enumerate_design_space() {
  std::vector<ProcessorConfig> space;
  space.reserve(kDesignSpaceSize);
  const std::array<int, 3> l1_sizes{16, 32, 64};
  const std::array<int, 2> l1_lines{32, 64};
  const std::array<std::pair<int, int>, 4> l2s{
      std::pair{256, 4}, std::pair{256, 8}, std::pair{1024, 4},
      std::pair{1024, 8}};
  const std::array<bool, 2> l3s{false, true};
  const std::array<BranchPredictorKind, 4> bps{
      BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
      BranchPredictorKind::kTwoLevel, BranchPredictorKind::kCombination};
  const std::array<int, 2> widths{4, 8};
  const std::array<bool, 2> wrongs{false, true};
  const std::array<bool, 2> big_cores{false, true};

  for (int l1d : l1_sizes)
    for (int l1i : l1_sizes)
      for (int line : l1_lines)
        for (auto [l2_size, l2_assoc] : l2s)
          for (bool l3 : l3s)
            for (auto bp : bps)
              for (int width : widths)
                for (bool wrong : wrongs)
                  for (bool big : big_cores) {
                    ProcessorConfig c;
                    c.l1d_size_kb = l1d;
                    c.l1d_line_b = line;
                    c.l1i_size_kb = l1i;
                    c.l1i_line_b = line;
                    c.l2_size_kb = l2_size;
                    c.l2_assoc = l2_assoc;
                    if (l3) {
                      c.l3_size_mb = 8;
                      c.l3_line_b = 256;
                      c.l3_assoc = 8;
                    }
                    c.branch_predictor = bp;
                    c.width = width;
                    c.issue_wrong = wrong;
                    // Queue and translation resources scale together.
                    c.ruu_size = big ? 256 : 128;
                    c.lsq_size = big ? 128 : 64;
                    c.itlb_size_kb = big ? 1024 : 256;
                    c.dtlb_size_kb = big ? 2048 : 512;
                    // FU mix follows the pipeline width.
                    c.fu = width == 8 ? FunctionalUnitMix{8, 4, 4, 8, 4}
                                      : FunctionalUnitMix{4, 2, 2, 4, 2};
                    c.validate();
                    space.push_back(c);
                  }
  DSML_ASSERT(space.size() == kDesignSpaceSize);
  return space;
}

data::Dataset make_config_dataset(const std::vector<ProcessorConfig>& configs,
                                  std::vector<double> cycles) {
  DSML_REQUIRE(!configs.empty(), "make_config_dataset: no configurations");
  const std::size_t n = configs.size();

  auto numeric = [&](const char* name, auto getter) {
    std::vector<double> values;
    values.reserve(n);
    for (const auto& c : configs) values.push_back(double(getter(c)));
    return data::Column::numeric(name, std::move(values));
  };

  data::Dataset ds;
  ds.add_feature(numeric("l1d_size_kb", [](auto& c) { return c.l1d_size_kb; }));
  ds.add_feature(numeric("l1d_line_b", [](auto& c) { return c.l1d_line_b; }));
  ds.add_feature(numeric("l1d_assoc", [](auto& c) { return c.l1d_assoc; }));
  ds.add_feature(numeric("l1i_size_kb", [](auto& c) { return c.l1i_size_kb; }));
  ds.add_feature(numeric("l1i_line_b", [](auto& c) { return c.l1i_line_b; }));
  ds.add_feature(numeric("l1i_assoc", [](auto& c) { return c.l1i_assoc; }));
  ds.add_feature(numeric("l2_size_kb", [](auto& c) { return c.l2_size_kb; }));
  ds.add_feature(numeric("l2_line_b", [](auto& c) { return c.l2_line_b; }));
  ds.add_feature(numeric("l2_assoc", [](auto& c) { return c.l2_assoc; }));
  ds.add_feature(numeric("l3_size_mb", [](auto& c) { return c.l3_size_mb; }));
  ds.add_feature(numeric("l3_line_b", [](auto& c) { return c.l3_line_b; }));
  ds.add_feature(numeric("l3_assoc", [](auto& c) { return c.l3_assoc; }));
  {
    std::vector<std::string> bp;
    bp.reserve(n);
    for (const auto& c : configs) bp.emplace_back(to_string(c.branch_predictor));
    // Branch predictor kinds are ordered by sophistication in Table 1, which
    // makes the ordinal mapping meaningful for linear models (per §3.4 the
    // authors map what can be mapped to numbers).
    ds.add_feature(data::Column::categorical_with_levels(
        "branch_predictor", {"perfect", "bimodal", "2-level", "combination"},
        std::move(bp), /*ordered=*/true));
  }
  ds.add_feature(numeric("width", [](auto& c) { return c.width; }));
  {
    std::vector<bool> iw;
    iw.reserve(n);
    for (const auto& c : configs) iw.push_back(c.issue_wrong);
    ds.add_feature(data::Column::flag("issue_wrong", std::move(iw)));
  }
  ds.add_feature(numeric("ruu_size", [](auto& c) { return c.ruu_size; }));
  ds.add_feature(numeric("lsq_size", [](auto& c) { return c.lsq_size; }));
  ds.add_feature(numeric("itlb_size_kb", [](auto& c) { return c.itlb_size_kb; }));
  ds.add_feature(numeric("dtlb_size_kb", [](auto& c) { return c.dtlb_size_kb; }));
  ds.add_feature(numeric("fu_ialu", [](auto& c) { return c.fu.ialu; }));
  ds.add_feature(numeric("fu_imult", [](auto& c) { return c.fu.imult; }));
  ds.add_feature(numeric("fu_memport", [](auto& c) { return c.fu.memport; }));
  ds.add_feature(numeric("fu_fpalu", [](auto& c) { return c.fu.fpalu; }));
  ds.add_feature(numeric("fu_fpmult", [](auto& c) { return c.fu.fpmult; }));

  if (!cycles.empty()) {
    DSML_REQUIRE(cycles.size() == n,
                 "make_config_dataset: cycles size mismatch");
    ds.set_target("cycles", std::move(cycles));
  }
  return ds;
}

}  // namespace dsml::sim
