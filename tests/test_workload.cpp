#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "workload/profiles.hpp"

namespace dsml::workload {
namespace {

TEST(Profiles, FiveApplications) {
  const auto profiles = spec_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  const auto names = spec_profile_names();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(profiles[i].name, names[i]);
  }
}

TEST(Profiles, LookupByName) {
  EXPECT_EQ(spec_profile("mcf").name, "mcf");
  EXPECT_THROW(spec_profile("doom"), InvalidArgument);
}

TEST(Profiles, MixesSumToOne) {
  for (const auto& profile : spec_profiles()) {
    for (const auto& phase : profile.phases) {
      EXPECT_NEAR(phase.mix.sum(), 1.0, 1e-9) << profile.name;
    }
  }
}

TEST(Profiles, LevelFractionsRoughlyNormalized) {
  for (const auto& profile : spec_profiles()) {
    for (const auto& phase : profile.phases) {
      double total = 0.0;
      for (const auto& level : phase.mem.levels) total += level.fraction;
      EXPECT_NEAR(total, 1.0, 0.05) << profile.name;
    }
  }
}

TEST(Generator, ProducesRequestedLength) {
  const auto trace = generate_trace(spec_profile("applu"), 12345);
  EXPECT_EQ(trace.size(), 12345u);
}

TEST(Generator, DeterministicBySeed) {
  const auto profile = spec_profile("gcc");
  const auto a = generate_trace(profile, 5000, 7);
  const auto b = generate_trace(profile, 5000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.instrs[i].pc, b.instrs[i].pc);
    EXPECT_EQ(a.instrs[i].op, b.instrs[i].op);
    EXPECT_EQ(a.instrs[i].mem_addr, b.instrs[i].mem_addr);
  }
}

TEST(Generator, SeedChangesTrace) {
  const auto profile = spec_profile("gcc");
  const auto a = generate_trace(profile, 5000, 7);
  const auto b = generate_trace(profile, 5000, 8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs |= a.instrs[i].pc != b.instrs[i].pc;
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, InstructionMixTracksProfile) {
  const auto profile = spec_profile("applu");
  const auto trace = generate_trace(profile, 60000);
  std::map<sim::OpClass, double> counts;
  for (const auto& ins : trace.instrs) counts[ins.op] += 1.0;
  const double n = static_cast<double>(trace.size());
  // applu is FP-heavy; integer multiplies rare; loads ~20%.
  EXPECT_GT((counts[sim::OpClass::kFpAlu] + counts[sim::OpClass::kFpMult]) / n,
            0.30);
  EXPECT_LT(counts[sim::OpClass::kIntMult] / n, 0.05);
  EXPECT_NEAR(counts[sim::OpClass::kLoad] / n, 0.20, 0.07);
  EXPECT_GT(counts[sim::OpClass::kBranch] / n, 0.02);
}

TEST(Generator, IntegerAppHasNoFp) {
  const auto trace = generate_trace(spec_profile("mcf"), 30000);
  for (const auto& ins : trace.instrs) {
    EXPECT_NE(ins.op, sim::OpClass::kFpAlu);
    EXPECT_NE(ins.op, sim::OpClass::kFpMult);
  }
}

TEST(Generator, BranchesCarryOutcomeAndTarget) {
  const auto trace = generate_trace(spec_profile("gcc"), 20000);
  std::size_t branches = 0;
  std::size_t taken = 0;
  for (const auto& ins : trace.instrs) {
    if (ins.op != sim::OpClass::kBranch) continue;
    ++branches;
    if (ins.taken) ++taken;
    EXPECT_NE(ins.target, 0u);
  }
  EXPECT_GT(branches, 1000u);
  // Loop back-edges make taken branches the majority.
  EXPECT_GT(static_cast<double>(taken) / static_cast<double>(branches), 0.4);
}

TEST(Generator, MemoryOpsHaveAddressesOthersDoNot) {
  const auto trace = generate_trace(spec_profile("mesa"), 20000);
  for (const auto& ins : trace.instrs) {
    const bool is_mem =
        ins.op == sim::OpClass::kLoad || ins.op == sim::OpClass::kStore;
    if (is_mem) {
      EXPECT_GE(ins.mem_addr, 0x10000000ULL);
    } else {
      EXPECT_EQ(ins.mem_addr, 0u);
    }
  }
}

TEST(Generator, PcsWithinCodeRegion) {
  const auto profile = spec_profile("gcc");
  const auto trace = generate_trace(profile, 20000);
  for (const auto& ins : trace.instrs) {
    EXPECT_GE(ins.pc, 0x00400000ULL);
    EXPECT_LT(ins.pc, 0x00400000ULL + 2 * profile.code_bytes);
  }
}

TEST(Generator, DependencyDistancesBounded) {
  const auto trace = generate_trace(spec_profile("mcf"), 20000);
  for (const auto& ins : trace.instrs) {
    EXPECT_LE(ins.dep1, 255u);
    EXPECT_LE(ins.dep2, 255u);
  }
}

TEST(Generator, PointerChaserHasChainedLoads) {
  const auto trace = generate_trace(spec_profile("mcf"), 40000);
  // Count loads whose dep1 points exactly at an earlier load (the chain).
  std::size_t chained = 0;
  std::size_t loads = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& ins = trace.instrs[i];
    if (ins.op != sim::OpClass::kLoad) continue;
    ++loads;
    if (ins.dep1 > 0 && ins.dep1 <= i &&
        trace.instrs[i - ins.dep1].op == sim::OpClass::kLoad) {
      ++chained;
    }
  }
  EXPECT_GT(static_cast<double>(chained) / static_cast<double>(loads), 0.2);
}

TEST(Generator, CodeFootprintOrdering) {
  // gcc touches far more distinct code lines than applu (the I$ pressure
  // that distinguishes them in the paper).
  auto distinct_lines = [](const sim::Trace& trace) {
    std::set<std::uint64_t> lines;
    for (const auto& ins : trace.instrs) lines.insert(ins.pc / 32);
    return lines.size();
  };
  const auto gcc = generate_trace(spec_profile("gcc"), 50000);
  const auto applu = generate_trace(spec_profile("applu"), 50000);
  EXPECT_GT(distinct_lines(gcc), distinct_lines(applu) * 5);
}

TEST(Generator, MemoryFootprintOrdering) {
  auto distinct_data_lines = [](const sim::Trace& trace) {
    std::set<std::uint64_t> lines;
    for (const auto& ins : trace.instrs) {
      if (ins.mem_addr != 0) lines.insert(ins.mem_addr / 64);
    }
    return lines.size();
  };
  const auto mcf = generate_trace(spec_profile("mcf"), 50000);
  const auto applu = generate_trace(spec_profile("applu"), 50000);
  EXPECT_GT(distinct_data_lines(mcf), distinct_data_lines(applu));
}

TEST(Generator, StoresExactlyTheRequestedInstructions) {
  // The generator emits whole blocks, so the last one runs past n; keeping
  // its excess even briefly grows a vector reserved for n to twice that.
  for (const std::string& app : spec_profile_names()) {
    for (const std::size_t n : {std::size_t{20000}, std::size_t{600000}}) {
      const auto trace = generate_trace(spec_profile(app), n);
      EXPECT_EQ(trace.size(), n) << app;
      EXPECT_EQ(trace.instrs.capacity(), n) << app << " at " << n;
    }
  }
}

TEST(TraceBuilder, ACopyResumesWhereItWasCopiedAndTheEndThrows) {
  const auto profile = spec_profile("gcc");
  const auto trace = generate_trace(profile, 5000, 3);
  TraceBuilder builder(profile, 5000, 3);
  std::vector<TraceBuilder> copies;  // copies[c] taken at index 777 * c
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i % 777 == 0) copies.push_back(builder);
    EXPECT_EQ(builder.next().pc, trace.instrs[i].pc);
  }
  EXPECT_THROW(builder.next(), StateError);
  for (std::size_t c = 0; c < copies.size(); ++c) {
    TraceBuilder& copy = copies[c];
    for (std::size_t i = 777 * c; i < trace.size(); ++i) {
      const sim::Instr& ins = copy.next();
      ASSERT_EQ(ins.pc, trace.instrs[i].pc) << "at " << i;
      ASSERT_EQ(ins.mem_addr, trace.instrs[i].mem_addr) << "at " << i;
      ASSERT_EQ(ins.dep1, trace.instrs[i].dep1) << "at " << i;
    }
  }
}

TEST(Generator, ZeroLengthThrows) {
  EXPECT_THROW(generate_trace(spec_profile("applu"), 0), InvalidArgument);
}

TEST(Generator, LengthAboveTheLongestVectorThrowsInvalidArgument) {
  // Not std::length_error from vector::reserve: a typed error naming n.
  const std::size_t too_long = std::vector<sim::Instr>().max_size() + 1;
  try {
    generate_trace(spec_profile("mcf"), too_long);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(too_long)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(generate_trace(spec_profile("mcf"), SIZE_MAX), InvalidArgument);
}

TEST(TraceOpNames, ToString) {
  EXPECT_STREQ(sim::to_string(sim::OpClass::kLoad), "load");
  EXPECT_STREQ(sim::to_string(sim::OpClass::kBranch), "branch");
}

}  // namespace
}  // namespace dsml::workload
