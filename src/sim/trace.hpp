// Instruction trace model consumed by the timing simulator.
//
// A trace is a dynamic instruction stream with the information a trace-driven
// out-of-order timing model needs: operation class (which functional unit),
// program counter (instruction cache & branch predictor indexing), memory
// address for loads/stores, branch outcome, and register dependencies
// expressed as distances to older producing instructions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dsml::sim {

enum class OpClass : std::uint8_t {
  kIntAlu,
  kIntMult,
  kFpAlu,
  kFpMult,
  kLoad,
  kStore,
  kBranch,
};

const char* to_string(OpClass op) noexcept;

/// Fields run widest first, so an instruction packs into 40 bytes.
struct Instr {
  std::uint64_t pc = 0;       ///< byte address of the instruction
  std::uint64_t mem_addr = 0; ///< effective address (loads/stores)
  std::uint64_t target = 0;   ///< branch target pc
  /// Distances (in dynamic instructions) to the producers of the two source
  /// operands; 0 means "no dependency / value ready long ago".
  std::uint32_t dep1 = 0;
  std::uint32_t dep2 = 0;
  OpClass op = OpClass::kIntAlu;
  bool taken = false;         ///< branch outcome
};
static_assert(sizeof(Instr) == 40);

struct Trace {
  std::vector<Instr> instrs;

  std::size_t size() const noexcept { return instrs.size(); }
  std::span<const Instr> span() const noexcept { return instrs; }
};

}  // namespace dsml::sim
