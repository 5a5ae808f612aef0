// Seeded random kernel dataflow graphs, shared by the scheduler property
// test (random_dfg_test) and the schedule byte-identity fixture
// (schedule_golden_test).  Each graph mixes loads (some LD_I/LD_IH pairs),
// unary/binary/immediate ops, one or two stores and two carried values, so
// the mapper's pairing, carried-edge seeding and route-failure paths are
// exercised beyond the hand-written kernels.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/dfg.hpp"

namespace adres::testsupport {

/// CDRF registers of the random kernels' live-ins and live-outs.
inline constexpr int kRandIdx = 1;
inline constexpr int kRandIn = 2;
inline constexpr int kRandOut = 3;
inline constexpr int kRandAcc = 4;
inline constexpr int kRandAccOut = 16;
inline constexpr int kRandIdxOut = 17;

inline KernelDfg buildRandomKernel(u64 seed) {
  // Ops safe for random wiring (binary, full-word semantics).
  static const Opcode kBinaryOps[] = {
      Opcode::ADD,    Opcode::SUB,    Opcode::AND,    Opcode::OR,
      Opcode::XOR,    Opcode::C4ADD,  Opcode::C4SUB,  Opcode::C4MAX,
      Opcode::C4MIN,  Opcode::D4PROD, Opcode::C4PROD, Opcode::C4MIX,
      Opcode::C4HILO, Opcode::C4PADD, Opcode::C4PSUB, Opcode::MUL,
  };

  Rng rng(seed);
  KernelBuilder b("random_" + std::to_string(seed));

  auto idx = b.carried(kRandIdx);
  auto inBase = b.liveIn(kRandIn);
  auto outBase = b.liveIn(kRandOut);
  auto acc = b.carried(kRandAcc);

  std::vector<ValueId> values;
  values.push_back(idx);
  values.push_back(inBase);
  auto pick = [&]() {
    return values[static_cast<std::size_t>(rng.below(values.size()))];
  };

  const int nOps = 4 + static_cast<int>(rng.below(14));
  int loads = 0;
  for (int i = 0; i < nOps; ++i) {
    const u64 kind = rng.below(10);
    if (kind < 2 && loads < 4) {
      // A load from the input buffer (index-strided, within bounds).
      auto addr = b.op(Opcode::ADD, inBase, idx);
      auto v = b.loadImm(Opcode::LD_I, addr,
                         static_cast<i32>(rng.below(8)));
      if (rng.bit()) {
        v = b.loadHighImm(v, addr, static_cast<i32>(8 + rng.below(8)));
      }
      values.push_back(v);
      ++loads;
    } else if (kind < 3) {
      values.push_back(b.op(rng.bit() ? Opcode::C4ABS : Opcode::C4NEG, pick()));
    } else if (kind < 5) {
      // Immediate form.
      values.push_back(b.opImm(
          rng.bit() ? Opcode::ADD : Opcode::C4SHIFTR, pick(),
          static_cast<i32>(rng.below(7)) + 1));
    } else {
      values.push_back(
          b.op(kBinaryOps[rng.below(sizeof(kBinaryOps) / sizeof(Opcode))],
               pick(), pick()));
    }
  }

  // One or two stores to the output buffer.
  const int nStores = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < nStores; ++i) {
    auto so = b.op(Opcode::ADD, outBase, idx);
    b.storeImm(Opcode::ST_I, so, static_cast<i32>(4 * i), pick());
  }

  // Carried accumulator over some computed value.
  b.defineCarried(acc, b.op(Opcode::C4ADD, acc, pick()));
  b.defineCarried(idx, b.opImm(Opcode::ADD, idx, 64));
  b.liveOut(kRandAccOut, acc);
  b.liveOut(kRandIdxOut, idx);
  return b.build();
}

}  // namespace adres::testsupport
