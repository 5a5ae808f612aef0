// CGA array execution: modulo sequencing, forwarding, squashing, stalls.
#include "cga/array.hpp"

#include <gtest/gtest.h>

#include "cga/topology.hpp"
#include "common/activity.hpp"
#include "testutil.hpp"

namespace adres {
namespace {

using testutil::runKernel;

struct Fabric {
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  ActivityCounters act;
  CgaArray array{crf, l1, cfg, act};
};

TEST(Array, CountedAccumulator) {
  // FU5 every cycle: local[0] += 1, seeded from CDRF r10, written to r11.
  Fabric f;
  KernelConfig k;
  k.name = "acc";
  k.ii = 1;
  k.schedLength = 1;
  k.contexts.resize(1);
  FuOp& op = k.contexts[0].fu[5];
  op.op = Opcode::ADD;
  op.src1 = SrcSel::localRf(0);
  op.src2 = SrcSel::imm();
  op.imm = 1;
  op.dst.toLocalRf = true;
  op.dst.localAddr = 0;
  k.preloads.push_back({5, 0, 10});
  k.writebacks.push_back({11, 5, 0});

  f.crf.poke(10, 100);
  const CgaRunResult r = runKernel(f.array, k, 25);
  EXPECT_EQ(f.crf.peek(11), 125u);
  EXPECT_EQ(r.ops, 25u);
  EXPECT_EQ(r.arrayCycles, 25u);
  EXPECT_EQ(r.stallCycles, 0u);
}

TEST(Array, ZeroTripsWritesSeedBack) {
  Fabric f;
  KernelConfig k;
  k.name = "acc0";
  k.ii = 1;
  k.schedLength = 1;
  k.contexts.resize(1);
  FuOp& op = k.contexts[0].fu[5];
  op.op = Opcode::ADD;
  op.src1 = SrcSel::localRf(0);
  op.src2 = SrcSel::imm();
  op.imm = 1;
  op.dst.toLocalRf = true;
  op.dst.localAddr = 0;
  k.preloads.push_back({5, 0, 10});
  k.writebacks.push_back({11, 5, 0});
  f.crf.poke(10, 7);
  (void)runKernel(f.array, k, 0);
  EXPECT_EQ(f.crf.peek(11), 7u);
}

TEST(Array, OutputRegisterForwardingChain) {
  // MOVI on FU0 (t=0) -> MOV on FU4 (t=1, reads FU0 output) ->
  // MOV on FU8 (t=2, reads FU4 output) -> local RF -> writeback.
  Fabric f;
  KernelConfig k;
  k.name = "chain";
  k.ii = 3;
  k.schedLength = 3;
  k.contexts.resize(3);
  {
    FuOp& a = k.contexts[0].fu[0];
    a.op = Opcode::MOVI;
    a.src2 = SrcSel::imm();
    a.imm = 42;
    a.schedTime = 0;
  }
  {
    FuOp& b = k.contexts[1].fu[4];
    b.op = Opcode::MOV;
    b.src1 = SrcSel::output(0);
    b.schedTime = 1;
  }
  {
    FuOp& c = k.contexts[2].fu[8];
    c.op = Opcode::MOV;
    c.src1 = SrcSel::output(4);
    c.dst.toLocalRf = true;
    c.dst.localAddr = 3;
    c.schedTime = 2;
  }
  k.writebacks.push_back({20, 8, 3});
  const CgaRunResult r = runKernel(f.array, k, 1);
  EXPECT_EQ(f.crf.peek(20), 42u);
  EXPECT_EQ(r.ops, 3u);
  EXPECT_EQ(r.routeMoves, 2u);
}

TEST(Array, MultiCycleLatencyRespected) {
  // D4PROD (latency 3) result consumed by a MOV scheduled exactly 3 later.
  Fabric f;
  KernelConfig k;
  k.name = "lat3";
  k.ii = 4;
  k.schedLength = 4;
  k.contexts.resize(4);
  {
    FuOp& a = k.contexts[0].fu[6];
    a.op = Opcode::D4PROD;
    a.src1 = SrcSel::localRf(0);
    a.src2 = SrcSel::localRf(1);
    a.schedTime = 0;
  }
  {
    FuOp& b = k.contexts[3].fu[6];
    b.op = Opcode::MOV;
    b.src1 = SrcSel::output(6);
    b.dst.toLocalRf = true;
    b.dst.localAddr = 2;
    b.schedTime = 3;
  }
  k.preloads.push_back({6, 0, 1});
  k.preloads.push_back({6, 1, 2});
  k.writebacks.push_back({3, 6, 2});
  f.crf.poke(1, packLanes(16384, 16384, 16384, 16384));
  f.crf.poke(2, packLanes(16384, -16384, 8192, 0));
  (void)runKernel(f.array, k, 1);
  EXPECT_EQ(f.crf.peek(3), packLanes(8192, -8192, 4096, 0));
}

TEST(Array, StoreAndLoadThroughL1) {
  // FU0 stores a value; FU1 loads it back 6 cycles later (latency 5).
  Fabric f;
  KernelConfig k;
  k.name = "st_ld";
  k.ii = 7;
  k.schedLength = 7;
  k.contexts.resize(7);
  {
    FuOp& st = k.contexts[0].fu[0];
    st.op = Opcode::ST_I;
    st.src1 = SrcSel::localRf(0);  // base
    st.src2 = SrcSel::imm();
    st.imm = 0;
    st.src3 = SrcSel::localRf(1);  // data
    st.schedTime = 0;
  }
  {
    FuOp& ld = k.contexts[1].fu[1];
    ld.op = Opcode::LD_I;
    ld.src1 = SrcSel::localRf(0);
    ld.src2 = SrcSel::imm();
    ld.imm = 0;
    ld.dst.toLocalRf = true;
    ld.dst.localAddr = 2;
    ld.schedTime = 1;
  }
  k.preloads.push_back({0, 0, 1});
  k.preloads.push_back({0, 1, 2});
  k.preloads.push_back({1, 0, 1});
  k.writebacks.push_back({5, 1, 2});
  f.crf.poke(1, 0x80);          // address
  f.crf.poke(2, 0xCAFE0001ull); // data
  (void)runKernel(f.array, k, 1);
  EXPECT_EQ(f.l1.read32(0x80), 0xCAFE0001u);
  EXPECT_EQ(f.crf.peek(5), 0xCAFE0001u);
}

TEST(Array, Ld64PairMergesAtCommit) {
  // LD_I (t=0) + LD_IH (t=1) into the same local register.
  Fabric f;
  f.l1.write32(0x40, 0x11111111);
  f.l1.write32(0x44, 0x22222222);
  KernelConfig k;
  k.name = "ld64";
  k.ii = 2;
  k.schedLength = 7;
  k.contexts.resize(2);
  {
    FuOp& lo = k.contexts[0].fu[2];
    lo.op = Opcode::LD_I;
    lo.src1 = SrcSel::localRf(0);
    lo.src2 = SrcSel::imm();
    lo.imm = 0;
    lo.dst.toLocalRf = true;
    lo.dst.localAddr = 1;
    lo.schedTime = 0;
  }
  {
    FuOp& hi = k.contexts[1].fu[2];
    hi.op = Opcode::LD_IH;
    hi.src1 = SrcSel::localRf(0);
    hi.src2 = SrcSel::imm();
    hi.imm = 1;
    hi.dst.toLocalRf = true;
    hi.dst.localAddr = 1;
    hi.schedTime = 1;
  }
  k.preloads.push_back({2, 0, 1});
  k.writebacks.push_back({6, 2, 1});
  f.crf.poke(1, 0x40);
  (void)runKernel(f.array, k, 1);
  EXPECT_EQ(f.crf.peek(6), 0x22222222'11111111ull);
}

TEST(Array, BankConflictStallsWholeArray) {
  // Two loads in the same context cycle hitting the same bank.
  Fabric f;
  f.l1.write32(0x00, 1);
  f.l1.write32(0x10, 2);  // same bank 0 (word-interleaved)
  KernelConfig k;
  k.name = "conflict";
  k.ii = 1;
  k.schedLength = 6;
  k.contexts.resize(1);
  for (int fu : {0, 1}) {
    FuOp& ld = k.contexts[0].fu[fu];
    ld.op = Opcode::LD_I;
    ld.src1 = SrcSel::localRf(0);
    ld.src2 = SrcSel::imm();
    ld.imm = fu == 0 ? 0 : 4;
    ld.schedTime = 0;
    k.preloads.push_back({static_cast<u8>(fu), 0, 1});
  }
  f.crf.poke(1, 0x0);
  const CgaRunResult r = runKernel(f.array, k, 3);
  EXPECT_GT(r.stallCycles, 0u) << "same-bank accesses must queue";
  EXPECT_EQ(f.l1.stats().conflicts, 3u);
}

TEST(Array, PrologueEpilogueSquash) {
  // Two-stage pipeline: stage A (t=0) increments, stage B (t=1) copies A's
  // output to a register.  With trips=4 and II=1 both stages execute
  // exactly 4 times (prologue squashes B at g=0; epilogue squashes A at the
  // tail).
  Fabric f;
  KernelConfig k;
  k.name = "squash";
  k.ii = 1;
  k.schedLength = 2;
  k.contexts.resize(1);
  // Only one op per (slot,fu): put A on FU5, B on FU6 (adjacent: 5 east-> 6).
  {
    FuOp& a = k.contexts[0].fu[5];
    a.op = Opcode::ADD;
    a.src1 = SrcSel::localRf(0);
    a.src2 = SrcSel::imm();
    a.imm = 1;
    a.dst.toLocalRf = true;
    a.dst.localAddr = 0;
    a.schedTime = 0;
  }
  {
    FuOp& b = k.contexts[0].fu[6];
    b.op = Opcode::MOV;
    b.src1 = SrcSel::output(5);
    b.dst.toLocalRf = true;
    b.dst.localAddr = 0;
    b.schedTime = 1;  // belongs to slot 1 % 1 == 0: same context, one later
  }
  k.preloads.push_back({5, 0, 1});
  k.writebacks.push_back({2, 5, 0});
  k.writebacks.push_back({3, 6, 0});
  f.crf.poke(1, 0);
  const CgaRunResult r = runKernel(f.array, k, 4);
  EXPECT_EQ(f.crf.peek(2), 4u) << "A ran 4 times";
  EXPECT_EQ(f.crf.peek(3), 4u) << "B copied A's last output";
  EXPECT_EQ(r.ops, 8u) << "4 instances of each stage";
}

TEST(Array, ActivityCountersAdvance) {
  Fabric f;
  KernelConfig k;
  k.name = "act";
  k.ii = 1;
  k.schedLength = 1;
  k.contexts.resize(1);
  FuOp& op = k.contexts[0].fu[4];
  op.op = Opcode::C4ADD;
  op.src1 = SrcSel::localRf(0);
  op.src2 = SrcSel::localRf(1);
  k.preloads.push_back({4, 0, 1});
  k.preloads.push_back({4, 1, 2});
  (void)runKernel(f.array, k, 10);
  EXPECT_EQ(f.act.cgaOps, 10u);
  EXPECT_EQ(f.act.simdOps, 10u);
  EXPECT_EQ(f.act.ops16, 40u);
  EXPECT_GT(f.act.cgaCycles, 0u);
  EXPECT_EQ(f.cfg.stats().contextFetches, 10u);
}

}  // namespace
}  // namespace adres
