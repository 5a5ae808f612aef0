#include "sdr/modem_program.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "dsp/lanes.hpp"
#include "dsp/ofdm.hpp"
#include "dsp/preamble.hpp"
#include "dsp/qam.hpp"
#include "dsp/trig_tables.hpp"
#include "sdr/glue.hpp"
#include "sdr/kernels.hpp"
#include "sdr/tables.hpp"

namespace adres::sdr {

namespace detail {
/// Per-tier pre-decoded plan sets of one built modem program, filled
/// lazily under the mutex (plansFor).
struct ModemPlanCache {
  std::mutex mu;
  std::array<std::shared_ptr<const ProgramPlans>, kExecTierCount> byTier;
};
}  // namespace detail

namespace {

using dsp::kLtfAmpQ15;

// Modem state registers (persist across the whole program).
constexpr int rCoarse = 10;   ///< coarse CFO compensating step
constexpr int rTotal = 11;    ///< total CFO compensating step
constexpr int rLtfStart = 12; ///< fine-timing sample index
constexpr int rPair = 13;     ///< symbol-pair loop counter
constexpr int rTmpA = 14;
constexpr int rTmpB = 15;
constexpr int rDataBase = 46; ///< first data sample index
constexpr int rNumPairs = 47;
constexpr int rZero = 60;

// Fixed receive-side sample positions (packet starts within the first STF
// period; see header).
constexpr int kStfCorrAt = 32;       ///< coarse-CFO correlation start
constexpr int kCompFrom = 176;       ///< coarse-compensated window start
constexpr int kCompLen = 160;        ///< covers the legacy LTF periods
constexpr int kSearchFrom = 184;     ///< xcorr hypothesis 0 (true start 192)

Instr ins(Opcode op, int dst, int s1, int s2) {
  Instr in;
  in.op = op;
  in.dst = static_cast<u8>(dst);
  in.src1 = static_cast<u8>(s1);
  in.src2 = static_cast<u8>(s2);
  return in;
}

Instr insImm(Opcode op, int dst, int s1, i32 imm) {
  Instr in;
  in.op = op;
  in.dst = static_cast<u8>(dst);
  in.src1 = static_cast<u8>(s1);
  in.useImm = true;
  in.imm = imm;
  return in;
}

Instr predOp(Opcode op, int p, int s1, int s2) {
  Instr in;
  in.op = op;
  in.dst = static_cast<u8>(p);
  in.src1 = static_cast<u8>(s1);
  in.src2 = static_cast<u8>(s2);
  return in;
}

Instr guarded(Instr in, int g) {
  in.guard = static_cast<u8>(g);
  return in;
}

std::vector<u32> wordsToU32(const std::vector<Word>& ws) {
  std::vector<u32> out;
  for (Word w : ws) {
    out.push_back(static_cast<u32>(w));
    out.push_back(static_cast<u32>(w >> 32));
  }
  return out;
}

std::vector<i16> u16AsI16(const std::vector<u16>& v) {
  return {reinterpret_cast<const i16*>(v.data()),
          reinterpret_cast<const i16*>(v.data()) + v.size()};
}

/// Everything needed while emitting the program.
struct Emitter {
  ProgramBuilder pb{"mimo_ofdm_rx"};
  ModemLayout L;
  int numSymbols;
  dsp::Modulation mod = dsp::Modulation::kQam64;

  // Kernel ids.
  int kAcorr, kCfo, kFshift, kXcorr, kBitrev, kStage1, kInterleave, kChest,
      kEqNorm, kEqApply, kComp, kDemod;
  int kStage[5];  // stages 2..6
  int stageHalfBytes[5];

  // Table addresses.
  u32 sinTab, atanTab, revTab, usedTab, dataTab, signTab, ltfRef, identTab,
      polTab, pilotExpTab, pilotOffTab, constWords;
  u32 stageOff[5], stageTw[5];

  // Packed 64-bit constant slots (word-pair indices in constWords).
  enum ConstSlot {
    kCSplat8192 = 0,
    kCSplat2048,
    kCSplat6400,
    kCSplat12,
    kCSplat1312,
    kCSplat0,
    kCSplat7,
    kCSplat3300,
    kCSplat3,
    kConstSlotCount
  };

  void liAddr(int reg, u32 addr) { pb.li(reg, static_cast<i32>(addr)); }

  /// Loads packed constant `slot` into CDRF[dstReg].
  void loadConst(int dstReg, int slot) {
    liAddr(rTmpA, constWords);
    pb.ld64(dstReg, rTmpA, slot * 2);
  }

  void emitTablesAndLayout();
  void emitPrologue();
  void emitDetection();
  void emitCoarseCfo();
  void emitCoarseCompensation();
  void emitTiming();
  void emitFineCfo();
  void emitMimoCompensation();
  void emitPreambleFfts();
  void emitOrderingAndChest();
  void emitEqualizer();
  void emitDataLoop();

  /// Emits the phasor setup for an fshift launch: computes [ph0..ph3] and
  /// w^4 from stepReg and the start-sample register, filling the kernel's
  /// packed-constant registers.  Uses kernel-out regs 16..19 as temps.
  void emitFshiftSetup(int stepReg, int startSampleReg);

  /// Runs the mapped FFT over nBuf back-to-back buffers at fftWork.
  void emitFftPipeline(int nBuf);
};

void Emitter::emitTablesAndLayout() {
  const int rxSamples = dsp::kPreambleLen + numSymbols * dsp::kSymbolLen;
  L.rx0 = pb.reserve(static_cast<u32>(4 * rxSamples));
  L.rx1 = pb.reserve(static_cast<u32>(4 * rxSamples));
  L.comp = pb.reserve(4 * (kCompLen + 64));
  L.compMimo0 = pb.reserve(4 * 160);
  L.compMimo1 = pb.reserve(4 * 160);
  L.compData0 = pb.reserve(4 * 160);
  L.compData1 = pb.reserve(4 * 160);
  L.fftWork = pb.reserve(4 * 256);
  L.interleaved0 = pb.reserve(8 * 52);
  L.interleaved1 = pb.reserve(8 * 52);
  L.hBuf = pb.reserve(16 * 52);
  L.hBuf2 = pb.reserve(16 * 52);
  L.midBuf = pb.reserve(16 * 52);
  L.wBuf = pb.reserve(16 * 52);
  L.rxUsed0 = pb.reserve(8 * 52);
  L.rxUsed1 = pb.reserve(8 * 52);
  L.det0 = pb.reserve(4 * 52 * 2);
  L.det1 = pb.reserve(4 * 52 * 2);
  L.gray = pb.reserve(static_cast<u32>(4 * 48 * 2 * numSymbols));
  L.status = pb.reserve(16);
  L.scratch = pb.reserve(16);

  sinTab = pb.dataI16(dsp::sinQuarterTableDump());
  atanTab = pb.dataI16(u16AsI16(dsp::atanTableDump()));
  revTab = pb.dataI16(u16AsI16(bitrevByteOffsets()));
  usedTab = pb.dataI16(u16AsI16(usedBinByteOffsets()));
  dataTab = pb.dataI16(u16AsI16(dataToneByteOffsets()));
  signTab = pb.dataWords(wordsToU32(ltfSignSplats()));
  ltfRef = pb.dataWords(wordsToU32(ltfConjBroadcast()));
  {
    // Identity gather covering the whole chest layout (52 tones x 16 B).
    std::vector<u16> ident(208);
    for (int i = 0; i < 208; ++i) ident[static_cast<std::size_t>(i)] = static_cast<u16>(4 * i);
    identTab = pb.dataI16(u16AsI16(ident));
  }
  {
    std::vector<i16> pol(32);
    for (int i = 0; i < 32; ++i) pol[static_cast<std::size_t>(i)] = dsp::pilotPolarity(i);
    polTab = pb.dataI16(pol);
  }
  {
    std::vector<i16> pe(4);
    for (int i = 0; i < 4; ++i)
      pe[static_cast<std::size_t>(i)] =
          static_cast<i16>(dsp::kPilotBase[static_cast<std::size_t>(i)] * kLtfAmpQ15);
    pilotExpTab = pb.dataI16(pe);
  }
  {
    const auto pos = pilotUsedPositions();
    std::vector<u16> off(4);
    for (int i = 0; i < 4; ++i) off[static_cast<std::size_t>(i)] = static_cast<u16>(4 * pos[static_cast<std::size_t>(i)]);
    pilotOffTab = pb.dataI16(u16AsI16(off));
  }
  {
    std::vector<Word> consts(kConstSlotCount);
    consts[kCSplat8192] = dsp::lanes::splat(8192);
    consts[kCSplat2048] = dsp::lanes::splat(2048);
    consts[kCSplat6400] = dsp::lanes::splat(6400);
    consts[kCSplat12] = dsp::lanes::splat(12);
    consts[kCSplat1312] = dsp::lanes::splat(1312);
    consts[kCSplat0] = dsp::lanes::splat(0);
    consts[kCSplat7] = dsp::lanes::splat(7);
    consts[kCSplat3300] = dsp::lanes::splat(3300);
    consts[kCSplat3] = dsp::lanes::splat(3);
    constWords = pb.dataWords(wordsToU32(consts));
  }
  for (int s = 2; s <= 6; ++s) {
    const FftStageTables t = fftStageTables(s, 4);
    stageOff[s - 2] = pb.dataI16(u16AsI16(t.aOffsets));
    stageTw[s - 2] = pb.dataWords(wordsToU32(t.twiddlePairs));
    stageHalfBytes[s - 2] = t.halfBytes;
  }

  // Kernels.
  kAcorr = pb.addKernel(scheduleKernel(AcorrKernel::build()));
  kCfo = pb.addKernel(scheduleKernel(CfoCorrKernel::build()));
  kFshift = pb.addKernel(scheduleKernel(FshiftKernel::build()));
  kXcorr = pb.addKernel(scheduleKernel(XcorrKernel::build()));
  kBitrev = pb.addKernel(scheduleKernel(BitrevKernel::build()));
  kStage1 = pb.addKernel(scheduleKernel(FftStage1Kernel::build()));
  for (int s = 2; s <= 6; ++s)
    kStage[s - 2] = pb.addKernel(scheduleKernel(
        FftStageKernel::build(stageHalfBytes[s - 2], /*scaleX8=*/s == 6)));
  kInterleave = pb.addKernel(scheduleKernel(InterleaveKernel::build()));
  kChest = pb.addKernel(scheduleKernel(ChestKernel::build()));
  kEqNorm = pb.addKernel(scheduleKernel(EqCoeffKernel::buildNorm()));
  kEqApply = pb.addKernel(scheduleKernel(EqCoeffKernel::buildApply()));
  kComp = pb.addKernel(scheduleKernel(CompKernel::build()));
  kDemod = pb.addKernel(scheduleKernel(mod == dsp::Modulation::kQam16
                                           ? DemodKernel::build16()
                                           : DemodKernel::build()));
}

void Emitter::emitPrologue() {
  pb.li(rZero, 0);
  liAddr(greg::kSinTab, sinTab);
  liAddr(greg::kAtanTab, atanTab);
  liAddr(greg::kScratchAddr, L.scratch);
  pb.li(rPair, 0);
  pb.li(rNumPairs, numSymbols / 2);
}

void Emitter::emitDetection() {
  pb.marker("acorr");
  for (int d : {0, 32}) {
    liAddr(AcorrKernel::kSrc, L.rx0 + 4 * static_cast<u32>(d));
    liAddr(AcorrKernel::kSrcLag, L.rx0 + 4 * static_cast<u32>(d + 16));
    pb.li(AcorrKernel::kIdx, 0);
    pb.li(AcorrKernel::kAccP, 0);
    pb.li(AcorrKernel::kAccE1, 0);
    pb.li(AcorrKernel::kAccE2, 0);
    loadConst(AcorrKernel::kSplat, kCSplat8192);
    pb.li(rTmpB, AcorrKernel::kTrips);
    pb.cga(kAcorr, rTmpB);
    // Detection decision: |P|_L1 >= 3*max(E1,E2)>>2, energy above floor.
    emitL1MagLanes(pb, 16, AcorrKernel::kAccP);
    emitUnpack(pb, 16, 17, 16);  // m in r16
    emitFold(pb, 18, 19, AcorrKernel::kAccE1);
    emitFold(pb, 19, 20, AcorrKernel::kAccE2);
    pb.emit(predOp(Opcode::PRED_GT, 1, 19, 18));
    pb.emit(guarded(ins(Opcode::MOV, 18, 19, 0), 1));  // e = max(E1,E2)
    pb.emit(insImm(Opcode::MUL, 20, 18, 3));
    pb.emit(insImm(Opcode::ASR, 20, 20, 2));  // threshold
    pb.emit(insImm(Opcode::GT, 21, 18, 64));
    pb.emit(ins(Opcode::GE, 22, 16, 20));
    pb.emit(ins(Opcode::AND, 21, 21, 22));
    liAddr(rTmpA, L.status);
    pb.st32(rTmpA, 0, 21);  // sticky-ish: second launch overwrites
  }
  pb.markerEnd();
}

void Emitter::emitCoarseCfo() {
  pb.marker("freq offset estimation");
  liAddr(CfoCorrKernel::kSrc, L.rx0 + 4 * kStfCorrAt);
  liAddr(CfoCorrKernel::kSrcLag, L.rx0 + 4 * (kStfCorrAt + 16));
  pb.li(CfoCorrKernel::kIdx, 0);
  pb.li(CfoCorrKernel::kAcc, 0);
  loadConst(CfoCorrKernel::kSplat, kCSplat8192);
  pb.li(rTmpB, static_cast<i32>(CfoCorrKernel::trips(64)));
  pb.cga(kCfo, rTmpB);
  emitFold(pb, 16, 17, CfoCorrKernel::kAcc);
  emitAtan2(pb, 18, 17, 16);
  // signed angle / 16 (C-truncating divide).
  pb.emit(insImm(Opcode::LSL, 18, 18, 16));
  pb.emit(insImm(Opcode::ASR, 18, 18, 16));
  pb.li(rTmpA, 16);
  pb.emit(ins(Opcode::DIV, rCoarse, 18, rTmpA));
  pb.markerEnd();
}

void Emitter::emitFshiftSetup(int stepReg, int startSampleReg) {
  // turns0 = (step * startSample) & 0xFFFF -> ph0.
  pb.emit(ins(Opcode::MUL, 16, stepReg, startSampleReg));
  pb.emit(insImm(Opcode::LSL, 16, 16, 16));
  pb.emit(insImm(Opcode::LSR, 16, 16, 16));
  emitPhasor(pb, 17, 16);  // ph0 packed in r17
  // w = phasor(step & 0xFFFF).
  pb.emit(insImm(Opcode::LSL, 16, stepReg, 16));
  pb.emit(insImm(Opcode::LSR, 16, 16, 16));
  emitPhasor(pb, 18, 16);  // w packed in r18
  emitCmulPacked(pb, 19, 18, 18);  // w2
  emitCmulPacked(pb, 19, 19, 19);  // w4
  emitCmulPacked(pb, 20, 17, 18);  // ph1
  emitCmulPacked(pb, 21, 20, 18);  // ph2
  emitCmulPacked(pb, 22, 21, 18);  // ph3
  // Pack [ph0, ph1] -> kPhA, [ph2, ph3] -> kPhB, [w4, w4] -> kW4.
  pb.st32(greg::kScratchAddr, 0, 17);
  pb.st32(greg::kScratchAddr, 1, 20);
  pb.ld64(FshiftKernel::kPhA, greg::kScratchAddr, 0);
  pb.st32(greg::kScratchAddr, 0, 21);
  pb.st32(greg::kScratchAddr, 1, 22);
  pb.ld64(FshiftKernel::kPhB, greg::kScratchAddr, 0);
  emitBroadcast64(pb, FshiftKernel::kW4, 19);
  pb.li(FshiftKernel::kIdx, 0);
}

void Emitter::emitCoarseCompensation() {
  pb.marker("fshift");
  pb.li(rTmpA, kCompFrom);
  emitFshiftSetup(rCoarse, rTmpA);
  liAddr(FshiftKernel::kSrc, L.rx0 + 4 * kCompFrom);
  liAddr(FshiftKernel::kDst, L.comp);
  pb.li(rTmpB, static_cast<i32>(FshiftKernel::trips(kCompLen)));
  pb.cga(kFshift, rTmpB);
  pb.markerEnd();
}

void Emitter::emitTiming() {
  pb.marker("xcorr");
  // Best-so-far registers: r23 = best mag, r46 reused later; use r22 idx.
  pb.li(22, 0);
  pb.li(23, -1);
  loadConst(reg::kConst0, kCSplat2048);
  for (int half = 0; half < 2; ++half) {
    liAddr(XcorrKernel::kSrc,
           L.comp + 4 * static_cast<u32>(kSearchFrom - kCompFrom + 8 * half));
    liAddr(XcorrKernel::kRef, ltfRef);
    for (int j = 0; j < 4; ++j) pb.li(XcorrKernel::kAccBase + j, 0);
    pb.li(rTmpB, static_cast<i32>(XcorrKernel::kTrips));
    pb.cga(kXcorr, rTmpB);
    for (int j = 0; j < 4; ++j) {
      emitL1MagLanes(pb, 16, XcorrKernel::kAccBase + j);
      // lane0 -> mag of hypothesis 2j, lane2 -> 2j+1.
      emitUnpack(pb, 17, 18, 16);
      pb.li(19, 8 * half + 2 * j);
      emitArgmaxStep(pb, 23, 22, 17, 19);
      pb.emit(insImm(Opcode::C4SHUF, 16, 16, 0b00001110));
      emitUnpack(pb, 17, 18, 16);
      pb.li(19, 8 * half + 2 * j + 1);
      emitArgmaxStep(pb, 23, 22, 17, 19);
    }
  }
  // ltfStart = kSearchFrom + bestIdx - 2 (CP bias).
  pb.emit(insImm(Opcode::ADD, rLtfStart, 22, kSearchFrom - 2));
  liAddr(rTmpA, L.status);
  pb.st32(rTmpA, 1, rLtfStart);
  pb.markerEnd();
}

void Emitter::emitFineCfo() {
  pb.marker("freq offset estimation");
  // Correlate the two LTF periods in the compensated buffer.
  pb.emit(insImm(Opcode::ADD, rTmpA, rLtfStart, -kCompFrom));
  pb.emit(insImm(Opcode::LSL, rTmpA, rTmpA, 2));
  pb.li(CfoCorrKernel::kSrc, static_cast<i32>(L.comp));
  pb.emit(ins(Opcode::ADD, CfoCorrKernel::kSrc, CfoCorrKernel::kSrc, rTmpA));
  pb.emit(insImm(Opcode::ADD, CfoCorrKernel::kSrcLag, CfoCorrKernel::kSrc, 256));
  pb.li(CfoCorrKernel::kIdx, 0);
  pb.li(CfoCorrKernel::kAcc, 0);
  loadConst(CfoCorrKernel::kSplat, kCSplat8192);
  pb.li(rTmpB, static_cast<i32>(CfoCorrKernel::trips(64)));
  pb.cga(kCfo, rTmpB);
  emitFold(pb, 16, 17, CfoCorrKernel::kAcc);
  emitAtan2(pb, 18, 17, 16);
  pb.emit(insImm(Opcode::LSL, 18, 18, 16));
  pb.emit(insImm(Opcode::ASR, 18, 18, 16));
  pb.li(rTmpA, 64);
  pb.emit(ins(Opcode::DIV, 18, 18, rTmpA));
  pb.emit(ins(Opcode::ADD, rTotal, rCoarse, 18));
  pb.markerEnd();
}

void Emitter::emitMimoCompensation() {
  pb.marker("freq offset compensation");
  // mimoLtfBase = ltfStart + 128 samples; compensate 160 samples/antenna.
  pb.emit(insImm(Opcode::ADD, rTmpA, rLtfStart, 128));
  emitFshiftSetup(rTotal, rTmpA);
  pb.emit(insImm(Opcode::LSL, rTmpB, rTmpA, 2));
  for (int a = 0; a < 2; ++a) {
    pb.li(FshiftKernel::kSrc, static_cast<i32>(a == 0 ? L.rx0 : L.rx1));
    pb.emit(ins(Opcode::ADD, FshiftKernel::kSrc, FshiftKernel::kSrc, rTmpB));
    liAddr(FshiftKernel::kDst, a == 0 ? L.compMimo0 : L.compMimo1);
    pb.li(FshiftKernel::kIdx, 0);
    pb.li(23, static_cast<i32>(FshiftKernel::trips(160)));
    pb.cga(kFshift, 23);
  }
  pb.markerEnd();
}

void Emitter::emitFftPipeline(int nBuf) {
  pb.li(rTmpB, 32 * nBuf);
  liAddr(FftStage1Kernel::kBuf, L.fftWork);
  pb.cga(kStage1, rTmpB);
  pb.li(rTmpB, 16 * nBuf);
  for (int s = 0; s < 5; ++s) {
    liAddr(FftStageKernel::kBuf, L.fftWork);
    liAddr(FftStageKernel::kOffTab, stageOff[s]);
    liAddr(FftStageKernel::kTwTab, stageTw[s]);
    pb.cga(kStage[s], rTmpB);
  }
}

void Emitter::emitPreambleFfts() {
  pb.marker("fft");
  // Gather (bit-reverse) the four MIMO-LTF windows into fftWork.
  for (int s = 0; s < 2; ++s) {
    for (int a = 0; a < 2; ++a) {
      pb.li(BitrevKernel::kIn, static_cast<i32>(a == 0 ? L.compMimo0 : L.compMimo1));
      pb.li(rTmpA, 4 * (s * 80 + 16));
      pb.emit(ins(Opcode::ADD, BitrevKernel::kIn, BitrevKernel::kIn, rTmpA));
      liAddr(BitrevKernel::kOut, L.fftWork + 256 * static_cast<u32>(2 * s + a));
      liAddr(BitrevKernel::kIdxTab, revTab);
      pb.li(rTmpB, 64);
      pb.cga(kBitrev, rTmpB);
    }
  }
  emitFftPipeline(4);
  pb.markerEnd();
}

void Emitter::emitOrderingAndChest() {
  // remove zero carriers + sample ordering: used-tone gather of both
  // MIMO-LTF symbols (spectra s=0: buffers 0,1 / s=1: buffers 2,3).
  pb.marker("remove zero carriers");
  liAddr(InterleaveKernel::kBase0, L.fftWork);
  liAddr(InterleaveKernel::kBase1, L.fftWork + 256);
  liAddr(InterleaveKernel::kTab, usedTab);
  liAddr(InterleaveKernel::kOut, L.interleaved0);
  pb.li(rTmpB, 52);
  pb.cga(kInterleave, rTmpB);
  pb.markerEnd();
  pb.marker("sample ordering");
  liAddr(InterleaveKernel::kBase0, L.fftWork + 512);
  liAddr(InterleaveKernel::kBase1, L.fftWork + 768);
  liAddr(InterleaveKernel::kTab, usedTab);
  liAddr(InterleaveKernel::kOut, L.interleaved1);
  pb.li(rTmpB, 52);
  pb.cga(kInterleave, rTmpB);
  pb.markerEnd();

  pb.marker("SDM processing");
  liAddr(ChestKernel::kLtf1, L.interleaved0);
  liAddr(ChestKernel::kLtf2, L.interleaved1);
  liAddr(ChestKernel::kSign, signTab);
  liAddr(ChestKernel::kOut, L.hBuf);
  pb.li(rTmpB, 52);
  pb.cga(kChest, rTmpB);
  pb.markerEnd();

  // sample reordering: copy the estimate into the equalizer's buffer.
  pb.marker("sample reordering");
  liAddr(BitrevKernel::kIn, L.hBuf);
  liAddr(BitrevKernel::kOut, L.hBuf2);
  liAddr(BitrevKernel::kIdxTab, identTab);
  pb.li(rTmpB, 208);
  pb.cga(kBitrev, rTmpB);
  pb.markerEnd();
}

void Emitter::emitEqualizer() {
  pb.marker("equalize coeff. calc.");
  pb.li(40, 0);
  pb.li(41, 32767);
  pb.li(42, -32768);
  pb.li(EqCoeffKernel::kAmp128, kLtfAmpQ15 << 7);
  pb.li(EqCoeffKernel::kC4096, 4096);
  liAddr(EqCoeffKernel::kH, L.hBuf2);
  liAddr(EqCoeffKernel::kMid, L.midBuf);
  pb.li(rTmpB, 52);
  pb.cga(kEqNorm, rTmpB);
  liAddr(EqCoeffKernel::kH, L.hBuf2);
  liAddr(EqCoeffKernel::kMid, L.midBuf);
  liAddr(EqCoeffKernel::kW, L.wBuf);
  pb.li(rTmpB, 52);
  pb.cga(kEqApply, rTmpB);
  pb.markerEnd();
}

void Emitter::emitDataLoop() {
  // dataBase = ltfStart + 128 + 160.
  pb.marker("non-kernel code");
  pb.emit(insImm(Opcode::ADD, rDataBase, rLtfStart, 288));
  pb.markerEnd();

  auto top = pb.newLabel();
  pb.bind(top);

  // pairStart = dataBase + pair * 160 (samples).
  pb.marker("non-kernel code");
  pb.li(rTmpA, 160);
  pb.emit(ins(Opcode::MUL, rTmpA, rPair, rTmpA));
  pb.emit(ins(Opcode::ADD, rTmpA, rDataBase, rTmpA));
  pb.mov(9, rTmpA);  // r9 = pairStart (link register reused; no calls)
  pb.markerEnd();

  pb.marker("fshift");
  emitFshiftSetup(rTotal, 9);
  pb.emit(insImm(Opcode::LSL, rTmpB, 9, 2));
  for (int a = 0; a < 2; ++a) {
    pb.li(FshiftKernel::kSrc, static_cast<i32>(a == 0 ? L.rx0 : L.rx1));
    pb.emit(ins(Opcode::ADD, FshiftKernel::kSrc, FshiftKernel::kSrc, rTmpB));
    liAddr(FshiftKernel::kDst, a == 0 ? L.compData0 : L.compData1);
    pb.li(FshiftKernel::kIdx, 0);
    pb.li(23, static_cast<i32>(FshiftKernel::trips(160)));
    pb.cga(kFshift, 23);
  }
  pb.markerEnd();

  pb.marker("fft");
  for (int s = 0; s < 2; ++s) {
    for (int a = 0; a < 2; ++a) {
      pb.li(BitrevKernel::kIn, static_cast<i32>(a == 0 ? L.compData0 : L.compData1));
      pb.li(rTmpA, 4 * (s * 80 + 16));
      pb.emit(ins(Opcode::ADD, BitrevKernel::kIn, BitrevKernel::kIn, rTmpA));
      liAddr(BitrevKernel::kOut, L.fftWork + 256 * static_cast<u32>(2 * s + a));
      liAddr(BitrevKernel::kIdxTab, revTab);
      pb.li(rTmpB, 64);
      pb.cga(kBitrev, rTmpB);
    }
  }
  emitFftPipeline(4);
  pb.markerEnd();

  pb.marker("data shuffle");
  for (int s = 0; s < 2; ++s) {
    liAddr(InterleaveKernel::kBase0, L.fftWork + 512 * static_cast<u32>(s));
    liAddr(InterleaveKernel::kBase1, L.fftWork + 512 * static_cast<u32>(s) + 256);
    liAddr(InterleaveKernel::kTab, usedTab);
    liAddr(InterleaveKernel::kOut, s == 0 ? L.rxUsed0 : L.rxUsed1);
    pb.li(rTmpB, 52);
    pb.cga(kInterleave, rTmpB);
  }
  pb.markerEnd();

  pb.marker("comp");
  for (int s = 0; s < 2; ++s) {
    liAddr(CompKernel::kRx, s == 0 ? L.rxUsed0 : L.rxUsed1);
    liAddr(CompKernel::kWMat, L.wBuf);
    liAddr(CompKernel::kOut0, L.det0 + 208 * static_cast<u32>(s));
    liAddr(CompKernel::kOut1, L.det1 + 208 * static_cast<u32>(s));
    pb.li(rTmpB, 52);
    pb.cga(kComp, rTmpB);
  }
  pb.markerEnd();

  for (int s = 0; s < 2; ++s) {
    pb.marker("tracking");
    // symbolIndex = pair*2 + s ; pol = polTab[symbolIndex & 31].
    pb.emit(insImm(Opcode::LSL, rTmpA, rPair, 1));
    pb.emit(insImm(Opcode::ADD, rTmpA, rTmpA, s));
    pb.emit(insImm(Opcode::AND, rTmpA, rTmpA, 31));
    pb.emit(insImm(Opcode::LSL, rTmpA, rTmpA, 1));
    liAddr(rTmpB, polTab);
    pb.emit(ins(Opcode::ADD, rTmpB, rTmpB, rTmpA));
    pb.emit(insImm(Opcode::LD_C2, rTmpB, rTmpB, 0));  // pol in rTmpB
    // z = sum_p pilot_p * (expected_p) with expected = base_p*amp*pol.
    pb.li(16, 0);  // zre
    pb.li(17, 0);  // zim
    for (int p = 0; p < 4; ++p) {
      liAddr(rTmpA, pilotOffTab + 2 * static_cast<u32>(p));
      pb.emit(insImm(Opcode::LD_UC2, rTmpA, rTmpA, 0));  // byte offset
      pb.li(18, static_cast<i32>(L.det0 + 208 * static_cast<u32>(s)));
      pb.emit(ins(Opcode::ADD, 18, 18, rTmpA));
      pb.emit(ins(Opcode::LD_I, 18, 18, rZero));  // pilot packed
      emitUnpack(pb, 19, 20, 18);
      liAddr(rTmpA, pilotExpTab + 2 * static_cast<u32>(p));
      pb.emit(insImm(Opcode::LD_C2, rTmpA, rTmpA, 0));
      pb.emit(ins(Opcode::MUL, rTmpA, rTmpA, rTmpB));  // expected
      // zre += mulQ15(p.re, e) ; zim += mulQ15(p.im, e).
      pb.emit(ins(Opcode::MUL, 19, 19, rTmpA));
      pb.li(21, 16384);
      pb.emit(ins(Opcode::ADD, 19, 19, 21));
      pb.emit(insImm(Opcode::ASR, 19, 19, 15));
      pb.emit(ins(Opcode::ADD, 16, 16, 19));
      pb.emit(ins(Opcode::MUL, 20, 20, rTmpA));
      pb.emit(ins(Opcode::ADD, 20, 20, 21));
      pb.emit(insImm(Opcode::ASR, 20, 20, 15));
      pb.emit(ins(Opcode::ADD, 17, 17, 20));
    }
    emitAtan2(pb, 18, 17, 16);
    pb.li(19, 65536);
    pb.emit(ins(Opcode::SUB, 18, 19, 18));
    pb.emit(insImm(Opcode::LSL, 18, 18, 16));
    pb.emit(insImm(Opcode::LSR, 18, 18, 16));
    emitPhasor(pb, 20, 18);  // derot packed
    emitBroadcast64(pb, DemodKernel::kDerot, 20);
    pb.markerEnd();

    if (mod == dsp::Modulation::kQam16) {
      pb.marker("demod QAM16");
      loadConst(DemodKernel::kThr, kCSplat3300);
      loadConst(DemodKernel::kThree, kCSplat3);
    } else {
      pb.marker("demod QAM64");
      loadConst(DemodKernel::kOffW, kCSplat6400);
      loadConst(DemodKernel::kC12, kCSplat12);
      loadConst(DemodKernel::kMul, kCSplat1312);
      loadConst(DemodKernel::kZero, kCSplat0);
      loadConst(DemodKernel::kSeven, kCSplat7);
    }
    for (int stream = 0; stream < 2; ++stream) {
      pb.li(DemodKernel::kDet,
            static_cast<i32>((stream == 0 ? L.det0 : L.det1) + 208 * static_cast<u32>(s)));
      liAddr(DemodKernel::kTab, dataTab);
      // gray output slot: ((pair*2 + s)*2 + stream) * 192 bytes.
      pb.emit(insImm(Opcode::LSL, rTmpA, rPair, 1));
      pb.emit(insImm(Opcode::ADD, rTmpA, rTmpA, s));
      pb.emit(insImm(Opcode::LSL, rTmpA, rTmpA, 1));
      pb.emit(insImm(Opcode::ADD, rTmpA, rTmpA, stream));
      pb.li(rTmpB, 192);
      pb.emit(ins(Opcode::MUL, rTmpA, rTmpA, rTmpB));
      pb.li(DemodKernel::kOut, static_cast<i32>(L.gray));
      pb.emit(ins(Opcode::ADD, DemodKernel::kOut, DemodKernel::kOut, rTmpA));
      pb.li(rTmpB, 48);
      pb.cga(kDemod, rTmpB);
    }
    pb.markerEnd();
  }

  // Loop control.
  pb.marker("non-kernel code");
  pb.emit(insImm(Opcode::ADD, rPair, rPair, 1));
  pb.predLt(1, rPair, rNumPairs);
  pb.markerEnd();
  pb.brIf(1, top);
}

}  // namespace

ModemOnProcessor buildModemProgram(const dsp::ModemConfig& cfg) {
  ADRES_CHECK(cfg.mod == dsp::Modulation::kQam64 ||
                  cfg.mod == dsp::Modulation::kQam16,
              "the mapped demod kernel implements QAM-16 and QAM-64 only");
  const int numSymbols = cfg.numSymbols;
  ADRES_CHECK(numSymbols >= 2 && numSymbols % 2 == 0,
              "data symbols come in pairs");
  Emitter e;
  e.numSymbols = numSymbols;
  e.mod = cfg.mod;
  e.emitTablesAndLayout();
  e.emitPrologue();
  e.emitDetection();
  e.emitCoarseCfo();
  e.emitCoarseCompensation();
  e.emitTiming();
  e.emitFineCfo();
  e.emitMimoCompensation();
  e.emitPreambleFfts();
  e.emitOrderingAndChest();
  e.emitEqualizer();
  e.emitDataLoop();
  e.pb.halt();

  ModemOnProcessor out;
  out.program = e.pb.build();
  out.layout = e.L;
  out.config = cfg;
  out.numSymbols = numSymbols;
  // The per-tier plan sets are built lazily through plansFor(); the cache
  // is shared by every copy of this struct (the RxSession program cache
  // hands out copies, so all packet-farm workers converge on one set per
  // tier).
  out.planCache = std::make_shared<detail::ModemPlanCache>();
  return out;
}

std::shared_ptr<const ProgramPlans> ModemOnProcessor::plansFor(
    ExecTier tier) const {
  ADRES_CHECK(planCache != nullptr,
              "modem program has no plan cache (not built by "
              "buildModemProgram?)");
  const auto idx = static_cast<std::size_t>(tier);
  ADRES_CHECK(idx < static_cast<std::size_t>(kExecTierCount),
              "unknown exec tier " << static_cast<int>(tier));
  std::lock_guard<std::mutex> lock(planCache->mu);
  std::shared_ptr<const ProgramPlans>& slot = planCache->byTier[idx];
  if (!slot) slot = buildProgramPlans(program.kernels, tier);
  return slot;
}

ProcessorRxResult runModemOnProcessor(
    Processor& proc, const ModemOnProcessor& m,
    const std::array<std::vector<cint16>, 2>& rx, const RxRunOptions& opts) {
  ProcessorRxResult out;
  runModemOnProcessor(proc, m, rx, opts, out);
  return out;
}

void runModemOnProcessor(Processor& proc, const ModemOnProcessor& m,
                         const std::array<std::vector<cint16>, 2>& rx,
                         const RxRunOptions& opts, ProcessorRxResult& out) {
  out.detected = false;
  out.ltfStart = 0;
  out.bits.clear();
  out.cycles = 0;
  out.elapsedUs = 0.0;
  out.stop = StopReason::kHalt;
  // Always-set (not guarded) so a baseline run clears a previous attachment;
  // a sink left dangling from an earlier traced run would otherwise be used.
  proc.setTrace(opts.trace);
  proc.setKernelProfiling(opts.profile);
  proc.setRegionLog(opts.regionLog);
  ExecPolicy pol = opts.exec;
  if (!pol.plans) pol.plans = m.plansFor(pol.tier);
  proc.load(m.program, std::move(pol));
  // DMA the antenna waveforms into L1.  A cint16 is two little-endian i16
  // (re, im) — on a little-endian host its memory image is exactly the
  // byte order the old staging loop produced, so the samples go straight
  // from the submitter's buffer with no per-packet staging vector.
  static_assert(sizeof(cint16) == 4, "cint16 must pack into one DMA word");
  for (int a = 0; a < 2; ++a) {
    const std::vector<cint16>& w = rx[static_cast<std::size_t>(a)];
    const u32 dst = a == 0 ? m.layout.rx0 : m.layout.rx1;
    if constexpr (std::endian::native == std::endian::little) {
      proc.dma().toL1(dst, reinterpret_cast<const u8*>(w.data()),
                      w.size() * sizeof(cint16));
    } else {
      std::vector<u8> bytes;
      bytes.reserve(w.size() * 4);
      for (const cint16& v : w) {
        bytes.push_back(static_cast<u8>(static_cast<u16>(v.re)));
        bytes.push_back(static_cast<u8>(static_cast<u16>(v.re) >> 8));
        bytes.push_back(static_cast<u8>(static_cast<u16>(v.im)));
        bytes.push_back(static_cast<u8>(static_cast<u16>(v.im) >> 8));
      }
      proc.dma().toL1(dst, bytes);
    }
  }
  if (opts.progressCycles == nullptr && opts.cancel == nullptr) {
    out.stop = proc.run(opts.maxCycles);
  } else {
    // Supervised run: slice the budget so a heartbeat is published (and a
    // cancel request honoured) every progressIntervalCycles.  run() resumes
    // from held pipeline state, so the slicing is bit- and cycle-exact.
    const u64 interval = std::max<u64>(1, opts.progressIntervalCycles);
    const u64 startCycle = proc.cycles();
    for (;;) {
      if (opts.cancel != nullptr &&
          opts.cancel->load(std::memory_order_relaxed) != 0) {
        out.stop = StopReason::kCancelled;
        break;
      }
      const u64 used = proc.cycles() - startCycle;
      if (used >= opts.maxCycles) {
        out.stop = StopReason::kMaxCycles;
        break;
      }
      out.stop = proc.run(std::min(interval, opts.maxCycles - used));
      if (opts.progressCycles != nullptr)
        opts.progressCycles->store(proc.cycles(), std::memory_order_relaxed);
      if (out.stop != StopReason::kMaxCycles) break;
    }
  }
  out.cycles = proc.cycles();
  out.elapsedUs = proc.elapsedUs();
  if (!out.halted()) return;
  out.detected = proc.l1().read32(m.layout.status) != 0;
  out.ltfStart = proc.l1().read32(m.layout.status + 4);

  // Decode gray words into payload bits (sym-major, stream, tone,
  // bitsPerSymbol bits: I axis first, then Q — mirroring qamDemap).
  const int ab = dsp::bitsPerSymbol(m.config.mod) / 2;
  const u32 axisMask = (1u << ab) - 1u;
  const int bitsPerSym = 48 * 2 * ab;  // per stream
  out.bits.resize(static_cast<std::size_t>(m.numSymbols) *
                  static_cast<std::size_t>(2 * bitsPerSym));
  for (int sym = 0; sym < m.numSymbols; ++sym) {
    for (int stream = 0; stream < 2; ++stream) {
      const u32 base = m.layout.gray +
                       192u * static_cast<u32>(sym * 2 + stream);
      for (int d = 0; d < 48; ++d) {
        const u32 w = proc.l1().read32(base + 4 * static_cast<u32>(d));
        const u32 gI = w & axisMask;
        const u32 gQ = (w >> 16) & axisMask;
        const std::size_t bit0 = static_cast<std::size_t>(
            (sym * 2 + stream) * bitsPerSym + d * 2 * ab);
        for (int i = 0; i < ab; ++i) {
          out.bits[bit0 + static_cast<std::size_t>(i)] =
              static_cast<u8>((gI >> i) & 1);
          out.bits[bit0 + static_cast<std::size_t>(i + ab)] =
              static_cast<u8>((gQ >> i) & 1);
        }
      }
    }
  }
  if (opts.faultInjectBitFlipSeed != 0 && !out.bits.empty()) {
    // Seeded single-bit corruption of the *decoded* payload: the simulator
    // state, cycle count and counters stay exact, so only a bit-level
    // shadow comparison can notice.
    out.bits[static_cast<std::size_t>(mix64(opts.faultInjectBitFlipSeed) %
                                      out.bits.size())] ^= 1;
  }
}

}  // namespace adres::sdr
