// Shared Table 2 kernel fixture for the timing-golden test, the fast-path
// A/B test and the golden-dump tool.
//
// Every mapped kernel of the MIMO-OFDM receiver is scheduled once and given
// a deterministic standalone environment: L1 pre-filled with a fixed
// pseudo-random pattern, the real gather/twiddle tables at fixed addresses,
// and the kernel's live-in registers set the way the modem glue would set
// them (aligned buffer pointers, zeroed indices/accumulators, real packed
// constants).  Data *values* are arbitrary — every compute op is total
// (shifts masked, divide-by-zero defined) — but addresses are always valid
// and aligned, so runs are deterministic and assertion-free.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cga/array.hpp"
#include "common/rng.hpp"
#include "dsp/lanes.hpp"
#include "dsp/mimo.hpp"
#include "sched/modulo.hpp"
#include "sdr/kernels.hpp"
#include "sdr/tables.hpp"

namespace adres::testsupport {

struct Fabric {
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  ActivityCounters act;
  CgaArray array{crf, l1, cfg, act};
};

struct KernelCase {
  std::string name;
  KernelConfig config;
  u32 trips = 0;
  std::function<void(Fabric&)> setup;  ///< pokes live-in CDRF registers
};

// L1 address plan of the standalone environment.
namespace fixaddr {
inline constexpr u32 kPatternEnd = 0x5000;  ///< [0x100, kPatternEnd) = pattern
inline constexpr u32 kRevTab = 0x5000;
inline constexpr u32 kUsedTab = 0x5100;
inline constexpr u32 kDataTab = 0x5200;
inline constexpr u32 kSignTab = 0x5300;
inline constexpr u32 kLtfRef = 0x5600;
inline constexpr u32 kStageTabBase = 0x6000;  ///< per stage: +0x800, tw at +0x400
inline constexpr u32 kOutBase = 0x10000;      ///< outputs land here (zeroed)
inline constexpr u32 kChecksumEnd = 0x20000;  ///< checksummed L1 prefix
}  // namespace fixaddr

inline void writeU16Table(Scratchpad& l1, u32 addr, const std::vector<u16>& t) {
  for (std::size_t i = 0; i < t.size(); ++i)
    l1.write16(addr + 2 * static_cast<u32>(i), t[i]);
}

inline void writeWordTable(Scratchpad& l1, u32 addr, const std::vector<Word>& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    l1.write32(addr + 8 * static_cast<u32>(i), static_cast<u32>(t[i]));
    l1.write32(addr + 8 * static_cast<u32>(i) + 4, static_cast<u32>(t[i] >> 32));
  }
}

/// Clears the fabric and loads the deterministic L1 image (pattern + tables).
inline void prepareFabric(Fabric& f) {
  f.crf.clear();
  f.array.clearState();
  f.l1.arbiter().reset();
  Rng rng(0xADE5F1D0u);
  for (u32 a = 0x100; a < fixaddr::kPatternEnd; a += 4)
    f.l1.write32(a, static_cast<u32>(rng.next()));
  for (u32 a = fixaddr::kPatternEnd; a < fixaddr::kChecksumEnd; a += 4)
    f.l1.write32(a, 0);
  writeU16Table(f.l1, fixaddr::kRevTab, sdr::bitrevByteOffsets());
  writeU16Table(f.l1, fixaddr::kUsedTab, sdr::usedBinByteOffsets());
  writeU16Table(f.l1, fixaddr::kDataTab, sdr::dataToneByteOffsets());
  writeWordTable(f.l1, fixaddr::kSignTab, sdr::ltfSignSplats());
  writeWordTable(f.l1, fixaddr::kLtfRef, sdr::ltfConjBroadcast());
  for (int s = 2; s <= 6; ++s) {
    const sdr::FftStageTables t = sdr::fftStageTables(s, 4);
    const u32 base = fixaddr::kStageTabBase + 0x800u * static_cast<u32>(s - 2);
    writeU16Table(f.l1, base, t.aOffsets);
    writeWordTable(f.l1, base + 0x400, t.twiddlePairs);
  }
  f.l1.resetStats();
  f.cfg.resetStats();
  f.crf.resetStats();
  for (int fu = 0; fu < kCgaFus; ++fu) f.array.localRf(fu).resetStats();
  f.act.reset();
}

/// FNV-1a over the architectural state the kernels can touch.  Reads L1
/// through the stats-counting accessors — capture stats before calling.
inline u64 fabricChecksum(Fabric& f) {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (int fu = 0; fu < kCgaFus; ++fu) {
    mix(f.array.outputReg(fu));
    for (int r = 0; r < kLocalRfRegs; ++r) mix(f.array.localRf(fu).peek(r));
  }
  for (int r = 0; r < kCdrfRegs; ++r) mix(f.crf.peek(r));
  for (int p = 0; p < kCprfRegs; ++p) mix(f.crf.peekPred(p) ? 1 : 0);
  for (u32 a = 0; a < fixaddr::kChecksumEnd; a += 4) mix(f.l1.read32(a));
  return h;
}

/// All Table 2 kernels with canonical trip counts and modem-like setups.
inline std::vector<KernelCase> tableTwoKernelCases() {
  using namespace sdr;
  using dsp::lanes::splat;
  std::vector<KernelCase> cases;
  auto add = [&cases](std::string name, KernelDfg dfg, u32 trips,
                      std::function<void(Fabric&)> setup) {
    KernelCase c;
    c.name = std::move(name);
    c.config = scheduleKernel(dfg).config;
    c.trips = trips;
    c.setup = std::move(setup);
    cases.push_back(std::move(c));
  };

  add("acorr", AcorrKernel::build(), AcorrKernel::kTrips, [](Fabric& f) {
    f.crf.poke(AcorrKernel::kSrc, 0x100);
    f.crf.poke(AcorrKernel::kSrcLag, 0x100 + 64);
    f.crf.poke(AcorrKernel::kIdx, 0);
    f.crf.poke(AcorrKernel::kSplat, splat(8192));
    f.crf.poke(AcorrKernel::kAccP, 0);
    f.crf.poke(AcorrKernel::kAccE1, 0);
    f.crf.poke(AcorrKernel::kAccE2, 0);
  });
  add("cfo", CfoCorrKernel::build(), CfoCorrKernel::trips(64), [](Fabric& f) {
    f.crf.poke(CfoCorrKernel::kSrc, 0x400);
    f.crf.poke(CfoCorrKernel::kSrcLag, 0x400 + 64);
    f.crf.poke(CfoCorrKernel::kIdx, 0);
    f.crf.poke(CfoCorrKernel::kSplat, splat(8192));
    f.crf.poke(CfoCorrKernel::kAcc, 0);
  });
  add("fshift", FshiftKernel::build(), FshiftKernel::trips(160), [](Fabric& f) {
    f.crf.poke(FshiftKernel::kSrc, 0x800);
    f.crf.poke(FshiftKernel::kDst, fixaddr::kOutBase);
    f.crf.poke(FshiftKernel::kPhA, splat(23170));
    f.crf.poke(FshiftKernel::kPhB, splat(-23170));
    f.crf.poke(FshiftKernel::kW4, splat(32767));
    f.crf.poke(FshiftKernel::kIdx, 0);
  });
  add("xcorr", XcorrKernel::build(), XcorrKernel::kTrips, [](Fabric& f) {
    f.crf.poke(XcorrKernel::kSrc, 0xC00);
    f.crf.poke(XcorrKernel::kRef, fixaddr::kLtfRef);
    for (int j = 0; j < 4; ++j) f.crf.poke(XcorrKernel::kAccBase + j, 0);
  });
  add("bitrev", BitrevKernel::build(), BitrevKernel::trips(1), [](Fabric& f) {
    f.crf.poke(BitrevKernel::kIn, 0x1000);
    f.crf.poke(BitrevKernel::kOut, fixaddr::kOutBase + 0x400);
    f.crf.poke(BitrevKernel::kIdxTab, fixaddr::kRevTab);
  });
  add("fft stage1", FftStage1Kernel::build(), FftStage1Kernel::trips(4),
      [](Fabric& f) { f.crf.poke(FftStage1Kernel::kBuf, 0x2000); });
  for (int s = 2; s <= 6; ++s) {
    const FftStageTables t = fftStageTables(s, 4);
    add("fft stage" + std::to_string(s),
        FftStageKernel::build(t.halfBytes, /*scaleX8=*/s == 6),
        FftStageKernel::trips(4), [s](Fabric& f) {
          const u32 base = fixaddr::kStageTabBase + 0x800u * static_cast<u32>(s - 2);
          f.crf.poke(FftStageKernel::kBuf, 0x2000);
          f.crf.poke(FftStageKernel::kOffTab, base);
          f.crf.poke(FftStageKernel::kTwTab, base + 0x400);
        });
  }
  add("interleave", InterleaveKernel::build(), InterleaveKernel::kTrips,
      [](Fabric& f) {
        f.crf.poke(InterleaveKernel::kBase0, 0x1400);
        f.crf.poke(InterleaveKernel::kBase1, 0x1800);
        f.crf.poke(InterleaveKernel::kTab, fixaddr::kUsedTab);
        f.crf.poke(InterleaveKernel::kOut, fixaddr::kOutBase + 0x800);
      });
  add("chest", ChestKernel::build(), ChestKernel::kTrips, [](Fabric& f) {
    f.crf.poke(ChestKernel::kLtf1, 0x1400);
    f.crf.poke(ChestKernel::kLtf2, 0x1800);
    f.crf.poke(ChestKernel::kSign, fixaddr::kSignTab);
    f.crf.poke(ChestKernel::kOut, fixaddr::kOutBase + 0x1000);
  });
  add("eqnorm", EqCoeffKernel::buildNorm(), EqCoeffKernel::kTrips,
      [](Fabric& f) {
        f.crf.poke(EqCoeffKernel::kH, 0x2800);
        f.crf.poke(EqCoeffKernel::kMid, fixaddr::kOutBase + 0x2000);
        f.crf.poke(EqCoeffKernel::kAmp128, dsp::kLtfAmpQ15 << 7);
        f.crf.poke(EqCoeffKernel::kC4096, 4096);
      });
  add("eqapply", EqCoeffKernel::buildApply(), EqCoeffKernel::kTrips,
      [](Fabric& f) {
        f.crf.poke(EqCoeffKernel::kH, 0x2800);
        f.crf.poke(EqCoeffKernel::kMid, 0x3000);  // pattern records
        f.crf.poke(EqCoeffKernel::kW, fixaddr::kOutBase + 0x2800);
        f.crf.poke(EqCoeffKernel::kAmp128, dsp::kLtfAmpQ15 << 7);
        f.crf.poke(EqCoeffKernel::kC4096, 4096);
      });
  add("comp", CompKernel::build(), CompKernel::kTrips, [](Fabric& f) {
    f.crf.poke(CompKernel::kRx, 0x3800);
    f.crf.poke(CompKernel::kWMat, 0x4000);
    f.crf.poke(CompKernel::kOut0, fixaddr::kOutBase + 0x3000);
    f.crf.poke(CompKernel::kOut1, fixaddr::kOutBase + 0x3400);
  });
  add("demod", DemodKernel::build(), DemodKernel::kTrips, [](Fabric& f) {
    f.crf.poke(DemodKernel::kDet, 0x4800);
    f.crf.poke(DemodKernel::kTab, fixaddr::kDataTab);
    f.crf.poke(DemodKernel::kOut, fixaddr::kOutBase + 0x3800);
    f.crf.poke(DemodKernel::kDerot, splat(23170));
    f.crf.poke(DemodKernel::kOffW, splat(6400));
    f.crf.poke(DemodKernel::kC12, splat(12));
    f.crf.poke(DemodKernel::kMul, splat(1312));
    f.crf.poke(DemodKernel::kZero, splat(0));
    f.crf.poke(DemodKernel::kSeven, splat(7));
  });
  return cases;
}

}  // namespace adres::testsupport
