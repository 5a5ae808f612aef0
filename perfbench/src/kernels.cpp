#include "kernels.hpp"

#include "common/rng.hpp"
#include "dsp/lanes.hpp"
#include "dsp/mimo.hpp"
#include "sdr/kernels.hpp"
#include "sdr/tables.hpp"

namespace perfbench {

using namespace adres;
using namespace adres::sdr;
using dsp::lanes::splat;

namespace {

// L1 address plan of the standalone environment.
constexpr u32 kPatternEnd = 0x5000;  // [0x100, kPatternEnd) = pattern
constexpr u32 kRevTab = 0x5000;
constexpr u32 kUsedTab = 0x5100;
constexpr u32 kDataTab = 0x5200;
constexpr u32 kSignTab = 0x5300;
constexpr u32 kLtfRef = 0x5600;
constexpr u32 kStageTabBase = 0x6000;  // per stage: +0x800, twiddles at +0x400
constexpr u32 kOutBase = 0x10000;      // outputs land here
constexpr u32 kClearEnd = 0x20000;

u32 stageBase(int s) { return kStageTabBase + 0x800u * static_cast<u32>(s - 2); }

void writeU16Table(Scratchpad& l1, u32 addr, const std::vector<u16>& t) {
  for (std::size_t i = 0; i < t.size(); ++i)
    l1.write16(addr + 2 * static_cast<u32>(i), t[i]);
}

void writeWordTable(Scratchpad& l1, u32 addr, const std::vector<Word>& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    l1.write32(addr + 8 * static_cast<u32>(i), static_cast<u32>(t[i]));
    l1.write32(addr + 8 * static_cast<u32>(i) + 4, static_cast<u32>(t[i] >> 32));
  }
}

}  // namespace

void prepareFabric(Fabric& f) {
  f.crf.clear();
  f.array.clearState();
  f.l1.arbiter().reset();
  Rng rng(0xADE5F1D0u);
  for (u32 a = 0x100; a < kPatternEnd; a += 4)
    f.l1.write32(a, static_cast<u32>(rng.next()));
  for (u32 a = kPatternEnd; a < kClearEnd; a += 4) f.l1.write32(a, 0);
  writeU16Table(f.l1, kRevTab, bitrevByteOffsets());
  writeU16Table(f.l1, kUsedTab, usedBinByteOffsets());
  writeU16Table(f.l1, kDataTab, dataToneByteOffsets());
  writeWordTable(f.l1, kSignTab, ltfSignSplats());
  writeWordTable(f.l1, kLtfRef, ltfConjBroadcast());
  for (int s = 2; s <= 6; ++s) {
    const FftStageTables t = fftStageTables(s, 4);
    writeU16Table(f.l1, stageBase(s), t.aOffsets);
    writeWordTable(f.l1, stageBase(s) + 0x400, t.twiddlePairs);
  }
  f.l1.resetStats();
  f.act.reset();
}

std::vector<KernelSpec> tableTwoKernels(dsp::Modulation mod) {
  std::vector<KernelSpec> ks;
  auto add = [&ks](std::string name, std::string programName,
                   std::function<KernelDfg()> build, u32 trips,
                   std::function<void(Fabric&)> setup) {
    ks.push_back({std::move(name), std::move(programName), std::move(build),
                  trips, std::move(setup)});
  };
  add("acorr", "acorr", AcorrKernel::build, AcorrKernel::kTrips, [](Fabric& f) {
    f.crf.poke(AcorrKernel::kSrc, 0x100);
    f.crf.poke(AcorrKernel::kSrcLag, 0x100 + 64);
    f.crf.poke(AcorrKernel::kIdx, 0);
    f.crf.poke(AcorrKernel::kSplat, splat(8192));
    f.crf.poke(AcorrKernel::kAccP, 0);
    f.crf.poke(AcorrKernel::kAccE1, 0);
    f.crf.poke(AcorrKernel::kAccE2, 0);
  });
  add("cfo", "cfo_corr", CfoCorrKernel::build, CfoCorrKernel::trips(64),
      [](Fabric& f) {
        f.crf.poke(CfoCorrKernel::kSrc, 0x400);
        f.crf.poke(CfoCorrKernel::kSrcLag, 0x400 + 64);
        f.crf.poke(CfoCorrKernel::kIdx, 0);
        f.crf.poke(CfoCorrKernel::kSplat, splat(8192));
        f.crf.poke(CfoCorrKernel::kAcc, 0);
      });
  add("fshift", "fshift", FshiftKernel::build, FshiftKernel::trips(160),
      [](Fabric& f) {
        f.crf.poke(FshiftKernel::kSrc, 0x800);
        f.crf.poke(FshiftKernel::kDst, kOutBase);
        f.crf.poke(FshiftKernel::kPhA, splat(23170));
        f.crf.poke(FshiftKernel::kPhB, splat(-23170));
        f.crf.poke(FshiftKernel::kW4, splat(32767));
        f.crf.poke(FshiftKernel::kIdx, 0);
      });
  add("xcorr", "xcorr", XcorrKernel::build, XcorrKernel::kTrips, [](Fabric& f) {
    f.crf.poke(XcorrKernel::kSrc, 0xC00);
    f.crf.poke(XcorrKernel::kRef, kLtfRef);
    for (int j = 0; j < 4; ++j) f.crf.poke(XcorrKernel::kAccBase + j, 0);
  });
  add("bitrev", "fft_bitrev", BitrevKernel::build, BitrevKernel::trips(1),
      [](Fabric& f) {
        f.crf.poke(BitrevKernel::kIn, 0x1000);
        f.crf.poke(BitrevKernel::kOut, kOutBase + 0x400);
        f.crf.poke(BitrevKernel::kIdxTab, kRevTab);
      });
  add("fft_stage1", "fft_stage1", FftStage1Kernel::build,
      FftStage1Kernel::trips(4),
      [](Fabric& f) { f.crf.poke(FftStage1Kernel::kBuf, 0x2000); });
  for (int s = 2; s <= 6; ++s) {
    const int halfBytes = fftStageTables(s, 4).halfBytes;
    add("fft_stage" + std::to_string(s), "fft_stage",
        [halfBytes, s] { return FftStageKernel::build(halfBytes, s == 6); },
        FftStageKernel::trips(4), [s](Fabric& f) {
          f.crf.poke(FftStageKernel::kBuf, 0x2000);
          f.crf.poke(FftStageKernel::kOffTab, stageBase(s));
          f.crf.poke(FftStageKernel::kTwTab, stageBase(s) + 0x400);
        });
  }
  add("interleave", "sample_ordering", InterleaveKernel::build,
      InterleaveKernel::kTrips, [](Fabric& f) {
        f.crf.poke(InterleaveKernel::kBase0, 0x1400);
        f.crf.poke(InterleaveKernel::kBase1, 0x1800);
        f.crf.poke(InterleaveKernel::kTab, kUsedTab);
        f.crf.poke(InterleaveKernel::kOut, kOutBase + 0x800);
      });
  add("chest", "sdm_processing", ChestKernel::build, ChestKernel::kTrips,
      [](Fabric& f) {
        f.crf.poke(ChestKernel::kLtf1, 0x1400);
        f.crf.poke(ChestKernel::kLtf2, 0x1800);
        f.crf.poke(ChestKernel::kSign, kSignTab);
        f.crf.poke(ChestKernel::kOut, kOutBase + 0x1000);
      });
  add("eqnorm", "eq_coeff_norm", EqCoeffKernel::buildNorm,
      EqCoeffKernel::kTrips, [](Fabric& f) {
        f.crf.poke(EqCoeffKernel::kH, 0x2800);
        f.crf.poke(EqCoeffKernel::kMid, kOutBase + 0x2000);
        f.crf.poke(EqCoeffKernel::kAmp128, dsp::kLtfAmpQ15 << 7);
        f.crf.poke(EqCoeffKernel::kC4096, 4096);
      });
  add("eqapply", "eq_coeff_apply", EqCoeffKernel::buildApply,
      EqCoeffKernel::kTrips, [](Fabric& f) {
        f.crf.poke(EqCoeffKernel::kH, 0x2800);
        f.crf.poke(EqCoeffKernel::kMid, 0x3000);  // pattern records
        f.crf.poke(EqCoeffKernel::kW, kOutBase + 0x2800);
        f.crf.poke(EqCoeffKernel::kAmp128, dsp::kLtfAmpQ15 << 7);
        f.crf.poke(EqCoeffKernel::kC4096, 4096);
      });
  add("comp", "comp", CompKernel::build, CompKernel::kTrips, [](Fabric& f) {
    f.crf.poke(CompKernel::kRx, 0x3800);
    f.crf.poke(CompKernel::kWMat, 0x4000);
    f.crf.poke(CompKernel::kOut0, kOutBase + 0x3000);
    f.crf.poke(CompKernel::kOut1, kOutBase + 0x3400);
  });
  if (mod == dsp::Modulation::kQam16) {
    add("demod", "demod_qam16", DemodKernel::build16, DemodKernel::kTrips,
        [](Fabric& f) {
          f.crf.poke(DemodKernel::kDet, 0x4800);
          f.crf.poke(DemodKernel::kTab, kDataTab);
          f.crf.poke(DemodKernel::kOut, kOutBase + 0x3800);
          f.crf.poke(DemodKernel::kDerot, splat(23170));
          f.crf.poke(DemodKernel::kThr, splat(3300));
          f.crf.poke(DemodKernel::kThree, splat(3));
        });
  } else {
    add("demod", "demod_qam64", DemodKernel::build, DemodKernel::kTrips,
        [](Fabric& f) {
          f.crf.poke(DemodKernel::kDet, 0x4800);
          f.crf.poke(DemodKernel::kTab, kDataTab);
          f.crf.poke(DemodKernel::kOut, kOutBase + 0x3800);
          f.crf.poke(DemodKernel::kDerot, splat(23170));
          f.crf.poke(DemodKernel::kOffW, splat(6400));
          f.crf.poke(DemodKernel::kC12, splat(12));
          f.crf.poke(DemodKernel::kMul, splat(1312));
          f.crf.poke(DemodKernel::kZero, splat(0));
          f.crf.poke(DemodKernel::kSeven, splat(7));
        });
  }
  return ks;
}

const std::vector<PaperRow>& paperRows() {
  // Table 2 of the paper; rows the paper lists per preamble instance are
  // summed per kernel.  Data-phase rows are per merged symbol pair.
  static const std::vector<PaperRow> rows = {
      {"acorr", {"acorr"}, 122 + 194, 0},
      {"freq offset estimation", {"cfo"}, 314, 0},
      {"fshift", {"fshift"}, 211 + 678, 378},
      {"xcorr", {"xcorr"}, 280, 0},
      {"fft (2x)",
       {"bitrev", "fft_stage1", "fft_stage2", "fft_stage3", "fft_stage4",
        "fft_stage5", "fft_stage6"},
       712, 493},
      {"sample ordering", {"interleave"}, 210, 0},
      {"SDM processing", {"chest"}, 1540, 0},
      {"equalize coeff. calc.", {"eqnorm", "eqapply"}, 636, 0},
      {"comp", {"comp"}, 0, 219},
      {"demod", {"demod"}, 0, 224},
  };
  return rows;
}

}  // namespace perfbench
