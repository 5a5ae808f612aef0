// Batch 3: sample ordering, channel estimation, equalizer coefficients,
// SDM detection and QAM-64 demod kernels — bit-exact against dsp/ models.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/lanes.hpp"
#include "dsp/mimo.hpp"
#include "dsp/qam.hpp"
#include "dsp/trig.hpp"
#include "sdr/kernels.hpp"
#include "sdr/tables.hpp"
#include "testutil.hpp"

namespace adres::sdr {
namespace {

using testutil::runKernel;

struct Fabric {
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  ActivityCounters act;
  CgaArray array{crf, l1, cfg, act};
};

std::vector<u8> samplesToBytes(const std::vector<cint16>& s) {
  std::vector<u8> out;
  for (const auto& v : s) {
    out.push_back(static_cast<u8>(static_cast<u16>(v.re)));
    out.push_back(static_cast<u8>(static_cast<u16>(v.re) >> 8));
    out.push_back(static_cast<u8>(static_cast<u16>(v.im)));
    out.push_back(static_cast<u8>(static_cast<u16>(v.im) >> 8));
  }
  return out;
}

std::vector<u8> wordsToBytes(const std::vector<Word>& ws) {
  std::vector<u8> out;
  for (Word w : ws)
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(w >> (8 * i)));
  return out;
}

std::vector<u8> u16ToBytes(const std::vector<u16>& vs) {
  std::vector<u8> out;
  for (u16 v : vs) {
    out.push_back(static_cast<u8>(v));
    out.push_back(static_cast<u8>(v >> 8));
  }
  return out;
}

cint16 readC(Scratchpad& l1, u32 addr) {
  const u32 w = l1.read32(addr);
  return {static_cast<i16>(w & 0xFFFF), static_cast<i16>(w >> 16)};
}

std::vector<cint16> randomSpectrum(Rng& rng, int div = 4) {
  std::vector<cint16> s(64);
  for (auto& v : s)
    v = {static_cast<i16>(static_cast<i16>(rng.next()) / div),
         static_cast<i16>(static_cast<i16>(rng.next()) / div)};
  return s;
}

TEST(InterleaveKernel, GathersUsedTones) {
  Rng rng(3);
  const auto s0 = randomSpectrum(rng);
  const auto s1 = randomSpectrum(rng);
  Fabric f;
  f.l1.loadBytes(0x1000, samplesToBytes(s0));
  f.l1.loadBytes(0x1100, samplesToBytes(s1));
  f.l1.loadBytes(0x5000, u16ToBytes(usedBinByteOffsets()));
  const ScheduledKernel sk = scheduleKernel(InterleaveKernel::build());
  f.crf.poke(InterleaveKernel::kBase0, 0x1000);
  f.crf.poke(InterleaveKernel::kBase1, 0x1100);
  f.crf.poke(InterleaveKernel::kTab, 0x5000);
  f.crf.poke(InterleaveKernel::kOut, 0x2000);
  (void)runKernel(f.array, sk.config, InterleaveKernel::kTrips);

  const auto used0 = dsp::gatherUsedCarriers(s0);
  const auto used1 = dsp::gatherUsedCarriers(s1);
  for (int t = 0; t < 52; ++t) {
    EXPECT_EQ(readC(f.l1, 0x2000 + 8 * static_cast<u32>(t)), used0[static_cast<std::size_t>(t)]);
    EXPECT_EQ(readC(f.l1, 0x2000 + 8 * static_cast<u32>(t) + 4), used1[static_cast<std::size_t>(t)]);
  }
}

/// Builds interleaved used-tone buffers from two spectra (as the
/// interleave kernel would) into the given L1 address.
void loadInterleaved(Fabric& f, u32 addr, const std::vector<cint16>& a0,
                     const std::vector<cint16>& a1) {
  const auto u0 = dsp::gatherUsedCarriers(a0);
  const auto u1 = dsp::gatherUsedCarriers(a1);
  std::vector<Word> ws(52);
  for (int t = 0; t < 52; ++t)
    ws[static_cast<std::size_t>(t)] =
        packC2(u0[static_cast<std::size_t>(t)], u1[static_cast<std::size_t>(t)]);
  f.l1.loadBytes(addr, wordsToBytes(ws));
}

TEST(ChestKernel, MatchesGoldenEstimate) {
  Rng rng(9);
  std::array<std::vector<cint16>, 2> l1s{randomSpectrum(rng), randomSpectrum(rng)};
  std::array<std::vector<cint16>, 2> l2s{randomSpectrum(rng), randomSpectrum(rng)};
  const auto golden = dsp::estimateChannel(l1s, l2s);

  Fabric f;
  loadInterleaved(f, 0x1000, l1s[0], l1s[1]);
  loadInterleaved(f, 0x1200, l2s[0], l2s[1]);
  f.l1.loadBytes(0x5000, wordsToBytes(ltfSignSplats()));
  const ScheduledKernel sk = scheduleKernel(ChestKernel::build());
  f.crf.poke(ChestKernel::kLtf1, 0x1000);
  f.crf.poke(ChestKernel::kLtf2, 0x1200);
  f.crf.poke(ChestKernel::kSign, 0x5000);
  f.crf.poke(ChestKernel::kOut, 0x3000);
  const CgaRunResult r = runKernel(f.array, sk.config, ChestKernel::kTrips);

  for (int t = 0; t < 52; ++t) {
    const u32 base = 0x3000 + 16 * static_cast<u32>(t);
    EXPECT_EQ(readC(f.l1, base + 0), golden[static_cast<std::size_t>(t)].h[0][0]) << t;
    EXPECT_EQ(readC(f.l1, base + 4), golden[static_cast<std::size_t>(t)].h[1][0]) << t;
    EXPECT_EQ(readC(f.l1, base + 8), golden[static_cast<std::size_t>(t)].h[0][1]) << t;
    EXPECT_EQ(readC(f.l1, base + 12), golden[static_cast<std::size_t>(t)].h[1][1]) << t;
  }
  EXPECT_LT(r.cycles, 900u) << "chest II=" << sk.ii;
}

/// Writes a chest-layout H buffer for the given estimates.
void loadChestLayout(Fabric& f, u32 addr, const std::vector<dsp::ChannelEst>& est) {
  std::vector<Word> ws;
  for (const auto& e : est) {
    ws.push_back(packC2(e.h[0][0], e.h[1][0]));
    ws.push_back(packC2(e.h[0][1], e.h[1][1]));
  }
  f.l1.loadBytes(addr, wordsToBytes(ws));
}

std::vector<dsp::ChannelEst> randomEstimates(Rng& rng) {
  std::vector<dsp::ChannelEst> est(52);
  for (auto& e : est)
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j)
        e.h[i][j] = {static_cast<i16>(static_cast<i16>(rng.next()) / 4),
                     static_cast<i16>(static_cast<i16>(rng.next()) / 4)};
  return est;
}

TEST(EqCoeffKernel, MatchesGoldenBitExact) {
  Rng rng(31);
  const auto est = randomEstimates(rng);
  Fabric f;
  loadChestLayout(f, 0x1000, est);
  const ScheduledKernel skN = scheduleKernel(EqCoeffKernel::buildNorm());
  const ScheduledKernel skA = scheduleKernel(EqCoeffKernel::buildApply());
  f.crf.poke(EqCoeffKernel::kH, 0x1000);
  f.crf.poke(EqCoeffKernel::kW, 0x4000);
  f.crf.poke(EqCoeffKernel::kMid, 0x8000);
  f.crf.poke(EqCoeffKernel::kAmp128, static_cast<u32>(dsp::kLtfAmpQ15) << 7);
  f.crf.poke(EqCoeffKernel::kC4096, 4096);
  f.crf.poke(40, 0);
  f.crf.poke(41, 32767);
  f.crf.poke(42, static_cast<u32>(static_cast<i32>(-32768)));
  CgaRunResult r = runKernel(f.array, skN.config, EqCoeffKernel::kTrips);
  f.crf.poke(EqCoeffKernel::kH, 0x1000);  // re-seed pointers for phase 2
  const CgaRunResult r2 = runKernel(f.array, skA.config, EqCoeffKernel::kTrips);
  r.cycles += r2.cycles;

  for (int t = 0; t < 52; ++t) {
    const dsp::EqMatrix g = dsp::equalizerCoeffOne(est[static_cast<std::size_t>(t)]);
    const u32 base = 0x4000 + 16 * static_cast<u32>(t);
    EXPECT_EQ(readC(f.l1, base + 0), g.w[0][0]) << "tone " << t;
    EXPECT_EQ(readC(f.l1, base + 4), g.w[0][1]) << "tone " << t;
    EXPECT_EQ(readC(f.l1, base + 8), g.w[1][0]) << "tone " << t;
    EXPECT_EQ(readC(f.l1, base + 12), g.w[1][1]) << "tone " << t;
  }
  // Table 2 shape: paper reports 636 cycles for equalize coeff calc.
  EXPECT_LT(r.cycles, 3000u) << "eqcoeff II=" << skN.ii << "+" << skA.ii;
}

TEST(CompKernel, MatchesGoldenSdmDetect) {
  Rng rng(17);
  const auto est = randomEstimates(rng);
  const auto eq = dsp::equalizerCoeffs(est);
  std::array<std::vector<cint16>, 2> rxUsed;
  for (auto& v : rxUsed) {
    v.resize(52);
    for (auto& s : v)
      s = {static_cast<i16>(static_cast<i16>(rng.next()) / 4),
           static_cast<i16>(static_cast<i16>(rng.next()) / 4)};
  }
  const auto golden = dsp::sdmDetect(eq, rxUsed);

  Fabric f;
  // Interleaved rx words and W matrices in the eqcoeff layout.
  std::vector<Word> rxw(52), ww;
  for (int t = 0; t < 52; ++t) {
    rxw[static_cast<std::size_t>(t)] =
        packC2(rxUsed[0][static_cast<std::size_t>(t)], rxUsed[1][static_cast<std::size_t>(t)]);
    ww.push_back(packC2(eq[static_cast<std::size_t>(t)].w[0][0], eq[static_cast<std::size_t>(t)].w[0][1]));
    ww.push_back(packC2(eq[static_cast<std::size_t>(t)].w[1][0], eq[static_cast<std::size_t>(t)].w[1][1]));
  }
  f.l1.loadBytes(0x1000, wordsToBytes(rxw));
  f.l1.loadBytes(0x2000, wordsToBytes(ww));
  const ScheduledKernel sk = scheduleKernel(CompKernel::build());
  f.crf.poke(CompKernel::kRx, 0x1000);
  f.crf.poke(CompKernel::kWMat, 0x2000);
  f.crf.poke(CompKernel::kOut0, 0x6000);
  f.crf.poke(CompKernel::kOut1, 0x6400);
  const CgaRunResult r = runKernel(f.array, sk.config, CompKernel::kTrips);

  for (int t = 0; t < 52; ++t) {
    EXPECT_EQ(readC(f.l1, 0x6000 + 4 * static_cast<u32>(t)),
              golden[0][static_cast<std::size_t>(t)]) << t;
    EXPECT_EQ(readC(f.l1, 0x6400 + 4 * static_cast<u32>(t)),
              golden[1][static_cast<std::size_t>(t)]) << t;
  }
  // Paper: "comp" runs in 219 cycles for two merged symbols.
  EXPECT_LT(r.cycles, 800u) << "comp II=" << sk.ii;
}

// The SIMD slicing recipe used by the demod kernel must equal the generic
// sliceLevel for every 16-bit input (exhaustive).
TEST(DemodSlicing, RecipeEqualsSliceLevelExhaustive) {
  const i16 unit = dsp::qamUnit(dsp::Modulation::kQam64);
  ASSERT_EQ(unit, 800);
  for (i32 v = -32768; v <= 32767; ++v) {
    // Kernel recipe.
    const i16 x1 = satAdd16(static_cast<i16>(v), 6400);
    const i16 x2 = static_cast<i16>(x1 >> 6);
    const i16 x3 = satSub16(x2, 12);
    i16 idx = mulQ15(x3, 1312);
    if (idx < 0) idx = 0;
    if (idx > 7) idx = 7;
    // Golden demap: recover the level index from the mapped bits.
    std::vector<u8> bits(6);
    dsp::qamDemap(dsp::Modulation::kQam64,
                  {static_cast<i16>(v), static_cast<i16>(-7 * unit)}, bits, 0);
    u32 bv = 0;
    for (int i = 0; i < 3; ++i) bv |= static_cast<u32>(bits[static_cast<std::size_t>(i)]) << i;
    // gray(idx) must equal the golden bits.
    const u32 gray = static_cast<u32>(idx) ^ (static_cast<u32>(idx) >> 1);
    ASSERT_EQ(gray, bv) << "v=" << v;
  }
}

TEST(DemodKernel, GrayWordsMatchGoldenBits) {
  Rng rng(77);
  // Detected stream: noisy QAM-64 symbols at 52 used positions.
  std::vector<u8> bits(48 * 6);
  for (auto& bb : bits) bb = rng.bit();
  const auto syms = dsp::qamModulate(dsp::Modulation::kQam64, bits);
  const cint16 derot = dsp::phasorQ15(65000);
  const cint16 rerot = dsp::phasorQ15(536);  // approximately derot^-1

  std::vector<cint16> det(52, cint16{});
  const auto dpos = dataToneByteOffsets();
  for (int d = 0; d < 48; ++d) {
    cint16 s = syms[static_cast<std::size_t>(d)] * rerot;  // pre-rotate
    s.re = satAdd16(s.re, static_cast<i16>(rng.below(60)) - 30);
    s.im = satAdd16(s.im, static_cast<i16>(rng.below(60)) - 30);
    det[dpos[static_cast<std::size_t>(d)] / 4] = s;
  }

  Fabric f;
  f.l1.loadBytes(0x1000, samplesToBytes(det));
  f.l1.loadBytes(0x5000, u16ToBytes(dataToneByteOffsets()));
  const ScheduledKernel sk = scheduleKernel(DemodKernel::build());
  f.crf.poke(DemodKernel::kDet, 0x1000);
  f.crf.poke(DemodKernel::kTab, 0x5000);
  f.crf.poke(DemodKernel::kOut, 0x7000);
  f.crf.poke(DemodKernel::kDerot, packC2(derot, derot));
  f.crf.poke(DemodKernel::kOffW, dsp::lanes::splat(6400));
  f.crf.poke(DemodKernel::kC12, dsp::lanes::splat(12));
  f.crf.poke(DemodKernel::kMul, dsp::lanes::splat(1312));
  f.crf.poke(DemodKernel::kZero, dsp::lanes::splat(0));
  f.crf.poke(DemodKernel::kSeven, dsp::lanes::splat(7));
  (void)runKernel(f.array, sk.config, DemodKernel::kTrips);

  for (int d = 0; d < 48; ++d) {
    // Golden: derotate + demap.
    const cint16 y = det[dpos[static_cast<std::size_t>(d)] / 4] * derot;
    std::vector<u8> gb(6);
    dsp::qamDemap(dsp::Modulation::kQam64, y, gb, 0);
    u32 gI = 0, gQ = 0;
    for (int i = 0; i < 3; ++i) {
      gI |= static_cast<u32>(gb[static_cast<std::size_t>(i)]) << i;
      gQ |= static_cast<u32>(gb[static_cast<std::size_t>(i + 3)]) << i;
    }
    const u32 w = f.l1.read32(0x7000 + 4 * static_cast<u32>(d));
    EXPECT_EQ(w & 0xFFFF, gI) << "tone " << d;
    EXPECT_EQ(w >> 16, gQ) << "tone " << d;
  }
}

// QAM-16 variant: the comparison-network recipe (three saturating
// threshold tests summed into a level index) must equal the generic
// sliceLevel for every 16-bit input (exhaustive).
TEST(DemodSlicing, Qam16RecipeEqualsSliceLevelExhaustive) {
  const i16 unit = dsp::qamUnit(dsp::Modulation::kQam16);
  ASSERT_EQ(unit, 1650);
  const i16 thr = static_cast<i16>(2 * unit);  // 3300: level boundaries
  for (i32 v = -32768; v <= 32767; ++v) {
    // Kernel recipe: arithmetic >>15 turns each comparison into -1/0.
    const i16 a = static_cast<i16>(satAdd16(static_cast<i16>(v), thr) >> 15);
    const i16 b = static_cast<i16>(static_cast<i16>(v) >> 15);
    const i16 c = static_cast<i16>(satSub16(static_cast<i16>(v), thr) >> 15);
    const i16 idx = static_cast<i16>(3 + a + b + c);
    ASSERT_GE(idx, 0);
    ASSERT_LE(idx, 3);
    // Golden demap: recover the level index from the mapped bits.
    std::vector<u8> bits(4);
    dsp::qamDemap(dsp::Modulation::kQam16,
                  {static_cast<i16>(v), static_cast<i16>(-3 * unit)}, bits, 0);
    u32 bv = 0;
    for (int i = 0; i < 2; ++i) bv |= static_cast<u32>(bits[static_cast<std::size_t>(i)]) << i;
    const u32 gray = static_cast<u32>(idx) ^ (static_cast<u32>(idx) >> 1);
    ASSERT_EQ(gray, bv) << "v=" << v;
  }
}

TEST(DemodKernel, Qam16GrayWordsMatchGoldenBits) {
  Rng rng(78);
  std::vector<u8> bits(48 * 4);
  for (auto& bb : bits) bb = rng.bit();
  const auto syms = dsp::qamModulate(dsp::Modulation::kQam16, bits);
  const cint16 derot = dsp::phasorQ15(65000);
  const cint16 rerot = dsp::phasorQ15(536);  // approximately derot^-1

  std::vector<cint16> det(52, cint16{});
  const auto dpos = dataToneByteOffsets();
  for (int d = 0; d < 48; ++d) {
    cint16 s = syms[static_cast<std::size_t>(d)] * rerot;  // pre-rotate
    s.re = satAdd16(s.re, static_cast<i16>(rng.below(60)) - 30);
    s.im = satAdd16(s.im, static_cast<i16>(rng.below(60)) - 30);
    det[dpos[static_cast<std::size_t>(d)] / 4] = s;
  }

  Fabric f;
  f.l1.loadBytes(0x1000, samplesToBytes(det));
  f.l1.loadBytes(0x5000, u16ToBytes(dataToneByteOffsets()));
  const ScheduledKernel sk = scheduleKernel(DemodKernel::build16());
  f.crf.poke(DemodKernel::kDet, 0x1000);
  f.crf.poke(DemodKernel::kTab, 0x5000);
  f.crf.poke(DemodKernel::kOut, 0x7000);
  f.crf.poke(DemodKernel::kDerot, packC2(derot, derot));
  f.crf.poke(DemodKernel::kThr, dsp::lanes::splat(3300));
  f.crf.poke(DemodKernel::kThree, dsp::lanes::splat(3));
  (void)runKernel(f.array, sk.config, DemodKernel::kTrips);

  for (int d = 0; d < 48; ++d) {
    const cint16 y = det[dpos[static_cast<std::size_t>(d)] / 4] * derot;
    std::vector<u8> gb(4);
    dsp::qamDemap(dsp::Modulation::kQam16, y, gb, 0);
    u32 gI = 0, gQ = 0;
    for (int i = 0; i < 2; ++i) {
      gI |= static_cast<u32>(gb[static_cast<std::size_t>(i)]) << i;
      gQ |= static_cast<u32>(gb[static_cast<std::size_t>(i + 2)]) << i;
    }
    const u32 w = f.l1.read32(0x7000 + 4 * static_cast<u32>(d));
    EXPECT_EQ(w & 0xFFFF, gI) << "tone " << d;
    EXPECT_EQ(w >> 16, gQ) << "tone " << d;
  }
}

}  // namespace
}  // namespace adres::sdr
