// Equivalence of the first kernel batch (fshift, acorr, cfo-corr, xcorr)
// against their golden DSP models, bit-exact, executing on the CGA fabric.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/lanes.hpp"
#include "dsp/preamble.hpp"
#include "dsp/sync.hpp"
#include "dsp/trig.hpp"
#include "sdr/kernels.hpp"
#include "testutil.hpp"

namespace adres::sdr {
namespace {

using testutil::runKernel;

/// Writes complex samples into an L1-image byte vector (32-bit per sample).
std::vector<u8> samplesToBytes(const std::vector<adres::cint16>& s) {
  std::vector<u8> out;
  out.reserve(s.size() * 4);
  for (const auto& v : s) {
    const u16 re = static_cast<u16>(v.re);
    const u16 im = static_cast<u16>(v.im);
    out.push_back(static_cast<u8>(re));
    out.push_back(static_cast<u8>(re >> 8));
    out.push_back(static_cast<u8>(im));
    out.push_back(static_cast<u8>(im >> 8));
  }
  return out;
}

std::vector<adres::cint16> randomSamples(int n, u64 seed, int div = 4) {
  Rng rng(seed);
  std::vector<adres::cint16> s(static_cast<std::size_t>(n));
  for (auto& v : s)
    v = {static_cast<i16>(static_cast<i16>(rng.next()) / div),
         static_cast<i16>(static_cast<i16>(rng.next()) / div)};
  return s;
}

struct Fabric {
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  ActivityCounters act;
  CgaArray array{crf, l1, cfg, act};
};

TEST(FshiftKernel, MatchesGoldenBitExact) {
  const int n = 64;
  const auto x = randomSamples(n, 42);
  const i16 step = -39;
  const u16 start = 1234;

  // Golden.
  const auto golden = adres::dsp::fshift(x, 0, n, step, start);

  // Kernel.
  const ScheduledKernel sk = scheduleKernel(FshiftKernel::build());
  Fabric f;
  f.l1.loadBytes(0x100, samplesToBytes(x));
  f.crf.poke(FshiftKernel::kSrc, 0x100);
  f.crf.poke(FshiftKernel::kDst, 0x800);
  f.crf.poke(FshiftKernel::kIdx, 0);
  // Phasor constants exactly as the golden builds them.
  const adres::cint16 w = adres::dsp::phasorQ15(static_cast<u16>(step));
  const adres::cint16 w2 = w * w;
  const adres::cint16 w4 = w2 * w2;
  adres::cint16 ph[4];
  ph[0] = adres::dsp::phasorQ15(start);
  for (int j = 1; j < 4; ++j) ph[j] = ph[j - 1] * w;
  f.crf.poke(FshiftKernel::kPhA, packC2(ph[0], ph[1]));
  f.crf.poke(FshiftKernel::kPhB, packC2(ph[2], ph[3]));
  f.crf.poke(FshiftKernel::kW4, packC2(w4, w4));

  const CgaRunResult r = runKernel(f.array, sk.config, FshiftKernel::trips(n));
  for (int k = 0; k < n; ++k) {
    const u32 wv = f.l1.read32(0x800 + 4 * static_cast<u32>(k));
    const adres::cint16 got{static_cast<i16>(wv & 0xFFFF),
                            static_cast<i16>(wv >> 16)};
    ASSERT_EQ(got, golden[static_cast<std::size_t>(k)]) << "sample " << k;
  }
  // Table 2 shape: fshift is a dense CGA kernel.
  EXPECT_GT(r.ipc(), 4.0) << "fshift II=" << sk.ii << " moves=" << sk.routeMoves;
}

TEST(FshiftKernel, WorksAcrossLengths) {
  for (int n : {8, 32, 80, 128}) {
    const auto x = randomSamples(n, 7 + static_cast<u64>(n));
    const auto golden = adres::dsp::fshift(x, 0, n, 100, 0);
    const ScheduledKernel sk = scheduleKernel(FshiftKernel::build());
    Fabric f;
    f.l1.loadBytes(0x100, samplesToBytes(x));
    f.crf.poke(FshiftKernel::kSrc, 0x100);
    f.crf.poke(FshiftKernel::kDst, 0x1000);
    f.crf.poke(FshiftKernel::kIdx, 0);
    const adres::cint16 w = adres::dsp::phasorQ15(100);
    const adres::cint16 w2 = w * w;
    const adres::cint16 w4 = w2 * w2;
    adres::cint16 ph[4];
    ph[0] = adres::dsp::phasorQ15(0);
    for (int j = 1; j < 4; ++j) ph[j] = ph[j - 1] * w;
    f.crf.poke(FshiftKernel::kPhA, packC2(ph[0], ph[1]));
    f.crf.poke(FshiftKernel::kPhB, packC2(ph[2], ph[3]));
    f.crf.poke(FshiftKernel::kW4, packC2(w4, w4));
    (void)runKernel(f.array, sk.config, FshiftKernel::trips(n));
    for (int k = 0; k < n; ++k) {
      const u32 wv = f.l1.read32(0x1000 + 4 * static_cast<u32>(k));
      ASSERT_EQ((adres::cint16{static_cast<i16>(wv & 0xFFFF),
                               static_cast<i16>(wv >> 16)}),
                golden[static_cast<std::size_t>(k)])
          << "n=" << n << " sample " << k;
    }
  }
}

TEST(AcorrKernel, MatchesGoldenOnStf) {
  // Run on real STF samples (through a channel) where detection matters.
  auto sig = adres::dsp::stfTime();
  sig.resize(120, adres::cint16{});
  const int d = 8;
  const auto golden = adres::dsp::acorrAt(sig, d);

  const ScheduledKernel sk = scheduleKernel(AcorrKernel::build());
  Fabric f;
  f.l1.loadBytes(0, samplesToBytes(sig));
  f.crf.poke(AcorrKernel::kSrc, 4 * static_cast<u32>(d));
  f.crf.poke(AcorrKernel::kSrcLag, 4 * static_cast<u32>(d + 16));
  f.crf.poke(AcorrKernel::kIdx, 0);
  f.crf.poke(AcorrKernel::kSplat, dsp::lanes::splat(8192));
  (void)runKernel(f.array, sk.config, AcorrKernel::kTrips);

  const adres::cint16 corr = dsp::lanes::fold(f.crf.peek(AcorrKernel::kAccP));
  const i16 e1 = dsp::lanes::fold(f.crf.peek(AcorrKernel::kAccE1)).re;
  const i16 e2 = dsp::lanes::fold(f.crf.peek(AcorrKernel::kAccE2)).re;
  EXPECT_EQ(corr, golden.corr);
  EXPECT_EQ(e1, golden.energy);
  EXPECT_EQ(e2, golden.energyLag);
}

TEST(CfoCorrKernel, ReproducesStfEstimate) {
  // Inject a CFO on the STF; kernel correlation + golden atan must equal
  // the golden estimator end to end.
  const auto& stf = adres::dsp::stfTime();
  std::vector<adres::cint16> rot(stf.size());
  const int inject = 64;
  for (std::size_t nidx = 0; nidx < stf.size(); ++nidx)
    rot[nidx] = stf[nidx] * adres::dsp::phasorQ15(static_cast<u16>(
                                static_cast<i32>(inject) * static_cast<i32>(nidx)));
  const int d = 16;
  const i16 golden = adres::dsp::cfoEstimateStf(rot, d);

  const ScheduledKernel sk = scheduleKernel(CfoCorrKernel::build());
  Fabric f;
  f.l1.loadBytes(0, samplesToBytes(rot));
  f.crf.poke(CfoCorrKernel::kSrc, 4 * static_cast<u32>(d));
  f.crf.poke(CfoCorrKernel::kSrcLag, 4 * static_cast<u32>(d + 16));
  f.crf.poke(CfoCorrKernel::kIdx, 0);
  f.crf.poke(CfoCorrKernel::kSplat, dsp::lanes::splat(8192));
  (void)runKernel(f.array, sk.config, CfoCorrKernel::trips(64));

  const adres::cint16 z = dsp::lanes::fold(f.crf.peek(CfoCorrKernel::kAcc));
  const i16 ang = static_cast<i16>(adres::dsp::atan2Turns(z.im, z.re));
  EXPECT_EQ(static_cast<i16>(ang / 16), golden);
}

TEST(XcorrKernel, SixteenHypothesesMatchGolden) {
  // Signal: silence + LTF field; search the 16 positions starting at 76.
  std::vector<adres::cint16> sig(50, adres::cint16{});
  const auto ltf = adres::dsp::ltfField();
  sig.insert(sig.end(), ltf.begin(), ltf.end());
  sig.resize(400, adres::cint16{});
  const int from = 76;  // true peak at 82

  // Conjugated broadcast reference table.
  const auto& ref = adres::dsp::ltfSymbolTime();
  std::vector<adres::cint16> refBroadcast;
  for (const auto& v : ref) {
    refBroadcast.push_back(v.conj());
    refBroadcast.push_back(v.conj());
  }

  const ScheduledKernel sk = scheduleKernel(XcorrKernel::build());
  Fabric f;
  f.l1.loadBytes(0, samplesToBytes(sig));
  f.l1.loadBytes(0x4000, samplesToBytes(refBroadcast));
  f.crf.poke(XcorrKernel::kRef, 0x4000);
  f.crf.poke(reg::kConst0, dsp::lanes::splat(2048));

  u64 totalCycles = 0;
  for (int half = 0; half < 2; ++half) {
    f.crf.poke(XcorrKernel::kSrc, 4 * static_cast<u32>(from + 8 * half));
    for (int j = 0; j < 4; ++j) f.crf.poke(XcorrKernel::kAccBase + j, 0);
    const CgaRunResult r = runKernel(f.array, sk.config, XcorrKernel::kTrips);
    totalCycles += r.cycles;
    for (int j = 0; j < 4; ++j) {
      const Word acc = f.crf.peek(XcorrKernel::kAccBase + j);
      const int d = from + 8 * half + 2 * j;
      EXPECT_EQ(unpackC(acc, 0), adres::dsp::xcorrAt(sig, d)) << "d=" << d;
      EXPECT_EQ(unpackC(acc, 1), adres::dsp::xcorrAt(sig, d + 1)) << "d=" << d + 1;
    }
  }
  // Both launches together should stay in the paper's xcorr cycle regime
  // (280 cycles on the authors' toolchain; our scheduler maps it within a
  // few x of that — see EXPERIMENTS.md).
  EXPECT_LT(totalCycles, 2000u) << "II=" << sk.ii << " moves=" << sk.routeMoves;
}

}  // namespace
}  // namespace adres::sdr
