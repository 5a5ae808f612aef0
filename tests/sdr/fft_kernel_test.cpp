// The mapped FFT pipeline (bit-reversal + 6 butterfly stages) must be
// bit-exact with dsp::fftScaled, covering both antennas in one launch set.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsp/fft.hpp"
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

/// Runs the full mapped FFT over `nFfts` back-to-back buffers at `buf`.
/// Scratch: bit-reversal output written to `buf` after gathering via `tmp`.
u64 runMappedFft(Fabric& f, u32 buf, u32 tmp, int nFfts) {
  u64 cycles = 0;
  // Tables.
  const u32 revTab = 0xE000;
  f.l1.loadBytes(revTab, u16ToBytes(bitrevByteOffsets()));

  const ScheduledKernel rev = scheduleKernel(BitrevKernel::build());
  for (int n = 0; n < nFfts; ++n) {
    f.crf.poke(BitrevKernel::kIn, buf + 256 * static_cast<u32>(n));
    f.crf.poke(BitrevKernel::kOut, tmp + 256 * static_cast<u32>(n));
    f.crf.poke(BitrevKernel::kIdxTab, revTab);
    cycles += runKernel(f.array, rev.config, 64).cycles;
  }
  // Copy back (gather wrote to tmp; treat tmp as the working buffer).
  const u32 work = tmp;

  const ScheduledKernel s1 = scheduleKernel(FftStage1Kernel::build());
  f.crf.poke(FftStage1Kernel::kBuf, work);
  cycles += runKernel(f.array, s1.config, FftStage1Kernel::trips(nFfts)).cycles;

  u32 tabAddr = 0xE400;
  for (int stage = 2; stage <= 6; ++stage) {
    const FftStageTables t = fftStageTables(stage, nFfts);
    const u32 offAddr = tabAddr;
    f.l1.loadBytes(offAddr, u16ToBytes(t.aOffsets));
    const u32 twAddr = offAddr + 0x100;
    f.l1.loadBytes(twAddr, wordsToBytes(t.twiddlePairs));
    tabAddr += 0x300;

    const ScheduledKernel sk = scheduleKernel(FftStageKernel::build(t.halfBytes));
    f.crf.poke(FftStageKernel::kBuf, work);
    f.crf.poke(FftStageKernel::kOffTab, offAddr);
    f.crf.poke(FftStageKernel::kTwTab, twAddr);
    cycles +=
        runKernel(f.array, sk.config, static_cast<u32>(t.pairCount)).cycles;
  }
  return cycles;
}

TEST(FftKernel, BitExactWithGoldenTwoAntennas) {
  Rng rng(5);
  std::vector<cint16> x0(64), x1(64);
  for (auto& v : x0)
    v = {static_cast<i16>(static_cast<i16>(rng.next()) / 8),
         static_cast<i16>(static_cast<i16>(rng.next()) / 8)};
  for (auto& v : x1)
    v = {static_cast<i16>(static_cast<i16>(rng.next()) / 8),
         static_cast<i16>(static_cast<i16>(rng.next()) / 8)};

  Fabric f;
  f.l1.loadBytes(0x1000, samplesToBytes(x0));
  f.l1.loadBytes(0x1100, samplesToBytes(x1));
  const u64 cycles = runMappedFft(f, 0x1000, 0x2000, 2);

  std::vector<cint16> g0 = x0, g1 = x1;
  dsp::fftScaled(g0);
  dsp::fftScaled(g1);

  for (int k = 0; k < 64; ++k) {
    const u32 w0 = f.l1.read32(0x2000 + 4 * static_cast<u32>(k));
    const u32 w1 = f.l1.read32(0x2100 + 4 * static_cast<u32>(k));
    ASSERT_EQ((cint16{static_cast<i16>(w0 & 0xFFFF), static_cast<i16>(w0 >> 16)}),
              g0[static_cast<std::size_t>(k)])
        << "antenna 0 bin " << k;
    ASSERT_EQ((cint16{static_cast<i16>(w1 & 0xFFFF), static_cast<i16>(w1 >> 16)}),
              g1[static_cast<std::size_t>(k)])
        << "antenna 1 bin " << k;
  }
  // Table 2 shape: the paper's data-phase "fft (2x)" runs in 493 cycles on
  // their toolchain; our mapping should land within a few x.
  EXPECT_LT(cycles, 3200u) << "2-antenna FFT cycle cost";
}

TEST(FftKernel, ImpulseThroughMappedPipeline) {
  Fabric f;
  std::vector<cint16> x(64, cint16{});
  x[0] = {12800, 0};
  f.l1.loadBytes(0x1000, samplesToBytes(x));
  (void)runMappedFft(f, 0x1000, 0x2000, 1);
  for (int k = 0; k < 64; ++k) {
    const u32 w = f.l1.read32(0x2000 + 4 * static_cast<u32>(k));
    EXPECT_NEAR(static_cast<i16>(w & 0xFFFF), 200, 8) << "bin " << k;
  }
}

}  // namespace
}  // namespace adres::sdr
