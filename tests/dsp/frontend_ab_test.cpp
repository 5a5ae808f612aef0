// A/B bit-exactness of the vectorized trial-generation frontend against
// the scalar reference (DESIGN.md §15): same counter-derived seeds in,
// byte-identical payload bits and receive waveforms out — across lane
// widths, tap counts, SNR points, modulations, and seeds.  This is the
// contract that lets campaigns switch frontends without perturbing
// adres.campaign.v1 checkpoint bytes.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/check.hpp"
#include "dsp/frontend.hpp"

namespace adres::dsp {
namespace {

struct TrialOut {
  std::vector<u8> bits;
  std::array<std::vector<cint16>, kNumRx> rx;
};

bool operator==(const TrialOut& a, const TrialOut& b) {
  if (a.bits != b.bits) return false;
  for (int r = 0; r < kNumRx; ++r) {
    const auto& x = a.rx[static_cast<std::size_t>(r)];
    const auto& y = b.rx[static_cast<std::size_t>(r)];
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].re != y[i].re || x[i].im != y[i].im) return false;
  }
  return true;
}

TrialOut runTrial(const ModemConfig& mc, const ChannelConfig& cc, u64 txSeed,
                  const FrontendConfig& fe, TrialScratch& scratch) {
  TrialOut o;
  Rng txRng(txSeed);
  generateTrial(mc, cc, txRng, o.bits, o.rx, scratch, fe);
  return o;
}

TEST(FrontendAb, TransmitIntoMatchesTransmit) {
  for (const Modulation mod : {Modulation::kBpsk, Modulation::kQpsk,
                               Modulation::kQam16, Modulation::kQam64}) {
    for (const int numSymbols : {2, 4, 10}) {
      ModemConfig mc;
      mc.mod = mod;
      mc.numSymbols = numSymbols;
      Rng a(77), b(77);
      const TxPacket pkt = transmit(mc, a);
      std::vector<u8> bits;
      std::array<std::vector<cint16>, kNumTx> wave;
      TxScratch scratch;
      transmitInto(mc, b, bits, wave, scratch);
      EXPECT_EQ(pkt.bits, bits);
      for (int tx = 0; tx < kNumTx; ++tx) {
        const auto& x = pkt.waveform[static_cast<std::size_t>(tx)];
        const auto& y = wave[static_cast<std::size_t>(tx)];
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(x[i].re, y[i].re) << "tx " << tx << " sample " << i;
          ASSERT_EQ(x[i].im, y[i].im) << "tx " << tx << " sample " << i;
        }
      }
    }
  }
}

TEST(FrontendAb, QamMapBlockMatchesQamMap) {
  Rng rng(5);
  for (const Modulation mod : {Modulation::kBpsk, Modulation::kQpsk,
                               Modulation::kQam16, Modulation::kQam64}) {
    const int bps = bitsPerSymbol(mod);
    std::vector<u8> bits(static_cast<std::size_t>(96 * bps));
    for (u8& b : bits) b = rng.bit() ? 1 : 0;
    std::vector<cint16> block(96);
    qamMapBlock(mod, bits.data(), 96, block.data());
    for (int s = 0; s < 96; ++s) {
      const cint16 ref = qamMap(mod, bits, static_cast<std::size_t>(s * bps));
      EXPECT_EQ(ref.re, block[static_cast<std::size_t>(s)].re);
      EXPECT_EQ(ref.im, block[static_cast<std::size_t>(s)].im);
    }
  }
}

TEST(FrontendAb, ChannelRunIntoMatchesRunAcrossGrid) {
  ModemConfig mc;
  mc.mod = Modulation::kQam64;
  mc.numSymbols = 4;
  Rng waveRng(11);
  const TxPacket pkt = transmit(mc, waveRng);

  for (const int taps : {1, 3, 8, 16}) {
    for (const double snrDb : {5.0, 20.0, 34.0}) {
      for (const u64 seed : {1ull, 42ull, 0xDEADBEEFull}) {
        ChannelConfig cc;
        cc.taps = taps;
        cc.snrDb = snrDb;
        cc.cfoPpm = 7.5;
        cc.seed = seed;
        MimoChannel scalar(cc);
        const auto ref = scalar.run(pkt.waveform);
        for (const int lanes : {1, 2, 16, 64, 1024}) {
          MimoChannel vec(cc);  // fresh noise streams, same seed
          ChannelScratch scratch;
          std::array<std::vector<cint16>, kNumRx> out;
          vec.runInto(pkt.waveform, out, scratch, lanes);
          for (int r = 0; r < kNumRx; ++r) {
            const auto& x = ref[static_cast<std::size_t>(r)];
            const auto& y = out[static_cast<std::size_t>(r)];
            ASSERT_EQ(x.size(), y.size());
            for (std::size_t i = 0; i < x.size(); ++i) {
              ASSERT_EQ(x[i].re, y[i].re)
                  << "taps=" << taps << " snr=" << snrDb << " seed=" << seed
                  << " lanes=" << lanes << " rx=" << r << " i=" << i;
              ASSERT_EQ(x[i].im, y[i].im);
            }
          }
        }
      }
    }
  }
}

TEST(FrontendAb, GenerateTrialKindsAgree) {
  struct Cell {
    Modulation mod;
    int numSymbols;
    double snrDb;
  };
  // A QAM-16 cell, and the QAM-64 waterfall cell campaigns sweep (4
  // symbols at 26 dB); both through a 3-tap channel at 10 ppm CFO.
  for (const Cell cell : {Cell{Modulation::kQam16, 6, 18.0},
                          Cell{Modulation::kQam64, 4, 26.0}}) {
    ModemConfig mc;
    mc.mod = cell.mod;
    mc.numSymbols = cell.numSymbols;
    ChannelConfig cc;
    cc.taps = 3;
    cc.snrDb = cell.snrDb;
    cc.cfoPpm = 10.0;

    TrialScratch scalarScratch, vecScratch;
    for (u64 trial = 0; trial < 8; ++trial) {
      cc.seed = 1000 + trial;
      FrontendConfig scalarFe;
      scalarFe.kind = FrontendKind::kScalar;
      const TrialOut ref =
          runTrial(mc, cc, 500 + trial, scalarFe, scalarScratch);
      for (const int lanes : {1, 16, 160}) {
        FrontendConfig vecFe;
        vecFe.kind = FrontendKind::kVectorized;
        vecFe.lanes = lanes;
        const TrialOut got = runTrial(mc, cc, 500 + trial, vecFe, vecScratch);
        EXPECT_TRUE(ref == got) << bitsPerSymbol(cell.mod) << " bits/symbol, "
                                << "trial " << trial << " lanes " << lanes;
      }
    }
  }
}

TEST(FrontendAb, ScratchReuseAcrossCellsIsClean) {
  // One scratch survives a change of packet length, CFO (rot-table rebuild)
  // and SNR — trial outputs must still match fresh-scratch runs.
  TrialScratch reused;
  for (const int numSymbols : {8, 2, 6}) {
    for (const double cfoPpm : {10.0, 0.0, 3.25}) {
      ModemConfig mc;
      mc.mod = Modulation::kQam64;
      mc.numSymbols = numSymbols;
      ChannelConfig cc;
      cc.taps = 4;
      cc.snrDb = 25.0;
      cc.cfoPpm = cfoPpm;
      cc.seed = 7;
      FrontendConfig fe;  // vectorized default
      TrialScratch fresh;
      const TrialOut a = runTrial(mc, cc, 99, fe, reused);
      const TrialOut b = runTrial(mc, cc, 99, fe, fresh);
      EXPECT_TRUE(a == b) << numSymbols << " syms, cfo " << cfoPpm;
    }
  }
}

TEST(FrontendAb, KindNamesRoundTripAndParseFailsLoudly) {
  EXPECT_STREQ("scalar", frontendKindName(FrontendKind::kScalar));
  EXPECT_STREQ("vectorized", frontendKindName(FrontendKind::kVectorized));
  EXPECT_EQ(FrontendKind::kScalar, parseFrontendKind("scalar"));
  EXPECT_EQ(FrontendKind::kVectorized, parseFrontendKind("vectorized"));
  EXPECT_THROW(parseFrontendKind("simd"), SimError);
}

}  // namespace
}  // namespace adres::dsp
