// postmortem_replay: standalone verdict on an adres.postmortem.v1 bundle.
//
//   postmortem_replay BUNDLE.json       re-decode the bundle's packet and
//                                       confirm (or refute) the recorded
//                                       failure; exit 0 when the story holds
//   postmortem_replay --make-demo PATH  write a self-contained divergence
//                                       bundle (planted fault-injection bit
//                                       flip) for smoke-testing the replay
//                                       loop without a running farm
//
// Exit codes: 0 = bundle consistent / demo written, 1 = replay inconsistent,
// 2 = usage, unreadable bundle, or replay setup error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "dsp/channel.hpp"
#include "obs/integrity.hpp"
#include "obs/postmortem.hpp"
#include "platform/replay.hpp"
#include "platform/rx_session.hpp"

namespace {

using namespace adres;

obs::DecodeSummary decodeSummary(Processor& proc,
                                 const sdr::ModemOnProcessor& modem,
                                 const std::array<std::vector<cint16>, 2>& rx,
                                 ExecTier tier, u64 faultSeed) {
  sdr::RxRunOptions opts;
  opts.exec.tier = tier;
  opts.exec.plans = modem.plansFor(tier);
  opts.faultInjectBitFlipSeed = faultSeed;
  return platform::summarizeDecode(
      sdr::runModemOnProcessor(proc, modem, rx, opts), proc);
}

/// Builds and writes a planted-fault divergence bundle: one decodable
/// QAM-64 packet, primary decoded with a seeded payload bit flip, shadow
/// decoded clean on the tier the sentinel would audit it with.
int makeDemo(const std::string& path) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  Rng rng(1234);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  cc.seed = 7;
  dsp::MimoChannel ch(cc);
  const std::array<std::vector<cint16>, 2> rx = ch.run(pkt.waveform);

  const auto modem = platform::modemProgramFor(cfg);
  constexpr u64 kFaultSeed = 0xFA0171ull;
  const ExecTier primaryTier = defaultExecTier();
  const ExecTier shadowTier = obs::shadowTierFor(primaryTier);
  Processor primaryProc, shadowProc;
  const obs::DecodeSummary primary =
      decodeSummary(primaryProc, *modem, rx, primaryTier, kFaultSeed);
  const obs::DecodeSummary shadow =
      decodeSummary(shadowProc, *modem, rx, shadowTier, 0);

  const std::optional<obs::IntegrityEvent> ev =
      obs::compareDecodes(primary, shadow);
  if (!ev) {
    std::fprintf(stderr,
                 "demo fault did not produce a divergence (unexpected)\n");
    return 2;
  }

  obs::PostmortemBundle b;
  b.trigger = "divergence";
  b.reason = ev->detail;
  b.jobId = 0;
  b.traceId = trace::packetTraceId(0, 0);
  b.modulation = static_cast<int>(cfg.mod);
  b.numSymbols = cfg.numSymbols;
  b.execTier = execTierName(primaryTier);
  b.shadowTier = execTierName(shadowTier);
  b.maxCycles = sdr::RxRunOptions{}.maxCycles;
  b.faultInjectSeed = kFaultSeed;
  b.rx = rx;
  b.primary = obs::toRecord(primary);
  b.shadow = obs::toRecord(shadow);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  obs::writePostmortemJson(b, os);
  std::printf("demo divergence bundle written to %s (%s)\n", path.c_str(),
              ev->detail.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--make-demo") == 0)
    try {
      return makeDemo(argv[2]);
    } catch (const adres::SimError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: postmortem_replay BUNDLE.json\n"
                 "       postmortem_replay --make-demo PATH\n");
    return 2;
  }
  try {
    const adres::obs::PostmortemBundle b =
        adres::obs::loadPostmortemBundle(argv[1]);
    std::printf("bundle: trigger=%s job=%llu worker=%d tier=%s%s%s\n",
                b.trigger.c_str(), static_cast<unsigned long long>(b.jobId),
                b.worker, b.execTier.c_str(),
                b.shadow.valid ? " shadow=" : "",
                b.shadow.valid ? b.shadowTier.c_str() : "");
    std::printf("reason: %s\n", b.reason.c_str());
    const adres::platform::ReplayReport rep =
        adres::platform::replayPostmortem(b);
    std::printf("%s\n", rep.verdict.c_str());
    return rep.consistent ? 0 : 1;
  } catch (const adres::SimError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
