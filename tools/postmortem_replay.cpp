// postmortem_replay: standalone verdict on an adres.postmortem.v1 bundle.
//
//   postmortem_replay BUNDLE.json       re-run each recorded decode by its
//                                       own recipe and confirm (or refute)
//                                       the recorded failure; exit 0 when
//                                       the story holds
//   postmortem_replay --make-demo PATH  write the divergence bundle a
//                                       one-packet farm produces with a
//                                       planted fault, for smoke-testing
//                                       the replay loop
//
// Exit codes: 0 = bundle consistent / demo written, 1 = replay inconsistent,
// 2 = usage, unreadable bundle, or replay setup error.
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "dsp/channel.hpp"
#include "obs/postmortem.hpp"
#include "platform/packet_farm.hpp"
#include "platform/replay.hpp"

namespace {

using namespace adres;

/// Runs one decodable QAM-64 packet through a farm whose primary decodes
/// with a seeded payload bit flip, auditing every packet with capture on,
/// and moves the divergence bundle the farm writes to `path`.
int makeDemo(const std::string& path) {
  namespace fs = std::filesystem;
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

  const fs::path dest(path);
  platform::FarmConfig fc;
  fc.modem = cfg;
  fc.run.faultInjectBitFlipSeed = 0xFA0171ull;
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  fc.postmortem.enabled = true;
  // The bundle is written beside its destination, so the move is a rename.
  fc.postmortem.dir = dest.has_parent_path() ? dest.parent_path().string() : ".";
  platform::PacketFarm farm(fc);
  (void)farm.submit(ch.run(pkt.waveform));
  (void)farm.finish();

  const std::vector<obs::IntegrityEvent> events = farm.integrityEvents();
  if (events.size() != 1 || events[0].bundlePath.empty()) {
    std::fprintf(stderr,
                 "demo fault did not produce a divergence bundle "
                 "(unexpected)\n");
    return 2;
  }
  std::error_code ec;
  fs::rename(events[0].bundlePath, dest, ec);
  if (ec) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::printf("demo divergence bundle written to %s (%s)\n", path.c_str(),
              events[0].detail.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--make-demo") == 0)
    try {
      return makeDemo(argv[2]);
    } catch (const std::exception& e) {
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
                b.shadow ? " shadow=" : "",
                b.shadow ? b.shadowTier.c_str() : "");
    std::printf("reason: %s\n", b.reason.c_str());
    const adres::platform::ReplayReport rep =
        adres::platform::replayPostmortem(b);
    std::printf("%s\n", rep.verdict.c_str());
    return rep.consistent ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
