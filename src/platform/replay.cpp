#include "platform/replay.hpp"

#include <memory>
#include <sstream>

#include "common/check.hpp"
#include "platform/rx_session.hpp"

namespace adres::platform {
namespace {

obs::ResultRecord decodeOnce(const sdr::ModemOnProcessor& modem,
                             const obs::PostmortemBundle& b, ExecTier tier,
                             u64 faultSeed) {
  Processor proc;
  sdr::RxRunOptions opts;
  if (b.maxCycles != 0) opts.maxCycles = b.maxCycles;
  opts.exec.tier = tier;
  opts.exec.plans = modem.plansFor(tier);
  opts.faultInjectBitFlipSeed = faultSeed;
  return obs::toRecord(
      summarizeDecode(sdr::runModemOnProcessor(proc, modem, b.rx, opts), proc));
}

/// Result identity as the sentinel defines it: payload bits, result
/// metadata and the simulated cycle count.
bool sameDecode(const obs::ResultRecord& a, const obs::ResultRecord& b) {
  return a.valid && b.valid && a.detected == b.detected &&
         a.ltfStart == b.ltfStart && a.stop == b.stop &&
         a.cycles == b.cycles && a.bits == b.bits;
}

}  // namespace

ReplayReport replayPostmortem(const obs::PostmortemBundle& b) {
  ADRES_CHECK(!b.rx[0].empty() && !b.rx[1].empty(),
              "bundle carries no rx payload — nothing to replay");
  ADRES_CHECK(b.primary.valid, "bundle records no primary decode");
  dsp::ModemConfig cfg;
  cfg.mod = static_cast<dsp::Modulation>(b.modulation);
  cfg.numSymbols = b.numSymbols;
  const std::shared_ptr<const sdr::ModemOnProcessor> modem =
      modemProgramFor(cfg);
  const ExecTier tier = parseExecTier(b.execTier);

  ReplayReport rep;
  rep.replay = decodeOnce(*modem, b, tier, 0);
  if (b.faultInjectSeed != 0)
    rep.faultReplay = decodeOnce(*modem, b, tier, b.faultInjectSeed);
  rep.matchesPrimary = sameDecode(rep.replay, b.primary);
  rep.matchesShadow = b.shadow.valid && sameDecode(rep.replay, b.shadow);
  rep.faultReproducesPrimary =
      rep.faultReplay.valid && sameDecode(rep.faultReplay, b.primary);

  std::ostringstream v;
  if (b.shadow.valid) {
    // A divergence bundle: the clean replay is the arbiter.  It must side
    // with the shadow decode AND against the recorded primary — and when
    // the incident was a planted fault, the recorded seed must re-corrupt
    // the decode into exactly the recorded primary.
    rep.consistent = rep.matchesShadow && !rep.matchesPrimary;
    if (b.faultInjectSeed != 0)
      rep.consistent = rep.consistent && rep.faultReproducesPrimary;
    if (rep.consistent) {
      v << "divergence CONFIRMED: clean replay matches the shadow decode, "
           "recorded primary diverges";
      if (b.faultInjectSeed != 0)
        v << "; the recorded fault seed reproduces the primary's corruption";
    } else if (rep.matchesPrimary && rep.matchesShadow) {
      v << "divergence REFUTED: primary and shadow records are identical";
    } else if (rep.matchesPrimary) {
      v << "divergence NOT reproduced: clean replay matches the recorded "
           "primary, not the shadow";
    } else if (!rep.matchesShadow) {
      v << "replay INCONSISTENT: clean replay matches neither recorded "
           "decode";
    } else {
      v << "divergence reproduced, but the recorded fault seed does not "
           "re-create the primary's corruption";
    }
  } else {
    // Watchdog / SLO-breach bundles record only the serving-path decode;
    // determinism demands the replay land on it exactly.
    rep.consistent = rep.matchesPrimary;
    v << (rep.consistent
              ? "recorded decode REPRODUCED bit- and cycle-exactly"
              : "replay INCONSISTENT: re-decode differs from the recorded "
                "primary");
  }
  v << " (replay: stop=" << rep.replay.stop << " cycles=" << rep.replay.cycles
    << " bits=" << rep.replay.bits.size() << ")";
  rep.verdict = v.str();
  return rep;
}

}  // namespace adres::platform
