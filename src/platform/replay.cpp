#include "platform/replay.hpp"

#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "platform/rx_session.hpp"

namespace adres::platform {
namespace {

/// Re-decodes the bundle's rx payload by one record's recipe.
obs::DecodeSummary redecode(const obs::PostmortemBundle& b,
                            const std::string& tier, u64 faultSeed) {
  dsp::ModemConfig cfg;
  cfg.mod = static_cast<dsp::Modulation>(b.modulation);
  cfg.numSymbols = b.numSymbols;
  sdr::RxRunOptions opts;
  opts.maxCycles = b.maxCycles;
  opts.exec.tier = parseExecTier(tier);
  opts.faultInjectBitFlipSeed = faultSeed;
  RxSession session(cfg, opts);
  return session.summarize(session.decode(b.rx));
}

}  // namespace

ReplayReport replayPostmortem(const obs::PostmortemBundle& b) {
  ADRES_CHECK(!b.rx[0].empty() && !b.rx[1].empty(),
              "bundle carries no rx payload — nothing to replay");
  ReplayReport rep;
  std::string findings;  // why the bundle is inconsistent
  const auto note = [&findings](const std::string& s) {
    findings += (findings.empty() ? "" : "; ") + s;
  };

  const obs::DecodeSummary primary =
      redecode(b, b.execTier, b.faultInjectSeed);
  const std::optional<obs::IntegrityEvent> primaryDiff =
      obs::compareDecodes(b.primary, primary);
  rep.primaryReproduced = !primaryDiff;
  if (primaryDiff) {
    note("the primary record does not reproduce on " + b.execTier +
         " (fault seed " + hex64(b.faultInjectSeed) +
         ", record vs replay: " + primaryDiff->detail + ")");
  }
  std::optional<obs::IntegrityEvent> divergence;
  if (b.shadow) {
    const std::optional<obs::IntegrityEvent> shadowDiff =
        obs::compareDecodes(*b.shadow, redecode(b, b.shadowTier, 0));
    rep.shadowReproduced = !shadowDiff;
    if (shadowDiff) {
      note("the shadow record does not reproduce on " + b.shadowTier +
           " (record vs replay: " + shadowDiff->detail + ")");
    }
    divergence = obs::compareDecodes(b.primary, *b.shadow);
    rep.recordsDiffer = divergence.has_value();
    if (!divergence)
      note("divergence REFUTED: primary and shadow records are identical");
  }
  rep.consistent = rep.primaryReproduced &&
                   (!b.shadow || (rep.shadowReproduced && rep.recordsDiffer));

  std::ostringstream v;
  if (!rep.consistent) {
    v << "replay INCONSISTENT: " << findings;
  } else if (b.shadow) {
    v << "divergence CONFIRMED: both recorded decodes reproduce by their own "
         "recipes and differ ("
      << divergence->detail << ')';
  } else {
    v << "recorded decode REPRODUCED bit-, cycle- and counter-exactly";
  }
  v << " (primary replay: stop=" << primary.stop
    << " cycles=" << primary.cycles << " bits=" << primary.bits.size() << ')';
  rep.verdict = v.str();
  return rep;
}

}  // namespace adres::platform
