#include "platform/rx_session.hpp"

#include <mutex>
#include <utility>

namespace adres::platform {
namespace {

struct ProgramCache {
  std::mutex mu;
  // Key: (modulation, numSymbols) — the full build input.  The cached
  // ModemOnProcessor carries the per-tier plan cache, so every session
  // sharing a program also shares one pre-decoded plan set per exec tier
  // (Processor::load adopts it instead of re-decoding per worker).
  std::map<std::pair<int, int>, std::shared_ptr<const sdr::ModemOnProcessor>>
      byConfig;
};

ProgramCache& cache() {
  static ProgramCache c;
  return c;
}

}  // namespace

std::shared_ptr<const sdr::ModemOnProcessor> modemProgramFor(
    const dsp::ModemConfig& cfg) {
  const auto key = std::make_pair(static_cast<int>(cfg.mod), cfg.numSymbols);
  ProgramCache& c = cache();
  std::lock_guard<std::mutex> lk(c.mu);
  auto it = c.byConfig.find(key);
  if (it == c.byConfig.end()) {
    it = c.byConfig
             .emplace(key, std::make_shared<const sdr::ModemOnProcessor>(
                               sdr::buildModemProgram(cfg)))
             .first;
  }
  return it->second;
}

void clearModemProgramCache() {
  ProgramCache& c = cache();
  std::lock_guard<std::mutex> lk(c.mu);
  c.byConfig.clear();
}

void SessionStats::merge(const SessionStats& other) {
  packets += other.packets;
  counters += other.counters;
  for (const auto& [id, rp] : other.regions) regions[id] += rp;
  profile.merge(other.profile);
}

RxSession::RxSession(const dsp::ModemConfig& cfg, sdr::RxRunOptions opts)
    : modem_(modemProgramFor(cfg)), opts_(std::move(opts)),
      budget_(opts_.maxCycles) {
  // Resolve the exec policy's plan set once per session: every decode then
  // loads with the shared per-tier plans instead of consulting the cache.
  if (!opts_.exec.plans) opts_.exec.plans = modem_->plansFor(opts_.exec.tier);
  // The resident program is shared-const and never mutates between decodes,
  // so the session satisfies ExecPolicy::warmReload's immutability contract.
  // This cold load arms it: every decode's load() only replays the DMA and
  // the state reset, and a session is ready to serve once constructed.
  opts_.exec.warmReload = true;
  opts_.trace = nullptr;
  proc_.load(modem_->program, opts_.exec);
}

sdr::ProcessorRxResult RxSession::decode(
    const std::array<std::vector<cint16>, 2>& rx) {
  sdr::ProcessorRxResult res;
  decodeInto(rx, res, budget_);
  return res;
}

void RxSession::decodeInto(const std::array<std::vector<cint16>, 2>& rx,
                           sdr::ProcessorRxResult& out, u64 maxCycles) {
  // DMA stats deliberately survive Processor::resetStats() (they account
  // the program-load transfers); clear them here so every decode's stats —
  // and the power model reading them — cover exactly one packet, as on a
  // freshly constructed processor.
  proc_.dma().resetStats();
  opts_.maxCycles = maxCycles;
  sdr::runModemOnProcessor(proc_, *modem_, rx, opts_, out);
  // Stats reset on the next load; fold this packet's into the session total
  // (a block add plus one add per region, whose map nodes exist after the
  // first packet).
  ++stats_.packets;
  if (opts_.profile) stats_.profile.addProcessor(proc_);
  stats_.counters += trace::readCounters(proc_);
  for (const auto& [id, rp] : proc_.profiles()) stats_.regions[id] += rp;
}

obs::DecodeSummary RxSession::summarize(
    const sdr::ProcessorRxResult& res) const {
  obs::DecodeSummary s;
  s.detected = res.detected;
  s.ltfStart = res.ltfStart;
  s.stop = stopReasonName(res.stop);
  s.cycles = res.cycles;
  s.totalOps = proc_.activity().totalOps();
  s.bits = res.bits;
  s.regions = proc_.profiles();
  return s;
}

}  // namespace adres::platform
