// The cycle-attribution profiler: plan class names and — on a real modem
// decode — the KernelLaunchProfile partition invariant (cycles == issue +
// idle + stall + overhead), the summary as the processor's own id-keyed
// maps, the adres.profile.v1 JSON schema (ids that share a name folded)
// and the flamegraph folded-stacks output.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_min.hpp"
#include "core/processor.hpp"
#include "dsp/channel.hpp"
#include "sdr/modem_program.hpp"
#include "trace/profile.hpp"

namespace adres::trace {
namespace {

using json::JsonParser;
using json::JsonValue;

TEST(PlanClass, NamesAreStableKindDotLatency) {
  EXPECT_EQ(planClassName(0, 1), "compute.lat1");
  EXPECT_EQ(planClassName(0, 3), "compute.lat3");
  EXPECT_EQ(planClassName(1, 3), "load.lat3");
  EXPECT_EQ(planClassName(2, 1), "store.lat1");
}

/// One clean QAM-64 decode with profiling enabled; shared by the
/// profiler-invariant tests below.
struct ProfiledDecode {
  Processor proc;
  sdr::ProcessorRxResult res;
  sdr::ModemOnProcessor modem;

  ProfiledDecode() {
    dsp::ModemConfig cfg;
    cfg.mod = dsp::Modulation::kQam64;
    cfg.numSymbols = 4;
    Rng rng(5);
    const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
    dsp::ChannelConfig cc;
    cc.flat = true;
    cc.snrDb = 40;
    cc.cfoPpm = 6;
    dsp::MimoChannel ch(cc);
    modem = sdr::buildModemProgram(cfg);
    sdr::RxRunOptions opts;
    opts.profile = true;
    res = sdr::runModemOnProcessor(proc, modem, ch.run(pkt.waveform), opts);
  }
};

TEST(Profiler, KernelLaunchCyclesPartitionExactly) {
  ProfiledDecode d;
  ASSERT_TRUE(d.res.detected);
  const auto& profs = d.proc.kernelProfiles();
  ASSERT_FALSE(profs.empty()) << "profiling was enabled";
  for (const auto& [key, kp] : profs) {
    SCOPED_TRACE("region " + std::to_string(key.first) + " kernel " +
                 std::to_string(key.second));
    EXPECT_GT(kp.launches, 0u);
    EXPECT_GT(kp.cycles, 0u);
    // The partition invariant: every booked cycle is attributed exactly once.
    EXPECT_EQ(kp.cycles,
              kp.issueCycles + kp.idleCycles + kp.stallCycles +
                  kp.overheadCycles);
    EXPECT_GT(kp.issueCycles, 0u) << "a launch that issued nothing";
    // Scheduled dispatch slots (plan classes x trips) bound retired ops.
    u64 scheduled = 0;
    for (const auto& [cls, ops] : kp.opsByClass) scheduled += ops;
    EXPECT_GT(scheduled, 0u);
    EXPECT_GE(scheduled, kp.ops);
  }
}

TEST(Profiler, SummaryIsTheProcessorsOwnMapsNamedAtExport) {
  ProfiledDecode d;
  ProfileSummary sum;
  sum.addProcessor(d.proc);
  EXPECT_EQ(sum.regions, d.proc.profiles());
  EXPECT_EQ(sum.kernels, d.proc.kernelProfiles());

  // The radix-2 stages are five kernel ids sharing the name `fft_stage`:
  // the export folds them into one row per region, whose launches are the
  // sum over the five ids.
  const auto& plans = d.proc.kernelPlans()->kernels;
  const std::vector<std::string>& regionNames = d.proc.program().regionNames;
  std::map<std::string, u64> fftLaunches;  // region name -> summed launches
  std::map<std::string, std::set<u32>> fftIds;
  for (const auto& [key, kp] : d.proc.kernelProfiles()) {
    if (plans[key.second].source.name != "fft_stage") continue;
    const std::string region = regionName(regionNames, key.first);
    fftLaunches[region] += kp.launches;
    fftIds[region].insert(key.second);
  }
  ASSERT_FALSE(fftLaunches.empty());
  for (const auto& [region, ids] : fftIds)
    EXPECT_EQ(ids.size(), 5u) << region;

  std::ostringstream js;
  sum.writeJson(js);
  const JsonValue root = JsonParser(js.str()).parse();
  std::map<std::string, int> rows;  // region name -> fft_stage rows
  for (const JsonValue& k : root.at("kernels").array) {
    if (k.at("kernel").str != "fft_stage") continue;
    const std::string& region = k.at("region").str;
    ++rows[region];
    ASSERT_TRUE(fftLaunches.count(region)) << region;
    EXPECT_EQ(k.at("launches").number,
              static_cast<double>(fftLaunches.at(region)))
        << region;
  }
  EXPECT_EQ(rows.size(), fftLaunches.size());
  for (const auto& [region, n] : rows) EXPECT_EQ(n, 1) << region;
}

TEST(Profiler, SummaryFoldsRanksAndExports) {
  ProfiledDecode d;
  ProfileSummary sum;
  EXPECT_TRUE(sum.empty());
  sum.addProcessor(d.proc);
  EXPECT_FALSE(sum.empty());
  EXPECT_EQ(sum.runs, 1u);
  EXPECT_EQ(sum.totalCycles, d.proc.activity().totalCycles());
  // Reports carry human names resolved from the program at export.
  ASSERT_FALSE(sum.kernels.empty());
  ASSERT_FALSE(sum.regions.empty());
  std::ostringstream folded1;
  sum.writeFolded(folded1);
  EXPECT_NE(folded1.str().find("modem;SDM_processing;sdm_processing;"),
            std::string::npos)
      << "Table 2 kernel present under its region/kernel names";
  EXPECT_NE(folded1.str().find("modem;non-kernel_code;vliw "),
            std::string::npos);

  // Adding the processor again doubles every count.
  ProfileSummary twice = sum;
  twice.addProcessor(d.proc);
  EXPECT_EQ(twice.runs, 2u);
  EXPECT_EQ(twice.totalCycles, 2 * sum.totalCycles);
  for (const auto& [key, kr] : sum.kernels) {
    EXPECT_EQ(twice.kernels.at(key).cycles, 2 * kr.cycles);
    EXPECT_EQ(twice.kernels.at(key).ops, 2 * kr.ops);
  }

  // topSinks: descending, share against totalCycles, includes VLIW residues.
  const std::vector<CycleSink> sinks = sum.topSinks(5);
  ASSERT_GE(sinks.size(), 3u);
  for (std::size_t i = 1; i < sinks.size(); ++i)
    EXPECT_GE(sinks[i - 1].cycles, sinks[i].cycles);
  for (const CycleSink& s : sinks) {
    EXPECT_GT(s.share, 0.0);
    EXPECT_NEAR(s.share,
                static_cast<double>(s.cycles) /
                    static_cast<double>(sum.totalCycles),
                1e-12);
  }

  // adres.profile.v1 JSON: parses, and the per-kernel partition survives.
  std::ostringstream js;
  sum.writeJson(js);
  const JsonValue root = JsonParser(js.str()).parse();
  EXPECT_EQ(root.at("schema").str, "adres.profile.v1");
  EXPECT_EQ(root.at("runs").number, 1.0);
  EXPECT_EQ(root.at("total_cycles").number,
            static_cast<double>(sum.totalCycles));
  ASSERT_FALSE(root.at("kernels").array.empty());
  for (const JsonValue& k : root.at("kernels").array) {
    EXPECT_EQ(k.at("cycles").number,
              k.at("issue_cycles").number + k.at("idle_cycles").number +
                  k.at("stall_cycles").number + k.at("overhead_cycles").number);
    EXPECT_FALSE(k.at("region").str.empty());
    EXPECT_FALSE(k.at("kernel").str.empty());
  }
  ASSERT_FALSE(root.at("regions").array.empty());

  // Folded stacks: `modem;region;kernel;component N`, frames free of the
  // separator characters, totals matching the summary's issue cycles.
  std::ostringstream folded;
  sum.writeFolded(folded);
  std::istringstream lines(folded.str());
  std::string line;
  u64 issueTotal = 0, lineCount = 0;
  while (std::getline(lines, line)) {
    ++lineCount;
    ASSERT_EQ(line.rfind("modem;", 0), 0u) << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), space) << "single separator space: " << line;
    if (line.find(";issue ") != std::string::npos)
      issueTotal += std::stoull(line.substr(space + 1));
  }
  EXPECT_GT(lineCount, 0u);
  u64 expectIssue = 0;
  for (const auto& [key, kr] : sum.kernels) expectIssue += kr.issueCycles;
  EXPECT_EQ(issueTotal, expectIssue);
}

TEST(Profiler, DisabledRunBooksIdenticalCyclesAndNoProfiles) {
  // The profiler is observability, not simulation: a profiled decode and a
  // plain decode must be bit- and cycle-exact, and the plain one must leave
  // no kernel profiles behind.
  ProfiledDecode on;
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 4;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  dsp::MimoChannel ch(cc);
  const sdr::ModemOnProcessor m = sdr::buildModemProgram(cfg);
  Processor proc;
  const sdr::ProcessorRxResult off =
      sdr::runModemOnProcessor(proc, m, ch.run(pkt.waveform));

  EXPECT_EQ(off.cycles, on.res.cycles);
  EXPECT_EQ(off.bits, on.res.bits);
  EXPECT_TRUE(proc.kernelProfiles().empty());
}

}  // namespace
}  // namespace adres::trace
