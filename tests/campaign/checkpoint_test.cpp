// adres.campaign.v1 checkpoints: lossless round-trip (including doubles),
// deterministic bytes, spec-hash guarding, a loader that fails closed on
// malformed fields, and the file variants.
#include "campaign/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace adres::campaign {
namespace {

SweepSpec twoCellSpec() {
  SweepSpec s;
  s.seed = 3;
  s.mods = {dsp::Modulation::kQam64};
  s.numSymbols = {2};
  s.taps = {1};
  s.cfoPpm = {10.0};
  s.snrDb = {18.0, 30.0};
  s.flat = true;
  return s;
}

/// Accumulators with deliberately awkward doubles: %.17g + std::stod must
/// round-trip them bit-exactly.
CellResult fakeResult(u64 salt) {
  CellResult r;
  r.trials = 37 + salt;
  r.bits = (37 + salt) * 384;
  r.bitErrors = 5 * salt;
  r.packetErrors = salt;
  r.lostPackets = salt / 2;
  r.cycles = (37 + salt) * 66977;
  r.energyNj = static_cast<double>(salt + 1) / 3.0 * 1e4;
  r.discardedTrials = salt;
  r.stopReason = salt % 2 ? "ci" : "errorBudget";
  r.done = true;
  return r;
}

TEST(Checkpoint, RoundTripIsLossless) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};

  std::stringstream ss;
  writeCheckpoint(ss, spec, cells, results);
  const std::map<u64, CellResult> loaded = loadCheckpoint(ss, spec);

  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto it = loaded.find(cells[i].key());
    ASSERT_NE(it, loaded.end());
    EXPECT_EQ(it->second, results[i]) << "cell " << i;
  }
}

TEST(Checkpoint, BytesAreDeterministicAndSkipUnfinishedCells) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};
  results[1].done = false;  // still running: must not be recorded

  std::stringstream a, b;
  writeCheckpoint(a, spec, cells, results);
  writeCheckpoint(b, spec, cells, results);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(loadCheckpoint(a, spec).size(), 1u);
}

TEST(Checkpoint, RefusesADifferentSpec) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};
  std::stringstream ss;
  writeCheckpoint(ss, spec, cells, results);

  SweepSpec other = spec;
  other.stop.maxTrials += 1;
  EXPECT_THROW(loadCheckpoint(ss, other), SimError)
      << "a checkpoint never silently resumes a different sweep";
}

TEST(Checkpoint, MalformedFieldsFailClosed) {
  // Each edit makes one field of a well-formed checkpoint unrepresentable:
  // the load must throw rather than cast the double (undefined behaviour
  // for -1), truncate a fraction, or read a key's hex prefix as another
  // cell's key (which silently re-ran the cell).
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::stringstream ss;
  writeCheckpoint(ss, spec, cells, {fakeResult(1), fakeResult(2)});
  const std::string good = ss.str();
  const std::string key = hex64(cells[0].key());
  const std::pair<std::string, std::string> cases[] = {
      {"\"trials\": 38,", "\"trials\": -1,"},
      {"\"bits\": 14592,", "\"bits\": 14592.5,"},
      {"\"key\": \"" + key + "\"", "\"key\": \"" + key.substr(0, 4) + "zz\""},
      {"\"stopReason\": \"ci\"", "\"stopReason\": 7"},
  };
  for (const auto& [from, to] : cases) {
    std::string text = good;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::istringstream is(text);
    EXPECT_THROW(loadCheckpoint(is, spec), std::runtime_error) << to;
  }
}

TEST(Checkpoint, FileVariantRoundTripsAndToleratesMissingFiles) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};

  const std::string path =
      testing::TempDir() + "adres_checkpoint_test_camp.json";
  std::remove(path.c_str());
  EXPECT_TRUE(loadCheckpointFile(path, spec).empty()) << "missing = fresh";

  writeCheckpointFile(path, spec, cells, results);
  const std::map<u64, CellResult> loaded = loadCheckpointFile(path, spec);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at(cells[0].key()), results[0]);
  EXPECT_EQ(loaded.at(cells[1].key()), results[1]);
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedFileWriteThrowsNamingThePathAndLeavesNoTmp) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  const std::vector<CellResult> results{fakeResult(1), fakeResult(2)};
  // A directory squatting on the checkpoint name: the tmp file is written,
  // then the rename onto the directory fails.
  const std::string path =
      testing::TempDir() + "adres_checkpoint_test_squatted.json";
  std::filesystem::remove_all(path);
  std::filesystem::remove(path + ".tmp");
  std::filesystem::create_directory(path);
  try {
    writeCheckpointFile(path, spec, cells, results);
    ADD_FAILURE() << "a failed rename must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the half-committed tmp file is removed";
  EXPECT_TRUE(std::filesystem::is_directory(path)) << "target untouched";
  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace adres::campaign
