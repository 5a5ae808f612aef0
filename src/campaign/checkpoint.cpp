#include "campaign/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json_escape.hpp"
#include "common/json_min.hpp"

namespace adres::campaign {

using json::fmtDouble;

void writeCheckpoint(std::ostream& os, const SweepSpec& spec,
                     const std::vector<CellSpec>& cells,
                     const std::vector<CellResult>& results) {
  ADRES_CHECK(cells.size() == results.size(), "cells/results size mismatch");
  os << "{\n";
  os << "  \"schema\": \"" << kCheckpointSchema << "\",\n";
  os << "  \"specHash\": \"" << hex64(stableHash(spec)) << "\",\n";
  os << "  \"cells\": [";
  bool first = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& c = cells[i];
    const CellResult& r = results[i];
    if (!r.done) continue;
    if (!first) os << ",";
    first = false;
    const Interval ci = wilson(r.packetErrors, r.trials, spec.stop.confidence);
    os << "\n    {\"key\": \"" << hex64(c.key()) << "\""
       << ", \"label\": \"" << cellLabel(c) << "\""
       << ", \"mod\": " << static_cast<int>(c.modem.mod)
       << ", \"numSymbols\": " << c.modem.numSymbols
       << ", \"taps\": " << c.channel.taps
       << ", \"delaySpread\": " << fmtDouble(c.channel.delaySpread)
       << ", \"cfoPpm\": " << fmtDouble(c.channel.cfoPpm)
       << ", \"snrDb\": " << fmtDouble(c.channel.snrDb) << ",\n"
       << "     \"trials\": " << r.trials << ", \"bits\": " << r.bits
       << ", \"bitErrors\": " << r.bitErrors
       << ", \"packetErrors\": " << r.packetErrors
       << ", \"lostPackets\": " << r.lostPackets
       << ", \"cycles\": " << r.cycles
       << ", \"discardedTrials\": " << r.discardedTrials
       << ", \"stopReason\": \"" << r.stopReason << "\",\n"
       << "     \"energyNj\": " << fmtDouble(r.energyNj)
       << ", \"per\": " << fmtDouble(r.per())
       << ", \"ber\": " << fmtDouble(r.ber())
       << ", \"perCiLo\": " << fmtDouble(ci.lo)
       << ", \"perCiHi\": " << fmtDouble(ci.hi)
       << ", \"energyPerBitNj\": " << fmtDouble(r.energyPerBitNj()) << "}";
  }
  os << "\n  ]\n}\n";
}

void writeCheckpointFile(const std::string& path, const SweepSpec& spec,
                         const std::vector<CellSpec>& cells,
                         const std::vector<CellResult>& results) {
  ADRES_CHECK(writeFileAtomic(path,
                              [&](std::ostream& os) {
                                writeCheckpoint(os, spec, cells, results);
                              }),
              "cannot write checkpoint '" << path << '\'');
}

std::map<u64, CellResult> loadCheckpoint(std::istream& is,
                                         const SweepSpec& spec) {
  std::ostringstream buf;
  buf << is.rdbuf();
  json::JsonValue root = json::JsonParser(buf.str()).parse();
  ADRES_CHECK(root.type == json::JsonValue::kObject, "checkpoint not an object");
  ADRES_CHECK(root.get<std::string>("schema") == kCheckpointSchema,
              "unknown checkpoint schema");
  ADRES_CHECK(root.get<std::string>("specHash") == hex64(stableHash(spec)),
              "checkpoint was written by a different sweep spec");
  std::map<u64, CellResult> out;
  for (const json::JsonValue& cell :
       root.at("cells", json::JsonValue::kArray).array) {
    const u64 key = parseHex64(cell.get<std::string>("key"));
    CellResult r;
    r.trials = cell.get<u64>("trials");
    r.bits = cell.get<u64>("bits");
    r.bitErrors = cell.get<u64>("bitErrors");
    r.packetErrors = cell.get<u64>("packetErrors");
    r.lostPackets = cell.get<u64>("lostPackets");
    r.cycles = cell.get<u64>("cycles");
    r.discardedTrials = cell.get<u64>("discardedTrials");
    r.stopReason = cell.get<std::string>("stopReason");
    r.energyNj = cell.get<double>("energyNj");
    r.done = true;
    out.emplace(key, std::move(r));
  }
  return out;
}

std::map<u64, CellResult> loadCheckpointFile(const std::string& path,
                                             const SweepSpec& spec) {
  std::ifstream is(path);
  if (!is.good()) return {};
  return loadCheckpoint(is, spec);
}

}  // namespace adres::campaign
