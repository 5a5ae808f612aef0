#include "campaign/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/json_min.hpp"

namespace adres::campaign {
namespace {

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmtDouble(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

u64 asU64(const json::JsonValue& v) {
  // Counters stay below 2^53, so the double round-trip is exact.
  return static_cast<u64>(v.number);
}

}  // namespace

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
  ADRES_CHECK(root.at("schema").str == kCheckpointSchema,
              "unknown checkpoint schema");
  ADRES_CHECK(root.at("specHash").str == hex64(stableHash(spec)),
              "checkpoint was written by a different sweep spec");
  std::map<u64, CellResult> out;
  for (const json::JsonValue& cell : root.at("cells").array) {
    const u64 key = std::stoull(cell.at("key").str, nullptr, 16);
    CellResult r;
    r.trials = asU64(cell.at("trials"));
    r.bits = asU64(cell.at("bits"));
    r.bitErrors = asU64(cell.at("bitErrors"));
    r.packetErrors = asU64(cell.at("packetErrors"));
    r.lostPackets = asU64(cell.at("lostPackets"));
    r.cycles = asU64(cell.at("cycles"));
    r.discardedTrials = asU64(cell.at("discardedTrials"));
    r.stopReason = cell.at("stopReason").str;
    r.energyNj = cell.at("energyNj").number;
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
