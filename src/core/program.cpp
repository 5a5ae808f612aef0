#include "core/program.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mem/scratchpad.hpp"

namespace adres {

Bundle regionMarker(int id) {
  Bundle b;
  b.slot[0].op = Opcode::NOP;
  b.slot[0].useImm = true;
  b.slot[0].imm = id >= 0 ? id + 1 : -1;
  return b;
}

bool isRegionMarker(const Bundle& b, int& id) {
  const Instr& s0 = b.slot[0];
  if (s0.op != Opcode::NOP || !s0.useImm || s0.imm == kRegionMarkerNone)
    return false;
  if (!b.slot[1].isNop() || !b.slot[2].isNop()) return false;
  id = s0.imm > 0 ? s0.imm - 1 : -1;
  return true;
}

int Program::regionId(const std::string& n) const {
  const auto it = std::find(regionNames.begin(), regionNames.end(), n);
  ADRES_CHECK(it != regionNames.end(), "unknown region '" << n << '\'');
  return static_cast<int>(it - regionNames.begin());
}

std::string regionName(const std::vector<std::string>& names, int id) {
  if (id >= 0 && static_cast<std::size_t>(id) < names.size())
    return names[static_cast<std::size_t>(id)];
  return "region" + std::to_string(id);
}

void Program::validate() const {
  ADRES_CHECK(!bundles.empty(), "program '" << name << "' has no text");
  ADRES_CHECK(entry < bundles.size(), "entry point out of range");
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    const Bundle& b = bundles[i];
    bool wroteReg[kCdrfRegs] = {};
    bool wrotePred[kCprfRegs] = {};
    for (int s = 0; s < kVliwSlots; ++s) {
      const Instr& in = b.slot[s];
      adres::validate(in, s);
      if (in.op == Opcode::CGA) {
        ADRES_CHECK(in.imm >= 0 &&
                        static_cast<std::size_t>(in.imm) < kernels.size(),
                    "bundle " << i << ": cga kernel #" << in.imm
                              << " not in program");
      }
      if (isBranch(in.op) && in.useImm) {
        const i64 target = static_cast<i64>(i) + in.imm;
        ADRES_CHECK(target >= 0 && target < static_cast<i64>(bundles.size()),
                    "bundle " << i << ": branch target " << target
                              << " out of range");
      }
      if (in.isNop()) continue;
      if (isPredDef(in.op)) {
        ADRES_CHECK(!wrotePred[in.dst],
                    "bundle " << i << ": two writes to p" << int{in.dst});
        wrotePred[in.dst] = true;
      } else if (writesDataReg(in.op)) {
        const int d = (in.op == Opcode::JMPL || in.op == Opcode::BRL)
                          ? kLinkReg
                          : in.dst;
        ADRES_CHECK(!wroteReg[d],
                    "bundle " << i << ": two writes to r" << d);
        wroteReg[d] = true;
      }
    }
  }
  for (const KernelConfig& k : kernels) k.validate();
  // Data segments: inside L1 and pairwise disjoint.
  for (std::size_t a = 0; a < data.size(); ++a) {
    ADRES_CHECK(static_cast<u64>(data[a].addr) + data[a].bytes.size() <=
                    kL1Bytes,
                "data segment " << a << " exceeds L1");
    for (std::size_t b2 = a + 1; b2 < data.size(); ++b2) {
      const bool overlap =
          data[a].addr < data[b2].addr + data[b2].bytes.size() &&
          data[b2].addr < data[a].addr + data[a].bytes.size();
      ADRES_CHECK(!overlap, "data segments " << a << " and " << b2
                                             << " overlap");
    }
  }
}

}  // namespace adres
