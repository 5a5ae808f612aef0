#include "sched/listsched.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace adres {
namespace {

struct Dep {
  int earliestBundle = 0;  ///< first bundle index this instr may occupy
};

bool readsReg(const Instr& in, int reg) {
  const bool s1 = in.src1 == reg &&
                  !(in.op == Opcode::MOVI || in.op == Opcode::PRED_SET ||
                    in.op == Opcode::PRED_CLEAR || in.op == Opcode::NOP);
  const bool s2 = !in.useImm && in.src2 == reg &&
                  !(in.op == Opcode::MOV || in.op == Opcode::MOVI ||
                    in.op == Opcode::MOVIH || in.op == Opcode::NOP ||
                    in.op == Opcode::C4ABS || in.op == Opcode::C4NEG ||
                    in.op == Opcode::C4SHUF);
  const bool s3 = isStore(in.op) && in.src3 == reg;
  const bool merge = in.op == Opcode::LD_IH && in.dst == reg;
  return s1 || s2 || s3 || merge;
}

bool writesReg(const Instr& in, int reg) {
  if (in.isNop() || isStore(in.op) || isPredDef(in.op)) return false;
  if (isBranch(in.op)) return false;
  return writesDataReg(in.op) && in.dst == reg;
}

}  // namespace

std::vector<Bundle> scheduleVliw(const std::vector<Instr>& seq) {
  std::vector<Bundle> bundles;
  std::vector<int> slotsUsed;  // per bundle

  // Per-register availability: bundle index from which a dependent may issue.
  std::array<int, kCdrfRegs> regAvail = {};
  std::array<int, kCdrfRegs> regLastWriteBundle{};
  std::array<int, kCdrfRegs> regLastReadBundle{};
  regLastWriteBundle.fill(-1);
  regLastReadBundle.fill(-1);
  std::array<int, kCprfRegs> predAvail = {};
  std::array<int, kCprfRegs> predLastWriteBundle{};
  std::array<int, kCprfRegs> predLastReadBundle{};
  predLastWriteBundle.fill(-1);
  predLastReadBundle.fill(-1);
  int lastStoreBundle = -1;
  int lastMemBundle = -1;

  for (const Instr& in : seq) {
    ADRES_CHECK(!isBranch(in.op) && !isControl(in.op),
                "scheduleVliw: control op " << opInfo(in.op).name
                                            << " not allowed here");
    // Earliest bundle from data dependences.
    int earliest = 0;
    for (int r = 0; r < kCdrfRegs; ++r) {
      if (readsReg(in, r)) earliest = std::max(earliest, regAvail[static_cast<std::size_t>(r)]);
      if (writesReg(in, r)) {
        // Output dep: don't commit before a prior writer; anti dep: don't
        // land before a prior reader (same bundle is fine — readers see
        // pre-bundle state).
        earliest = std::max(earliest, regLastWriteBundle[static_cast<std::size_t>(r)] + 1);
        earliest = std::max(earliest, regLastReadBundle[static_cast<std::size_t>(r)]);
      }
    }
    if (in.guard != 0)
      earliest = std::max(earliest, predAvail[static_cast<std::size_t>(in.guard)]);
    if (isPredDef(in.op)) {
      earliest = std::max(earliest, predLastWriteBundle[static_cast<std::size_t>(in.dst)] + 1);
      earliest = std::max(earliest, predLastReadBundle[static_cast<std::size_t>(in.dst)]);
    }
    if (isStore(in.op)) {
      earliest = std::max(earliest, lastMemBundle + 1);
    } else if (isLoad(in.op)) {
      earliest = std::max(earliest, lastStoreBundle + 1);
    }

    // Find a bundle >= earliest with a legal free slot.
    int placedBundle = -1;
    int placedSlot = -1;
    const u16 mask = opInfo(in.op).fuMask;
    for (int b = earliest;; ++b) {
      while (b >= static_cast<int>(bundles.size())) {
        bundles.emplace_back();
        slotsUsed.push_back(0);
      }
      for (int s = 0; s < kVliwSlots; ++s) {
        if (!((mask >> s) & 1)) continue;
        if (!bundles[static_cast<std::size_t>(b)].slot[s].isNop()) continue;
        placedBundle = b;
        placedSlot = s;
        break;
      }
      if (placedBundle >= 0) break;
    }
    bundles[static_cast<std::size_t>(placedBundle)].slot[placedSlot] = in;
    ++slotsUsed[static_cast<std::size_t>(placedBundle)];

    // Update availability.
    const int lat = opInfo(in.op).latency;
    for (int r = 0; r < kCdrfRegs; ++r) {
      if (readsReg(in, r))
        regLastReadBundle[static_cast<std::size_t>(r)] =
            std::max(regLastReadBundle[static_cast<std::size_t>(r)], placedBundle);
      if (writesReg(in, r)) {
        regAvail[static_cast<std::size_t>(r)] = placedBundle + lat;
        regLastWriteBundle[static_cast<std::size_t>(r)] = placedBundle;
      }
    }
    if (in.guard != 0)
      predLastReadBundle[in.guard] =
          std::max(predLastReadBundle[in.guard], placedBundle);
    if (isPredDef(in.op)) {
      predAvail[in.dst] = placedBundle + lat;
      predLastWriteBundle[in.dst] = placedBundle;
    }
    if (isStore(in.op)) lastStoreBundle = std::max(lastStoreBundle, placedBundle);
    if (isMem(in.op)) lastMemBundle = std::max(lastMemBundle, placedBundle);
  }
  return bundles;
}

}  // namespace adres
