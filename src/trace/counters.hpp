// The fixed counter schema: every simulator statistic that the
// adres.counters.v1 dump and the farm's live `adres_sim_counter` family
// report, as one enum-indexed block.
//
// ADRES_COUNTERS is the single table: one row per counter, in sorted key
// order, giving the enum id, the stable dot-separated `<component>.<metric>`
// JSON key (lower_snake metrics — DESIGN.md "Counter naming") and the
// expression that reads it off a `const Processor& p`.  It generates
// `Counter`, `counterName()`, `CounterBlock` and `readCounters()`; the dump
// order is the table order, so the static_assert below keeps it sorted.
//
// A CounterBlock is a plain value (32 u64s): folding a packet's counters is
// a vector add and publishing them across threads is a 256-byte copy, with
// no strings, maps or heap involved.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace adres {
class Processor;
struct RegionProfile;
}  // namespace adres

namespace adres::trace {

// X(id, key, read-expression over `const Processor& p`), sorted by key.
#define ADRES_COUNTERS(X)                                                    \
  X(kCdrfCgaAccesses, "cdrf.cga_accesses", p.activity().cdrfCgaAccesses)    \
  X(kCdrfReads, "cdrf.reads", p.regs().stats().reads)                       \
  X(kCdrfWrites, "cdrf.writes", p.regs().stats().writes)                    \
  X(kCfgmemContextFetches, "cfgmem.context_fetches",                        \
    p.configMem().stats().contextFetches)                                   \
  X(kCfgmemDmaBytes, "cfgmem.dma_bytes", p.configMem().stats().dmaBytes)    \
  X(kCgaCycles, "cga.cycles", p.activity().cgaCycles)                       \
  X(kCgaOps, "cga.ops", p.activity().cgaOps)                                \
  X(kCgaRouteMoves, "cga.route_moves", p.activity().cgaRouteMoves)          \
  X(kCgaStallCycles, "cga.stall_cycles", p.activity().cgaStallCycles)       \
  X(kCoreCycles, "core.cycles", p.activity().totalCycles())                 \
  X(kCprfReads, "cprf.reads", p.regs().predStats().reads)                   \
  X(kCprfWrites, "cprf.writes", p.regs().predStats().writes)                \
  X(kDmaCoreCycles, "dma.core_cycles", p.dma().stats().coreCycles)          \
  X(kDmaTransfers, "dma.transfers", p.dma().stats().transfers)              \
  X(kDmaWords, "dma.words", p.dma().stats().wordsMoved)                     \
  X(kIcacheAccesses, "icache.accesses", p.icache().stats().accesses)        \
  X(kIcacheMisses, "icache.misses", p.icache().stats().misses)              \
  X(kL1BankConflictCycles, "l1.bank_conflict_cycles",                       \
    p.l1().stats().conflictCycles)                                          \
  X(kL1BankConflicts, "l1.bank_conflicts", p.l1().stats().conflicts)        \
  X(kL1CgaAccesses, "l1.cga_accesses", p.activity().l1CgaAccesses)          \
  X(kL1Reads, "l1.reads", p.l1().stats().reads)                             \
  X(kL1Writes, "l1.writes", p.l1().stats().writes)                          \
  X(kLrfReads, "lrf.reads", p.cga().localRfTotals().reads)                  \
  X(kLrfWrites, "lrf.writes", p.cga().localRfTotals().writes)               \
  X(kModeSwitches, "mode.switches", p.activity().modeSwitches)              \
  X(kOps16, "ops16", p.activity().ops16)                                    \
  X(kSimdOps, "simd.ops", p.activity().simdOps)                             \
  X(kSleepCycles, "sleep.cycles", p.activity().sleepCycles)                 \
  X(kTransports, "transports", p.activity().transports)                     \
  X(kVliwCycles, "vliw.cycles", p.activity().vliwCycles)                    \
  X(kVliwOps, "vliw.ops", p.activity().vliwOps)                             \
  X(kVliwStallCycles, "vliw.stall_cycles", p.activity().vliwStallCycles)

enum class Counter : std::size_t {
#define ADRES_COUNTER_ID(id, key, read) id,
  ADRES_COUNTERS(ADRES_COUNTER_ID)
#undef ADRES_COUNTER_ID
};

inline constexpr std::array kCounterNames = {
#define ADRES_COUNTER_KEY(id, key, read) std::string_view(key),
    ADRES_COUNTERS(ADRES_COUNTER_KEY)
#undef ADRES_COUNTER_KEY
};
inline constexpr std::size_t kNumCounters = kCounterNames.size();

/// True when every key is non-empty and strictly greater than its
/// predecessor (sorted and unique) — the schema's dump-order invariant.
constexpr bool counterKeysStrictlySorted(
    std::span<const std::string_view> keys) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].empty()) return false;
    if (i > 0 && !(keys[i - 1] < keys[i])) return false;
  }
  return true;
}
static_assert(counterKeysStrictlySorted(kCounterNames),
              "ADRES_COUNTERS rows must be in strictly sorted key order");

/// The stable JSON key of `c`, e.g. "core.cycles".
constexpr std::string_view counterName(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

/// One value per counter, indexed by Counter.
struct CounterBlock {
  std::array<u64, kNumCounters> values{};

  u64& operator[](Counter c) { return values[static_cast<std::size_t>(c)]; }
  u64 operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
  CounterBlock& operator+=(const CounterBlock& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) values[i] += o.values[i];
    return *this;
  }
  bool operator==(const CounterBlock&) const = default;
};

/// Reads every counter off `p`'s live component statistics (which
/// Processor::resetStats() clears, except the DMA stats it keeps on
/// purpose).  Call it on the thread that runs `p`.
CounterBlock readCounters(const Processor& p);

/// Writes the adres.counters.v1 JSON:
///   {"schema":"adres.counters.v1","counters":{...},"groups":{"region":{...}}}
/// `counters` in key order; the `region` group holds
/// `<name>.{cga_cycles,cycles,entries,ops,vliw_cycles}` for every entry of
/// `regions`, sorted by key, with names from `regionNames` (`region<id>`
/// when the id has none).  When `workers` > 0 the dump is an aggregate
/// merged across that many parallel workers and carries the schema's
/// `workers` extension field.
void writeCountersJson(std::ostream& os, const CounterBlock& counters,
                       const std::map<int, RegionProfile>& regions,
                       const std::vector<std::string>& regionNames,
                       int workers = 0);

}  // namespace adres::trace
