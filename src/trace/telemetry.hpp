// Processor telemetry: the one-shot adres.counters.v1 dump of a Processor
// (its counter block and region profiles, see trace/counters.hpp) and the
// per-region report shared by the benches and examples.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>

#include "trace/counters.hpp"

namespace adres {
class Processor;
}

namespace adres::trace {

/// Stable-schema counters dump for `proc`.
void writeCountersJson(const Processor& proc, std::ostream& os);

/// writeCountersJson into `path`, written atomically; a failed write throws
/// SimError naming the path.
void writeCountersFile(const Processor& proc, const std::string& path);

/// Per-region summary table (name, entries, cycles, mode, IPC) to `out`.
void printRegionTable(const Processor& proc, std::FILE* out = stdout);

}  // namespace adres::trace
