// alloc_gate: allocation-regression gate for the packet hot path
// (DESIGN.md §15).  CI fails if the steady-state generate → submit →
// decode → collect → recycle loop performs ANY heap allocation.
//
// Counting operator new/new[] are replaced globally; after a warm-up that
// fills every pool and cache (payload buffers, decoded-bit buffers, outcome
// storage, region-profile nodes, warm-reload plans), the
// gate snapshots the allocation counter, runs measured rounds of the full
// producer/consumer loop, and asserts a zero delta.
//
//   $ ./alloc_gate [--rounds N] [--batch N] [--workers N] [--verbose]
//
// Exit 0: no steady-state allocations.  Exit 1: the hot path regressed —
// the report prints the per-round allocation delta to chase.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

#include "bench/bench_args.hpp"
#include "dsp/frontend.hpp"
#include "platform/packet_farm.hpp"

namespace {

std::atomic<unsigned long long> g_allocs{0};
/// While positive, each counted allocation dumps a stack to stderr and
/// decrements — the chase-the-regression mode (--trace N).
std::atomic<int> g_trace{0};

void maybeTrace() {
  if (g_trace.load(std::memory_order_relaxed) <= 0) return;
  if (g_trace.fetch_sub(1, std::memory_order_relaxed) <= 0) return;
#if defined(__GLIBC__)
  void* frames[32];
  const int n = backtrace(frames, 32);
  std::fprintf(stderr, "--- steady-state allocation ---\n");
  backtrace_symbols_fd(frames, n, 2);  // fd variant: no malloc
#else
  std::fprintf(stderr, "--- steady-state allocation (no backtrace here) ---\n");
#endif
}

void* countedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  maybeTrace();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  maybeTrace();
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Counting replacements for every usual-deallocation form (C++17 set).
void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return countedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return countedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace adres;

namespace {

/// One full producer/consumer round: generate + submit `batch` trials with
/// the vectorized frontend, collect the ordered outcomes, recycle every
/// buffer back to the farm's pools.  Exactly the campaign inner loop.
void runRound(platform::PacketFarm& farm, const dsp::ModemConfig& modem,
              u64 firstTrial, u64 batch, std::vector<u8>& bits,
              dsp::TrialScratch& scratch,
              std::vector<platform::RxOutcome>& outs) {
  const dsp::FrontendConfig fe;  // vectorized default
  for (u64 t = firstTrial; t < firstTrial + batch; ++t) {
    Rng txRng(0x9e3779b97f4a7c15ull ^ (t * 2u));
    dsp::ChannelConfig cc;
    cc.taps = 2;
    cc.snrDb = 30;
    cc.cfoPpm = 5;
    cc.seed = 0xbf58476d1ce4e5b9ull ^ (t * 2u + 1u);
    platform::RxJob job;
    job.id = t;
    job.rx[0] = farm.acquireSampleBuffer();
    job.rx[1] = farm.acquireSampleBuffer();
    dsp::generateTrial(modem, cc, txRng, bits, job.rx, scratch, fe);
    farm.submit(std::move(job));
  }
  farm.collectInto(outs);
  farm.recycleOutcomes(outs);
}

}  // namespace

int main(int argc, char** argv) {
  int rounds = 16;
  int batch = 8;
  int workers = 2;
  int warmup = 8;
  int traceN = 0;
  bool verbose = false;

  bench::Args args("alloc_gate",
                   "asserts zero steady-state heap allocations on the "
                   "generate/submit/decode/collect hot path");
  args.flag("rounds", "N", "measured rounds", &rounds);
  args.flag("batch", "N", "trials per round", &batch);
  args.flag("workers", "N", "farm worker threads", &workers);
  args.flag("warmup", "N", "warm-up rounds before the gate arms", &warmup);
  args.flag("trace", "N", "stderr backtraces for the first N steady-state "
            "allocations (regression chasing)", &traceN);
  args.flag("verbose", "print per-round allocation counts", &verbose);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;

  dsp::ModemConfig modem;
  modem.mod = dsp::Modulation::kQam64;
  modem.numSymbols = 2;

  platform::FarmConfig fc;
  fc.modem = modem;
  fc.numWorkers = workers;
  fc.queueCapacity = static_cast<std::size_t>(2 * batch);
  fc.ordered = true;
  fc.watchdog.enabled = false;  // supervision thread wakes allocate-free, but
                                // event emission must never fire mid-gate
  platform::PacketFarm farm(fc);

  std::vector<u8> bits;
  dsp::TrialScratch scratch;
  std::vector<platform::RxOutcome> outs;

  // Warm-up: fills the sample/bit pools, outcome storage, the session's
  // region accumulators and the warm-reload plan cache.
  u64 trial = 0;
  for (int r = 0; r < warmup; ++r, trial += static_cast<u64>(batch))
    runRound(farm, modem, trial, static_cast<u64>(batch), bits, scratch, outs);

  const unsigned long long armed = g_allocs.load(std::memory_order_relaxed);
  g_trace.store(traceN, std::memory_order_relaxed);
  unsigned long long prev = armed;
  for (int r = 0; r < rounds; ++r, trial += static_cast<u64>(batch)) {
    runRound(farm, modem, trial, static_cast<u64>(batch), bits, scratch, outs);
    if (verbose) {
      const unsigned long long now = g_allocs.load(std::memory_order_relaxed);
      std::printf("round %2d: %llu allocations\n", r, now - prev);
      prev = now;
    }
  }
  const unsigned long long after = g_allocs.load(std::memory_order_relaxed);

  const unsigned long long delta = after - armed;
  std::printf("alloc_gate: %d rounds x %d trials on %d workers: "
              "%llu steady-state allocations (%llu during warm-up)\n",
              rounds, batch, workers, delta, armed);
  if (delta != 0) {
    std::printf("FAIL: the packet hot path allocated %llu times after "
                "warm-up (expected 0)\n", delta);
    return 1;
  }
  std::printf("PASS: zero steady-state heap allocations\n");
  return 0;
}
