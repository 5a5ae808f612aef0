// Shared bench CLI handling: one tiny declarative parser so every bench
// agrees on flag syntax (`--flag value` / `--flag=value`), keeps its legacy
// positional arguments, and gets a generated `--help`.  Header-only, shared
// by the benches and tools that take flags.  Every number on a command
// line — a flag, a positional, a sweep-axis token — follows one
// whole-token rule (parseNumber/parseInt, common/parse_number.hpp, which
// the SLO grammar shares).  The overhead gates of
// bench_farm and bench_table2_profiling also share its one host-overhead
// statistic, pairedMedianOverheadPct.
//
//   adres::bench::Args args("bench_farm", "packet-farm throughput sweep");
//   int packets = 24;
//   args.positional("numPackets", "packets to decode", &packets);
//   int port = -1;
//   args.flag("live-metrics", "PORT", "serve /metrics on PORT (0=ephemeral)",
//             &port);
//   if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;
#pragma once

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cga/exec_tier.hpp"
#include "common/parse_number.hpp"

namespace adres::bench {

/// Host milliseconds elapsed since `t0` (the latency-summary helper the
/// benches previously each carried a private copy of).
inline double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Most points a lo:step:hi axis may expand to: a typo'd step must not
/// expand into millions of cells.
inline constexpr double kMaxAxisPoints = 4096;

/// Parses a sweep axis, "a,b,c" or "lo:step:hi" (inclusive hi, within
/// 1e-9), by the whole-token rule: every value must be a finite number, a
/// range needs a positive step and at most kMaxAxisPoints points.  Empty
/// list entries are skipped.  On a bad token returns false with `bad`
/// naming it.
inline bool parseAxis(const std::string& s, std::vector<double>& out,
                      std::string& bad) {
  out.clear();
  const std::size_t c1 = s.find(':');
  if (c1 != std::string::npos) {
    const std::size_t c2 = s.find(':', c1 + 1);
    double lo = 0, step = 0, hi = 0;
    if (c2 == std::string::npos || !parseNumber(s.substr(0, c1), lo) ||
        !parseNumber(s.substr(c1 + 1, c2 - c1 - 1), step) ||
        !parseNumber(s.substr(c2 + 1), hi) || !(step > 0) ||
        (hi - lo) / step > kMaxAxisPoints) {
      bad = s;
      return false;
    }
    for (double v = lo; v <= hi + 1e-9; v += step) out.push_back(v);
    return true;
  }
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    double v = 0;
    if (!tok.empty()) {
      if (!parseNumber(tok, v)) {
        bad = tok;
        return false;
      }
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

/// parseAxis for an integer axis: every value must also be an int.
inline bool parseAxis(const std::string& s, std::vector<int>& out,
                      std::string& bad) {
  std::vector<double> values;
  if (!parseAxis(s, values, bad)) return false;
  out.clear();
  for (const double v : values) {
    if (v != std::trunc(v) || v < INT_MIN || v > INT_MAX) {
      bad = s;
      return false;
    }
    out.push_back(static_cast<int>(v));
  }
  return true;
}

/// Off/on pairs per overhead gate.
inline constexpr int kOverheadPairs = 15;

/// The one host-overhead statistic of the benches' overhead gates: runs
/// `pairs` off/on pairs back to back, alternating which side goes first,
/// and returns the median of the per-pair overheads 100 * (on - off) / off.
/// `off()` and `on()` each run once and return their host cost (e.g. ms).
/// A slow spell on a shared host hits both runs of a pair alike or is
/// discarded with the pair's outlier, and alternation cancels any
/// first-run/second-run bias.
template <class Off, class On>
double pairedMedianOverheadPct(int pairs, Off&& off, On&& on) {
  std::vector<double> pct;
  for (int i = 0; i < pairs; ++i) {
    double offCost = 0, onCost = 0;
    if (i % 2 == 0) {
      offCost = off();
      onCost = on();
    } else {
      onCost = on();
      offCost = off();
    }
    pct.push_back(offCost > 0 ? 100.0 * (onCost - offCost) / offCost : 0.0);
  }
  if (pct.empty()) return 0.0;
  std::sort(pct.begin(), pct.end());
  const std::size_t n = pct.size();
  return n % 2 ? pct[n / 2] : 0.5 * (pct[n / 2 - 1] + pct[n / 2]);
}

class Args {
 public:
  Args(std::string prog, std::string description)
      : prog_(std::move(prog)), description_(std::move(description)) {}

  /// Declares the next positional argument (optional, keeps `*out` when
  /// absent).  Declaration order is binding order.
  void positional(const std::string& name, const std::string& help,
                  int* out) {
    positionals_.push_back({name, help, out, nullptr, nullptr});
  }
  void positional(const std::string& name, const std::string& help,
                  double* out) {
    positionals_.push_back({name, help, nullptr, out, nullptr});
  }
  void positional(const std::string& name, const std::string& help,
                  std::string* out) {
    positionals_.push_back({name, help, nullptr, nullptr, out});
  }

  /// Declares a value-taking flag `--name VALUE` (or `--name=VALUE`).
  void flag(const std::string& name, const std::string& valueName,
            const std::string& help, int* out) {
    flags_.push_back({name, valueName, help, out, nullptr, nullptr, nullptr});
  }
  void flag(const std::string& name, const std::string& valueName,
            const std::string& help, double* out) {
    flags_.push_back({name, valueName, help, nullptr, out, nullptr, nullptr});
  }
  void flag(const std::string& name, const std::string& valueName,
            const std::string& help, std::string* out) {
    flags_.push_back({name, valueName, help, nullptr, nullptr, out, nullptr});
  }
  /// Declares a boolean flag `--name` (sets `*out` to true).
  void flag(const std::string& name, const std::string& help, bool* out) {
    flags_.push_back({name, "", help, nullptr, nullptr, nullptr, out});
  }

  /// Returns false when the program should exit: after printing --help
  /// (parseError() == false) or on a bad argument (parseError() == true, a
  /// one-line error + `--help` hint printed to stderr; callers exit 1).
  /// Strict by construction: unknown flags (single- or double-dash) and
  /// non-numeric values for numeric bindings all fail loudly — a typo'd
  /// sweep axis must never silently benchmark the defaults.
  bool parse(int argc, char** argv) {
    std::size_t nextPositional = 0;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(stdout);
        return false;
      }
      if (arg.rfind("--", 0) == 0 && arg.size() > 2) {
        std::string name = arg.substr(2);
        std::string value;
        bool hasValue = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
          value = name.substr(eq + 1);
          name = name.substr(0, eq);
          hasValue = true;
        }
        Flag* f = findFlag(name);
        if (f == nullptr) return fail("unknown flag --" + name);
        if (f->outBool != nullptr) {
          *f->outBool = hasValue ? (value != "0" && value != "false") : true;
          continue;
        }
        if (!hasValue) {
          if (i + 1 >= argc) return fail("--" + name + " needs a value");
          value = argv[++i];
        }
        if (!bind(*f, value))
          return fail("--" + name + " expects a number in range, got '" +
                      value + "'");
        continue;
      }
      // A single-dash token is a flag typo ("-foo" for "--foo"), not a
      // positional — unless it parses as a (negative) number.
      double number = 0;
      if (arg.size() > 1 && arg[0] == '-' && !parseNumber(arg, number))
        return fail("unknown flag " + arg + " (flags take two dashes)");
      if (nextPositional >= positionals_.size())
        return fail("unexpected argument '" + arg + "'");
      const Binding& b = positionals_[nextPositional++];
      if (!bind(b, arg))
        return fail(b.name + " expects a number in range, got '" + arg + "'");
    }
    return true;
  }

  bool parseError() const { return error_; }

  void usage(std::FILE* out) const {
    std::fprintf(out, "%s — %s\n\nusage: %s", prog_.c_str(),
                 description_.c_str(), prog_.c_str());
    for (const Binding& p : positionals_)
      std::fprintf(out, " [%s]", p.name.c_str());
    std::fprintf(out, " [flags]\n");
    if (!positionals_.empty()) {
      std::fprintf(out, "\npositional arguments (all optional):\n");
      for (const Binding& p : positionals_)
        std::fprintf(out, "  %-22s %s\n", p.name.c_str(), p.help.c_str());
    }
    std::fprintf(out, "\nflags:\n");
    for (const Flag& f : flags_) {
      const std::string head =
          "--" + f.name + (f.valueName.empty() ? "" : " " + f.valueName);
      std::fprintf(out, "  %-22s %s\n", head.c_str(), f.help.c_str());
    }
    std::fprintf(out, "  %-22s %s\n", "--help", "show this message");
  }

 private:
  struct Binding {
    std::string name, help;
    int* outInt = nullptr;
    double* outDouble = nullptr;
    std::string* outString = nullptr;
  };
  struct Flag : Binding {
    Flag(std::string n, std::string v, std::string h, int* i, double* d,
         std::string* s, bool* b)
        : Binding{std::move(n), std::move(h), i, d, s},
          valueName(std::move(v)),
          outBool(b) {}
    std::string valueName;
    bool* outBool = nullptr;
  };

  Flag* findFlag(const std::string& name) {
    for (Flag& f : flags_)
      if (f.name == name) return &f;
    return nullptr;
  }

  /// One-line error + `--help` hint; sets the exit-1 state.  Returns false
  /// so `parse` can `return fail(...)`.
  bool fail(const std::string& msg) {
    std::fprintf(stderr, "%s: %s (try '%s --help')\n", prog_.c_str(),
                 msg.c_str(), prog_.c_str());
    error_ = true;
    return false;
  }

  /// Binds a value; false when a numeric binding got a token the
  /// whole-token rule rejects (atoi's silent garbage-to-0 was how a typo'd
  /// value used to vanish).
  static bool bind(const Binding& b, const std::string& value) {
    if (b.outInt != nullptr && !parseInt(value, *b.outInt)) return false;
    if (b.outDouble != nullptr && !parseNumber(value, *b.outDouble))
      return false;
    if (b.outString != nullptr) *b.outString = value;
    return true;
  }

  std::string prog_, description_;
  std::vector<Binding> positionals_;
  std::vector<Flag> flags_;
  bool error_ = false;
};

/// The shared `--exec-tier` flag (DESIGN.md §14): declares
/// `--exec-tier TIER` on `args`, defaulting to defaultExecTier() (the
/// ADRES_EXEC_TIER environment override, else native).  resolve() parses
/// the chosen name and throws SimError on an unknown tier, so a typo fails
/// loudly instead of silently benchmarking the wrong loop.
class ExecTierFlag {
 public:
  explicit ExecTierFlag(Args& args)
      : name_(execTierName(defaultExecTier())) {
    args.flag("exec-tier", "TIER",
              "execution tier: reference | native", &name_);
  }
  ExecTier resolve() const { return parseExecTier(name_); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace adres::bench
